"""Dataset handling and full-batch calibration of the potentials.

Calibration minimizes the mean squared error of the analytic uniaxial
tension stress over stretch-stress-parameter tuples, so the potential is
fitted through its derivatives.  The restarts train as the rows of one
(R, P) parameter buffer that every layer's arrays view, by plain full-batch
ADAM followed by projection of the sign-constrained weights onto [0, inf):
both elementwise, one pass over the buffer with one boolean (P,) mask.
Projection is what lets constrained models develop exactly-zero weights.

Datasets live in CSV files with header ``lambda,stress_mpa,param_raw`` and
a JSON sidecar holding the parameter normalization bounds, so raw
manufacturing parameters (Shore hardness, grayscale, ...) round-trip while
models always see parameters in the unit interval.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import constitutive, networks
from .errors import EmptyDatasetError, ShapeMismatchError

__all__ = [
    "Dataset",
    "TrainConfig",
    "CalibrationRecord",
    "AdamState",
    "EvaluationReport",
    "load_dataset",
    "load_datasets",
    "merge_datasets",
    "save_dataset",
    "split_by_parameter",
    "split_by_stretch",
    "generate_synthetic",
    "mse_loss",
    "loss_and_gradient",
    "init_adam",
    "adam_step",
    "calibrate",
    "evaluate",
]


@dataclass
class Dataset:
    """Uniaxial stretch-stress data over one scalar manufacturing parameter.

    ``param_raw`` holds the as-measured parameter values; models consume the
    min-max normalized version exposed by :meth:`params_normalized`.
    ``calibration_indices`` and ``test_indices`` are disjoint and together
    cover every sample.
    """

    lam: np.ndarray
    stress: np.ndarray
    param_raw: np.ndarray
    param_min: float
    param_max: float
    label: str = ""
    source: str = ""
    calibration_indices: np.ndarray = field(default=None)
    test_indices: np.ndarray = field(default=None)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.stress = np.asarray(self.stress, dtype=float)
        self.param_raw = np.asarray(self.param_raw, dtype=float)
        if not (self.lam.shape == self.stress.shape == self.param_raw.shape):
            raise ShapeMismatchError("dataset columns must have equal length")
        if np.any(self.lam <= 0.0) or not np.all(np.isfinite(self.lam)):
            raise ValueError("stretches must be positive and finite")
        bounds = (self.param_min, self.param_max)
        if not np.all(np.isfinite(np.append(self.param_raw, bounds))):
            raise ValueError("parameters must be finite")
        if not np.all(np.isfinite(self.stress)):
            raise ValueError("stresses must be finite")
        n = self.lam.size
        if self.calibration_indices is None:
            self.calibration_indices = np.arange(n)
        if self.test_indices is None:
            self.test_indices = np.array([], dtype=int)
        self.calibration_indices = np.asarray(self.calibration_indices, dtype=int)
        self.test_indices = np.asarray(self.test_indices, dtype=int)
        merged = np.concatenate([self.calibration_indices, self.test_indices])
        if len(np.unique(merged)) != n or merged.size != n:
            raise ValueError("split must be disjoint and cover all samples")

    def __len__(self) -> int:
        return self.lam.size

    def params_normalized(self, raw=None) -> np.ndarray:
        """Min-max normalized parameters with trailing axis of width one."""
        raw = self.param_raw if raw is None else np.asarray(raw, dtype=float)
        span = self.param_max - self.param_min
        if span == 0.0:
            return np.zeros(raw.shape + (1,))
        return ((raw - self.param_min) / span)[..., None]

    def _slice(self, indices):
        return (
            self.lam[indices],
            self.stress[indices],
            self.params_normalized()[indices],
        )

    def calibration_arrays(self):
        return self._slice(self.calibration_indices)


def save_dataset(dataset: Dataset, csv_path) -> None:
    """Write the CSV file and its JSON sidecar next to it."""
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "stress_mpa", "param_raw"])
        for lam, stress, raw in zip(dataset.lam, dataset.stress, dataset.param_raw):
            writer.writerow([repr(float(lam)), repr(float(stress)), repr(float(raw))])
    sidecar = {
        "material_label": dataset.label,
        "param_max": dataset.param_max,
        "param_min": dataset.param_min,
        "source": dataset.source,
    }
    csv_path.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )


def load_dataset(csv_path) -> Dataset:
    """Read a dataset CSV; bounds come from the sidecar, or the data itself."""
    csv_path = Path(csv_path)
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["lambda", "stress_mpa", "param_raw"]:
            raise ValueError(f"unexpected dataset header: {header}")
        values = []
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{csv_path} line {reader.line_num}: "
                                 f"expected 3 fields, got {len(row)}")
            values.append([float(v) for v in row[:3]])
        rows = np.array(values)
    if rows.size == 0:
        raise EmptyDatasetError(f"no samples in {csv_path}")
    sidecar_path = csv_path.with_suffix(".json")
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
        pmin, pmax = sidecar["param_min"], sidecar["param_max"]
        label = sidecar.get("material_label", "")
        source = sidecar.get("source", "")
    else:
        pmin, pmax = float(rows[:, 2].min()), float(rows[:, 2].max())
        label, source = csv_path.stem, ""
    return Dataset(rows[:, 0], rows[:, 1], rows[:, 2], pmin, pmax, label, source)


def merge_datasets(datasets: list) -> Dataset:
    """Concatenate datasets that share normalization bounds.

    Splits are reset; apply them after merging.
    """
    if not datasets:
        raise EmptyDatasetError("nothing to merge")
    first = datasets[0]
    for ds in datasets[1:]:
        if (ds.param_min, ds.param_max) != (first.param_min, first.param_max):
            raise ValueError("datasets disagree on parameter normalization bounds")
    return Dataset(
        np.concatenate([ds.lam for ds in datasets]),
        np.concatenate([ds.stress for ds in datasets]),
        np.concatenate([ds.param_raw for ds in datasets]),
        first.param_min,
        first.param_max,
        first.label,
        first.source,
    )


def load_datasets(paths) -> Dataset:
    """Load one or more CSV files into a single dataset."""
    return merge_datasets([load_dataset(p) for p in paths])


def split_by_parameter(dataset: Dataset, holdout_raw_values, atol=1e-12) -> Dataset:
    """Move samples whose raw parameter matches any holdout value to the test set.

    Raises ``ValueError`` for a holdout value that is not finite or that
    matches no sample, either of which would silently hold out nothing.
    """
    holdout = np.atleast_1d(np.asarray(holdout_raw_values, dtype=float))
    if not np.all(np.isfinite(holdout)):
        raise ValueError(
            f"holdout parameter values must be finite, got {holdout.tolist()}"
        )
    matches = np.abs(dataset.param_raw[:, None] - holdout[None, :]) <= atol
    unmatched = holdout[~matches.any(axis=0)]
    if unmatched.size:
        raise ValueError(
            f"holdout parameter values match no sample: {unmatched.tolist()}"
        )
    mask = matches.any(axis=1)
    return replace(
        dataset,
        calibration_indices=np.flatnonzero(~mask),
        test_indices=np.flatnonzero(mask),
    )


def split_by_stretch(dataset: Dataset, max_calibration_stretch: float) -> Dataset:
    """Hold out samples beyond a stretch threshold (extrapolation studies).

    Raises ``ValueError`` for a non-finite threshold, which would hold out
    nothing (NaN) or compare meaninglessly (infinity).
    """
    if not np.isfinite(max_calibration_stretch):
        raise ValueError(
            f"stretch threshold must be finite, got {max_calibration_stretch}"
        )
    mask = dataset.lam > max_calibration_stretch
    return replace(
        dataset,
        calibration_indices=np.flatnonzero(~mask),
        test_indices=np.flatnonzero(mask),
    )


def generate_synthetic(
    law,
    lam_values,
    param_values,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
    label: str = "synthetic",
    source: str = "",
) -> Dataset:
    """Sample a closed-form law on a stretch grid for several raw parameters.

    The law receives the raw parameter values.  Optional Gaussian noise is
    seeded by the caller; the default is noise-free.  Raises ``ValueError``
    for a noise level that is negative or not finite.
    """
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise level must be finite and >= 0, got {noise_std}")
    lam_values = np.asarray(lam_values, dtype=float)
    param_values = np.atleast_1d(np.asarray(param_values, dtype=float))
    lam = np.tile(lam_values, param_values.size)
    raw = np.repeat(param_values, lam_values.size)
    stress = constitutive.uniaxial_stress(law, lam, raw[:, None])
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("noise requires an explicit rng")
        stress = stress + noise_std * rng.standard_normal(stress.shape)
    return Dataset(
        lam, stress, raw, float(raw.min()), float(raw.max()), label, source
    )


# ---------------------------------------------------------------------------
# loss and optimizer


# ADAM moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch training settings; every run is deterministic in ``seed``."""

    epochs: int
    learning_rate: float = 2e-3
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.restarts < 1:
            raise ValueError("epochs must be >= 0 and restarts >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError("learning rate must be positive and finite")


@dataclass
class CalibrationRecord:
    final_mse: float
    log10_mse: float
    epochs_run: int
    seed: int
    restart_index: int
    rank: int = -1
    diverged: bool = False
    learning_rate: float = 2e-3
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    def to_dict(self) -> dict:
        return asdict(self)


def _log10(x: float) -> float:
    """log10 of an MSE: -inf for an exact fit, NaN for a NaN MSE."""
    if x == 0.0:
        return float("-inf")
    return math.log10(x) if x > 0.0 else float("nan")


def mse_loss(model_or_law, dataset: Dataset) -> float:
    """Mean squared stress error over the calibration slice, in MPa^2."""
    lam, stress, t = dataset.calibration_arrays()
    if lam.size == 0:
        raise EmptyDatasetError("calibration slice is empty")
    law = constitutive.as_law(model_or_law)
    p = constitutive.uniaxial_stress(law, lam, t)
    return float(np.mean((p - stress) ** 2))


def _uniaxial_terms(lam):
    """The epoch-invariant terms of uniaxial tension at the stretches ``lam``:
    the invariants shifted by -3, shape (S, 2), and ``lam - lam^-2``."""
    i1, i2 = constitutive.uniaxial_invariants(lam)
    return np.stack([i1, i2], axis=-1) - 3.0, lam - lam**-2.0


def _loss_and_gradient(model, work, stretch, lam, stress, grads):
    """Losses and gradients; the model's arrays may carry a leading restart axis.

    ``work`` is a ``networks._Workspace`` of ``model`` at the shifted
    invariants of uniaxial tension at the stretches ``lam`` and at the
    samples' parameters, and ``stretch`` is ``lam - lam^-2`` (both from
    :func:`_uniaxial_terms`).  One forward trace yields the stress and is
    reused by the VJP, which writes the gradient into ``grads``, arrays
    aligned with ``networks.parameter_arrays(model)``.  With a restart axis
    R the losses have shape (R,) and every gradient array leads with R.
    """
    g, vjp = networks._stress_vjp(model, work)
    residual = 2.0 * (g[..., 0] + g[..., 1] / lam) * stretch - stress
    losses = np.mean(residual**2, axis=-1)
    scale = (2.0 / lam.size) * residual * 2.0 * stretch
    return losses, vjp(np.stack([scale, scale / lam], axis=-1), grads)


def loss_and_gradient(model, lam, stress, t):
    """Loss plus its gradient w.r.t. every trainable array.

    The gradient flows through the stress formula, i.e. through the
    invariant derivatives of the potential, not through the potential value.
    """
    if lam.size == 0:
        raise EmptyDatasetError("calibration slice is empty")
    zinv, stretch = _uniaxial_terms(lam)
    grads = [np.empty(a.shape) for a in networks.parameter_arrays(model)]
    loss, grads = _loss_and_gradient(model, networks._Workspace(model, zinv, t), stretch,
                                     lam, stress, grads)
    return float(loss), grads


@dataclass
class AdamState:
    """Step count and moment estimates, shaped like the flat parameters."""

    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam(model) -> AdamState:
    size = networks.parameter_count(model)
    return AdamState(0, np.zeros(size), np.zeros(size))


def _flat(arrays):
    """``arrays`` end to end along one axis."""
    return np.concatenate([a.reshape(-1) for a in arrays])


def adam_step(model, grads, state: AdamState, config: TrainConfig) -> AdamState:
    """One bias-corrected ADAM update followed by weight projection, which
    clamps constrained weights to ``max(w, 0)`` so infeasible updates land
    exactly on zero.  The model's layers are rebound to views of the updated
    parameters.  Returns the advanced optimizer state."""
    params = _flat(networks.parameter_arrays(model))
    _adam_update(params, _flat(grads), networks.constraint_mask(model), state, config)
    model.layers = networks.with_buffer(model, params).layers
    return state


def _adam_update(params, grad, mask, state: AdamState, config: TrainConfig, frozen=None):
    """:func:`adam_step` on flat parameters (..., P) in place, with the (P,)
    constraint ``mask``; the rows flagged in ``frozen`` keep their values."""
    state.step += 1
    b1c = 1.0 - ADAM_BETA1**state.step
    b2c = 1.0 - ADAM_BETA2**state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad**2
    step = config.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    if frozen is not None:
        step[frozen] = 0.0
    params -= step
    np.maximum(params, 0.0, out=params, where=mask)


def _stack(models):
    """One model whose arrays view one (R, P) buffer, row r from ``models[r]``."""
    rows = [_flat(networks.parameter_arrays(m)) for m in models]
    return networks.with_buffer(models[0], np.stack(rows))


def _train(models, lam, stress, t, config: TrainConfig) -> np.ndarray:
    """Train the restarts ``models`` together: an epoch is one forward trace,
    one VJP and one ADAM update for all.  A restart whose loss turns
    non-finite is frozen from that epoch on, keeping the arrays that gave
    that loss.  Each model ends up viewing its row of the parameter buffer.
    Returns the number of completed epochs per restart."""
    params = np.stack([_flat(networks.parameter_arrays(m)) for m in models])
    stack, mask = networks.with_buffer(models[0], params), networks.constraint_mask(models[0])
    state = AdamState(0, np.zeros_like(params), np.zeros_like(params))
    active = np.ones(len(models), dtype=bool)
    epochs_run = np.zeros(len(models), dtype=int)
    zinv, stretch = _uniaxial_terms(lam)
    # the epoch's arrays: one workspace, and the gradient as views of one
    # (R, P) buffer that the ADAM update reads
    work, grad = networks._Workspace(stack, zinv, t), np.empty_like(params)
    grads = networks.parameter_arrays(networks.with_buffer(models[0], grad))
    for _ in range(config.epochs):
        losses, _ = _loss_and_gradient(stack, work, stretch, lam, stress, grads)
        active &= np.isfinite(losses)
        if not active.any():
            break
        _adam_update(params, grad, mask, state, config, None if active.all() else ~active)
        epochs_run += active
    for model, row in zip(models, params):
        model.layers = networks.with_buffer(model, row).layers
    return epochs_run


def calibrate(
    dataset: Dataset,
    config: TrainConfig,
    architecture: networks.Architecture,
    nodes: int,
) -> list[tuple[networks.PotentialModel, CalibrationRecord]]:
    """Run independent restarts and return (model, record) pairs, best first.

    Restart seeds are spawned deterministically from ``config.seed``, and the
    restarts train together (see :func:`_train`); a non-finite loss stops
    that restart and flags its record as diverged.
    """
    lam, stress, t = dataset.calibration_arrays()
    if lam.size == 0:
        raise EmptyDatasetError("calibration slice is empty")
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    models = [
        networks.build_model(architecture, nodes, t.shape[1], np.random.default_rng(child))
        for child in children
    ]
    epochs_run = _train(models, lam, stress, t, config)
    results = []
    for idx, (model, epochs) in enumerate(zip(models, epochs_run)):
        # loss after the final step (or the initial loss when epochs == 0)
        final = mse_loss(model, dataset)
        record = CalibrationRecord(
            final_mse=final,
            log10_mse=_log10(final),
            epochs_run=int(epochs),
            seed=config.seed,
            restart_index=idx,
            # a restart stops short of the epoch budget only when it diverges
            diverged=bool(epochs < config.epochs or not np.isfinite(final)),
            learning_rate=config.learning_rate,
        )
        results.append((model, record))
    results.sort(key=lambda pair: (pair[1].diverged, pair[1].final_mse))
    for rank, (model, record) in enumerate(results):
        record.rank = rank
        model.metadata["calibration"] = record.to_dict()
        model.metadata.setdefault("dataset_label", dataset.label)
    return results


@dataclass
class EvaluationReport:
    """Per-sample residual table over the test slice, plus the aggregate."""

    rows: list
    mse: float | None
    defined: bool

    @property
    def log10_mse(self) -> float | None:
        return None if self.mse is None else _log10(self.mse)


def evaluate(model_or_law, dataset: Dataset, slice_: str = "test") -> EvaluationReport:
    """Pure evaluation of a law on the chosen slice, ``"test"`` or
    ``"calibration"``; no mutation anywhere."""
    if slice_ not in ("test", "calibration"):
        raise ValueError(f"slice must be 'test' or 'calibration', got {slice_!r}")
    indices = (
        dataset.test_indices if slice_ == "test" else dataset.calibration_indices
    )
    lam, stress, t = dataset._slice(indices)
    if lam.size == 0:
        return EvaluationReport([], None, False)
    law = constitutive.as_law(model_or_law)
    p = constitutive.uniaxial_stress(law, lam, t)
    rows = [
        {
            "lambda": float(l),
            "param_raw": float(dataset.param_raw[i]),
            "P_data": float(s),
            "P_model": float(pm),
            "residual": float(pm - s),
        }
        for l, s, pm, i in zip(lam, stress, p, indices)
    ]
    return EvaluationReport(rows, float(np.mean((p - stress) ** 2)), True)
