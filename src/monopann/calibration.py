"""Dataset handling and full-batch calibration of the potentials.

Calibration minimizes the mean squared error of the analytic uniaxial
tension stress over stretch-stress-parameter tuples, so the potential is
fitted through its derivatives.  The restarts train as the rows of one
(R, P) parameter buffer that every layer's arrays view, by plain full-batch
ADAM followed by projection of the sign-constrained weights onto [0, inf):
both elementwise, one pass over the buffer, the projection one maximum with
a floor that is 0 at the constrained entries and -inf at the others.
Projection is what lets constrained models develop exactly-zero weights.

Datasets live in CSV files with header ``lambda,stress_mpa,param_raw`` and
a JSON sidecar holding the parameter normalization bounds, so raw
manufacturing parameters (Shore hardness, grayscale, ...) round-trip while
models always see parameters in the unit interval.
"""

import csv
import json
import math
import operator
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
    """Read a dataset CSV; bounds come from the sidecar, or the data itself.

    Raises ``ValueError`` naming the file for a sidecar that is not valid
    JSON, not an object, or whose ``param_min`` or ``param_max`` is missing
    or not a finite number.
    """
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
            try:
                values.append([float(v) for v in row[:3]])
            except ValueError as exc:
                raise ValueError(f"{csv_path} line {reader.line_num}: {exc}") from None
        rows = np.array(values)
    if rows.size == 0:
        raise EmptyDatasetError(f"no samples in {csv_path}")
    sidecar_path = csv_path.with_suffix(".json")
    if sidecar_path.exists():
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar_path}: {exc}") from None
        if not isinstance(sidecar, dict):
            raise ValueError(f"{sidecar_path}: sidecar is not a JSON object")
        missing = [key for key in ("param_min", "param_max") if key not in sidecar]
        if missing:
            raise ValueError(f"{sidecar_path}: sidecar has no {', '.join(missing)}")
        for key in ("param_min", "param_max"):
            value = sidecar[key]
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"{sidecar_path}: {key} is not a finite number: "
                                 f"{json.dumps(value)}")
        pmin, pmax = sidecar["param_min"], sidecar["param_max"]
        if pmin > pmax:
            raise ValueError(f"{sidecar_path}: param_min {pmin} exceeds param_max {pmax}")
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


def split_by_parameter(dataset: Dataset, holdout_raw_values) -> Dataset:
    """Move samples whose raw parameter is within 1e-12 of a holdout value to the test set.

    Raises ``ValueError`` for a holdout value that is not finite or that
    matches no sample, either of which would silently hold out nothing.
    """
    holdout = np.atleast_1d(np.asarray(holdout_raw_values, dtype=float))
    if not np.all(np.isfinite(holdout)):
        raise ValueError(
            f"holdout parameter values must be finite, got {holdout.tolist()}"
        )
    matches = np.abs(dataset.param_raw[:, None] - holdout[None, :]) <= 1e-12
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
        for name in ("epochs", "restarts"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
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
    learning_rate: float = TrainConfig.learning_rate
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


class _Epoch:
    """The arrays that a loss and gradient evaluation of ``model`` on the
    stretches ``lam``, stresses ``stress`` and parameters ``t`` writes or
    reads, built once; ``_train`` builds one per run, so that no epoch
    allocates an array.

    ``work`` is a ``networks._Workspace`` at the shifted invariants of
    uniaxial tension.  ``lam``, ``stretch`` (``2 (lam - lam^-2)``, see
    :func:`_uniaxial_terms`; the 2 of the stress and of its derivative,
    exact as a power of two) and ``stress`` are repeated along the leading
    axes of ``model``'s arrays, so that they have the shape of the stress
    residual and of its square: numpy runs an operation between arrays of
    one shape without an iteration buffer.  ``losses`` drops the sample
    axis, and the cotangent ``cot`` of the stress coefficients adds a
    trailing axis of 2.  These seven arrays are the views of one
    ``networks._arena``, each starting at a 64-byte boundary.  The VJP
    writes the gradient into ``grads``, arrays aligned with
    ``networks.parameter_arrays(model)``.
    """

    def __init__(self, model, lam, stress, t, grads):
        zinv, stretch = _uniaxial_terms(lam)
        self.work, self.grads = networks._Workspace(model, zinv, t), grads
        lead, self.samples = model.layers[-1].weights.shape[:-2], lam.size
        (self.lam, self.stretch, self.stress, self.residual, self.square, self.losses,
         self.cot) = networks._arena([(5, (*lead, lam.size)), (1, lead),
                                      (1, (*lead, lam.size, 2))])
        self.lam[...], self.stress[...] = lam, stress
        np.multiply(stretch, 2.0, out=self.stretch)


def _losses(epoch: _Epoch, g):
    """The mean squared stress error per row, from the stress coefficients
    ``g``; the uniaxial stress and its mean take the operations of
    ``constitutive.uniaxial_stress`` and ``np.mean``, the stress's 2 taken
    with ``epoch.stretch`` (exact), so each row's loss equals
    :func:`mse_loss` of that row's model.  Returns ``epoch.losses``."""
    residual = np.divide(g[..., 1], epoch.lam, out=epoch.residual)
    np.add(g[..., 0], residual, out=residual)
    residual *= epoch.stretch
    residual -= epoch.stress
    np.add.reduce(np.square(residual, out=epoch.square), axis=-1, out=epoch.losses)
    epoch.losses /= epoch.samples
    return epoch.losses


def _loss_and_gradient(model, epoch: _Epoch):
    """Losses and gradients; the model's arrays may carry a leading restart axis.

    One forward trace in ``epoch.work`` yields the stress and is reused by
    the VJP, which writes the gradient into ``epoch.grads``; the residual,
    the losses and the cotangent go into the other arrays of ``epoch``
    (an :class:`_Epoch` of ``model``), so no array is allocated.  With a
    restart axis R the losses have shape (R,) and every gradient array
    leads with R.  Both results view ``epoch``.
    """
    g, vjp = networks._stress_vjp(model, epoch.work)
    losses = _losses(epoch, g)
    # d loss / d g: (2 / S) residual 2 (lam - lam^-2), and that over lam
    scale = np.multiply(epoch.residual, 2.0 / epoch.samples, out=epoch.cot[..., 0])
    scale *= epoch.stretch
    np.divide(scale, epoch.lam, out=epoch.cot[..., 1])
    return losses, vjp(epoch.cot, epoch.grads)


def loss_and_gradient(model, lam, stress, t):
    """Loss plus its gradient w.r.t. every trainable array.

    The gradient flows through the stress formula, i.e. through the
    invariant derivatives of the potential, not through the potential value.
    """
    if lam.size == 0:
        raise EmptyDatasetError("calibration slice is empty")
    grads = [np.empty(a.shape) for a in networks.parameter_arrays(model)]
    loss, grads = _loss_and_gradient(model, _Epoch(model, lam, stress, t, grads))
    return float(loss), grads


@dataclass
class AdamState:
    """Step count and moment estimates, shaped like the flat parameters,
    and two arrays of that shape that hold the update's intermediates, the
    views of one ``networks._arena``.  :func:`init_adam` and the training
    run take the moments from an arena as well, so every array the update
    reads or writes starts at a 64-byte boundary."""

    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = tuple(networks._arena([(2, np.shape(self.m))]))


def init_adam(model) -> AdamState:
    m, v = networks._arena([(2, (networks.parameter_count(model),))])
    m[...], v[...] = 0.0, 0.0
    return AdamState(0, m, v)


def _flat(arrays):
    """``arrays`` end to end along one axis."""
    return np.concatenate([a.reshape(-1) for a in arrays])


def adam_step(model, grads, state: AdamState, config: TrainConfig) -> AdamState:
    """One bias-corrected ADAM update followed by weight projection, which
    clamps constrained weights to ``max(w, 0)`` so infeasible updates land
    exactly on zero.  The model's layers are rebound to views of the updated
    parameters.  Returns the advanced optimizer state."""
    params = _flat(networks.parameter_arrays(model))
    _adam_update(params, _flat(grads), _floor(model), state, config)
    model.layers = networks.with_buffer(model, params).layers
    return state


def _floor(model):
    """The (P,) projection floor of ``model``'s flat parameters: 0 at the
    sign-constrained entries of ``networks.constraint_mask`` and -inf at the
    others, where ``max(w, -inf)`` is ``w`` itself, NaN and -0.0 included."""
    return np.where(networks.constraint_mask(model), 0.0, -np.inf)


def _adam_update(params, grad, floor, state: AdamState, config: TrainConfig, frozen=None):
    """:func:`adam_step` on flat parameters (..., P) in place, projected onto
    ``floor`` (see :func:`_floor`), which broadcasts against them; the rows
    flagged in ``frozen`` keep their values.  Every intermediate goes into
    ``state.scratch``, so no array is allocated unless a row is frozen."""
    state.step += 1
    b1c = 1.0 - ADAM_BETA1**state.step
    b2c = 1.0 - ADAM_BETA2**state.step
    m, v, (step, root) = state.m, state.v, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.square(grad, out=step), 1.0 - ADAM_BETA2, out=step)
    # lr (m / b1c) / (sqrt(v / b2c) + eps)
    np.multiply(np.divide(m, b1c, out=step), config.learning_rate, out=step)
    step /= np.add(np.sqrt(np.divide(v, b2c, out=root), out=root), ADAM_EPS, out=root)
    if frozen is not None:
        step[frozen] = 0.0
    params -= step
    # a floor rather than where= over the constrained entries: numpy's masked
    # loop took about 8 us at (R, P) = (5, 112), this maximum about 1 us
    np.maximum(params, floor, out=params)


def _train(models, lam, stress, t, config: TrainConfig):
    """Train the restarts ``models`` together: an epoch is one forward trace,
    one VJP and one ADAM update for all, and allocates no array while every
    loss is finite.  A restart whose loss turns non-finite is frozen from
    that epoch on, keeping the arrays that gave that loss.  Each model ends
    up viewing its row of the parameter buffer.  Returns the number of
    completed epochs per restart and the loss per restart after the last
    update, from one more trace."""
    # (R, P) views: the parameters, in an arena of their own, since the
    # trained models go on viewing them; the projection floor, the gradient
    # that the ADAM update reads and the ADAM moments share another
    rows = (len(models), networks.parameter_count(models[0]))
    (params,) = networks._arena([(1, rows)])
    floor, grad, m, v = networks._arena([(4, rows)])
    params[...] = [_flat(networks.parameter_arrays(model)) for model in models]
    floor[...] = _floor(models[0])
    m[...], v[...] = 0.0, 0.0
    stack = networks.with_buffer(models[0], params)
    state = AdamState(0, m, v)
    # the epoch's arrays, the gradient as views of grad
    epoch = _Epoch(stack, lam, stress, t,
                   networks.parameter_arrays(networks.with_buffer(models[0], grad)))
    active, frozen = np.ones(len(models), dtype=bool), None
    epochs_run = np.full(len(models), config.epochs)
    for k in range(config.epochs):
        losses, _ = _loss_and_gradient(stack, epoch)
        # no loss is negative, so the largest is finite exactly when all are
        if not math.isfinite(np.maximum.reduce(losses)):
            finite = np.isfinite(losses)
            epochs_run[active & ~finite] = k
            active &= finite
            if not active.any():
                break
            frozen = ~active
        _adam_update(params, grad, floor, state, config, frozen)
    for model, row in zip(models, params):
        model.layers = networks.with_buffer(model, row).layers
    return epochs_run, _losses(epoch, networks._coefficients(stack, epoch.work))


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
    epochs_run, losses = _train(models, lam, stress, t, config)
    results = []
    for idx, (model, epochs, final) in enumerate(zip(models, epochs_run, losses.tolist())):
        # final is mse_loss(model, dataset), after the final step (or the
        # initial loss when epochs == 0)
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
