"""Shallow feed-forward potentials with sign-constrained weights.

Four architectures are provided.  All take the isochoric invariant pair
(shifted by -3 so the reference state maps to the origin) and a parameter
vector, and return a scalar potential in MPa:

* ``MONOTONIC`` - tanh(n) -> softplus(n) -> linear, every weight
  non-negative.  Monotonically increasing in invariants and parameters.
* ``CONVEX_MONOTONIC`` - the parameter vector feeds a tanh branch whose
  output joins the shifted invariants in a softplus layer; every weight
  non-negative.  Convex in the invariants, monotonic in everything.
* ``UNRESTRICTED_2HL`` / ``UNRESTRICTED_1HL`` - the same stacks with free
  weights (and one hidden layer for the 1HL variant).

All derivatives used downstream (first and second order in the inputs, and
the parameter-side vector-Jacobian product of the stress coefficients) come
from one engine that every architecture and depth shares: the reverse rule
``r <- (r o sigma'(a_k)) W_k`` and a forward tangent
``a'_k = (sigma'(a_{k-1}) o a'_{k-1}) W_k^T`` with one reverse sweep over it.
The architectures differ only in which hidden layer first reads the invariants.

Every entry point is batched: invariants have shape (..., 2) and parameters
shape (..., m), and the two broadcast against each other.
"""

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConstraintViolationError, ShapeMismatchError

__all__ = [
    "Activation",
    "Constraint",
    "Architecture",
    "Layer",
    "PotentialModel",
    "build_model",
    "forward_batch",
    "invariant_gradients_batch",
    "parameter_gradients_batch",
    "invariant_hessians_batch",
    "invariant_gradient_vjp",
    "parameter_arrays",
    "constraint_masks",
    "parameter_count",
    "expected_parameter_count",
    "sparsity",
    "validate",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

ZERO_WEIGHT_THRESHOLD = 1e-8


class Activation(Enum):
    TANH = "tanh"
    SOFTPLUS = "softplus"
    LINEAR = "linear"


class Constraint(Enum):
    FREE = "free"
    NON_NEGATIVE = "non_negative"


class Architecture(Enum):
    CONVEX_MONOTONIC = "convex_monotonic"
    MONOTONIC = "monotonic"
    UNRESTRICTED_1HL = "unrestricted_1hl"
    UNRESTRICTED_2HL = "unrestricted_2hl"


CONSTRAINED_ARCHITECTURES = (Architecture.CONVEX_MONOTONIC, Architecture.MONOTONIC)


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(x):
    # overflow-safe: max(x, 0) + log1p(exp(-|x|))
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _act(kind: Activation, x):
    if kind is Activation.TANH:
        return np.tanh(x)
    if kind is Activation.SOFTPLUS:
        return _softplus(x)
    return x


def _act_d1(kind: Activation, x):
    if kind is Activation.TANH:
        return 1.0 - np.tanh(x) ** 2
    if kind is Activation.SOFTPLUS:
        return _sigmoid(x)
    return np.ones_like(x)


def _act_d2(kind: Activation, x):
    if kind is Activation.TANH:
        t = np.tanh(x)
        return -2.0 * t * (1.0 - t**2)
    if kind is Activation.SOFTPLUS:
        s = _sigmoid(x)
        return s * (1.0 - s)
    return np.zeros_like(x)


@dataclass
class Layer:
    """Dense layer; ``bias`` is None for the linear output layer."""

    weights: np.ndarray
    bias: np.ndarray | None
    activation: Activation
    constraint: Constraint


@dataclass
class PotentialModel:
    architecture: Architecture
    nodes: int
    param_dim: int
    layers: list[Layer]
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# construction


def _glorot(rng: np.random.Generator, shape, constrained: bool) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-limit, limit, size=shape)
    # constrained layers start from |w| so the initial model is feasible
    return np.abs(w) if constrained else w


def _layer_plan(architecture: Architecture, nodes: int, param_dim: int):
    """``(shape, activation, constrained)`` of every layer, the output last."""
    n, m = nodes, param_dim
    if architecture is Architecture.CONVEX_MONOTONIC:
        hidden = [((n, m), Activation.TANH), ((n, 2 + n), Activation.SOFTPLUS)]
    elif architecture is Architecture.UNRESTRICTED_1HL:
        hidden = [((n, 2 + m), Activation.TANH)]
    elif architecture in (Architecture.MONOTONIC, Architecture.UNRESTRICTED_2HL):
        hidden = [((n, 2 + m), Activation.TANH), ((n, n), Activation.SOFTPLUS)]
    else:
        raise ValueError(f"unknown architecture: {architecture}")
    constrained = architecture in CONSTRAINED_ARCHITECTURES
    return [(shape, kind, constrained) for shape, kind in [*hidden, ((1, n), Activation.LINEAR)]]


def build_model(
    architecture: Architecture,
    nodes: int,
    param_dim: int,
    rng: np.random.Generator,
    metadata: dict | None = None,
) -> PotentialModel:
    """Create a freshly initialized model.

    Free weights are Glorot-uniform; sign-constrained weights take the
    absolute value of the same draw; biases start at zero.  The linear
    output layer carries no bias.
    """
    if nodes < 1 or param_dim < 1:
        raise ShapeMismatchError("nodes and param_dim must be positive")
    layers = []
    plan = _layer_plan(architecture, nodes, param_dim)
    for idx, (shape, activation, constrained) in enumerate(plan):
        w = _glorot(rng, shape, constrained)
        bias = None if idx == len(plan) - 1 else np.zeros(shape[0])
        constraint = Constraint.NON_NEGATIVE if constrained else Constraint.FREE
        layers.append(Layer(w, bias, activation, constraint))
    return PotentialModel(architecture, nodes, param_dim, layers, metadata or {})


def expected_parameter_count(architecture: Architecture, nodes: int, param_dim: int) -> int:
    """Closed-form parameter count: n(m+4) with one hidden layer, else n^2 + n(m+5)."""
    n, m = nodes, param_dim
    if architecture is Architecture.UNRESTRICTED_1HL:
        return n * (m + 4)
    return n * n + n * (m + 5)


def parameter_count(model: PotentialModel) -> int:
    return sum(a.size for a in parameter_arrays(model))


def parameter_arrays(model: PotentialModel) -> list[np.ndarray]:
    """Flat list of the trainable arrays, in layer order (weights then bias)."""
    out = []
    for layer in model.layers:
        out.append(layer.weights)
        if layer.bias is not None:
            out.append(layer.bias)
    return out


def constraint_masks(model: PotentialModel) -> list[bool]:
    """Per-array flags marking which entries are clamped to [0, inf).

    Only weights are sign-constrained; biases stay free.
    """
    out = []
    for layer in model.layers:
        out.append(layer.constraint is Constraint.NON_NEGATIVE)
        if layer.bias is not None:
            out.append(False)
    return out


def sparsity(model: PotentialModel, threshold: float = ZERO_WEIGHT_THRESHOLD):
    """Count parameters with magnitude above ``threshold``.

    Returns ``(nonzero_count, total_count)``.  Projection during training
    produces exact zeros, so the threshold is only a safety margin.
    """
    arrays = parameter_arrays(model)
    nonzero = sum(int(np.count_nonzero(np.abs(a) > threshold)) for a in arrays)
    return nonzero, parameter_count(model)


# ---------------------------------------------------------------------------
# evaluation


def _as_batch(model: PotentialModel, inv, par):
    inv = np.asarray(inv, dtype=float)
    par = np.asarray(par, dtype=float)
    if inv.shape[-1:] != (2,):
        raise ShapeMismatchError("invariants must have trailing shape (2,)")
    if par.shape[-1:] != (model.param_dim,):
        raise ShapeMismatchError(f"parameter vector must have trailing shape ({model.param_dim},)")
    lead = np.broadcast_shapes(inv.shape[:-1], par.shape[:-1])
    inv = np.broadcast_to(inv, lead + (2,))
    par = np.broadcast_to(par, lead + (model.param_dim,))
    return inv.reshape(-1, 2), par.reshape(-1, model.param_dim), lead


def _dense(x, layer: Layer):
    """``x W^T + b`` for one layer; its arrays may carry a leading restart axis."""
    return x @ np.swapaxes(layer.weights, -1, -2) + layer.bias[..., None, :]


# The engine's rules, for hidden layers k with input x_k, pre-activation a_k
# and activation slopes s', s'' at a_k; the entry layer e reads
# ``(I - 3, previous output)`` and psi is the last output times the row w.
# * reverse: ``r <- (r o s') W_k`` from ``r = w``; at layer e the first two
#   columns split off as d psi / d I.  ``r_k`` is r on layer k's output.
# * tangent along a cotangent c: ``a'_e = c W_e[:, :2]^T``,
#   ``a'_k = (s'_{k-1} o a'_{k-1}) W_k^T``.
# * VJP, sweeping down from ``xbar = 0`` (x' is the tangent of x_k, c at
#   layer e): ``ahat = s' o r_k``, ``abar = s' o xbar + s'' o a' o r_k``,
#   ``Wbar = abar^T x + ahat^T x'``, ``bbar = sum_s abar``, ``xbar <- abar W``;
#   the output row gets ``sum_s s' o a'`` of the last layer.
# * Hessian: ``sum_{k >= e} A_k^T diag(s'' o r_k) A_k`` with
#   ``A_e = W_e[:, :2]`` and ``A_k = (s'_{k-1} o W_k) A_{k-1}``.
# The arrays may carry a leading restart axis, against which inputs broadcast.


def _entry(model: PotentialModel) -> int:
    """Index of the first hidden layer that reads the invariants."""
    return 1 if model.architecture is Architecture.CONVEX_MONOTONIC else 0


def _trace(model: PotentialModel, zinv: np.ndarray, par: np.ndarray):
    """Each hidden layer's input and pre-activation, and the last output."""
    entry, x, inputs, pre = _entry(model), par, [], []
    for k, layer in enumerate(model.layers[:-1]):
        if k == entry:
            x = np.concatenate([np.broadcast_to(zinv, x.shape[:-1] + (2,)), x], axis=-1)
        inputs.append(x)
        pre.append(_dense(x, layer))
        x = _act(layer.activation, pre[-1])
    return inputs, pre, x


def _slopes(model: PotentialModel, pre, d=_act_d1):
    """An activation derivative ``d`` at every hidden pre-activation."""
    return [d(layer.activation, a) for layer, a in zip(model.layers, pre)]


def _reverse(model: PotentialModel, slopes, stop: int):
    """The reverse rule down to layer ``stop``: returns d psi / d I, the
    adjoint of the input of layer ``stop`` past the invariant columns, and
    the adjoints ``r_k`` of the layers' outputs (None below ``stop``)."""
    entry, r = _entry(model), model.layers[-1].weights
    adjoints = [None] * len(slopes)
    for k in range(len(slopes) - 1, stop - 1, -1):
        adjoints[k] = r
        r = (r * slopes[k]) @ model.layers[k].weights
        if k == entry:
            grad, r = r[..., :2], r[..., 2:]
    return grad, r, adjoints


def forward_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Potential values for batched invariant/parameter inputs."""
    inv, par, lead = _as_batch(model, inv, par)
    psi = _trace(model, inv - 3.0, par)[2] @ model.layers[-1].weights[..., 0, :]
    return psi.reshape(lead)


def _stress_vjp(model: PotentialModel, zinv: np.ndarray, par: np.ndarray):
    """Stress coefficients d psi / d I, shape (..., S, 2), and their VJP.

    ``zinv`` (S, 2) are the invariants shifted by -3 and ``par`` (S, m) the
    parameters.  The VJP maps a cotangent (..., S, 2) to the parameter-side
    gradient of ``sum_s cotangent[s] . coefficients[s]``, a list aligned with
    :func:`parameter_arrays`.  One forward trace serves both, and the model's
    arrays may carry a leading restart axis (see above).
    """
    entry, hidden = _entry(model), model.layers[:-1]
    inputs, pre, _ = _trace(model, zinv, par)
    slopes = _slopes(model, pre)
    grad, _, adjoints = _reverse(model, slopes, entry)

    def vjp(cot):
        curvatures = _slopes(model, pre, _act_d2)
        # tangents a' of the pre-activations and s' o a' of the outputs
        a_dots, x_dots = [None] * len(hidden), [None] * len(hidden)
        a_dot = cot @ np.swapaxes(hidden[entry].weights[..., :2], -1, -2)
        for k in range(entry, len(hidden)):
            if k > entry:
                a_dot = x_dots[k - 1] @ np.swapaxes(hidden[k].weights, -1, -2)
            a_dots[k], x_dots[k] = a_dot, slopes[k] * a_dot
        grads = [x_dots[-1].sum(axis=-2)[..., None, :]]
        x_bar = 0.0
        for k in range(len(hidden) - 1, -1, -1):
            a_bar = slopes[k] * x_bar
            if k >= entry:
                a_hat = slopes[k] * adjoints[k]
                a_bar = a_bar + curvatures[k] * a_dots[k] * adjoints[k]
            w_bar = np.swapaxes(a_bar, -1, -2) @ inputs[k]
            if k > entry:
                w_bar += np.swapaxes(a_hat, -1, -2) @ x_dots[k - 1]
            elif k == entry:
                w_bar[..., :2] += np.swapaxes(a_hat, -1, -2) @ cot
            grads[:0] = [w_bar, a_bar.sum(axis=-2)]
            if k:
                x_bar = (a_bar @ hidden[k].weights)[..., 2 if k == entry else 0:]
        return grads

    return grad, vjp


def invariant_gradients_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Stress coefficients (d psi / d I1, d psi / d I2), shape (..., 2)."""
    inv, par, lead = _as_batch(model, inv, par)
    g, _ = _stress_vjp(model, inv - 3.0, par)
    return g.reshape(lead + (2,))


def parameter_gradients_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """d psi / d t, shape (..., m)."""
    inv, par, lead = _as_batch(model, inv, par)
    _, pre, _ = _trace(model, inv - 3.0, par)
    g = _reverse(model, _slopes(model, pre), 0)[1]
    return g.reshape(g.shape[:-2] + lead + (model.param_dim,))


def _weighted_gram(c, w):
    """``sum_i c_i w_ia w_ib``, shape (..., 2, 2), for ``c`` (..., n), ``w`` (..., n, 2)."""
    return (c[..., None, :] * np.swapaxes(w, -1, -2)) @ w


def invariant_hessians_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Symmetric 2x2 Hessian in the invariants, shape (..., 2, 2).

    Each hidden layer from the entry layer on contributes one weighted Gram
    matrix ``A^T diag(c) A`` (see above): ``A`` maps the invariants into the
    layer's pre-activation and ``c`` is its activation's second derivative
    times the derivative of psi in the layer's output.
    """
    inv, par, lead = _as_batch(model, inv, par)
    entry, hidden = _entry(model), model.layers[:-1]
    _, pre, _ = _trace(model, inv - 3.0, par)
    slopes = _slopes(model, pre)
    curvatures = _slopes(model, pre, _act_d2)
    adjoints = _reverse(model, slopes, entry)[2]
    jac = hidden[entry].weights[..., None, :, :2]
    h = _weighted_gram(curvatures[entry] * adjoints[entry], jac)
    for k in range(entry + 1, len(hidden)):
        jac = (slopes[k - 1][..., None, :] * hidden[k].weights[..., None, :, :]) @ jac
        h += _weighted_gram(curvatures[k] * adjoints[k], jac)
    return h.reshape(h.shape[:-3] + lead + (2, 2))


def invariant_gradient_vjp(model: PotentialModel, inv, par, cotangent) -> list[np.ndarray]:
    """Parameter-side gradient of ``sum_s cotangent[s] . d psi / d I [s]``.

    ``cotangent`` has shape (..., 2).  The result is a list of arrays aligned
    with :func:`parameter_arrays`; it is what full-batch training through the
    uniaxial stress needs.
    """
    inv, par, lead = _as_batch(model, inv, par)
    cot = np.asarray(cotangent, dtype=float).reshape(-1, 2)
    if cot.shape[0] != inv.shape[0]:
        raise ShapeMismatchError("cotangent batch does not match input batch")
    return _stress_vjp(model, inv - 3.0, par)[1](cot)


# ---------------------------------------------------------------------------
# validation and serialization


def validate(model: PotentialModel) -> None:
    """Audit shapes, activation pattern, finiteness and sign constraints.

    Raises :class:`ShapeMismatchError` on a structural mismatch and
    :class:`ConstraintViolationError` if any weight or bias is not finite or
    any constrained weight is negative (the check is exact; projection
    leaves no tolerance to grant).
    """
    plan = _layer_plan(model.architecture, model.nodes, model.param_dim)
    if len(plan) != len(model.layers):
        raise ShapeMismatchError("layer count does not match architecture")
    for idx, ((shape, activation, constrained), layer) in enumerate(zip(plan, model.layers)):
        if layer.weights.shape != shape:
            raise ShapeMismatchError(f"layer {idx}: weights {layer.weights.shape} != {shape}")
        bias = None if idx == len(plan) - 1 else (shape[0],)
        got = None if layer.bias is None else layer.bias.shape
        if got != bias:
            raise ShapeMismatchError(f"layer {idx}: bias shape {got} != expected {bias}")
        if layer.activation is not activation:
            raise ShapeMismatchError(f"layer {idx}: activation must be {activation}")
        expected_constraint = Constraint.NON_NEGATIVE if constrained else Constraint.FREE
        if layer.constraint is not expected_constraint:
            raise ShapeMismatchError(f"layer {idx}: constraint must be {expected_constraint}")
        for name, values in (("w", layer.weights), ("b", layer.bias)):
            if values is not None and not np.all(np.isfinite(values)):
                raise ConstraintViolationError(f"layer {idx}: non-finite value in '{name}'")
        if layer.constraint is Constraint.NON_NEGATIVE and np.any(layer.weights < 0.0):
            raise ConstraintViolationError(f"layer {idx}: negative constrained weight")
    total = parameter_count(model)
    expected = expected_parameter_count(model.architecture, model.nodes, model.param_dim)
    if total != expected:
        raise ShapeMismatchError(f"parameter count {total} != expected {expected}")


def model_to_json(model: PotentialModel) -> str:
    """Serialize to JSON with deterministic field order and exact values.

    Document shape: ``{architecture, n, m, layers: [{w, b, constraint,
    activation}], metadata}``; ``b`` is null for the output layer.
    """
    doc = {
        "architecture": model.architecture.value,
        "n": model.nodes,
        "m": model.param_dim,
        "layers": [
            {
                "w": layer.weights.tolist(),
                "b": None if layer.bias is None else layer.bias.tolist(),
                "activation": layer.activation.value,
                "constraint": layer.constraint.value,
            }
            for layer in model.layers
        ],
        "metadata": model.metadata,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _array(entry: dict, key: str, idx: int) -> np.ndarray:
    try:
        return np.asarray(entry[key], dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatchError(f"layer {idx}: '{key}' is not a numeric array") from None


def model_from_json(text: str) -> PotentialModel:
    """Parse a document of :func:`model_to_json` and :func:`validate` it.

    Raises :class:`ShapeMismatchError` naming a missing key, or the layer
    and array that is not a rectangular array of numbers.
    """
    doc = json.loads(text)
    try:
        layers = [Layer(_array(entry, "w", idx),
                        None if entry["b"] is None else _array(entry, "b", idx),
                        Activation(entry["activation"]), Constraint(entry["constraint"]))
                  for idx, entry in enumerate(doc["layers"])]
        model = PotentialModel(Architecture(doc["architecture"]), int(doc["n"]),
                               int(doc["m"]), layers, doc.get("metadata", {}))
    except KeyError as exc:
        raise ShapeMismatchError(f"model document lacks the key {exc}") from None
    validate(model)
    return model


def save_model(model: PotentialModel, path) -> None:
    Path(path).write_text(model_to_json(model) + "\n")


def load_model(path) -> PotentialModel:
    return model_from_json(Path(path).read_text())
