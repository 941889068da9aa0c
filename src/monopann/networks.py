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

Because the stacks are shallow, all derivatives used downstream (first and
second order in the inputs, and parameter-side vector-Jacobian products for
training through stresses) are spelled out layer by layer instead of going
through an autodiff framework.

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
    n, m = nodes, param_dim
    if architecture is Architecture.CONVEX_MONOTONIC:
        return [
            ((n, m), Activation.TANH, True),
            ((n, 2 + n), Activation.SOFTPLUS, True),
            ((1, n), Activation.LINEAR, True),
        ]
    if architecture is Architecture.MONOTONIC:
        return [
            ((n, 2 + m), Activation.TANH, True),
            ((n, n), Activation.SOFTPLUS, True),
            ((1, n), Activation.LINEAR, True),
        ]
    if architecture is Architecture.UNRESTRICTED_2HL:
        return [
            ((n, 2 + m), Activation.TANH, False),
            ((n, n), Activation.SOFTPLUS, False),
            ((1, n), Activation.LINEAR, False),
        ]
    if architecture is Architecture.UNRESTRICTED_1HL:
        return [
            ((n, 2 + m), Activation.TANH, False),
            ((1, n), Activation.LINEAR, False),
        ]
    raise ValueError(f"unknown architecture: {architecture}")


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
    total = sum(a.size for a in arrays)
    return nonzero, total


# ---------------------------------------------------------------------------
# evaluation


def _as_batch(model: PotentialModel, inv, par):
    inv = np.asarray(inv, dtype=float)
    par = np.asarray(par, dtype=float)
    if inv.shape[-1:] != (2,):
        raise ShapeMismatchError("invariants must have trailing shape (2,)")
    if par.shape[-1:] != (model.param_dim,):
        raise ShapeMismatchError(
            f"parameter vector must have trailing shape ({model.param_dim},)"
        )
    lead = np.broadcast_shapes(inv.shape[:-1], par.shape[:-1])
    inv = np.broadcast_to(inv, lead + (2,))
    par = np.broadcast_to(par, lead + (model.param_dim,))
    return inv.reshape(-1, 2), par.reshape(-1, model.param_dim), lead


def _dense(x, layer: Layer):
    """``x W^T + b`` for one layer; its arrays may carry a leading restart axis."""
    return x @ np.swapaxes(layer.weights, -1, -2) + layer.bias[..., None, :]


def _chain_trace(model: PotentialModel, z: np.ndarray):
    """Forward intermediates for the single-input-stack architectures."""
    acts, pre = [], []
    x = z
    for layer in model.layers[:-1]:
        a = _dense(x, layer)
        pre.append(a)
        x = _act(layer.activation, a)
        acts.append(x)
    return pre, acts, model.layers[-1].weights[..., 0, :]


def _cm_trace(model: PotentialModel, zinv: np.ndarray, zt: np.ndarray):
    """Forward intermediates for the split-input convex architecture."""
    l1, l2, l3 = model.layers
    a1 = _dense(zt, l1)
    x1 = _act(l1.activation, a1)
    w2_inv = l2.weights[..., :2]
    w2_x = l2.weights[..., 2:]
    a2 = (
        zinv @ np.swapaxes(w2_inv, -1, -2)
        + x1 @ np.swapaxes(w2_x, -1, -2)
        + l2.bias[..., None, :]
    )
    x2 = _act(l2.activation, a2)
    return a1, x1, w2_inv, w2_x, a2, x2, l3.weights[..., 0, :]


def forward_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Potential values for batched invariant/parameter inputs."""
    inv, par, lead = _as_batch(model, inv, par)
    zinv = inv - 3.0
    if model.architecture is Architecture.CONVEX_MONOTONIC:
        *_, x2, w3 = _cm_trace(model, zinv, par)
        psi = x2 @ w3
    else:
        z = np.concatenate([zinv, par], axis=-1)
        _, acts, w_out = _chain_trace(model, z)
        psi = acts[-1] @ w_out
    return psi.reshape(lead)


# Each ``*_gradient`` function below runs one forward trace and returns the
# input gradient together with the parameter-side VJP of its invariant part
# (d psi / d I), which reuses that trace.  The model's arrays may carry a
# leading restart axis R; the inputs (S, .) are shared by every restart, and
# the gradient, cotangent (..., S, 2) and VJP results then carry the axis too.
#
# For two hidden layers (weights W1, W2, output row w3; first and second
# activation derivatives t1, t2 of layer 1 and s1, s2 of layer 2) the
# per-sample Jacobian ``u = W2 diag(t1) W1`` of layer 2 is never formed.
# The gradient is ``(r1 o t1) W1`` with ``r1 = (w3 o s1) W2``, and the VJP
# of a cotangent ``cot`` needs ``u`` only through ``q = u[:, :, :2] cot``,
# which is ``(t1 o cw1) W2^T`` with ``cw1 = cot W1[:, :2]^T``.  Each product
# is a matmul batched over the restart axis.


def _one_hidden_gradient(model, z):
    """d psi / d z, shape (..., S, 2 + m), and the VJP of its first two columns."""
    (l1,) = model.layers[:-1]
    (a1,), _, w2 = _chain_trace(model, z)
    t1 = _act_d1(l1.activation, a1)
    grad = np.einsum("...j,...sj,...jk->...sk", w2, t1, l1.weights)

    def vjp(cot):
        t2 = _act_d2(l1.activation, a1)
        cw1 = np.einsum("...sk,...jk->...sj", cot, l1.weights[..., :2])
        dw2 = np.einsum("...sj,...sj->...j", t1, cw1)[..., None, :]
        db1 = w2 * np.einsum("...sj,...sj->...j", t2, cw1)
        dw1 = np.einsum("...sj,...sl->...jl", t2 * cw1, z)
        dw1[..., :2] += np.einsum("...sj,...sa->...ja", t1, cot)
        return [w2[..., None] * dw1, db1, dw2]

    return grad, vjp


def _two_hidden_gradient(model, z):
    """d psi / d z, shape (..., S, 2 + m), and the VJP of its first two columns.

    Factored through layer 2's input (see above): ``r1 = (w3 o s1) W2`` and
    ``grad = (r1 o t1) W1``; the VJP takes ``cw1 = cot W1[:, :2]^T``,
    ``q = (t1 o cw1) W2^T`` and ``r2 = (s2 o q o w3) W2``, and reuses ``r1``.
    """
    l1, l2 = model.layers[:-1]
    (a1, a2), (x1, _), w3 = _chain_trace(model, z)
    w1, w2 = l1.weights, l2.weights
    t1 = _act_d1(l1.activation, a1)
    s1 = _act_d1(l2.activation, a2)
    w3s = w3[..., None, :]
    r1 = (w3s * s1) @ w2
    r1t1 = r1 * t1
    grad = r1t1 @ w1

    def vjp(cot):
        t2 = _act_d2(l1.activation, a1)
        s2 = _act_d2(l2.activation, a2)
        cw1 = cot @ np.swapaxes(w1[..., :2], -1, -2)
        t1cw1 = t1 * cw1
        q = t1cw1 @ np.swapaxes(w2, -1, -2)
        dw3 = np.einsum("...si,...si->...i", s1, q)[..., None, :]
        db2 = w3 * np.einsum("...si,...si->...i", s2, q)
        dw2 = w3[..., None] * (
            np.einsum("...si,...sj->...ij", s2 * q, x1)
            + np.einsum("...si,...sj->...ij", s1, t1cw1)
        )
        r2 = (s2 * q * w3s) @ w2
        inner = t1 * r2 + t2 * cw1 * r1
        db1 = inner.sum(axis=-2)
        dw1 = np.einsum("...sj,...sl->...jl", inner, z)
        dw1[..., :2] += np.einsum("...sj,...sa->...ja", r1t1, cot)
        return [dw1, db1, dw2, db2, dw3]

    return grad, vjp


def _cm_gradient(model, zinv, zt):
    """d psi / d I, shape (..., S, 2), and its VJP."""
    l1, l2, _ = model.layers
    a1, x1, w2_inv, w2_x, a2, _, w3 = _cm_trace(model, zinv, zt)
    s1 = _act_d1(l2.activation, a2)
    g = np.einsum("...i,...si,...ia->...sa", w3, s1, w2_inv)

    def vjp(cot):
        t1 = _act_d1(l1.activation, a1)
        s2 = _act_d2(l2.activation, a2)
        w3s = w3[..., None, :]
        e = np.einsum("...sa,...ia->...si", cot, w2_inv)
        dw3 = np.einsum("...si,...si->...i", s1, e)[..., None, :]
        db2 = w3 * np.einsum("...si,...si->...i", s2, e)
        dw2_inv = w3[..., None] * (
            np.einsum("...si,...sb->...ib", s2 * e, zinv)
            + np.einsum("...si,...sb->...ib", s1, cot)
        )
        dw2_x = w3[..., None] * np.einsum("...si,...sj->...ij", s2 * e, x1)
        dw2 = np.concatenate([dw2_inv, dw2_x], axis=-1)
        rr = np.einsum("...si,...ij->...sj", s2 * e * w3s, w2_x)
        db1 = np.einsum("...sj,...sj->...j", t1, rr)
        dw1 = np.einsum("...sj,...sl->...jl", t1 * rr, zt)
        return [dw1, db1, dw2, db2, dw3]

    return g, vjp


def _chain_gradient(model, z):
    if len(model.layers) == 2:
        return _one_hidden_gradient(model, z)
    return _two_hidden_gradient(model, z)


def _stress_vjp(model: PotentialModel, zinv: np.ndarray, par: np.ndarray):
    """Stress coefficients d psi / d I, shape (..., S, 2), and their VJP.

    ``zinv`` (S, 2) are the invariants shifted by -3 and ``par`` (S, m) the
    parameters.  The VJP maps a cotangent (..., S, 2) to the parameter-side
    gradient of ``sum_s cotangent[s] . coefficients[s]``, a list aligned with
    :func:`parameter_arrays`.  One forward trace serves both, and the model's
    arrays may carry a leading restart axis (see above).
    """
    if model.architecture is Architecture.CONVEX_MONOTONIC:
        return _cm_gradient(model, zinv, par)
    grad, vjp = _chain_gradient(model, np.concatenate([zinv, par], axis=-1))
    return grad[..., :2], vjp


def invariant_gradients_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Stress coefficients (d psi / d I1, d psi / d I2), shape (..., 2)."""
    inv, par, lead = _as_batch(model, inv, par)
    g, _ = _stress_vjp(model, inv - 3.0, par)
    return g.reshape(lead + (2,))


def parameter_gradients_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """d psi / d t, shape (..., m)."""
    inv, par, lead = _as_batch(model, inv, par)
    zinv = inv - 3.0
    m = model.param_dim
    if model.architecture is Architecture.CONVEX_MONOTONIC:
        l1, l2, _ = model.layers
        a1, _, _, w2_x, a2, _, w3 = _cm_trace(model, zinv, par)
        t1 = _act_d1(l1.activation, a1)
        s1 = _act_d1(l2.activation, a2)
        g = np.einsum("i,si,ij,sj,jl->sl", w3, s1, w2_x, t1, l1.weights)
    else:
        z = np.concatenate([zinv, par], axis=-1)
        g = _chain_gradient(model, z)[0][:, 2:]
    return g.reshape(lead + (m,))


def _weighted_gram(c, w):
    """``sum_i c[..., i] w[..., i, a] w[..., i, b]``, shape (..., 2, 2), for
    weights ``c`` (..., n) and ``w`` (..., n, 2)."""
    return (c[..., None, :] * np.swapaxes(w, -1, -2)) @ w


def invariant_hessians_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Symmetric 2x2 Hessian in the invariants, shape (..., 2, 2).

    Each hidden layer contributes one weighted Gram matrix
    ``W^T diag(c) W``: ``W`` maps the invariants into the layer's
    pre-activation and ``c`` is its activation's second derivative weighted
    by the derivative of psi in the layer's output.  For two hidden layers
    the second layer's ``W`` is the per-sample Jacobian
    ``u = (t1 o W2) W1[:, :2]`` (S, n, 2), and the first layer's ``c`` is
    ``((w3 o s1) W2) o t2``.
    """
    inv, par, lead = _as_batch(model, inv, par)
    zinv = inv - 3.0
    if model.architecture is Architecture.CONVEX_MONOTONIC:
        _, _, w2_inv, _, a2, _, w3 = _cm_trace(model, zinv, par)
        s2 = _act_d2(model.layers[1].activation, a2)
        h = _weighted_gram(w3 * s2, w2_inv)
    else:
        z = np.concatenate([zinv, par], axis=-1)
        hidden = model.layers[:-1]
        pre, _, w_out = _chain_trace(model, z)
        if len(hidden) == 1:
            (l1,) = hidden
            t2 = _act_d2(l1.activation, pre[0])
            h = _weighted_gram(w_out * t2, l1.weights[:, :2])
        else:
            l1, l2 = hidden
            t1 = _act_d1(l1.activation, pre[0])
            t2 = _act_d2(l1.activation, pre[0])
            s1 = _act_d1(l2.activation, pre[1])
            s2 = _act_d2(l2.activation, pre[1])
            w1i = l1.weights[:, :2]
            u = (t1[:, None, :] * l2.weights) @ w1i
            h = _weighted_gram(w_out * s2, u)
            h += _weighted_gram(((w_out * s1) @ l2.weights) * t2, w1i)
    return h.reshape(lead + (2, 2))


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
    _, vjp = _stress_vjp(model, inv - 3.0, par)
    return vjp(cot)


# ---------------------------------------------------------------------------
# validation and serialization


def validate(model: PotentialModel) -> None:
    """Audit shapes, activation pattern, and sign constraints.

    Raises :class:`ShapeMismatchError` on a structural mismatch and
    :class:`ConstraintViolationError` if any constrained weight is negative
    (the check is exact; projection leaves no tolerance to grant).
    """
    plan = _layer_plan(model.architecture, model.nodes, model.param_dim)
    if len(plan) != len(model.layers):
        raise ShapeMismatchError("layer count does not match architecture")
    for idx, ((shape, activation, constrained), layer) in enumerate(
        zip(plan, model.layers)
    ):
        if layer.weights.shape != shape:
            raise ShapeMismatchError(
                f"layer {idx}: weights {layer.weights.shape} != expected {shape}"
            )
        last = idx == len(plan) - 1
        if last and layer.bias is not None:
            raise ShapeMismatchError("output layer must not carry a bias")
        if not last and (layer.bias is None or layer.bias.shape != (shape[0],)):
            raise ShapeMismatchError(f"layer {idx}: bias shape mismatch")
        if layer.activation is not activation:
            raise ShapeMismatchError(f"layer {idx}: activation must be {activation}")
        expected_constraint = (
            Constraint.NON_NEGATIVE if constrained else Constraint.FREE
        )
        if layer.constraint is not expected_constraint:
            raise ShapeMismatchError(f"layer {idx}: constraint must be {expected_constraint}")
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


def model_from_json(text: str) -> PotentialModel:
    doc = json.loads(text)
    layers = [
        Layer(
            np.asarray(entry["w"], dtype=float),
            None if entry["b"] is None else np.asarray(entry["b"], dtype=float),
            Activation(entry["activation"]),
            Constraint(entry["constraint"]),
        )
        for entry in doc["layers"]
    ]
    model = PotentialModel(
        Architecture(doc["architecture"]),
        int(doc["n"]),
        int(doc["m"]),
        layers,
        doc.get("metadata", {}),
    )
    validate(model)
    return model


def save_model(model: PotentialModel, path) -> None:
    Path(path).write_text(model_to_json(model) + "\n")


def load_model(path) -> PotentialModel:
    return model_from_json(Path(path).read_text())
