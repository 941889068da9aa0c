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
One forward trace evaluates each hidden activation once, and sigma' and
sigma'' come from that layer's output (tanh) or from the ``exp(-|a|)`` its
output is built from (softplus), never from a second evaluation.  Every
array of shape (..., samples, n) that the trace, the reverse rule and the
VJP form lives in one workspace that nothing reads before writing it, each
a view that starts at a 64-byte boundary; calibration builds that workspace
once per run, so that a training epoch allocates none of these arrays.

Every entry point is batched: invariants have shape (..., 2) and parameters
shape (..., m), and the two broadcast against each other.
"""

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
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
    "invariant_hessians_batch",
    "invariant_gradient_vjp",
    "parameter_arrays",
    "with_buffer",
    "constraint_mask",
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


def with_buffer(model: PotentialModel, flat: np.ndarray) -> PotentialModel:
    """The unstacked ``model`` with its trainable arrays as views of ``flat``
    (..., P), in :func:`parameter_arrays` order, led by the axes before P."""
    arrays = parameter_arrays(model)
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1], axis=-1)
    views = iter(p.reshape(flat.shape[:-1] + a.shape) for p, a in zip(parts, arrays))
    layers = [Layer(next(views), None if layer.bias is None else next(views),
                    layer.activation, layer.constraint) for layer in model.layers]
    return PotentialModel(model.architecture, model.nodes, model.param_dim, layers)


def constraint_mask(model: PotentialModel) -> np.ndarray:
    """Boolean (P,) mask of the entries clamped to [0, inf), laid out as in
    :func:`with_buffer`; only weights are sign-constrained, biases stay free."""
    mask = np.zeros(parameter_count(model), dtype=bool)
    for layer in with_buffer(model, mask).layers:
        layer.weights[...] = layer.constraint is Constraint.NON_NEGATIVE
    return mask


def sparsity(model: PotentialModel):
    """Count parameters with magnitude above ``ZERO_WEIGHT_THRESHOLD``.

    Returns ``(nonzero_count, total_count)``.  Projection during training
    produces exact zeros, so the threshold is only a safety margin.
    """
    arrays = parameter_arrays(model)
    nonzero = sum(int(np.count_nonzero(np.abs(a) > ZERO_WEIGHT_THRESHOLD)) for a in arrays)
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
    lead = np.broadcast(inv[..., 0], par[..., 0]).shape
    if inv.shape[:-1] != lead:
        inv = np.broadcast_to(inv, lead + (2,))
    if par.shape[:-1] != lead:
        par = np.broadcast_to(par, lead + (model.param_dim,))
    return inv.reshape(-1, 2), par.reshape(-1, model.param_dim), lead


# The engine's rules, for hidden layers k with input x_k, pre-activation a_k
# and activation slopes s', s'' at a_k, both read off the layer's one
# activation evaluation in :func:`_activate` (tanh from its output, softplus
# from ``exp(-|a_k|)``); the entry layer e reads ``(I - 3, previous output)``
# and psi is the last output times the row w.
# * reverse: ``r <- (r o s') W_k`` from ``r = w``; at layer e the first two
#   columns split off as d psi / d I.  ``r_k`` is r on layer k's output and
#   ``ahat_k = r_k o s'_k`` the product the rule forms.
# * tangent along a cotangent c: ``a'_e = c W_e[:, :2]^T``,
#   ``a'_k = (s'_{k-1} o a'_{k-1}) W_k^T``.
# * VJP, sweeping down from the last layer, where ``xbar = 0`` (x' is the
#   tangent of x_k, c at layer e): ``abar = s' o xbar + s'' o a' o r_k``,
#   ``Wbar = abar^T x + ahat^T x'``, ``bbar = sum_s abar``, ``xbar <- abar W``;
#   the output row gets ``sum_s s' o a'`` of the last layer.
# * Hessian: ``sum_{k >= e} A_k^T diag(s'' o r_k) A_k`` with
#   ``A_e = W_e[:, :2]`` and ``A_k = (s'_{k-1} o W_k) A_{k-1}``.
# The arrays may carry a leading restart axis, against which inputs broadcast.
# Every array of shape (..., S, n) that the trace, the reverse rule and the
# VJP form is written with ``out=`` into a view of one :class:`_Workspace`,
# and none is read before it is written in the same call.


# float64 entries in 64 bytes: a cache line, and the widest vector load of
# AVX-512, which splits across two lines for an array that does not start on
# such a boundary (on a 2-vCPU AVX-512 Xeon, a neural scan of 300 points and
# 200 directions took 8-13% longer at the other start phases of its workspace)
_LINE = 8


def _arena(runs, buffer=None) -> list[np.ndarray]:
    """C-contiguous float64 views, ``count`` views of shape ``shape`` for
    each ``(count, shape)`` of ``runs`` and in that order, each starting at
    a 64-byte boundary.

    numpy's allocator gives no alignment past 16 bytes, and none can be
    asked of it from Python, so the buffer is 64 bytes longer than the
    views need and they start at its first boundary; each view's size is
    rounded up to a multiple of 8 entries.  The views are cut from a new
    buffer, or from ``buffer``, the one behind an earlier arena whose runs
    had the same counts and shapes with no larger axes.  A view of shape
    () takes a run of its own.
    """
    layout, end = [], 0
    for count, shape in runs:
        size = math.prod(shape)
        step = size + -size % _LINE
        layout.append((end, count, shape, size, step))
        end += count * step
    if buffer is None:
        buffer = np.empty(end + _LINE)
    first, views = -buffer.ctypes.data % 64 // 8, []
    for start, count, shape, size, step in layout:
        start += first
        if count == 1:
            views.append(buffer[start:start + size].reshape(shape))
        else:
            block = buffer[start:start + count * step].reshape(count, step)
            views.extend(block[:, :size].reshape(count, *shape))
    return views


def _entry(model: PotentialModel) -> int:
    """Index of the first hidden layer that reads the invariants."""
    return 1 if model.architecture is Architecture.CONVEX_MONOTONIC else 0


class _Workspace:
    """The arrays that a trace of ``model`` at the shifted invariants
    ``zinv`` (S, 2) and parameters ``par`` (S, m), its reverse rule and its
    VJP write, as views built once; calibration builds one per run.  Freeing
    arrays of shape (..., S, n) and taking them again per epoch made the C
    heap return memory to the system and fault it back in, so no epoch
    allocates one (``...`` are the leading axes of ``model``'s arrays).

    Per hidden layer, the slopes and, from the entry layer up, the
    curvatures and ``ahat`` stay live from the trace through the VJP, as do
    the outputs that feed the next layer and the adjoints below the top
    layer.  The ``scratch`` slots are taken in turn by the trace (the
    pre-activation of the last layer, which then holds its output, and of a
    layer feeding the entry layer, and softplus intermediates) and by the
    VJP (see :func:`_stress_vjp`).

    The entry layer's input has ``zinv`` in its first two columns, filled
    here with ``par`` behind it when the entry layer is the first; else the
    layer below writes its output there, and ``entry_bar``, shaped like that
    input, takes the VJP's ``abar W`` at the entry layer.

    The slots, that input, the entry layer's product ``ahat W`` and
    ``entry_bar`` are the views of one :func:`_arena`: each starts at a
    64-byte boundary and takes its size rounded up to 8 entries.
    """

    def __init__(self, model: PotentialModel, zinv: np.ndarray, par: np.ndarray):
        hidden, entry = model.layers[:-1], _entry(model)
        depth, lead = len(hidden), model.layers[-1].weights.shape[:-2]
        samples, width = zinv.shape[-2], hidden[entry].weights.shape[-1]
        # layers from the entry layer up, and outputs that feed the next
        # layer from a slot of their own
        above, own = depth - entry, depth - 1 - (entry > 0)
        softplus = any(layer.activation is Activation.SOFTPLUS for layer in hidden)
        # the trace's pre-activation and softplus pair; the VJP's a' and
        # s' o a' from the entry layer up, abar below it and abar W between
        # layers below it
        spare = max(1 + 2 * softplus, 2 * above + max(2 * entry - 1, 0))
        slots = spare + depth + 3 * above - 1 + own
        # the slots, then the entry layer's input, its product ahat W and,
        # when a layer feeds it, the adjoint of that input
        views = iter(_arena([(slots, (*lead, samples, hidden[0].weights.shape[-2])),
                             (1, (*(lead if entry else ()), samples, width)),
                             (1 + (entry > 0), (*lead, samples, width))]))
        self.scratch = list(islice(views, spare))
        self.spare = tuple(self.scratch[1:3]) if softplus else None
        self.slopes = list(islice(views, depth))
        self.curvatures = [None] * entry + list(islice(views, above))
        self.a_hats = [None] * entry + list(islice(views, above))
        held = list(islice(views, own))
        # the reverse rule's products ahat_k W_k: above the entry layer the
        # adjoint r_{k-1}
        products = list(islice(views, above - 1))
        x = next(views)
        x[..., :2] = zinv
        if not entry:
            x[..., 2:] = par
        self.outputs = [x[..., 2:] if k + 1 == entry else held.pop() if k + 1 < depth
                        else self.scratch[0] for k in range(depth)]
        self.pre = [self.scratch[0] if k + 1 == entry else out
                    for k, out in enumerate(self.outputs)]
        self.inputs = [x if k == entry else self.outputs[k - 1] if k else par
                       for k in range(depth)]
        # at the entry layer, d psi / d I and the adjoint below
        self.products = [None] * entry + [next(views)] + products
        self.adjoints = [None] * depth
        self.entry_bar = next(views, None)


def _activate(kind: Activation, a, x, d1, d2, spare):
    """Write ``sigma``, ``sigma'`` and ``sigma''`` of a hidden activation at
    ``a`` into ``x``, ``d1`` and ``d2`` from one evaluation: tanh takes both
    derivatives from its output, softplus from ``e = exp(-|a|)`` in forms
    that never overflow, with the two arrays ``spare`` shaped like ``a`` for
    its intermediates.  ``x`` may be ``a`` itself.  With ``x`` None softplus
    skips its value and tanh writes it over ``a``; with ``d2`` None the
    curvature is skipped."""
    if kind is Activation.TANH:
        x = np.tanh(a, out=a if x is None else x)
        np.subtract(1.0, np.square(x, out=d1), out=d1)
        if d2 is not None:
            np.multiply(np.multiply(x, -2.0, out=d2), d1, out=d2)
        return
    if kind is not Activation.SOFTPLUS:
        raise ValueError(f"{kind.value} is not a hidden activation")
    e, t = spare
    np.exp(np.negative(np.abs(a, out=e), out=e), out=e)
    # the sigmoid: 1 / (1 + e) for a >= 0, e / (1 + e) below, as e <= 1
    np.maximum(e, np.greater_equal(a, 0.0, out=d1), out=d1)
    d1 /= np.add(e, 1.0, out=t)
    if x is not None:
        np.add(np.maximum(a, 0.0, out=x), np.log1p(e, out=t), out=x)
    if d2 is not None:
        np.multiply(d1, np.subtract(1.0, d1, out=d2), out=d2)


def _trace(model: PotentialModel, work: _Workspace, output=False, curvatures=True):
    """Write each hidden layer's slope s' and, if ``curvatures`` is set, its
    curvature s'' (see above) into ``work``; returns the last hidden output
    if ``output`` is set (else None)."""
    hidden = model.layers[:-1]
    for k, layer in enumerate(hidden):
        a = np.matmul(work.inputs[k], layer.weights.mT, out=work.pre[k])
        a += layer.bias[..., None, :]
        x = work.outputs[k] if output or k < len(hidden) - 1 else None
        _activate(layer.activation, a, x, work.slopes[k],
                  work.curvatures[k] if curvatures else None, work.spare)
    return x


def _reverse(model: PotentialModel, work: _Workspace):
    """The reverse rule from the top layer down to the entry layer, after
    :func:`_trace`: writes per layer the adjoint ``r_k`` of its output,
    ``r_k o s'_k`` and its product with ``W_k`` into ``work``, and returns
    d psi / d I, the first two columns of the entry layer's product."""
    r = model.layers[-1].weights
    for k in range(len(work.slopes) - 1, _entry(model) - 1, -1):
        work.adjoints[k] = r
        a_hat = np.multiply(r, work.slopes[k], out=work.a_hats[k])
        r = np.matmul(a_hat, model.layers[k].weights, out=work.products[k])
    return r[..., :2]


def forward_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Potential values for batched invariant/parameter inputs."""
    inv, par, lead = _as_batch(model, inv, par)
    x = _trace(model, _Workspace(model, inv - 3.0, par), output=True, curvatures=False)
    return (x @ model.layers[-1].weights[..., 0, :]).reshape(lead)


def _coefficients(model: PotentialModel, work: _Workspace) -> np.ndarray:
    """Stress coefficients d psi / d I, shape (..., S, 2), at the inputs of
    ``work``, from a trace that skips the curvatures; they view ``work``."""
    _trace(model, work, curvatures=False)
    return _reverse(model, work)


def _stress_vjp(model: PotentialModel, work: _Workspace):
    """Stress coefficients d psi / d I, shape (..., S, 2), and their VJP, at
    the inputs of ``work``, a :class:`_Workspace` of ``model``.

    The VJP maps a cotangent (..., S, 2) to the parameter-side gradient of
    ``sum_s cotangent[s] . coefficients[s]``, which it writes into
    ``grads``, arrays aligned with :func:`parameter_arrays`, and returns.
    One forward trace serves both, and the model's arrays may carry a
    leading restart axis (see above).  The coefficients view ``work`` and
    hold until its next trace.  The VJP's tangents ``a'`` (which then hold
    ``abar``) and ``s' o a'`` (which then hold ``xbar`` of the layer below)
    take the first scratch slots in pairs from the entry layer up; behind
    them come ``abar`` of each layer below the entry layer and ``abar W``
    between such layers.
    """
    entry, hidden = _entry(model), model.layers[:-1]
    _trace(model, work)
    grad = _reverse(model, work)
    above, slopes, scratch = len(hidden) - entry, work.slopes, work.scratch
    a_dots = [None] * entry + scratch[0:2 * above:2]
    x_dots = [None] * entry + scratch[1:2 * above:2]
    bars = scratch[2 * above:]

    def vjp(cot, grads):
        # tangents a' of the pre-activations and s' o a' of the outputs
        np.matmul(cot, hidden[entry].weights[..., :2].mT, out=a_dots[entry])
        for k in range(entry, len(hidden)):
            if k > entry:
                np.matmul(x_dots[k - 1], hidden[k].weights.mT, out=a_dots[k])
            np.multiply(slopes[k], a_dots[k], out=x_dots[k])
        # sample-axis sums: einsum adds the samples in order, as .sum(axis=-2)
        # does unless n = 1, and takes about half its time
        np.einsum("...si->...i", x_dots[-1], out=grads[-1][..., 0, :])
        x_bar = None
        for k in range(len(hidden) - 1, -1, -1):
            if k >= entry:
                # abar = s'' o a' o r_k + s' o xbar, over a' and xbar
                a_bar = np.multiply(work.curvatures[k], a_dots[k], out=a_dots[k])
                a_bar *= work.adjoints[k]
                if x_bar is not None:
                    a_bar += np.multiply(slopes[k], x_bar, out=x_bar)
            else:
                a_bar = np.multiply(slopes[k], x_bar, out=bars[k])
            w_bar = np.matmul(a_bar.mT, work.inputs[k], out=grads[2 * k])
            if k > entry:
                w_bar += work.a_hats[k].mT @ x_dots[k - 1]
            elif k == entry:
                w_bar[..., :2] += work.a_hats[k].mT @ cot
            np.einsum("...si->...i", a_bar, out=grads[2 * k + 1])
            if k > entry:
                x_bar = np.matmul(a_bar, hidden[k].weights, out=x_dots[k])
            elif k:
                x_bar = np.matmul(a_bar, hidden[k].weights,
                                  out=work.entry_bar if k == entry else bars[entry + k - 1])
                x_bar = x_bar[..., 2 if k == entry else 0:]
        return grads

    return grad, vjp


def invariant_gradients_batch(model: PotentialModel, inv, par) -> np.ndarray:
    """Stress coefficients (d psi / d I1, d psi / d I2), shape (..., 2)."""
    inv, par, lead = _as_batch(model, inv, par)
    g = _coefficients(model, _Workspace(model, inv - 3.0, par))
    return g.reshape(g.shape[:-2] + lead + (2,))


# the distinct entries (00, 01, 11) of a symmetric 2x2 matrix, and the
# entry at each place of the full matrix
_GRAM_ROW, _GRAM_COL = [0, 0, 1], [0, 1, 1]
_GRAM_FULL = [[0, 1], [1, 2]]


def _weighted_gram(c, w):
    """``sum_i c_i w_ia w_ib``, shape (..., 2, 2), for ``c`` (..., n), ``w`` (..., n, 2)."""
    return (c[..., None, :] * w.mT) @ w


def invariant_hessians_batch(model: PotentialModel, inv, par):
    """Stress coefficients (..., 2) and the symmetric 2x2 Hessian in the
    invariants (..., 2, 2), from one trace and one reverse sweep.

    Each hidden layer from the entry layer on contributes one weighted Gram
    matrix ``A^T diag(c) A`` (see above): ``A`` maps the invariants into the
    layer's pre-activation and ``c`` is its activation's second derivative
    times the derivative of psi in the layer's output.
    """
    inv, par, lead = _as_batch(model, inv, par)
    entry, hidden = _entry(model), model.layers[:-1]
    work = _Workspace(model, inv - 3.0, par)
    _trace(model, work)
    g = _reverse(model, work)
    slopes, curvatures, adjoints = work.slopes, work.curvatures, work.adjoints
    # the entry layer's A is the same for every sample: one (S, n) @ (n, 3)
    # product for the entries (00, 01, 11) of its weighted Gram matrix
    jac = hidden[entry].weights[..., :2]
    pairs = jac[..., _GRAM_ROW] * jac[..., _GRAM_COL]
    h = ((curvatures[entry] * adjoints[entry]) @ pairs)[..., _GRAM_FULL]
    jac = jac[..., None, :, :]
    for k in range(entry + 1, len(hidden)):
        jac = (slopes[k - 1][..., None, :] * hidden[k].weights[..., None, :, :]) @ jac
        h += _weighted_gram(curvatures[k] * adjoints[k], jac)
    return g.reshape(g.shape[:-2] + lead + (2,)), h.reshape(h.shape[:-3] + lead + (2, 2))


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
    grads = [np.empty(a.shape) for a in parameter_arrays(model)]
    return _stress_vjp(model, _Workspace(model, inv - 3.0, par))[1](cot, grads)


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
