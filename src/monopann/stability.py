"""Numerical material-stability analysis of incompressible potentials.

The rank-one convexity (ellipticity) check works through the acoustic
tensor ``Q(F, B)_ik = (d2W/dFdF)_ijkl B_j B_l``.  On the unit-determinant
manifold, ellipticity is equivalent to two scalar conditions per probing
direction B (Zee & Sternberg, ARMA 1983),

    (Q x Q) : (n o n) >= 0   and   (Q x I) : (n o n) >= 0,   n = F^-T B,

with ``x`` the tensor cross product; they state positive semi-definiteness
of Q restricted to the plane of admissible rank-one increments.  The
compressible counterpart adds a third condition,

    (Q x Q) : Q >= 0,   (Q x Q) : I >= 0,   (Q x I) : I >= 0,

and is strictly stronger; it is provided as a diagnostic.  A direction
set is a (D, 3) array of probing directions B, by default the
deterministic, near-uniform unit vectors of ``fibonacci_directions``.

Each condition value is homogeneous of degree k in Q (k = 2, 1 for the
incompressible pair, k = 3, 2, 1 for the compressible triple) and is
divided by ``|Q|^k |n|^2`` (incompressible) or ``|Q|^k`` (compressible),
with ``|Q|`` the Frobenius norm.  The normalized values, and so the
verdicts, do not change when the potential is scaled by c > 0 or the
deformation is rotated.  Where Q = 0 exactly every value is 0, a
degenerate pass.

The acoustic tensors are computed without the fourth-order tangent.  Q is
the tangent's weighted sum of five law-independent terms, and each term
contracted with ``B o B`` is a rank-one closed form in 3x3 quantities of the
point (see ``_point_geometry``): outer products ``X o Y`` contract to
``(XB) o (YB)``, and the tensor-cross parts of the second invariant
derivatives vanish, because ``eps_IJK B_I B_K = 0``.
"""

import json
import operator
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .constitutive import (
    _check_isochoric,
    _format_params,
    _isochoric_terms,
    _tangent_weights,
    as_law,
)
from .errors import EmptyGridError, MonopannError, ShapeMismatchError
from .kinematics import (
    _diagonal_inverse,
    _invariant_terms,
    _isochoric,
    principal_stretch_gradient,
)
from .networks import _arena

__all__ = [
    "ELLIPTICITY_TOLERANCE",
    "fibonacci_directions",
    "acoustic_tensor",
    "ellipticity_incompressible",
    "ellipticity_compressible",
    "hessian_decomposition",
    "baker_ericksen_check",
    "StabilityReport",
    "scan_invariant_plane",
    "write_report_json",
    "write_summary_csv",
]

ELLIPTICITY_TOLERANCE = 1e-8
BAKER_ERICKSEN_TOLERANCE = 1e-12
_TINY = np.finfo(float).tiny


def fibonacci_directions(count: int = 200) -> np.ndarray:
    """``count`` deterministic, near-uniform unit vectors (count, 3) from the
    Fibonacci lattice.

    Raises ``ShapeMismatchError`` for a count that is not an integer (a
    Python or numpy integer; a float, even NaN or infinite, is not) and
    ``EmptyGridError`` for a count below 1.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise ShapeMismatchError(
            f"direction count must be an integer, got {count!r}"
        ) from None
    if count < 1:
        raise EmptyGridError(f"direction count must be at least 1, got {count}")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    vecs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def _vectors(directions) -> np.ndarray:
    """The probing directions as a float array (D, 3).

    Raises ``EmptyGridError`` for D = 0, and ``ShapeMismatchError`` for
    another shape or for a row that is not finite or has zero length, whose
    normals ``F^-T B / |F^-T B|`` would be NaN at every point.
    """
    vectors = np.asarray(directions, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != 3:
        raise ShapeMismatchError(f"directions must have shape (D, 3), got {vectors.shape}")
    if len(vectors) == 0:
        raise EmptyGridError("direction set is empty")
    bad = ~np.isfinite(vectors).all(axis=-1) | ~vectors.any(axis=-1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ShapeMismatchError(
            f"direction {k} is not finite and nonzero: {vectors[k].tolist()}"
        )
    return vectors


# the six independent components of a symmetric 3x3 tensor, in the order
# (00, 11, 22, 01, 02, 12), and the component at each entry of the full
# tensor
_ROW = np.array([0, 1, 2, 0, 0, 1])
_COL = np.array([0, 1, 2, 1, 2, 2])
_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_SYMMETRIC = list(zip(_ROW.tolist(), _COL.tolist()))
# A term's coefficients of B_I B_J in the symmetric components (i, j) are
# laid out flat, entry 9 s + 3 I + J for the component s = (i, j).  At each
# entry: the index of x[i, I], y[j, J], C[I, J] and (F F^T)[i, j] in a tensor
# flattened to 9, and delta_IJ, delta_ij and delta_ij delta_IJ
_S, _I, _J = np.indices((6, 3, 3)).reshape(3, 54)
_LEFT = 3 * _ROW[_S] + _I
_RIGHT = 3 * _COL[_S] + _J
_PAIR = 3 * _I + _J
_COMPONENT = 3 * _ROW[_S] + _COL[_S]
_EYE = np.eye(3).ravel()[_PAIR]
_DIAGONAL = np.eye(3).ravel()[_COMPONENT]
_DELTA = _DIAGONAL * _EYE


def _point_geometry(f: np.ndarray, *terms):
    """The law- and direction-independent part of the acoustic tensors of
    the points ``f`` (P, 3, 3), built once per scan.  ``terms`` are the
    points' ``kinematics._invariant_terms``, whose det is checked here.

    Returns ``(coefficients, finv_t)``: ``coefficients`` (P, 5, 54) holds,
    for each of the five tangent terms (see ``constitutive._tangent_terms``),
    the coefficients of ``B_I B_J`` in the six symmetric components of its
    acoustic tensor, laid out as (6, 9), so that ``coefficients @ dyads``
    are the terms' acoustic tensors; ``finv_t`` is ``F^-T`` (P, 3, 3).

    Contracted with ``B o B``, an outer product ``X o Y`` gives
    ``(XB) o (YB)``, and every part of the second invariant derivatives
    that is the second derivative of det, the map ``X -> F x X`` of
    ``kinematics.tensor_cross``, gives 0.  With the cofactor ``h``,
    ``C = F^T F`` and ``g2``, the raw gradient of ``|h|^2`` (see
    ``kinematics._invariant_terms``), each term is a weighted sum of outer
    products of ``d1, d2, h, F, g2``, plus two parts: ``2 J^-2/3 |B|^2 I``
    in the second derivative of I1, and in that of I2 the contraction of
    its ``x_f o x_f`` part, ``2 J^-4/3 [(FB) o (FB) - |B|^2 F F^T
    - (|FB|^2 - |B|^2 |F|^2) I]``.

    Every part is built in the flat (P, 54) layout: the coefficients
    ``x[i, I] y[j, J]`` of ``(XB) o (YB)`` are the product of two gathers,
    ``x`` by ``_LEFT`` and ``y`` by ``_RIGHT``, of the tensors flattened to
    (P, 9), so that each product is one contiguous multiply.  Each term is
    written into its slot of the result.

    Raises ``NotIsochoricError`` where ``|det F - 1|`` exceeds the tolerance
    and ``InvertedConfigurationError`` where det F is not finite.
    """
    _check_isochoric(terms[0])
    det, h, i1, i2, g2, d1, d2 = terms
    count = len(f)
    c = np.swapaxes(f, -1, -2) @ f
    f_ft = f @ np.swapaxes(f, -1, -2)
    finv_t = h / det[:, None, None]
    # each tensor's factors x[i, I] and y[j, J] of the (P, 54) outer products
    left, right = {}, {}
    for name, x in (("d1", d1), ("d2", d2), ("h", h), ("f", f), ("g2", g2)):
        flat = x.reshape(count, 9)
        left[name], right[name] = flat[:, _LEFT], flat[:, _RIGHT]

    def outer(x, y, out=None):
        return np.multiply(left[x], right[y], out=out)

    # J, |F|^2 and |h|^2 shaped to scale the (P, 54) outer products
    det, i1, i2 = (x[:, None] for x in (det, i1, i2))
    # J^p and p J^(p-1) for the exponents p = -2/3 (I1) and -4/3 (I2)
    j1, j2 = det ** (-2.0 / 3.0), det ** (-4.0 / 3.0)
    dj1, dj2 = -2.0 / 3.0 * j1 / det, -4.0 / 3.0 * j2 / det
    hh = outer("h", "h")
    coefficients = np.empty((count, 5, 54))
    first, mixed, second, iso1, iso2 = coefficients.transpose(1, 0, 2)
    outer("d1", "d1", first)
    np.add(outer("d1", "d2"), outer("d2", "d1"), out=mixed)
    outer("d2", "d2", second)
    # per invariant: p (p - 1) J^(p-2) |.|^2 for h o h, p J^(p-1) times the
    # raw gradient's factor (2F, g2) for the mixed pairs with h, and J^p
    # times the contraction of the raw second derivative
    part = np.multiply(-5.0 / 3.0 * dj1 / det * i1, hh)
    pair = outer("h", "f")
    pair += outer("f", "h")
    pair *= 2.0 * dj1
    part += pair
    np.add(part, 2.0 * j1 * _DELTA, out=iso1)
    part = np.multiply(-7.0 / 3.0 * dj2 / det * i2, hh)
    pair = outer("h", "g2")
    pair += outer("g2", "h")
    pair *= dj2
    part += pair
    raw = outer("f", "f")
    raw -= f_ft.reshape(count, 9)[:, _COMPONENT] * _EYE
    raw -= _DIAGONAL * c.reshape(count, 9)[:, _PAIR]
    raw += i1 * _DELTA
    raw *= 2.0 * j2
    np.add(part, raw, out=iso2)
    return coefficients, finv_t


def _dyads(directions: np.ndarray) -> np.ndarray:
    """The products ``B_I B_J`` (9, D) of the directions (D, 3)."""
    b_t = directions.T
    return (b_t[:, None] * b_t[None, :]).reshape(9, len(directions))


def _block_runs(count: int, dirs: int):
    """The ``networks._arena`` runs of the scratch arrays of a block of
    ``count`` points and ``dirs`` directions: the normals, Q and cof Q,
    each (6, P, D), then one row's coefficients of ``B_I B_J``, point-major
    (P, 1, 54) and component-major (6, P, 9), then seven (P, D) planes."""
    return [(3, (6, count, dirs)), (1, (count, 1, 54)), (1, (6, count, 9)),
            (7, (count, dirs))]


def _workspace(count: int, dirs: int) -> list[np.ndarray]:
    """Scratch arrays for a block of ``count`` points and ``dirs``
    directions: the views of one ``networks._arena`` of
    :func:`_block_runs`.  A shorter block takes the views of its own runs
    from the same buffer.

    The normals are kept for every parameter row of the block.  Their
    intermediates ``n = F^-T B`` (3, P, D) and ``|n|`` (P, D) take the
    first half of Q and the last plane, which the conditions then
    overwrite.  Every intermediate of size (P, D) or larger is written into
    a view with ``out=``, so that a scan allocates almost nothing per block:
    large temporaries freed and taken again per block made the C heap
    return memory to the system and fault it back in.  Nothing is read from
    a view before it is written in the same block.
    """
    return _arena(_block_runs(count, dirs))


def _normals(finv_t: np.ndarray, directions: np.ndarray, work):
    """The direction-dependent part of the acoustic geometry of a block.

    ``finv_t`` is the block's ``F^-T`` (P, 3, 3), ``directions`` (D, 3) and
    ``work`` the :func:`_workspace` of P points and D directions.  Returns
    the components (6, P, D) of ``m o m`` for the unit normals
    ``m = n / |n|``, ``n = F^-T B``, with the off-diagonal ones doubled, so
    that ``m.Sm`` is the dot product with the components of a symmetric S.
    They are the first view of ``work``; they and every intermediate are
    written into it with ``out=``, ``n`` component-major (3, P, D).
    """
    count, dirs = len(finv_t), len(directions)
    normals, n, norm = work[0], work[1][:3], work[-1]
    rows = np.ascontiguousarray(finv_t.transpose(1, 0, 2)).reshape(3 * count, 3)
    np.matmul(rows, directions.T, out=n.reshape(3 * count, dirs))
    np.sqrt(np.einsum("ipd,ipd->pd", n, n, out=norm), out=norm)
    m = np.divide(n, norm, out=n)
    for s, (i, j) in enumerate(_SYMMETRIC):
        np.multiply(m[i], m[j], out=normals[s])
    normals[3:] *= 2.0
    return normals


def _law_values(law, par, i1, i2):
    """Stress coefficients (P, 2) and tangent weights (P, 5) of ``law`` at
    the invariants ``i1``, ``i2`` (P,), from one law evaluation."""
    coef, hess = law.derivatives(i1, i2, par)
    return coef, _tangent_weights(coef, hess)


def _point_terms(law, f, par):
    """The point geometry ``(coefficients, finv_t)`` of the points ``f``
    (P, 3, 3) (see :func:`_point_geometry`) and the tangent weights (P, 5)
    of ``law`` there, from one invariant pass after the det F = 1 check."""
    terms = _isochoric_terms(f)
    coefficients, finv_t = _point_geometry(f, *terms)
    return coefficients, finv_t, _law_values(as_law(law), par, *_isochoric(terms))[1]


def acoustic_tensor(law, f, par, b: np.ndarray) -> np.ndarray:
    """Contract the full tangent twice with probing directions.

    ``f`` is (3, 3) or (P, 3, 3) and ``b`` is (3,) or (D, 3); the result has
    shape ``f.shape[:-2] + b.shape[:-1] + (3, 3)``.  It is built from the
    scan's own geometry and weights.
    """
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    points, vectors = f.reshape(-1, 3, 3), b.reshape(-1, 3)
    coefficients, _, weights = _point_terms(law, points, par)
    q = (weights[:, None, :] @ coefficients).reshape(len(points), 6, 9)
    q = q @ _dyads(vectors)
    q = np.moveaxis(q[:, _FULL], -1, 1)
    return q.reshape(f.shape[:-2] + b.shape[:-1] + (3, 3))


def _sub_products(out, x, y, u, v, scratch):
    """``out = x y - u v``, elementwise and in place."""
    np.multiply(x, y, out=out)
    out -= np.multiply(u, v, out=scratch)


def _conditions(coefficients, dyads, normals, weights: np.ndarray, work: np.ndarray):
    """Normalized condition values ``(c1, c2), (d1, d2, d3)``, each (P, D),
    of one parameter row of a block of P points and D directions.

    ``coefficients`` (P, 5, 54) are the block's rows of
    :func:`_point_geometry`, ``dyads`` (9, D) are :func:`_dyads`,
    ``normals`` (6, P, D) are :func:`_normals`, the first view of
    ``work``, and ``weights`` (P, 5) are the row's
    ``constitutive._tangent_weights``.  The values are views of ``work``
    behind the normals, and the next call overwrites them; every
    intermediate is written into ``work`` with ``out=``.  The row's
    (6, P, 9) coefficients make one ``(6 P, 9) @ (9, D)`` product, which
    writes Q component-major (6, P, D), so that each component is
    contiguous.  Q is divided by its Frobenius norm ``|Q|`` first, which
    normalizes every value at once (see the module docstring).  With the
    components ``(a, b, c, d, e, f)`` of the symmetric, normalized acoustic
    tensor Q and the closed forms ``Q x Q = 2 cof Q`` and
    ``Q x I = (tr Q) I - Q``, the values are

        c1 = 2 m.cof(Q)m,  c2 = tr Q - m.Qm,
        d1 = 2 cof(Q):Q = 6 det Q,  d2 = 2 tr cof Q,  d3 = 2 tr Q,

    with the unit normal m; the incompressible pair is thereby already
    divided by ``|n|^2``.
    """
    count, dirs = len(weights), dyads.shape[1]
    _, q, cof, row, tensor, c1, c2, d1, d2, d3, tr_q, tmp = work
    np.matmul(weights[:, None, :], coefficients, out=row)
    np.copyto(tensor, row.reshape(count, 6, 9).transpose(1, 0, 2))
    np.matmul(tensor.reshape(6 * count, 9), dyads, out=q.reshape(6 * count, dirs))
    # |Q|, with the off-diagonal components counted twice.  Every value is
    # homogeneous in Q, so where Q = 0 all of them are exactly 0; raising
    # that norm to the smallest normal float keeps its reciprocal finite
    # (a nonzero |Q| is at least 1e-162, the root of the least subnormal)
    norm = np.einsum("spd,spd->pd", q, q, out=tmp)
    norm += np.einsum("spd,spd->pd", q[3:], q[3:], out=tr_q)
    np.sqrt(norm, out=norm)
    np.maximum(norm, _TINY, out=norm)
    q *= np.divide(1.0, norm, out=norm)
    a, b, c, d, e, f = q
    _sub_products(cof[0], b, c, f, f, tmp)
    _sub_products(cof[1], a, c, e, e, tmp)
    _sub_products(cof[2], a, b, d, d, tmp)
    _sub_products(cof[3], e, f, c, d, tmp)
    _sub_products(cof[4], d, f, b, e, tmp)
    _sub_products(cof[5], d, e, a, f, tmp)
    np.add(a, b, out=tr_q)
    tr_q += c

    np.einsum("spd,spd->pd", normals, cof, out=c1)
    c1 *= 2.0
    np.einsum("spd,spd->pd", normals, q, out=c2)
    np.subtract(tr_q, c2, out=c2)
    # 6 det Q, expanded along the first row
    np.multiply(a, cof[0], out=d1)
    d1 += np.multiply(d, cof[3], out=tmp)
    d1 += np.multiply(e, cof[4], out=tmp)
    d1 *= 6.0
    np.add(cof[0], cof[1], out=d2)
    d2 += cof[2]
    d2 *= 2.0
    np.multiply(tr_q, 2.0, out=d3)
    return (c1, c2), (d1, d2, d3)


def _point_minima(law, f, par, directions) -> np.ndarray:
    """Smallest incompressible and compressible condition values (P, 2) of
    the points ``f`` (P, 3, 3), or (3, 3) for P = 1, over ``directions``
    (D, 3), taken as the scan takes them (:func:`_minima`)."""
    vectors = _vectors(directions)
    f = np.asarray(f, dtype=float).reshape(-1, 3, 3)
    coefficients, finv_t, weights = _point_terms(law, f, par)
    return _minima(coefficients, finv_t, vectors, weights[None])[0]


def ellipticity_incompressible(law, f, par, directions) -> tuple[bool, float]:
    """Evaluate both unit-determinant ellipticity conditions over the
    directions (D, 3) at the points ``f`` (3, 3) or (P, 3, 3).

    Returns ``(elliptic, min_value)`` where ``min_value`` is the smallest
    normalized condition value over every point and direction; the points
    count as elliptic when it stays above ``-ELLIPTICITY_TOLERANCE``.
    """
    min_value = float(_point_minima(law, f, par, directions)[:, 0].min())
    return min_value >= -ELLIPTICITY_TOLERANCE, min_value


def ellipticity_compressible(law, f, par, directions) -> tuple[bool, float]:
    """Evaluate the three positive-semi-definiteness conditions of Q itself.

    Strictly stronger than the unit-determinant form: a pass here implies a
    pass of :func:`ellipticity_incompressible` at the same point.
    """
    min_value = float(_point_minima(law, f, par, directions)[:, 1].min())
    return min_value >= -ELLIPTICITY_TOLERANCE, min_value


def hessian_decomposition(law, f, par):
    """Split the rank-one quadratic form into its two additive parts.

    Returns ``(constitutive_term, geometric_term)`` as evaluators taking a
    rank-one pair ``(a, B)``.  The first carries the second derivatives of
    the potential in the invariants, the second its first derivatives; for
    increments in the unit-determinant tangent plane their sum equals the
    full contraction of :func:`pk1_tangent`.

    ``f`` is (3, 3) or (..., 3, 3), and the evaluators take ``a`` and ``B``
    as (3,) or (..., 3); the three leading shapes broadcast, and so does
    ``par`` as the law allows.  A single point and pair give a scalar.

    Both are closed forms in ``a`` and ``B``.  With ``C = F^T F``,
    ``w1 = a.F B`` and ``w2 = a.(|F|^2 F - F C) B``, the constitutive term
    is ``4 (psi_11 w1^2 + 2 psi_12 w1 w2 + psi_22 w2^2)`` and the geometric
    term ``2 (psi_1 |a|^2 |B|^2 + psi_2 |(a o B) x F|^2)``, with the tensor
    cross product's square
    ``(a.FB)^2 - |B|^2 |F^T a|^2 - |a|^2 |FB|^2 + |a|^2 |B|^2 |F|^2``.
    Raises ``NotIsochoricError`` off det F = 1, where the sum is not the tangent's.
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float)
    f_t = np.swapaxes(f, -1, -2)
    terms = _isochoric_terms(f)
    _, _, f_sq, _, g2, _, _ = terms
    coef, hess = law.derivatives(*_isochoric(terms), par)
    g = 0.5 * g2

    def apply(x, v):
        return np.einsum("...ij,...j->...i", x, v)

    def dot(u, v):
        return np.einsum("...i,...i->...", u, v)

    def constitutive_term(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        w1, w2 = dot(a, apply(f, b)), dot(a, apply(g, b))
        return (4.0 * (
            hess[..., 0, 0] * w1 * w1
            + 2.0 * hess[..., 0, 1] * w1 * w2
            + hess[..., 1, 1] * w2 * w2
        ))[()]

    def geometric_term(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        fb, fta = apply(f, b), apply(f_t, a)
        aa, bb = dot(a, a), dot(b, b)
        cross_sq = (dot(a, fb) ** 2 - bb * dot(fta, fta) - aa * dot(fb, fb)
                    + aa * bb * f_sq)
        return (2.0 * (coef[..., 0] * aa * bb + coef[..., 1] * cross_sq))[()]

    return constitutive_term, geometric_term


def _baker_ericksen(coef: np.ndarray, stretches: np.ndarray) -> np.ndarray:
    values = coef[..., :1] + stretches**2 * coef[..., 1:]
    return np.all(values >= -BAKER_ERICKSEN_TOLERANCE, axis=-1)


def baker_ericksen_check(law, f, par) -> np.ndarray:
    """Sufficient monotonicity condition for the ordered-stress inequalities.

    True when ``dpsi/dI1 + lam_i^2 dpsi/dI2`` is non-negative for all three
    principal stretches of f; broadcasts over leading axes of f, each of
    which must satisfy det F = 1 (else ``NotIsochoricError``).
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float)
    terms = _isochoric_terms(f)
    coef = law.coefficients(*_isochoric(terms), par)
    return _baker_ericksen(coef, np.linalg.svd(f, compute_uv=False))


# ---------------------------------------------------------------------------
# invariant-plane scan


def _point_dtype(params: int) -> np.dtype:
    """The fields of a scan point, for ``params`` parameters per row."""
    return np.dtype([
        ("lambda1", float), ("lambda2", float), ("f", float, (3, 3)), ("i1", float),
        ("i2", float), ("t", float, (params,)), ("elliptic", bool), ("min_value", float),
        ("compressible_elliptic", bool), ("compressible_min_value", float),
        ("be_ok", bool), ("mono_ok", bool), ("error", object),
    ])


# each fraction of a per_parameter entry, and the point field it counts
_FRACTIONS = {"elliptic_fraction": "elliptic", "compressible_fraction":
              "compressible_elliptic", "be_fraction": "be_ok", "mono_fraction": "mono_ok"}
# the float fields that the JSON report writes as null where not finite
_NULLABLE = ("i1", "i2", "min_value", "compressible_min_value")


@dataclass
class StabilityReport:
    """The result of :func:`scan_invariant_plane`.

    ``points`` is a ``numpy.recarray`` with one row per parameter row and
    stretch pair, in the order of ``per_parameter``, and the fields of
    ``_point_dtype``; ``error`` is None or the reason the point failed, and
    a failed point has False verdicts and NaN minima.  ``per_parameter``
    holds one dict per parameter row: its ``t``, ``points``,
    ``failed_points`` and the fractions of its evaluated points that pass
    each check (``_FRACTIONS``), None for a row whose points all failed.
    """

    points: np.recarray
    per_parameter: list
    region: dict
    direction_count: int
    law_label: str

    def elliptic_fraction(self) -> float:
        """Fraction of the evaluated points that are elliptic; NaN if every
        point failed."""
        passed = np.count_nonzero(np.equal(self.points.error, None))
        return np.count_nonzero(self.points.elliptic) / passed if passed else float("nan")


# Upper bound on the point-direction pairs evaluated together; it caps the
# scratch memory of a scan or an ellipticity check independently of its
# point count: one workspace of 25 floats per pair and 108 per point, each of
# its 12 views padded to a multiple of 8 floats and the whole to a 64-byte
# start (at most 92 floats more), 1.63 MB at 200 directions (40 points),
# made once per call of _minima.  The point geometry is built once per call
# for all the points and adds 2.2 kB of coefficients per point.  Fewer
# pairs pay numpy's fixed cost per call on more blocks; more pairs make a
# workspace larger than a 2 MiB L2 cache, and both ran slower.
_BLOCK_PAIRS = 8192
# Upper bound on the points (parameter rows x stretch pairs) of one law
# evaluation in a scan, which takes at least one row.  A network's Hessian
# holds (S, n, n) products, about 12 kB per point at n = 32: a scan of 20
# rows of 3600 points peaked at 861 MB (tracemalloc) with one call for all
# rows and at 52 MB with one row per call.  The benchmark's scan-grid, 3
# rows of 100 points, takes one call.
_LAW_POINTS = 4096
# errors that fail a scan point instead of the scan
_POINT_ERRORS = (MonopannError, np.linalg.LinAlgError)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pointwise(evaluate, args, outs, errors) -> None:
    """Write the arrays ``evaluate(*args)`` into ``outs``, point by point
    along the first axis of every array.

    If ``evaluate`` raises a point error, the points are evaluated one by
    one; a point that raises it keeps the values ``outs`` had (NaN in the
    scan) and records the reason in ``errors[..., k]``: in its row for an
    ``errors`` of shape (P,), in every row for one of shape (R, P).
    """
    try:
        results = evaluate(*args)
    except _POINT_ERRORS:
        pass
    else:
        for out, result in zip(outs, results):
            out[...] = result
        return
    for k in range(len(args[0])):
        try:
            results = evaluate(*(arg[k : k + 1] for arg in args))
        except _POINT_ERRORS as exc:
            errors[..., k] = _describe(exc)
            continue
        for out, result in zip(outs, results):
            out[k] = result[0]


def _scan_block(coefficients, finv_t, directions, dyads, weights, minima, work) -> None:
    """Smallest incompressible and compressible condition values of a block
    of points in every parameter row.

    ``coefficients`` and ``finv_t`` are the block's rows of
    :func:`_point_geometry`, ``directions`` (D, 3) and ``dyads`` the
    directions and their :func:`_dyads`, and ``weights`` (R, P, 5) the
    rows' tangent weights; the results go to ``minima`` (R, P, 2).
    ``work`` is the :func:`_workspace` of :func:`_minima`.  Only the
    direction-dependent normals are built per block, once, and serve every
    row.  A point whose geometry or weights are NaN gets NaN minima.
    """
    normals = _normals(finv_t, directions, work)
    for row, out in zip(weights, minima):
        (c1, c2), (d1, d2, d3) = _conditions(coefficients, dyads, normals, row, work)
        np.minimum(c1, c2, out=c1).min(axis=-1, out=out[:, 0])
        np.minimum(d1, d2, out=d1)
        np.minimum(d1, d3, out=d1).min(axis=-1, out=out[:, 1])


def _scan_points(lam1, lam2, errors):
    """Deformation gradients (P, 3, 3) of the stretch pairs, their isochoric
    invariants (P,) each, the indices of the points that go on to the law
    and the geometry, and those points' ``kinematics._invariant_terms``.

    A point whose det F is not finite and positive (its third stretch
    ``1/(l1 l2)`` over- or underflows), or whose invariants overflow, fails
    in every row of ``errors`` (R, P) with a reason that names the value; its
    invariants are NaN or infinite.  The floating-point warnings of these
    points are ignored, because the check reports them point by point.

    F is diagonal, so its inverse is the reciprocals of its diagonal
    (``kinematics._diagonal_inverse``); a point with a subnormal stretch,
    whose reciprocal overflows, fails either way, as its I2 is not finite.
    det F stays LAPACK's, which the diagonal's product does not equal bit
    for bit.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = principal_stretch_gradient(lam1, lam2)
        det = np.linalg.det(f)
        valid = np.isfinite(det) & (det > 0.0)
        terms = _invariant_terms(f[valid], det[valid], _diagonal_inverse(f[valid]))
        i1, i2 = np.full((2, len(f)), np.nan)
        i1[valid], i2[valid] = _isochoric(terms)
    finite = np.isfinite(i1) & np.isfinite(i2)
    for k in np.flatnonzero(~valid):
        errors[:, k] = f"det F = {det[k]:.6g} is not finite and positive"
    for k in np.flatnonzero(valid & ~finite):
        errors[:, k] = f"isochoric invariants not finite: I1 = {i1[k]:.6g}, I2 = {i2[k]:.6g}"
    live = np.flatnonzero(valid & finite)
    return f, i1, i2, live, [term[finite[valid]] for term in terms]


def _minima(coefficients, finv_t, vectors, weights) -> np.ndarray:
    """Smallest incompressible and compressible condition values (R, P, 2)
    over the directions ``vectors`` (D, 3) of the points with the geometry
    ``coefficients``, ``finv_t`` (:func:`_point_geometry`) in each parameter
    row of ``weights`` (R, P, 5).

    The points are taken in blocks of at most ``_BLOCK_PAIRS``
    point-direction pairs (:func:`_scan_block`), all in one workspace.
    """
    dyads = _dyads(vectors)
    minima = np.full(weights.shape[:-1] + (2,), np.nan)
    block = max(_BLOCK_PAIRS // len(vectors), 1)
    work = _workspace(min(block, len(finv_t)), len(vectors))
    for start in range(0, len(finv_t), block):
        part = slice(start, start + block)
        count = len(finv_t[part])
        if count < len(work[-1]):
            # a shorter last block: its views of the same buffer
            work = _arena(_block_runs(count, len(vectors)), work[0].base)
        _scan_block(coefficients[part], finv_t[part], vectors, dyads,
                    weights[:, part], minima[:, part], work)
    return minima


def _stacked_law_values(law, param_grid, i1, i2, coef, weights) -> None:
    """Write the stress coefficients and tangent weights of ``law`` in every
    row of ``param_grid`` (R, m) at the invariants ``i1``, ``i2`` (P,) into
    ``coef`` (R, P, 2) and ``weights`` (R, P, 5), from one law evaluation
    with the rows as a leading axis (R, 1, m) that broadcasts against the
    points.  The values may view the law's scratch memory (a network's
    workspace), which is freed on return.  Raises ``ShapeMismatchError``
    for values without that leading axis."""
    values = _law_values(law, param_grid[:, None, :], i1, i2)
    if values[0].shape != coef.shape:
        raise ShapeMismatchError("the law takes one parameter vector at a time")
    coef[...], weights[...] = values


def _scan_minima(law, param_grid, f, i1, i2, terms, vectors):
    """Stress coefficients (R, P, 2), smallest incompressible and
    compressible condition values (R, P, 2) and point errors (R, P) of the
    points ``f`` (P, 3, 3) with invariants ``i1``, ``i2`` and invariant
    terms ``terms`` in every parameter row; see
    :func:`scan_invariant_plane`.  The law is evaluated once for as many
    rows as keep a call within ``_LAW_POINTS`` points, at least one
    (:func:`_stacked_law_values`).  Where that raises a point error, those
    rows are evaluated one by one (:func:`_pointwise`)."""
    errors = np.full((len(param_grid), len(f)), None, dtype=object)
    coef = np.full((len(param_grid), len(f), 2), np.nan)
    weights = np.full((len(param_grid), len(f), 5), np.nan)
    step = max(_LAW_POINTS // max(len(f), 1), 1)
    for start in range(0, len(param_grid), step):
        rows = slice(start, start + step)
        try:
            _stacked_law_values(law, param_grid[rows], i1, i2, coef[rows], weights[rows])
        except _POINT_ERRORS:
            # row by row, so that an error fails only its own point in its own row
            for t, row_coef, row_weights, row_errors in zip(
                param_grid[rows], coef[rows], weights[rows], errors[rows]
            ):
                _pointwise(partial(_law_values, law, t), (i1, i2),
                           (row_coef, row_weights), row_errors)
    coefficients = np.full((len(f), 5, 54), np.nan)
    finv_t = np.full((len(f), 3, 3), np.nan)
    _pointwise(_point_geometry, (f, *terms), (coefficients, finv_t), errors)
    return coef, _minima(coefficients, finv_t, vectors, weights), errors


def _span(values: np.ndarray):
    return [float(values.min()), float(values.max())] if values.size else None


def scan_invariant_plane(
    law,
    param_grid,
    lambda1_values,
    lambda2_values,
    directions=None,
) -> StabilityReport:
    """Sweep ``F = diag(l1, l2, 1/(l1 l2))`` over a stretch grid per parameter.

    Records ellipticity (both forms), the monotonicity spot check on the
    stress coefficients, and the ordered-stress check at every point.
    ``directions`` (D, 3) are the probing directions, by default
    :func:`fibonacci_directions`; ``direction_count`` reports D.  The law
    is evaluated once for all parameter rows (in groups of rows when they
    exceed ``_LAW_POINTS`` points) and the point geometry once per scan;
    the points are then taken in blocks of at most ``_BLOCK_PAIRS``
    point-direction pairs (:func:`_minima`), and each block's normals serve
    every row.  Points stay independent: a point whose det F or invariants
    are not finite, that raises a package or linear-algebra error, or whose
    condition values are not finite, records the reason and the scan
    continues.  An error of the law fails the point in its row only, an
    error of the geometry in every row, where it overrides an error of the
    law.  Each verdict is computed as one (R, P) array over the R parameter
    rows and P stretch pairs, which fills a field of the report's ``points``.
    """
    law = as_law(law)
    param_grid = np.atleast_2d(np.asarray(param_grid, dtype=float))
    lambda1_values = np.atleast_1d(np.asarray(lambda1_values, dtype=float))
    lambda2_values = np.atleast_1d(np.asarray(lambda2_values, dtype=float))
    if param_grid.size == 0:
        raise EmptyGridError("parameter grid is empty")
    if lambda1_values.size == 0 or lambda2_values.size == 0:
        raise EmptyGridError("stretch grid is empty")
    vectors = _vectors(fibonacci_directions() if directions is None else directions)

    lam1, lam2 = np.meshgrid(lambda1_values, lambda2_values, indexing="ij")
    lam1, lam2 = lam1.ravel(), lam2.ravel()
    errors = np.full((len(param_grid), len(lam1)), None, dtype=object)
    f, i1, i2, live, terms = _scan_points(lam1, lam2, errors)
    coef = np.full((len(param_grid), len(f), 2), np.nan)
    minima = np.full((len(param_grid), len(f), 2), np.nan)
    stretches = np.full((len(f), 3), np.nan)
    coef[:, live], minima[:, live], errors[:, live] = _scan_minima(
        law, param_grid, f[live], i1[live], i2[live], terms, vectors
    )
    # F is diagonal with positive entries, so its diagonal holds the principal
    # stretches; _baker_ericksen does not depend on their order
    stretches[live] = np.diagonal(f, axis1=-2, axis2=-1)[live]

    finite = np.isfinite(minima).all(axis=-1)
    errors[np.equal(errors, None) & ~finite] = "non-finite condition values"
    ok = np.equal(errors, None)
    # the points as (R, P) fields; a failed point gets False verdicts and NaN
    # minima.  Every field is written, so the zero fill is never read; it is
    # far cheaper than np.recarray's, which fills the object field slot by slot
    points = np.zeros(errors.shape, _point_dtype(param_grid.shape[1]))
    columns = {
        "lambda1": lam1, "lambda2": lam2, "f": f, "i1": i1, "i2": i2,
        "t": param_grid[:, None],
        "elliptic": ok & (minima[..., 0] >= -ELLIPTICITY_TOLERANCE),
        "min_value": np.where(ok, minima[..., 0], np.nan),
        "compressible_elliptic": ok & (minima[..., 1] >= -ELLIPTICITY_TOLERANCE),
        "compressible_min_value": np.where(ok, minima[..., 1], np.nan),
        "be_ok": ok & _baker_ericksen(coef, stretches),
        "mono_ok": ok & np.all(coef >= -BAKER_ERICKSEN_TOLERANCE, axis=-1),
        "error": errors,
    }
    for name, column in columns.items():
        points[name] = column
    region = {"lambda1": _span(lambda1_values), "lambda2": _span(lambda2_values),
              "i1": _span(i1[live]), "i2": _span(i2[live])}
    points = points.view(np.recarray)
    return StabilityReport(
        points.ravel(), _per_parameter(points), region, len(vectors), law.label
    )


def _per_parameter(points: np.recarray) -> list:
    """The ``per_parameter`` entries of a scan's points (R, P): per row its
    ``t``, point count and failed points, and the fraction of its evaluated
    points that pass each check, None where none was evaluated."""
    count = points.shape[1]
    passed = np.count_nonzero(np.equal(points.error, None), axis=-1).tolist()
    passes = [np.count_nonzero(points[field], axis=-1).tolist()
              for field in _FRACTIONS.values()]
    return [
        {"t": t, "points": count, "failed_points": count - n,
         **{key: k / n if n else None for key, k in zip(_FRACTIONS, row)}}
        for t, n, *row in zip(points.t[:, 0].tolist(), passed, *passes)
    ]


def _flags(values: np.ndarray) -> list:
    """``true`` or ``false`` for each of the booleans ``values``."""
    return np.where(values, "true", "false").tolist()


def _reprs(values: np.ndarray) -> list:
    """``repr`` of each entry of the float64 array ``values`` along its first
    axis, as a float or nested list, taken once per distinct entry.  The
    entries are keyed by their exact bytes, so -0.0 and 0.0 are told apart;
    a single float by its bits as an integer, which sorts faster."""
    rows = np.ascontiguousarray(values).reshape(len(values), -1)
    width = rows.shape[1]
    keys = rows.view(np.uint64 if width == 1 else np.dtype((np.void, 8 * width)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    texts = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def _json_column(points: np.recarray, name: str) -> list:
    """The JSON text of the field ``name`` of each point.  Floats are written
    as their ``repr`` (:func:`_reprs`), which is their JSON form when finite;
    ``json`` encodes the error strings and the entries with a value that is
    not finite, except that those of ``_NULLABLE`` are null."""
    values = points[name]
    if values.dtype == bool:
        return _flags(values)
    if values.dtype == object:
        return ["null" if e is None else json.dumps(e) for e in values.tolist()]
    texts = _reprs(values)
    for k in np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=-1)):
        texts[k] = "null" if name in _NULLABLE else json.dumps(values[k].tolist())
    return texts


def write_report_json(report: StabilityReport, path) -> None:
    """Write the report as JSON: the header fields ``direction_count``,
    ``law``, ``per_parameter`` and ``region`` indented, then ``points``
    last, one line per point, a compact object with sorted keys.  Each
    point field is turned into text as a column (:func:`_json_column`), once
    per distinct value, and the lines are joined from one template.
    """
    head = json.dumps({"law": report.law_label, "direction_count": report.direction_count,
                       "region": report.region, "per_parameter": report.per_parameter},
                      indent=2, sort_keys=True)
    names = sorted(report.points.dtype.names)
    line = "{{" + ", ".join(f'"{name}": {{}}' for name in names) + "}}"
    columns = [_json_column(report.points, name) for name in names]
    points = ",\n    ".join(map(line.format, *columns))
    Path(path).write_text(f'{head[:-2]},\n  "points": [\n    {points}\n  ]\n}}\n')


def write_summary_csv(report: StabilityReport, path) -> None:
    """Per-point summary: ``t,lambda1,lambda2,i1,i2,elliptic,min_value,be_ok``.

    The lines are joined as text, with the ``\\r\\n`` ends that
    ``csv.writer`` writes.  No field needs quoting: they are float
    ``repr``s (:func:`_reprs`), ``true`` or ``false``, and ``t`` as
    ``_format_params`` writes it, float ``repr``s joined by ``;``.
    """
    points = report.points
    t = [text for entry in report.per_parameter
         for text in [_format_params(entry["t"])] * entry["points"]]
    lam1, lam2, i1, i2, min_value = (
        _reprs(points[name]) for name in ("lambda1", "lambda2", "i1", "i2", "min_value")
    )
    lines = map(",".join, zip(t, lam1, lam2, i1, i2, _flags(points.elliptic), min_value,
                              _flags(points.be_ok)))
    header = "t,lambda1,lambda2,i1,i2,elliptic,min_value,be_ok"
    Path(path).write_text("\r\n".join([header, *lines, ""]), newline="")
