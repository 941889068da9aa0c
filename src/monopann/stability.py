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

and is strictly stronger; it is provided as a diagnostic.  Directions are
sampled deterministically on the unit sphere.

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

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .constitutive import _check_isochoric, _format_params, _tangent_weights, as_law
from .errors import EmptyGridError, MonopannError
from .kinematics import (
    _invariant_terms,
    _isochoric,
    isochoric_invariants,
    principal_stretch_gradient,
)

__all__ = [
    "ELLIPTICITY_TOLERANCE",
    "DirectionGenerator",
    "DirectionSet",
    "fibonacci_directions",
    "spherical_grid_directions",
    "direction_set",
    "acoustic_tensor",
    "ellipticity_incompressible",
    "ellipticity_compressible",
    "hessian_decomposition",
    "tangent_plane_basis",
    "baker_ericksen_check",
    "StabilityReport",
    "scan_invariant_plane",
    "write_report_json",
    "write_summary_csv",
]

ELLIPTICITY_TOLERANCE = 1e-8
BAKER_ERICKSEN_TOLERANCE = 1e-12
_TINY = np.finfo(float).tiny


class DirectionGenerator(Enum):
    FIBONACCI_LATTICE = "fibonacci_lattice"
    SPHERICAL_GRID = "spherical_grid"


@dataclass(frozen=True)
class DirectionSet:
    vectors: np.ndarray
    generator: DirectionGenerator
    count: int


def fibonacci_directions(count: int = 200) -> np.ndarray:
    """Deterministic, near-uniform unit vectors from the Fibonacci lattice."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    vecs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def spherical_grid_directions(count: int = 200) -> np.ndarray:
    """Latitude-longitude grid; kept as an alternative parametrization."""
    n_theta = max(int(np.sqrt(count / 2.0)), 2)
    n_phi = 2 * n_theta
    theta = (np.arange(n_theta) + 0.5) / n_theta * np.pi
    phi = np.arange(n_phi) / n_phi * 2.0 * np.pi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    vecs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def direction_set(
    generator: DirectionGenerator = DirectionGenerator.FIBONACCI_LATTICE,
    count: int = 200,
) -> DirectionSet:
    """About ``count`` directions from ``generator`` (the spherical grid
    rounds the count to its lattice); ``EmptyGridError`` for a count below 1."""
    if count < 1:
        raise EmptyGridError(f"direction count must be at least 1, got {count}")
    if generator is DirectionGenerator.FIBONACCI_LATTICE:
        vectors = fibonacci_directions(count)
    else:
        vectors = spherical_grid_directions(count)
    return DirectionSet(vectors, generator, vectors.shape[0])


def _vectors(directions) -> np.ndarray:
    vectors = directions.vectors if isinstance(directions, DirectionSet) else directions
    return np.atleast_2d(np.asarray(vectors, dtype=float))


# the six independent components of a symmetric 3x3 tensor, in the order
# (00, 11, 22, 01, 02, 12), and the component at each entry of the full
# tensor
_ROW = np.array([0, 1, 2, 0, 0, 1])
_COL = np.array([0, 1, 2, 1, 2, 2])
_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_SYMMETRIC = list(zip(_ROW.tolist(), _COL.tolist()))
# delta_ij at each symmetric component, and delta_ij delta_IJ laid out as
# in _outer
_DIAGONAL = np.eye(3)[_ROW, _COL]
_DELTA = _DIAGONAL[:, None, None] * np.eye(3)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (P, 6, 3, 3) of ``B_I B_J`` in the symmetric components
    (i, j) of ``(xB) o (yB)``, for (P, 3, 3) tensors x and y: the entries
    ``x[i, I] y[j, J]``."""
    return x[:, _ROW, :, None] * y[:, _COL, None, :]


def _point_geometry(f: np.ndarray, *terms):
    """The law- and direction-independent part of the acoustic tensors of
    the points ``f`` (P, 3, 3), built once per scan.  ``terms`` are the
    points' ``kinematics._invariant_terms``, computed here if not given.

    Returns ``(coefficients, finv_t)``: ``coefficients`` (P, 5, 54) holds,
    for each of the five tangent terms (see ``constitutive._tangent_terms``),
    the coefficients of ``B_I B_J`` in the six symmetric components of its
    acoustic tensor, laid out as (6, 9), so that ``coefficients @ dyads``
    are the terms' acoustic tensors; ``finv_t`` is ``F^-T`` (P, 3, 3).

    Contracted with ``B o B``, an outer product ``X o Y`` gives
    ``(XB) o (YB)`` (:func:`_outer`), and every ``kinematics.cross_operator``
    part of the second invariant derivatives gives 0.  With the cofactor
    ``h``, ``C = F^T F`` and ``g2``, the raw gradient of ``|h|^2`` (see
    ``kinematics._invariant_terms``), each term is a weighted sum of outer
    products of ``d1, d2, h, F, g2``, plus two parts: ``2 J^-2/3 |B|^2 I``
    in the second derivative of I1, and in that of I2 the contraction of
    its ``x_f o x_f`` part, ``2 J^-4/3 [(FB) o (FB) - |B|^2 F F^T
    - (|FB|^2 - |B|^2 |F|^2) I]``.

    Raises ``NotIsochoricError`` where ``|det F - 1|`` exceeds the tolerance
    and ``InvertedConfigurationError`` where det F is not finite.
    """
    _check_isochoric(f)
    det, h, i1, i2, g2, d1, d2 = terms or _invariant_terms(f)
    c = np.swapaxes(f, -1, -2) @ f
    f_ft = f @ np.swapaxes(f, -1, -2)
    finv_t = h / det[:, None, None]
    # J, |F|^2 and |h|^2 shaped to scale the (P, 6, 3, 3) outer products
    det, i1, i2 = (x[:, None, None, None] for x in (det, i1, i2))
    # J^p and p J^(p-1) for the exponents p = -2/3 (I1) and -4/3 (I2)
    j1, j2 = det ** (-2.0 / 3.0), det ** (-4.0 / 3.0)
    dj1, dj2 = -2.0 / 3.0 * j1 / det, -4.0 / 3.0 * j2 / det
    hh = _outer(h, h)
    # per invariant: p (p - 1) J^(p-2) |.|^2 for h o h, p J^(p-1) times the
    # raw gradient's factor (2F, g2) for the mixed pairs with h, and J^p
    # times the contraction of the raw second derivative
    terms = np.stack([
        _outer(d1, d1),
        _outer(d1, d2) + _outer(d2, d1),
        _outer(d2, d2),
        -5.0 / 3.0 * dj1 / det * i1 * hh + 2.0 * dj1 * (_outer(h, f) + _outer(f, h))
        + 2.0 * j1 * _DELTA,
        -7.0 / 3.0 * dj2 / det * i2 * hh + dj2 * (_outer(h, g2) + _outer(g2, h))
        + 2.0 * j2 * (_outer(f, f) - f_ft[:, _ROW, _COL, None, None] * np.eye(3)
                      - _DIAGONAL[:, None, None] * c[:, None] + i1 * _DELTA),
    ], axis=1)
    return terms.reshape(len(f), 5, 54), finv_t


def _dyads(directions: np.ndarray) -> np.ndarray:
    """The products ``B_I B_J`` (9, D) of the directions (D, 3)."""
    b_t = directions.T
    return (b_t[:, None] * b_t[None, :]).reshape(9, len(directions))


def _normal_shapes(count: int, dirs: int):
    """Shapes of the normals of a block of ``count`` points and ``dirs``
    directions, then of their intermediates ``n = F^-T B`` and ``|n|``."""
    return (6, count, dirs), (3, count, dirs), (count, dirs)


def _condition_shapes(count: int, dirs: int):
    """Shapes of the intermediates of _conditions: one row's coefficients of
    ``B_I B_J``, point-major and component-major, Q, cof Q, then seven
    (P, D) planes."""
    planes = ((count, dirs),) * 7
    return ((count, 1, 54), (6, count, 9), (6, count, dirs), (6, count, dirs)) + planes


def _size(shapes) -> int:
    return sum(math.prod(shape) for shape in shapes)


def _workspace(count: int, dirs: int) -> np.ndarray:
    """Scratch memory for blocks of up to ``count`` points and ``dirs``
    directions: one flat buffer that _normals and _conditions split into
    views with _carve.

    The normals come first and are kept for every parameter row; behind
    them, the normals' intermediates and then those of the conditions share
    the rest.  Every intermediate of size (P, D) or larger is written into a
    view with ``out=``, so that a scan allocates almost nothing per block:
    large temporaries freed and taken again per block made the C heap return
    memory to the system and fault it back in.  Nothing is read from the
    buffer before it is written in the same block.
    """
    normals, *scratch = _normal_shapes(count, dirs)
    rest = max(_size(scratch), _size(_condition_shapes(count, dirs)))
    return np.empty(math.prod(normals) + rest)


def _carve(work: np.ndarray, shapes):
    """Consecutive views of the flat buffer ``work`` with the given shapes,
    and the rest of the buffer."""
    views = []
    for shape in shapes:
        size = math.prod(shape)
        views.append(work[:size].reshape(shape))
        work = work[size:]
    return views, work


def _normals(finv_t: np.ndarray, directions: np.ndarray, work: np.ndarray):
    """The direction-dependent part of the acoustic geometry of a block.

    ``finv_t`` is the block's ``F^-T`` (P, 3, 3), ``directions`` (D, 3) and
    ``work`` a :func:`_workspace` for at least P points and D directions.
    Returns the components (6, P, D) of ``m o m`` for the unit normals
    ``m = n / |n|``, ``n = F^-T B``, with the off-diagonal ones doubled, so
    that ``m.Sm`` is the dot product with the components of a symmetric S.
    They are the first view of ``work``; they and every intermediate are
    written into it with ``out=``, ``n`` component-major (3, P, D).
    """
    count, dirs = len(finv_t), len(directions)
    (normals, n, norm), _ = _carve(work, _normal_shapes(count, dirs))
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
    the invariants ``i1``, ``i2`` (P,)."""
    coef = law.coefficients(i1, i2, par)
    return coef, _tangent_weights(coef, law.hessian(i1, i2, par))


def acoustic_tensor(law, f, par, b: np.ndarray) -> np.ndarray:
    """Contract the full tangent twice with probing directions.

    ``f`` is (3, 3) or (P, 3, 3) and ``b`` is (3,) or (D, 3); the result has
    shape ``f.shape[:-2] + b.shape[:-1] + (3, 3)``.  It is built from the
    scan's own geometry and weights.
    """
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    points, vectors = f.reshape(-1, 3, 3), b.reshape(-1, 3)
    _check_isochoric(points)
    terms = _invariant_terms(points)
    coefficients, _ = _point_geometry(points, *terms)
    weights = _law_values(as_law(law), par, *_isochoric(terms))[1]
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
    ``normals`` (6, P, D) are :func:`_normals`, built at the start of
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
    rest = work[normals.size:]
    (row, tensor, q, cof, c1, c2, d1, d2, d3, tr_q, tmp), _ = _carve(
        rest, _condition_shapes(count, dirs)
    )
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


def _condition_values(law, f, par, directions: np.ndarray):
    """Normalized condition values of every point-direction pair.

    ``f`` is (P, 3, 3), or (3, 3) for P = 1, and ``directions`` (D, 3);
    returns ``(c1, c2)`` and ``(d1, d2, d3)``, each of shape (P, D), from
    :func:`_point_geometry`, :func:`_normals` and :func:`_conditions`.
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float).reshape(-1, 3, 3)
    directions = np.asarray(directions, dtype=float)
    _check_isochoric(f)
    terms = _invariant_terms(f)
    coefficients, finv_t = _point_geometry(f, *terms)
    work = _workspace(len(f), len(directions))
    normals = _normals(finv_t, directions, work)
    weights = _law_values(law, par, *_isochoric(terms))[1]
    return _conditions(coefficients, _dyads(directions), normals, weights, work)


def ellipticity_incompressible(law, f, par, directions) -> tuple[bool, float]:
    """Evaluate both unit-determinant ellipticity conditions over a direction set.

    Returns ``(elliptic, min_value)`` where ``min_value`` is the smallest
    normalized condition value; the point counts as elliptic when it stays
    above ``-ELLIPTICITY_TOLERANCE``.
    """
    (c1, c2), _ = _condition_values(law, f, par, _vectors(directions))
    min_value = float(min(c1.min(), c2.min()))
    return min_value >= -ELLIPTICITY_TOLERANCE, min_value


def ellipticity_compressible(law, f, par, directions) -> tuple[bool, float]:
    """Evaluate the three positive-semi-definiteness conditions of Q itself.

    Strictly stronger than the unit-determinant form: a pass here implies a
    pass of :func:`ellipticity_incompressible` at the same point.
    """
    _, (d1, d2, d3) = _condition_values(law, f, par, _vectors(directions))
    min_value = float(min(d1.min(), d2.min(), d3.min()))
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
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float)
    f_t = np.swapaxes(f, -1, -2)
    terms = _invariant_terms(f)
    i1, i2 = _isochoric(terms)
    _, _, f_sq, _, g2, _, _ = terms
    coef = law.coefficients(i1, i2, par)
    hess = law.hessian(i1, i2, par)
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


def tangent_plane_basis(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal pair spanning the admissible first vectors for direction b.

    Rank-one increments ``a o b`` stay in the unit-determinant tangent space
    exactly when ``a`` is orthogonal to ``F^-T b``.
    """
    n = np.linalg.inv(f).T @ np.asarray(b, dtype=float)
    n = n / np.linalg.norm(n)
    pick = np.eye(3)[np.argmin(np.abs(n))]
    e1 = pick - (pick @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return np.stack([e1, e2])


def _baker_ericksen(coef: np.ndarray, stretches: np.ndarray) -> np.ndarray:
    values = coef[..., :1] + stretches**2 * coef[..., 1:]
    return np.all(values >= -BAKER_ERICKSEN_TOLERANCE, axis=-1)


def baker_ericksen_check(law, f, par) -> np.ndarray:
    """Sufficient monotonicity condition for the ordered-stress inequalities.

    True when ``dpsi/dI1 + lam_i^2 dpsi/dI2`` is non-negative for all three
    principal stretches of f; broadcasts over leading axes of f.
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float)
    i1, i2 = isochoric_invariants(f)
    coef = law.coefficients(i1, i2, par)
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
# scan's scratch memory per block independently of the grid size: one
# workspace of 25 floats per pair and 108 per point, 0.8 MB at 200
# directions, made once per scan.  The point geometry is built once per scan
# for the whole grid and adds 2.2 kB of coefficients per point.
_BLOCK_PAIRS = 4096
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
    :func:`_point_geometry`, ``directions`` (D, 3) and ``dyads`` the scan's
    directions and their :func:`_dyads`, and ``weights`` (R, P, 5) the
    rows' tangent weights; the results go to ``minima`` (R, P, 2).
    ``work`` is the scan's :func:`_workspace`.  Only the direction-dependent
    normals are built per block, once, and serve every row.  A point whose
    geometry or weights are NaN gets NaN minima.
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
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = principal_stretch_gradient(lam1, lam2)
        det = np.linalg.det(f)
        valid = np.isfinite(det) & (det > 0.0)
        terms = _invariant_terms(f[valid])
        i1, i2 = np.full((2, len(f)), np.nan)
        i1[valid], i2[valid] = _isochoric(terms)
    finite = np.isfinite(i1) & np.isfinite(i2)
    for k in np.flatnonzero(~valid):
        errors[:, k] = f"det F = {det[k]:.6g} is not finite and positive"
    for k in np.flatnonzero(valid & ~finite):
        errors[:, k] = f"isochoric invariants not finite: I1 = {i1[k]:.6g}, I2 = {i2[k]:.6g}"
    live = np.flatnonzero(valid & finite)
    return f, i1, i2, live, [term[finite[valid]] for term in terms]


def _scan_minima(law, param_grid, f, i1, i2, terms, vectors):
    """Stress coefficients (R, P, 2), smallest incompressible and
    compressible condition values (R, P, 2) and point errors (R, P) of the
    points ``f`` (P, 3, 3) with invariants ``i1``, ``i2`` and invariant
    terms ``terms`` in every parameter row; see
    :func:`scan_invariant_plane`."""
    errors = np.full((len(param_grid), len(f)), None, dtype=object)
    coef = np.full((len(param_grid), len(f), 2), np.nan)
    weights = np.full((len(param_grid), len(f), 5), np.nan)
    for t, row_coef, row_weights, row_errors in zip(param_grid, coef, weights, errors):
        _pointwise(partial(_law_values, law, t), (i1, i2), (row_coef, row_weights),
                   row_errors)
    coefficients = np.full((len(f), 5, 54), np.nan)
    finv_t = np.full((len(f), 3, 3), np.nan)
    _pointwise(_point_geometry, (f, *terms), (coefficients, finv_t), errors)
    dyads = _dyads(vectors)
    minima = np.full((len(param_grid), len(f), 2), np.nan)
    block = max(_BLOCK_PAIRS // len(vectors), 1)
    work = _workspace(min(block, len(f)), len(vectors))
    for start in range(0, len(f), block):
        part = slice(start, start + block)
        _scan_block(coefficients[part], finv_t[part], vectors, dyads,
                    weights[:, part], minima[:, part], work)
    return coef, minima, errors


def _span(values: np.ndarray):
    return [float(values.min()), float(values.max())] if values.size else None


def scan_invariant_plane(
    law,
    param_grid,
    lambda1_values,
    lambda2_values,
    directions: DirectionSet | None = None,
) -> StabilityReport:
    """Sweep ``F = diag(l1, l2, 1/(l1 l2))`` over a stretch grid per parameter.

    Records ellipticity (both forms), the monotonicity spot check on the
    stress coefficients, and the ordered-stress check at every point.
    The law is evaluated once per parameter row and the point geometry once
    per scan; the points are then taken in blocks of at most
    ``_BLOCK_PAIRS`` point-direction pairs, and each block's normals serve
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
    if directions is None:
        directions = direction_set()
    vectors = directions.vectors
    if len(vectors) == 0:
        raise EmptyGridError("direction set is empty")

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
    stretches[live] = np.linalg.svd(f[live], compute_uv=False)

    finite = np.isfinite(minima).all(axis=-1)
    errors[np.equal(errors, None) & ~finite] = "non-finite condition values"
    ok = np.equal(errors, None)
    # the points as (R, P) fields; a failed point gets False verdicts and NaN minima
    points = np.recarray(errors.shape, _point_dtype(param_grid.shape[1]))
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
    return StabilityReport(
        points.ravel(), _per_parameter(points), region, directions.count, law.label
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


def _json_column(points: np.recarray, name: str) -> list:
    """The JSON text of the field ``name`` of each point.  Floats are written
    as their ``repr``, which is their JSON form when finite; ``json`` encodes
    the error strings and the entries with a value that is not finite,
    except that those of ``_NULLABLE`` are null."""
    values = points[name]
    if values.dtype == bool:
        return _flags(values)
    if values.dtype == object:
        return ["null" if e is None else json.dumps(e) for e in values.tolist()]
    texts = list(map(repr, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=-1)):
        texts[k] = "null" if name in _NULLABLE else json.dumps(values[k].tolist())
    return texts


def write_report_json(report: StabilityReport, path) -> None:
    """Write the report as JSON: the header fields ``direction_count``,
    ``law``, ``per_parameter`` and ``region`` indented, then ``points``
    last, one line per point, a compact object with sorted keys.  Each
    point field is turned into text once, as a column (:func:`_json_column`),
    and the lines are joined from one template.
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
    """Per-point summary: ``t,lambda1,lambda2,i1,i2,elliptic,min_value,be_ok``."""
    points = report.points
    t = [text for entry in report.per_parameter
         for text in [_format_params(entry["t"])] * entry["points"]]
    lam1, lam2, i1, i2, min_value = (
        map(repr, points[name].tolist())
        for name in ("lambda1", "lambda2", "i1", "i2", "min_value")
    )
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "lambda1", "lambda2", "i1", "i2", "elliptic", "min_value", "be_ok"]
        )
        writer.writerows(zip(t, lam1, lam2, i1, i2, _flags(points.elliptic), min_value,
                             _flags(points.be_ok)))
