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
point (see ``_acoustic_geometry``): outer products ``X o Y`` contract to
``(XB) o (YB)``, and the tensor-cross parts of the second invariant
derivatives vanish, because ``eps_IJK B_I B_K = 0``.
"""

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .constitutive import _check_isochoric, _format_params, _tangent_weights, as_law
from .errors import EmptyGridError, InvertedConfigurationError, MonopannError
from .kinematics import isochoric_invariants, principal_stretch_gradient

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
    "PointRecord",
    "StabilityReport",
    "scan_invariant_plane",
    "report_to_dict",
    "write_report_json",
    "write_summary_csv",
]

ELLIPTICITY_TOLERANCE = 1e-8
BAKER_ERICKSEN_TOLERANCE = 1e-12


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


# The acoustic geometry in rank-one closed form (see _acoustic_geometry).
# A point's quantities are laid out flat: the tensors d1, d2, h, F, g2,
# F F^T and C, nine entries each, then the constants 0 and 1.  Each of the
# 13 basis tensors, indexed [s, I, J] with s the symmetric component (i, j),
# is the product of a left and a right factor gathered from that layout.
_ZERO, _ONE = 63, 64
# the first ten are the outer products X o Y of these pairs of tensors:
# d1 d1, d1 d2, d2 d1, d2 d2, h h, h F, F h, h g2, g2 h and F F
_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2),
          (3, 3)]


def _basis_factors(k, i, j, a, b):
    if k < 10:
        x, y = _PAIRS[k]
        return 9 * x + 3 * i + a, 9 * y + 3 * j + b
    if k == 10:  # delta_ij delta_IJ
        return _ONE, _ONE if i == j and a == b else _ZERO
    if k == 11:  # delta_IJ (F F^T)_ij
        return 45 + 3 * i + j, _ONE if a == b else _ZERO
    return 54 + 3 * a + b, _ONE if i == j else _ZERO  # delta_ij C_IJ


_BASIS_LEFT, _BASIS_RIGHT = np.array([
    _basis_factors(k, i, j, a, b)
    for k in range(13) for i, j in zip(_ROW, _COL) for a in range(3) for b in range(3)
]).T
# The weight of each basis tensor (column) in each of the five tangent terms
# (row), as an index into a point's weights (see _acoustic_geometry).
_TERM_WEIGHTS = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # d1 o d1
    [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # d1 o d2 + d2 o d1
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # d2 o d2
    [0, 0, 0, 0, 2, 3, 3, 0, 0, 0, 4, 0, 0],  # d2 I1 / dF2
    [0, 0, 0, 0, 5, 0, 0, 6, 6, 7, 8, 9, 9],  # d2 I2 / dF2
])


def _acoustic_geometry(f: np.ndarray, directions: np.ndarray):
    """The law-independent part of the acoustic tensors of a block of points.

    ``f`` is (P, 3, 3) and ``directions`` (D, 3).  Returns ``(terms,
    normals)``: ``terms`` (P, 5, 6 D) holds the six symmetric components of
    the acoustic tensor of each of the five tangent terms (see
    ``constitutive._tangent_terms``) for every direction, and ``normals``
    (6, P, D) the components of ``m o m`` for the unit normals
    ``m = n / |n|``, ``n = F^-T B``, with the off-diagonal ones doubled, so
    that ``m.Sm`` is the dot product with the components of a symmetric S.

    No fourth-order tensor is formed.  Contracted with ``B_I B_J``, an
    outer product ``X o Y`` of 3x3 tensors gives ``(XB)_i (YB)_j``, and
    every ``kinematics.cross_operator`` part of the second invariant
    derivatives gives 0, because ``eps_IJK B_I B_K = 0``.  With the cofactor
    ``h = J F^-T``, ``C = F^T F`` and ``g2 = 2 (|F|^2 F - F C)``, the raw
    gradient of ``|h|^2``, the terms are then outer products of
    ``d1, d2, h, F, g2`` weighted by powers of J, plus two parts that are
    not: ``2 J^-2/3 |B|^2 I`` in the second derivative of I1, and in that
    of I2 the ``x_f o x_f`` part, which contracts to
    ``2 J^-4/3 [(FB) o (FB) - |B|^2 F F^T - (|FB|^2 - |B|^2 |F|^2) I]``.
    Each term is a weighted sum over a per-point basis of 13 such tensors,
    one (P, 5, 13) @ (P, 13, 6 x 9) product, and one product with the
    dyads ``B_I B_J`` gives its acoustic tensors.

    Raises ``NotIsochoricError`` where ``|det F - 1|`` exceeds the tolerance
    and ``InvertedConfigurationError`` where det F is not finite.
    """
    count = len(f)
    det = _check_isochoric(f)
    if not np.all(np.isfinite(det)):
        raise InvertedConfigurationError("invariant derivatives require det f > 0")
    finv_t = np.swapaxes(np.linalg.inv(f), -1, -2)
    f_t = np.swapaxes(f, -1, -2)
    c = f_t @ f
    h = det[:, None, None] * finv_t
    i1 = np.einsum("pij,pij->p", f, f)
    i2 = np.einsum("pij,pij->p", h, h)
    g2 = 2.0 * (i1[:, None, None] * f - f @ c)
    # J^p and p J^(p-1) for the exponents p = -2/3 (I1) and -4/3 (I2)
    j1, j2 = det ** (-2.0 / 3.0), det ** (-4.0 / 3.0)
    dj1, dj2 = -2.0 / 3.0 * j1 / det, -4.0 / 3.0 * j2 / det
    d1 = (dj1 * i1)[:, None, None] * h + (2.0 * j1)[:, None, None] * f
    d2 = (dj2 * i2)[:, None, None] * h + j2[:, None, None] * g2

    zero, one = np.zeros((count, 1)), np.ones((count, 1))
    flat = np.concatenate(
        [x.reshape(count, 9) for x in (d1, d2, h, f, g2, f @ f_t, c)] + [zero, one],
        axis=1,
    )
    basis = (flat[:, _BASIS_LEFT] * flat[:, _BASIS_RIGHT]).reshape(count, 13, 54)
    # the weights 0 and 1, then per invariant (p = -2/3 for I1, -4/3 for I2)
    # p (p - 1) J^(p-2) |.|^2 for h o h, p J^(p-1) times the factor of the
    # raw gradient (2F, g2) for the mixed pairs with h, and 2 J^p for the
    # raw second derivative, whose identity part for I2 carries |F|^2
    point_weights = np.concatenate(
        [zero, one, np.stack([
            -5.0 / 3.0 * dj1 / det * i1, 2.0 * dj1, 2.0 * j1,
            -7.0 / 3.0 * dj2 / det * i2, dj2, 2.0 * j2, 2.0 * j2 * i1, -2.0 * j2,
        ], axis=1)],
        axis=1,
    )
    terms = (point_weights[:, _TERM_WEIGHTS] @ basis).reshape(-1, 9)
    dyads = (directions.T[:, None] * directions.T[None, :]).reshape(9, -1)
    # Terms and normals are written in place into one allocation.  As
    # separate arrays, in some process layouts, the C heap returned about
    # 1.7 MB to the system after every block and faulted it back in: 4x the
    # minor page faults and a 25% slower scan on a 2-vCPU x86-64 host.
    size = count * 30 * len(directions)
    out = np.empty(size + 6 * count * len(directions))
    np.matmul(terms, dyads, out=out[:size].reshape(count * 30, -1))
    n = finv_t @ directions.T  # (P, 3, D)
    m = (n / np.sqrt(np.einsum("pid,pid->pd", n, n))[:, None]).transpose(1, 0, 2)
    normals = out[size:].reshape(6, count, -1)
    np.multiply(m[_ROW], m[_COL], out=normals)
    normals[3:] *= 2.0
    return out[:size].reshape(count, 5, -1), normals


def _point_weights(law, f: np.ndarray, par) -> np.ndarray:
    """Tangent weights (P, 5) of ``law`` at the points ``f`` (P, 3, 3)."""
    i1, i2 = isochoric_invariants(f)
    return _tangent_weights(law.coefficients(i1, i2, par), law.hessian(i1, i2, par))


def acoustic_tensor(law, f, par, b: np.ndarray) -> np.ndarray:
    """Contract the full tangent twice with probing directions.

    ``f`` is (3, 3) or (P, 3, 3) and ``b`` is (3,) or (D, 3); the result has
    shape ``f.shape[:-2] + b.shape[:-1] + (3, 3)``.  It is built from the
    scan's own geometry and weights.
    """
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    points = f.reshape(-1, 3, 3)
    terms, _ = _acoustic_geometry(points, b.reshape(-1, 3))
    weights = _point_weights(as_law(law), points, par)
    q = (weights[:, None, :] @ terms).reshape(len(points), 6, -1)
    q = np.moveaxis(q[:, _FULL], -1, 1)
    return q.reshape(f.shape[:-2] + b.shape[:-1] + (3, 3))


def _conditions(geometry, weights: np.ndarray):
    """Normalized condition values ``(c1, c2), (d1, d2, d3)``, each (P, D),
    of a block whose geometry is :func:`_acoustic_geometry` and whose tangent
    weights (P, 5) are ``constitutive._tangent_weights``.

    With the components ``(a, b, c, d, e, f)`` of the symmetric acoustic
    tensor Q and the closed forms ``Q x Q = 2 cof Q`` and
    ``Q x I = (tr Q) I - Q``, the values before normalization (see the
    module docstring) are

        c1 = 2 m.cof(Q)m,  c2 = tr Q - m.Qm,
        d1 = 2 cof(Q):Q = 6 det Q,  d2 = 2 tr cof Q,  d3 = 2 tr Q,

    with the unit normal m; the incompressible pair is thereby already
    divided by ``|n|^2``.
    """
    terms, normals = geometry
    q = weights[:, None, :] @ terms
    # component-major (6, P, D), so that each component is contiguous
    q = q.reshape(len(weights), 6, -1).transpose(1, 0, 2).copy()
    a, b, c, d, e, f = q
    cof = np.stack(
        [b * c - f * f, a * c - e * e, a * b - d * d,
         e * f - c * d, d * f - b * e, d * e - a * f]
    )
    tr_q = a + b + c
    tr_cof = cof[0] + cof[1] + cof[2]
    det = a * cof[0] + d * cof[3] + e * cof[4]
    m_q_m = np.einsum("spd,spd->pd", normals, q)
    m_cof_m = np.einsum("spd,spd->pd", normals, cof)
    # |Q|, with the off-diagonal components counted twice
    qnorm = np.sqrt(
        np.einsum("spd,spd->pd", q, q) + np.einsum("spd,spd->pd", q[3:], q[3:])
    )
    # every value is homogeneous of degree k in Q; where Q = 0 all of them
    # are exactly 0, so dividing by 1 there leaves the degenerate pass
    scale = np.where(qnorm == 0.0, 1.0, qnorm)

    c1 = 2.0 * m_cof_m / scale**2
    c2 = (tr_q - m_q_m) / scale
    d1 = 6.0 * det / scale**3
    d2 = 2.0 * tr_cof / scale**2
    d3 = 2.0 * tr_q / scale
    return (c1, c2), (d1, d2, d3)


def _condition_values(law, f, par, directions: np.ndarray):
    """Normalized condition values of every point-direction pair.

    ``f`` is (P, 3, 3), or (3, 3) for P = 1, and ``directions`` (D, 3);
    returns ``(c1, c2)`` and ``(d1, d2, d3)``, each of shape (P, D), from
    :func:`_acoustic_geometry` and :func:`_conditions`.
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float).reshape(-1, 3, 3)
    geometry = _acoustic_geometry(f, np.asarray(directions, dtype=float))
    return _conditions(geometry, _point_weights(law, f, par))


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

    Both are closed forms in ``a`` and ``B``.  With ``C = F^T F``,
    ``w1 = a.F B`` and ``w2 = a.(|F|^2 F - F C) B``, the constitutive term
    is ``4 (psi_11 w1^2 + 2 psi_12 w1 w2 + psi_22 w2^2)`` and the geometric
    term ``2 (psi_1 |a|^2 |B|^2 + psi_2 |(a o B) x F|^2)``, with the tensor
    cross product's square
    ``(a.FB)^2 - |B|^2 |F^T a|^2 - |a|^2 |FB|^2 + |a|^2 |B|^2 |F|^2``.
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float)
    i1, i2 = isochoric_invariants(f)
    coef = law.coefficients(i1, i2, par)
    hess = law.hessian(i1, i2, par)
    f_sq = float(np.sum(f * f))
    # |F|^2 F - F C, half the derivative of |cof F|^2
    g = f_sq * f - f @ f.T @ f

    def constitutive_term(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        w1 = float(a @ f @ b)
        w2 = float(a @ g @ b)
        return 4.0 * (
            float(hess[..., 0, 0]) * w1 * w1
            + 2.0 * float(hess[..., 0, 1]) * w1 * w2
            + float(hess[..., 1, 1]) * w2 * w2
        )

    def geometric_term(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        fb, fta = f @ b, f.T @ a
        aa, bb = float(a @ a), float(b @ b)
        cross_sq = (float(a @ fb) ** 2 - bb * float(fta @ fta)
                    - aa * float(fb @ fb) + aa * bb * f_sq)
        return 2.0 * (
            float(coef[..., 0]) * aa * bb + float(coef[..., 1]) * cross_sq
        )

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


@dataclass
class PointRecord:
    lambda1: float
    lambda2: float
    f: np.ndarray
    i1: float
    i2: float
    t: np.ndarray
    elliptic: bool = False
    min_value: float = np.nan
    compressible_elliptic: bool = False
    compressible_min_value: float = np.nan
    be_ok: bool = False
    mono_ok: bool = False
    error: str | None = None


@dataclass
class StabilityReport:
    points: list
    per_parameter: list
    region: dict
    direction_count: int
    law_label: str

    def elliptic_fraction(self) -> float:
        ok = [p for p in self.points if p.error is None]
        if not ok:
            return float("nan")
        return sum(p.elliptic for p in ok) / len(ok)


# Upper bound on the point-direction pairs evaluated together; it caps the
# scan's scratch memory independently of the grid size.
_BLOCK_PAIRS = 4096
# errors that fail a scan point instead of the scan
_POINT_ERRORS = (MonopannError, np.linalg.LinAlgError)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _row_law_values(law, t, i1, i2, errors):
    """Stress coefficients (P, 2) and tangent weights (P, 5) of one parameter
    row.  If the law raises a point error, the points are evaluated one by
    one; a point that raises it records the reason in ``errors`` (P,) and
    gets NaN values."""

    def evaluate(j1, j2):
        coef = law.coefficients(j1, j2, t)
        return coef, _tangent_weights(coef, law.hessian(j1, j2, t))

    try:
        return evaluate(i1, i2)
    except _POINT_ERRORS:
        pass
    coef, weights = np.full((len(i1), 2), np.nan), np.full((len(i1), 5), np.nan)
    for k in range(len(i1)):
        try:
            c, w = evaluate(i1[k : k + 1], i2[k : k + 1])
        except _POINT_ERRORS as exc:
            errors[k] = _describe(exc)
            continue
        coef[k], weights[k] = c[0], w[0]
    return coef, weights


def _scan_block(f, vectors, weights, minima, errors) -> None:
    """Smallest incompressible and compressible condition values of a block
    of points in every parameter row.

    ``weights`` (R, P, 5) are the rows' tangent weights; the results go to
    ``minima`` (R, P, 2).  The geometry is built once and shared by the
    rows.  If building it raises a point error, the points are evaluated
    one by one, and a point that raises it records the reason in
    ``errors`` (R, P) in every row.
    """
    try:
        geometry = _acoustic_geometry(f, vectors)
    except _POINT_ERRORS as exc:
        if len(f) == 1:
            errors[:, 0] = _describe(exc)
            return
        for k in range(len(f)):
            part = slice(k, k + 1)
            _scan_block(f[part], vectors, weights[:, part], minima[:, part],
                        errors[:, part])
        return
    for row, out in zip(weights, minima):
        (c1, c2), (d1, d2, d3) = _conditions(geometry, row)
        out[:, 0] = np.minimum(c1, c2).min(axis=-1)
        out[:, 1] = np.minimum(np.minimum(d1, d2), d3).min(axis=-1)


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
    The law is evaluated once per parameter row; the points are then taken
    in blocks of at most ``_BLOCK_PAIRS`` point-direction pairs, and each
    block's law-independent geometry serves every row.  Points stay
    independent: a point that raises a package or linear-algebra error, or
    whose condition values are not finite, records the reason and the scan
    continues.  An error of the law fails the point in its row only, an
    error of the geometry in every row.
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
    f = principal_stretch_gradient(lam1, lam2)
    i1, i2 = isochoric_invariants(f)
    stretches = np.linalg.svd(f, compute_uv=False)

    errors = np.full((len(param_grid), len(f)), None, dtype=object)
    rows = [
        _row_law_values(law, t, i1, i2, row_errors)
        for t, row_errors in zip(param_grid, errors)
    ]
    coef = np.stack([row_coef for row_coef, _ in rows])
    weights = np.stack([row_weights for _, row_weights in rows])
    minima = np.full((len(param_grid), len(f), 2), np.nan)
    block = max(_BLOCK_PAIRS // len(vectors), 1)
    for start in range(0, len(f), block):
        part = slice(start, start + block)
        _scan_block(f[part], vectors, weights[:, part], minima[:, part],
                    errors[:, part])

    columns = {
        "min_value": minima[..., 0],
        "elliptic": minima[..., 0] >= -ELLIPTICITY_TOLERANCE,
        "compressible_min_value": minima[..., 1],
        "compressible_elliptic": minima[..., 1] >= -ELLIPTICITY_TOLERANCE,
        "be_ok": _baker_ericksen(coef, stretches),
        "mono_ok": np.all(coef >= -BAKER_ERICKSEN_TOLERANCE, axis=-1),
    }
    columns = {name: column.tolist() for name, column in columns.items()}
    finite = np.isfinite(minima).all(axis=-1).tolist()
    coords = list(zip(lam1.tolist(), lam2.tolist(), f, i1.tolist(), i2.tolist()))
    points = []
    per_parameter = []
    for r, t in enumerate(param_grid):
        t_points = []
        for k, (l1, l2, fk, j1, j2) in enumerate(coords):
            record = PointRecord(l1, l2, fk, j1, j2, t)
            if errors[r, k] is not None:
                record.error = errors[r, k]
            elif not finite[r][k]:
                record.error = "non-finite condition values"
            else:
                for name, column in columns.items():
                    setattr(record, name, column[r][k])
            t_points.append(record)
        points.extend(t_points)
        ok = [p for p in t_points if p.error is None]
        denom = max(len(ok), 1)
        per_parameter.append(
            {
                "t": [float(v) for v in t],
                "points": len(t_points),
                "failed_points": len(t_points) - len(ok),
                "elliptic_fraction": sum(p.elliptic for p in ok) / denom,
                "compressible_fraction": sum(p.compressible_elliptic for p in ok)
                / denom,
                "be_fraction": sum(p.be_ok for p in ok) / denom,
                "mono_fraction": sum(p.mono_ok for p in ok) / denom,
            }
        )
    region = {
        "lambda1": [float(lambda1_values.min()), float(lambda1_values.max())],
        "lambda2": [float(lambda2_values.min()), float(lambda2_values.max())],
        "i1": [min(p.i1 for p in points), max(p.i1 for p in points)],
        "i2": [min(p.i2 for p in points), max(p.i2 for p in points)],
    }
    return StabilityReport(
        points, per_parameter, region, directions.count, law.label
    )


def report_to_dict(report: StabilityReport) -> dict:
    return {
        "law": report.law_label,
        "direction_count": report.direction_count,
        "region": report.region,
        "per_parameter": report.per_parameter,
        "points": [
            {
                "lambda1": p.lambda1,
                "lambda2": p.lambda2,
                "f": p.f.tolist(),
                "i1": p.i1,
                "i2": p.i2,
                "t": [float(v) for v in p.t],
                "elliptic": p.elliptic,
                "min_value": None if np.isnan(p.min_value) else p.min_value,
                "compressible_elliptic": p.compressible_elliptic,
                "compressible_min_value": None
                if np.isnan(p.compressible_min_value)
                else p.compressible_min_value,
                "be_ok": p.be_ok,
                "mono_ok": p.mono_ok,
                "error": p.error,
            }
            for p in report.points
        ],
    }


def write_report_json(report: StabilityReport, path) -> None:
    """Write :func:`report_to_dict` as JSON: the header fields indented, then
    ``points`` last with one compact line per point, which keeps the write
    on the C encoder."""
    doc = report_to_dict(report)
    points = ",\n    ".join(json.dumps(p, sort_keys=True) for p in doc.pop("points"))
    head = json.dumps(doc, indent=2, sort_keys=True)
    Path(path).write_text(f'{head[:-2]},\n  "points": [\n    {points}\n  ]\n}}\n')


def write_summary_csv(report: StabilityReport, path) -> None:
    """Per-point summary: ``t,lambda1,lambda2,i1,i2,elliptic,min_value,be_ok``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "lambda1", "lambda2", "i1", "i2", "elliptic", "min_value", "be_ok"]
        )
        for p in report.points:
            writer.writerow(
                [
                    _format_params(p.t),
                    repr(p.lambda1),
                    repr(p.lambda2),
                    repr(p.i1),
                    repr(p.i2),
                    "true" if p.elliptic else "false",
                    repr(float(p.min_value)),
                    "true" if p.be_ok else "false",
                ]
            )
