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

The conditions are evaluated in the principal frame, without the
fourth-order tangent.  A scan point is ``F = diag(l)``; any other F is
``U diag(s) V^T`` with U and V rotations, and the law is isotropic, so its
values in direction B are those of ``diag(s)`` in direction ``V^T B``
(Simpson & Spector, ARMA 1983).  Q is the tangent's weighted sum of five
law-independent terms, and at a diagonal F each term contracted with
``B o B`` has the same sparse form: ``Q_jk = O_jk B_j B_k`` off the
diagonal and ``Q_ii = sum_J N_iJ B_J^2`` on it (see ``_point_geometry``).
Every numerator and denominator of the normalized values is then a
polynomial of degree 1 to 3 in the squares ``x = (B_J^2)``, whose
coefficients are built once per parameter row and point
(``_polynomials``); the values at D directions are one product per degree
with the directions' monomials, and a few elementwise steps.
"""

import json
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import combinations_with_replacement, product
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
    _check_determinant,
    _isochoric,
    _principal_terms,
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
    good = np.isfinite(vectors).all(axis=-1) & vectors.any(axis=-1)
    if not good.all():
        k = int(np.argmin(good))
        raise ShapeMismatchError(
            f"direction {k} is not finite and nonzero: {vectors[k].tolist()}"
        )
    return vectors


# the off-diagonal components (j, k) = (m + 1, m + 2) mod 3 of a symmetric
# 3x3 tensor, indexed by the third index m: (1, 2), (2, 0) and (0, 1)
_NEXT = np.array([1, 2, 0])
_LAST = np.array([2, 0, 1])
_SHIFTED = np.concatenate([_NEXT, _LAST])
# the monomials of x = (B_0^2, B_1^2, B_2^2) of degrees 1, 2 and 3, as
# sorted index tuples (K = 3, 6 and 10), in the order of the condition
# polynomials' coefficients and of the direction features; and those of
# degrees 2 and 3 as the product of one of the degree below and an x_J
_MONOMIALS = [list(combinations_with_replacement(range(3), d)) for d in (1, 2, 3)]
_FACTORS = [(np.array([lower.index(m[:-1]) for m in monomials]),
             np.array([m[-1] for m in monomials]))
            for lower, monomials in zip(_MONOMIALS, _MONOMIALS[1:])]


def _symmetrizer(entries) -> np.ndarray:
    """The map (E, K) from the coefficients of the E products ``x_J x_K ..``
    of the index tuples ``entries``, all of one degree, to the coefficients
    of the monomials of that degree."""
    index = {m: k for k, m in enumerate(_MONOMIALS[len(entries[0]) - 1])}
    out = np.zeros((len(entries), len(index)))
    for row, entry in enumerate(entries):
        out[row, index[tuple(sorted(entry))]] = 1.0
    return out


# the products that the quadratic and cubic forms of _polynomials hold: the
# entries of a 3x3 table and a 3x3x3 tensor, then x_j x_k at the three
# off-diagonal components, then x_j x_k x_L at each of them and x_0 x_1 x_2
_CROSS = list(zip(_NEXT.tolist(), _LAST.tolist()))
_SQUARES = _symmetrizer([*product(range(3), repeat=2), *_CROSS])
_CUBES = _symmetrizer([*product(range(3), repeat=3),
                       *((j, k, last) for j, k in _CROSS for last in range(3)), (0, 1, 2)])
# the symmetrizers (q, E, K) of each quadratic and cubic form of
# _polynomials, times the powers of two (and signs) of its entries: those of
# the table and the cross products of each quadratic form, the 2 of
# 2 n.cof(Q)n and the sign of the o_m^2 entries of det Q.  Each scales a
# product by a power of two, which is exact, so the forms equal those with
# the factors applied to their entries bit for bit.
_QUADRATIC = np.stack([_SQUARES * np.repeat(factors, [9, 3])[:, None]
                       for factors in ((1.0, 2.0), (1.0, -2.0), (2.0, -2.0))])
_CUBIC = np.stack([2.0 * _CUBES, _CUBES * np.repeat([1.0, -1.0, 1.0], [27, 9, 1])[:, None]])


# the pairs (x, y) of the diagonals of (d1, d2, h, F, g2), by index, whose
# products _point_geometry forms: x x of d1, d2, h and F at 0, 2, 3 and 6,
# and x y + y x of (d1, d2), (h, F) and (h, g2), x y at 1, 4 and 5 and y x
# at 7, 8 and 9
_LEFT = np.array([0, 0, 1, 2, 2, 2, 3, 1, 3, 4])
_RIGHT = np.array([0, 1, 1, 2, 3, 4, 3, 0, 2, 2])
# the entries (20, 6) of the diagonals (5, 3) that the products take, those
# of each x, then of each y: at the off-diagonal components (j, k) =
# (_NEXT, _LAST) for x_j y_k, then at the diagonal ones for x_i y_i
_TAKEN = (np.concatenate([_LEFT, _RIGHT])[:, None],
          np.repeat([np.r_[_NEXT, 0:3], np.r_[_LAST, 0:3]], len(_LEFT), axis=0))
# delta_iJ - 1 at row i and column J of a 3x3 table
_OFF_DIAGONAL = (np.eye(3) - 1.0)[..., None]
# per invariant I1, I2: the exponent p of J, p - 1, and the factor of
# p J^(p-1) in the mixed terms with h: 2 of 2F, 1 of g2
_EXPONENTS = np.array([[-2.0 / 3.0], [-4.0 / 3.0]])
_LOWERED = np.array([[-5.0 / 3.0], [-7.0 / 3.0]])
_MIXED = np.array([[2.0], [1.0]])


def _point_geometry(s: np.ndarray, *terms):
    """The law- and direction-independent part of the acoustic tensors at
    the diagonal deformation gradients ``diag(s)``, for the principal
    stretches ``s`` (P, 3).  ``terms`` are the points'
    ``kinematics._principal_terms``, whose det is checked here.

    Returns ``(geometry, inverse)``.  ``geometry`` (P, 5, 12) holds, for
    each of the five tangent terms (see ``constitutive._tangent_terms``),
    the coefficients of its acoustic tensor Q in the squares ``B_J^2``: the
    off-diagonal multiples ``Q_jk = O_jk B_j B_k`` at the three components
    ``(j, k) = (_NEXT, _LAST)``, then the 3x3 table of ``Q_ii = sum_J N_iJ
    B_J^2``, flattened.  ``inverse`` (P, 3) is the diagonal of ``F^-T``,
    which maps B to the normal ``n = F^-T B``, scaled by a power of two per
    point so that its largest entry lies in [0.5, 1); the conditions are
    homogeneous in n, so the scaling changes no bit of them.

    At a diagonal F the invariant terms are diagonal, so each outer product
    ``X o Y`` contracts with ``B o B`` to ``(X_j Y_k) B_j B_k`` and the
    second derivative of det to 0.  With ``g2``, the raw gradient of
    ``|h|^2`` (see ``kinematics._invariant_terms``), each term is a weighted
    sum of such products of ``d1, d2, h, F, g2``, plus ``2 J^-2/3 |B|^2 I``
    in the second derivative of I1 and, in that of I2, the contraction of
    its ``x_f o x_f`` part, ``2 J^-4/3 [(FB) o (FB) - |B|^2 F F^T
    - (|FB|^2 - |B|^2 |F|^2) I]``.

    Raises ``NotIsochoricError`` where ``|det F - 1|`` exceeds the tolerance
    and ``InvertedConfigurationError`` where det F is not finite.
    """
    _check_isochoric(terms[0])
    det, h, i1, i2, g2, d1, d2 = terms
    # every step runs along the points: the diagonals of (d1, d2, h, F, g2)
    # as rows (5, 3, P)
    v = np.stack([x.T for x in (d1, d2, h, s, g2)])
    inverse = v[2] / det
    inverse = np.ldexp(inverse, -np.frexp(inverse.max(axis=0))[1])
    # the products (10, 6, P) x_j y_k at the off-diagonal components and
    # x_i y_i at the diagonal ones of (XB) o (YB) for the pairs (_LEFT,
    # _RIGHT), the mixed ones then summed to those of (XB) o (YB) + (YB) o (XB)
    taken = v[_TAKEN]
    products = taken[:10] * taken[10:]
    products[1] += products[7]
    products[4:6] += products[8:]
    # J^p and p J^(p-1) for the exponents p = -2/3 (I1) and -4/3 (I2)
    j1, j2 = det ** (-2.0 / 3.0), det ** (-4.0 / 3.0)
    dj = _EXPONENTS * np.stack([j1, j2]) / det
    geometry = np.zeros((5, 12, len(det)))
    # the entries of the products: O at the off-diagonal components, N_ii
    # on the diagonal of the 3x3 table
    off, diagonal = geometry[:, :3], geometry[:, 3::4]
    off[:3], diagonal[:3] = products[:3, :3], products[:3, 3:]
    # per invariant: p (p - 1) J^(p-2) |.|^2 for h o h, p J^(p-1) times the
    # raw gradient's factor (2F, g2) for the mixed pairs with h, and J^p
    # times the contraction of the raw second derivative: 2 I for I1, and
    # for I2 F_j F_k off the diagonal and, at row i and column J,
    # delta_iJ F_i^2 - (F F^T)_ii - C_JJ + |F|^2
    geometry[3, 3:] = 2.0 * j1
    square = products[6, 3:]
    raw = square[:, None] * _OFF_DIAGONAL
    raw -= square
    raw += i1
    j2_2 = 2.0 * j2
    off[4] = products[6, :3] * j2_2
    np.multiply(raw.reshape(9, -1), j2_2, out=geometry[4, 3:])
    scale = _LOWERED * dj / det * np.stack([i1, i2])
    isochoric = scale[:, None] * products[3] + products[4:6] * (_MIXED * dj)[:, None]
    off[3:] += isochoric[:, :3]
    diagonal[3:] += isochoric[:, 3:]
    return np.ascontiguousarray(geometry.transpose(2, 0, 1)), inverse.T


def _polynomials(weights: np.ndarray, geometry: np.ndarray, inverse: np.ndarray):
    """Coefficients of the condition polynomials in ``x = (B_J^2)`` of the
    points with the :func:`_point_geometry` ``geometry`` (P, 5, 12) and
    ``inverse`` (P, 3) in each row of the tangent weights ``weights`` (R, P,
    5).

    Returns ``(linear, quadratic, cubic)``, shaped (R, 2, P, 3), (R, 3, P, 6)
    and (R, 2, P, 10), in the monomials ``_MONOMIALS`` of ``x``:

    * linear: ``|n|^2`` and ``2 tr Q``;
    * quadratic: ``|Q|^2``, ``tr Q |n|^2 - n.Qn`` and ``2 tr cof Q``;
    * cubic: ``2 n.cof(Q)n`` and ``6 det Q``.

    Per (row, point), the weighted terms give ``Q_jk = O_jk B_j B_k`` and
    ``Q_ii = a_i = N_i.x``, which are first scaled by the power of two that
    puts their largest coefficient in [0.5, 1): every normalized value is
    homogeneous of degree 0 in Q, so that changes none of its bits, and the
    numerators then over- or underflow no sooner than a Q of norm 1 would.
    With the columns ``t`` of tr Q, the squares ``k`` of ``inverse`` (so
    that ``|n|^2 = k.x``) and ``o_m = O_jk`` at ``(j, k) = (m + 1, m + 2)``,
    the quadratics are the forms ``x^T A x`` of

        |Q|^2 = N^T N,  tr Q |n|^2 - n.Qn = t k^T - diag(k) N,
        2 tr cof Q = 2 sum_m N_{m+1} N_{m+2}^T,

    plus ``2 o_m^2``, ``-2 o_m g_j g_k`` and ``-2 o_m^2`` at ``(j, k)``, and
    the cubics are the forms ``T_JKL x_J x_K x_L`` of

        det Q = N_0 o N_1 o N_2 - sum_m o_m^2 e_j o e_k o N_m + 2 o_0 o_1 o_2 x_0 x_1 x_2,
        n.cof(Q)n = sum_i k_i e_i o N_{i+1} o N_{i+2} - 2 sum_m g_j g_k o_m e_j o e_k o N_m
                    + sum_m (2 g_j g_k o_j o_k - k_m o_m^2) x_0 x_1 x_2,

    from ``cof(Q)_ii = a_j a_k - Q_jk^2`` and ``cof(Q)_jk = B_j B_k (o_j o_k
    x_m - o_m a_m)``, with ``g`` the entries of ``inverse``.  A factor
    +-2^k that scales a whole table or column of these forms, and the 2 of
    ``2 n.cof(Q)n``, is left to the form's symmetrizer (``_QUADRATIC``,
    ``_CUBIC``); the 6 of ``6 det Q`` is applied to the sums.
    """
    rows, count = weights.shape[:2]
    # every intermediate is laid out (..., M) over the M = R P row-points,
    # so that each step is a few passes over contiguous memory
    c = np.ascontiguousarray((weights[..., None, :] @ geometry).reshape(-1, 12).T)
    c = np.ldexp(c, -np.frexp(np.abs(c).max(axis=0))[1])
    o, n = c[:3], c[3:].reshape(3, 3, -1)
    g = np.concatenate([inverse.T] * rows, axis=1)
    # the rows m + 1 and m + 2 of n, o and g, each pair from one gather
    n1, n2 = n[_SHIFTED].reshape(2, 3, 3, -1)
    o_next, o_last = o[_SHIFTED].reshape(2, 3, -1)
    g_next, g_last = g[_SHIFTED].reshape(2, 3, -1)
    k, gg = g * g, g_next * g_last
    t = n[0] + n[1] + n[2]
    linear = np.stack([k, 2.0 * t])
    forms = np.empty((3, 12) + k.shape[1:])
    np.einsum("ijm,ikm->jkm", n, n, out=forms[0, :9].reshape(3, 3, -1))
    np.subtract(t[:, None] * k, k[:, None] * n, out=forms[1, :9].reshape(3, 3, -1))
    np.einsum("ijm,ikm->jkm", n1, n2, out=forms[2, :9].reshape(3, 3, -1))
    oo = np.multiply(o, o, out=forms[0, 9:])
    ggo = np.multiply(gg, o, out=forms[1, 9:])
    forms[2, 9:] = oo
    tensors = np.empty((2, 37) + k.shape[1:])
    np.einsum("im,ikm,ilm->iklm", k, n1, n2, out=tensors[0, :27].reshape(3, 3, 3, -1))
    np.einsum("jm,km,lm->jklm", n[0], n[1], n[2], out=tensors[1, :27].reshape(3, 3, 3, -1))
    np.multiply((-2.0 * ggo)[:, None], n, out=tensors[0, 27:36].reshape(3, 3, -1))
    np.multiply(oo[:, None], n, out=tensors[1, 27:36].reshape(3, 3, -1))
    tensors[0, 36] = (2.0 * gg * o_next * o_last - k * oo).sum(axis=0)
    tensors[1, 36] = 2.0 * o[0] * o[1] * o[2]
    cubic = _CUBIC.mT @ tensors
    cubic[1] *= 6.0
    return [np.ascontiguousarray(x.reshape(x.shape[:2] + (rows, count)).transpose(2, 0, 3, 1))
            for x in (linear, _QUADRATIC.mT @ forms, cubic)]


def _features(vectors: np.ndarray) -> list[np.ndarray]:
    """The monomials of ``x = (B_J^2)`` of degrees 1, 2 and 3, each (...,
    K, D) in the order of ``_MONOMIALS``, for the directions ``vectors``
    (..., D, 3).  Each direction is first scaled by the power of two that
    puts its largest entry in [0.5, 1); the conditions are homogeneous in B,
    so that changes none of their bits, and the cubics stay finite for any
    finite direction."""
    scaled = np.ldexp(vectors, -np.frexp(np.abs(vectors).max(axis=-1, keepdims=True))[1])
    features = [np.swapaxes(scaled * scaled, -1, -2)]
    for lower, last in _FACTORS:
        features.append(features[-1][..., lower, :] * features[0][..., last, :])
    return features


def _contract(coefficients: np.ndarray, features: np.ndarray, out: np.ndarray) -> None:
    """Write the values (q, P, D) of ``q`` polynomials per point with the
    ``coefficients`` (q, P, K) at the :func:`_features` ``features``,
    shared (K, D) or per point (P, K, D), into ``out``: shared ones as one
    ``(q P, K) @ (K, D)`` product."""
    if features.ndim == 2:
        np.matmul(coefficients.reshape(-1, len(features)), features,
                  out=out.reshape(-1, out.shape[-1]))
    else:
        np.matmul(coefficients.swapaxes(0, 1), features, out=out.swapaxes(0, 1))


def _block_runs(count: int, dirs: int):
    """The ``networks._arena`` runs of the scratch arrays of a block of
    ``count`` points and ``dirs`` directions: the values of one row's
    linear, quadratic and cubic polynomials (2, P, D), (3, P, D) and (2, P,
    D), then two (P, D) planes."""
    return [(1, (2, count, dirs)), (1, (3, count, dirs)), (1, (2, count, dirs)),
            (2, (count, dirs))]


def _workspace(count: int, dirs: int) -> list[np.ndarray]:
    """Scratch arrays for a block of ``count`` points and ``dirs``
    directions: the views of one ``networks._arena`` of
    :func:`_block_runs`.  A shorter block takes the views of its own runs
    from the same buffer.

    Every intermediate of size (P, D) or larger is written into a view with
    ``out=``, so that a scan allocates almost nothing per block: large
    temporaries freed and taken again per block made the C heap return
    memory to the system and fault it back in.  Nothing is read from a view
    before it is written in the same block.
    """
    return _arena(_block_runs(count, dirs))


def _law_values(law, par, i1, i2):
    """Stress coefficients (P, 2) and tangent weights (P, 5) of ``law`` at
    the invariants ``i1``, ``i2`` (P,), from one law evaluation."""
    coef, hess = law.derivatives(i1, i2, par)
    return coef, _tangent_weights(coef, hess)


def _point_terms(law, f, par):
    """The principal-frame terms of the points ``f`` (P, 3, 3) on det F = 1.

    With the SVD ``F = U diag(s) V^T``, the law is isotropic, so every
    acoustic tensor at F is ``Q(F, B) = U Q(diag(s), V^T B) U^T`` and every
    condition value at F in direction B is the one at ``diag(s)`` in
    direction ``V^T B``.  U and V need not be proper: det F > 0 makes them
    both proper or both improper, and either way ``X -> U^T X V`` keeps
    ``X^T X`` up to a rotation and det X, and so the isochoric invariants
    that the law reads.  Returns the :func:`_point_geometry` ``(geometry,
    inverse)`` at ``diag(s)``, the tangent weights (P, 5) of ``law`` there,
    and U and ``V^T`` (P, 3, 3), from one det of F and one invariant pass on
    s (``kinematics._principal_terms``).

    Raises ``NotIsochoricError`` off det F = 1 and
    ``InvertedConfigurationError`` where det F is not finite, before the SVD.
    """
    det = np.linalg.det(f)
    _check_isochoric(det)
    _check_determinant(det)
    u, s, vh = np.linalg.svd(f)
    terms = _principal_terms(s, det)
    geometry, inverse = _point_geometry(s, *terms)
    return geometry, inverse, _law_values(as_law(law), par, *_isochoric(terms))[1], u, vh


def acoustic_tensor(law, f, par, b: np.ndarray) -> np.ndarray:
    """Contract the full tangent twice with probing directions.

    ``f`` is (3, 3) or (P, 3, 3) and ``b`` is (3,) or (D, 3); the result has
    shape ``f.shape[:-2] + b.shape[:-1] + (3, 3)``.  It is built from the
    scan's own geometry and weights in the principal frame of each point
    (:func:`_point_terms`).
    """
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    points, vectors = f.reshape(-1, 3, 3), b.reshape(-1, 3)
    geometry, _, weights, u, vh = _point_terms(law, points, par)
    c = (weights[:, None, :] @ geometry)[:, 0]
    rotated = vectors @ vh.mT
    q = np.zeros(rotated.shape + (3,))
    q[..., [0, 1, 2], [0, 1, 2]] = (rotated * rotated) @ c[:, 3:].reshape(-1, 3, 3).mT
    q[..., _NEXT, _LAST] = c[:, None, :3] * rotated[..., _NEXT] * rotated[..., _LAST]
    q[..., _LAST, _NEXT] = q[..., _NEXT, _LAST]
    q = u[:, None] @ q @ u[:, None].mT
    return q.reshape(f.shape[:-2] + b.shape[:-1] + (3, 3))


def _conditions(polynomials, features, work: list[np.ndarray]):
    """Normalized condition values ``(c1, c2), (d1, d2, d3)``, each (P, D),
    of one parameter row of a block of P points and D directions.

    ``polynomials`` are the row's (q, P, K) slices of :func:`_polynomials`,
    ``features`` their :func:`_features`, shared (K, D) or per point (P, K,
    D), and ``work`` the :func:`_workspace` of the block.  The values are
    views of ``work``, and the next call overwrites them; every
    intermediate is written into ``work`` with ``out=``.  With the closed
    forms ``Q x Q = 2 cof Q`` and ``Q x I = (tr Q) I - Q`` and the
    Frobenius norm ``|Q|``, they are

        c1 = 2 n.cof(Q)n / (|Q|^2 |n|^2),  c2 = (tr Q |n|^2 - n.Qn) / (|Q| |n|^2),
        d1 = 6 det Q / |Q|^3,  d2 = 2 tr cof Q / |Q|^2,  d3 = 2 tr Q / |Q|.

    ``|Q|^2`` is raised to the smallest normal float first, so that the
    reciprocals of ``|Q|`` and ``|Q|^2`` are finite: where Q = 0 every
    numerator is exactly 0, and so is every value.
    """
    linear, quadratic, cubic, inverse, inverse_sq = work
    for coefficients, monomials, out in zip(polynomials, features, work):
        _contract(coefficients, monomials, out)
    (nn, d3), (qq, c2, d2), (c1, d1) = linear, quadratic, cubic
    np.maximum(qq, _TINY, out=qq)
    np.divide(1.0, np.sqrt(qq, out=inverse), out=inverse)
    np.divide(1.0, qq, out=inverse_sq)
    c1 *= inverse_sq
    c1 /= nn
    c2 *= inverse
    c2 /= nn
    d1 *= inverse_sq
    d1 *= inverse
    d2 *= inverse_sq
    d3 *= inverse
    return (c1, c2), (d1, d2, d3)


def _point_minima(law, f, par, directions) -> np.ndarray:
    """Smallest incompressible and compressible condition values (P, 2) of
    the points ``f`` (P, 3, 3), or (3, 3) for P = 1, over ``directions``
    (D, 3), taken as the scan takes them (:func:`_minima`) in the principal
    frame of each point (:func:`_point_terms`)."""
    vectors = _vectors(directions)
    f = np.asarray(f, dtype=float).reshape(-1, 3, 3)
    geometry, inverse, weights, _, vh = _point_terms(law, f, par)
    return _minima(_polynomials(weights[None], geometry, inverse), vectors, vh)[0]


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
    return (values >= -BAKER_ERICKSEN_TOLERANCE).all(axis=-1)


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


@cache
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

    The writers' text of the points is built once, at the first write, and
    kept: edit a copy of ``points`` and ``dataclasses.replace`` it in, which
    makes a report with fresh text, rather than edit a written report.
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

    @cached_property
    def _text(self) -> tuple:
        """The :func:`_text_table` of the points, built at the first write."""
        return _text_table(self.points)


# Upper bound on the point-direction pairs evaluated together; it caps the
# scratch memory of a scan or an ellipticity check independently of its
# point count: one workspace of 9 floats per pair, each of its 5 views
# padded to a multiple of 8 floats and the whole to a 64-byte start, 1.44 MB
# at 200 directions (100 points), made once per call of _minima.  Fewer
# pairs pay numpy's fixed cost per call on more blocks; more pairs make a
# workspace larger than a 2 MiB L2 cache, and both ran slower (3 rows of 100
# and of 400 points, 200 directions).
_BLOCK_PAIRS = 20000
# Upper bound on the row-points (parameter rows x stretch pairs) of one law
# evaluation in a scan, and so of the condition polynomials built from it
# (44 coefficients per row-point).  A network's Hessian holds (S, n, n)
# products, about 12 kB per point at n = 32: one row of 10000 points peaked
# at 125 MB (tracemalloc) in one call, and at 62 MB in calls of at most
# 4096 points.  The benchmark's scan-grid, 3 rows of 100 points, takes one
# call.  The point geometry is built for as many points at a time; its
# temporaries take about 2.8 kB per point.
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


def _scan_block(polynomials, features, minima, work) -> None:
    """Smallest incompressible and compressible condition values of a block
    of points in every parameter row.

    ``polynomials`` are the block's (R, q, P, K) slices of
    :func:`_polynomials`, ``features`` their :func:`_features`, shared or
    per point, and the results go to ``minima`` (R, P, 2).  ``work`` is the
    :func:`_workspace` of :func:`_minima`.  A point whose geometry or
    weights are NaN gets NaN minima.
    """
    for row, out in zip(zip(*polynomials), minima):
        (c1, c2), (d1, d2, d3) = _conditions(row, features, work)
        np.minimum(c1, c2, out=c1).min(axis=-1, out=out[:, 0])
        np.minimum(d1, d2, out=d1)
        np.minimum(d1, d3, out=d1).min(axis=-1, out=out[:, 1])


def _scan_points(lam1, lam2, errors):
    """Deformation gradients (P, 3, 3) of the stretch pairs, their principal
    stretches (P, 3), their isochoric invariants (P,) each, the index of the
    points that go on to the law and the geometry (their indices, or a
    slice of all points where none fails), and those points'
    ``kinematics._principal_terms``.

    A point whose det F is not finite and positive (its third stretch
    ``1/(l1 l2)`` over- or underflows), or whose invariants overflow, fails
    in every row of ``errors`` (R, P) with a reason that names the value; its
    invariants are NaN or infinite.  The floating-point warnings of these
    points are ignored, because the check reports them point by point.

    F is diagonal, so the invariant pass runs on its diagonal, the principal
    stretches; a point with a subnormal stretch, whose reciprocal
    overflows, fails there, as its I2 is not finite.  det F stays LAPACK's,
    which the diagonal's product does not equal bit for bit.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = principal_stretch_gradient(lam1, lam2)
        # entries 0, 4 and 8 of a flattened 3x3 tensor are its diagonal
        s = f.reshape(-1, 9)[:, ::4]
        det = np.linalg.det(f)
        terms = _principal_terms(s, det)
        i1, i2 = _isochoric(terms)
    valid = np.isfinite(det) & (det > 0.0)
    finite = valid & np.isfinite(i1) & np.isfinite(i2)
    if finite.all():
        return f, s, i1, i2, slice(None), terms
    i1[~valid] = i2[~valid] = np.nan
    for k in np.flatnonzero(~valid):
        errors[:, k] = f"det F = {det[k]:.6g} is not finite and positive"
    for k in np.flatnonzero(valid & ~finite):
        errors[:, k] = f"isochoric invariants not finite: I1 = {i1[k]:.6g}, I2 = {i2[k]:.6g}"
    live = np.flatnonzero(finite)
    return f, s, i1, i2, live, [term[live] for term in terms]


def _minima(polynomials, vectors: np.ndarray, frames=None) -> np.ndarray:
    """Smallest incompressible and compressible condition values (R, P, 2)
    over the directions ``vectors`` (D, 3) of the points with the condition
    polynomials ``polynomials`` (:func:`_polynomials`) in each parameter
    row.  With ``frames``, the points' ``V^T`` (P, 3, 3) of
    :func:`_point_terms`, each point takes the directions ``V^T B``.

    The points are taken in blocks of at most ``_BLOCK_PAIRS``
    point-direction pairs (:func:`_scan_block`), all in one workspace; the
    direction features are built once, or per block for ``frames``.
    """
    rows, _, count, _ = polynomials[0].shape
    minima = np.full((rows, count, 2), np.nan)
    block = max(_BLOCK_PAIRS // len(vectors), 1)
    work = _workspace(min(block, count), len(vectors))
    features = _features(vectors) if frames is None else None
    for start in range(0, count, block):
        part = slice(start, start + block)
        size = len(minima[0, part])
        if size < len(work[-1]):
            # a shorter last block: its views of the same buffer
            work = _arena(_block_runs(size, len(vectors)), work[0].base)
        if frames is not None:
            features = _features(vectors @ frames[part].mT)
        _scan_block([x[:, :, part] for x in polynomials], features, minima[:, part], work)
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


def _groups(rows: int, points: int):
    """Slices ``(rows, points)`` that cover R parameter rows and P points
    with groups of at most ``_LAW_POINTS`` row-points and at least one:
    rows in steps with every point while a row fits, else one row at a time
    with its points in steps."""
    span = max(min(points, _LAW_POINTS), 1)
    step = _LAW_POINTS // span
    for start in range(0, rows, step):
        for first in range(0, points, span):
            yield slice(start, start + step), slice(first, first + span)


def _scan_minima(law, param_grid, s, i1, i2, terms, vectors):
    """Stress coefficients (R, P, 2), smallest incompressible and
    compressible condition values (R, P, 2) and point errors (R, P) of the
    points with principal stretches ``s`` (P, 3), invariants ``i1``, ``i2``
    and invariant terms ``terms`` in every parameter row; see
    :func:`scan_invariant_plane`.

    The point geometry is built once, for at most ``_LAW_POINTS`` points
    at a time.  Then the law is evaluated once per group of :func:`_groups`
    (:func:`_stacked_law_values`), and the group's condition polynomials
    and minima follow from its weights.  Where the law raises a point
    error, the group's rows are evaluated one by one (:func:`_pointwise`).
    A geometry error fails its point in every row, where it overrides an
    error of the law."""
    rows, count = len(param_grid), len(s)
    errors = np.full((rows, count), None, dtype=object)
    coef = np.full((rows, count, 2), np.nan)
    minima = np.full((rows, count, 2), np.nan)
    geometry, inverse = np.full((count, 5, 12), np.nan), np.full((count, 3), np.nan)
    failed = np.full(count, None, dtype=object)
    for start in range(0, count, _LAW_POINTS):
        part = slice(start, start + _LAW_POINTS)
        _pointwise(_point_geometry, (s[part], *(term[part] for term in terms)),
                   (geometry[part], inverse[part]), failed[part])
    for group, part in _groups(rows, count):
        weights = np.full((len(param_grid[group]), len(s[part]), 5), np.nan)
        try:
            _stacked_law_values(law, param_grid[group], i1[part], i2[part],
                                coef[group, part], weights)
        except _POINT_ERRORS:
            # row by row, so that an error fails only its own point in its own row
            for t, row_coef, row_weights, row_errors in zip(
                param_grid[group], coef[group, part], weights, errors[group, part]
            ):
                _pointwise(partial(_law_values, law, t), (i1[part], i2[part]),
                           (row_coef, row_weights), row_errors)
        polynomials = _polynomials(weights, geometry[part], inverse[part])
        minima[group, part] = _minima(polynomials, vectors)
    geometric = np.not_equal(failed, None)
    errors[:, geometric] = failed[geometric]
    return coef, minima, errors


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
    :func:`fibonacci_directions`; ``direction_count`` reports D.  The
    point geometry is built once per scan, and the law is evaluated once
    for all parameter rows, in groups of at most ``_LAW_POINTS``
    row-points (:func:`_groups`).  Each group's condition polynomials
    follow from its weights, and its points are then taken in blocks of at
    most ``_BLOCK_PAIRS`` point-direction pairs (:func:`_minima`), against
    direction features built once per group.  Points stay independent: a
    point whose det F or invariants are not finite, that raises a package
    or linear-algebra error, or whose condition values are not finite,
    records the reason and the scan continues.  An error of the law fails
    the point in its row only, an error of the geometry in every row, where
    it overrides an error of the law.  Each verdict is computed as one (R,
    P) array over the R parameter rows and P stretch pairs, which fills a
    field of the report's ``points``.

    Raises ``EmptyGridError`` for an empty parameter or stretch grid and
    ``ShapeMismatchError`` for a parameter row that is not finite, whose
    points would all fail and whose ``t`` has no JSON form; both before the
    law is called.
    """
    law = as_law(law)
    param_grid = np.atleast_2d(np.asarray(param_grid, dtype=float))
    lambda1_values = np.atleast_1d(np.asarray(lambda1_values, dtype=float))
    lambda2_values = np.atleast_1d(np.asarray(lambda2_values, dtype=float))
    if param_grid.size == 0:
        raise EmptyGridError("parameter grid is empty")
    if lambda1_values.size == 0 or lambda2_values.size == 0:
        raise EmptyGridError("stretch grid is empty")
    bad = ~np.isfinite(param_grid).all(axis=-1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ShapeMismatchError(f"parameter row {k} is not finite: {param_grid[k].tolist()}")
    vectors = _vectors(fibonacci_directions() if directions is None else directions)

    # the stretch pairs in the order of a meshgrid with indexing "ij"
    lam1 = np.repeat(lambda1_values, len(lambda2_values))
    lam2 = np.concatenate([lambda2_values] * len(lambda1_values))
    errors = np.full((len(param_grid), len(lam1)), None, dtype=object)
    f, s, i1, i2, live, terms = _scan_points(lam1, lam2, errors)
    coef = np.full((len(param_grid), len(f), 2), np.nan)
    minima = np.full((len(param_grid), len(f), 2), np.nan)
    # _baker_ericksen does not depend on the order of the stretches
    stretches = np.full((len(f), 3), np.nan)
    stretches[live] = s[live]
    coef[:, live], minima[:, live], errors[:, live] = _scan_minima(
        law, param_grid, stretches[live], i1[live], i2[live], terms, vectors
    )

    finite = np.isfinite(minima).all(axis=-1)
    ok = np.equal(errors, None)
    errors[ok & ~finite] = "non-finite condition values"
    ok &= finite
    # the points as (R, P) fields; a failed point gets False verdicts and NaN
    # minima.  The coefficients' verdicts come first and the minima are
    # masked in place, so that no (R, P) float temporary is alive beside the
    # points.  Every field is written, so the zero fill is never read; it is
    # far cheaper than np.recarray's, which fills the object field slot by slot
    be_ok = ok & _baker_ericksen(coef, stretches)
    mono_ok = ok & (coef >= -BAKER_ERICKSEN_TOLERANCE).all(axis=-1)
    del coef
    minima[~ok] = np.nan
    points = np.zeros(errors.shape, _point_dtype(param_grid.shape[1]))
    columns = {
        "lambda1": lam1, "lambda2": lam2, "f": f, "i1": i1, "i2": i2,
        "t": param_grid[:, None],
        "elliptic": ok & (minima[..., 0] >= -ELLIPTICITY_TOLERANCE),
        "min_value": minima[..., 0],
        "compressible_elliptic": ok & (minima[..., 1] >= -ELLIPTICITY_TOLERANCE),
        "compressible_min_value": minima[..., 1],
        "be_ok": be_ok, "mono_ok": mono_ok, "error": errors,
    }
    for name, column in columns.items():
        points[name] = column
    region = {"lambda1": _span(lambda1_values), "lambda2": _span(lambda2_values),
              "i1": _span(i1[live]), "i2": _span(i2[live])}
    per_parameter = _per_parameter(points)
    return StabilityReport(
        points.ravel().view(np.recarray), per_parameter, region, len(vectors), law.label
    )


def _per_parameter(points: np.ndarray) -> list:
    """The ``per_parameter`` entries of a scan's points (R, P), a plain
    structured array: per row its ``t``, point count and failed points, and
    the fraction of its evaluated points that pass each check, None where
    none was evaluated."""
    count = points.shape[1]
    passed = np.equal(points["error"], None).sum(axis=-1).tolist()
    passes = [points[field].sum(axis=-1).tolist() for field in _FRACTIONS.values()]
    return [
        {"t": t, "points": count, "failed_points": count - n,
         **{key: k / n if n else None for key, k in zip(_FRACTIONS, row)}}
        for t, n, *row in zip(points["t"][:, 0].tolist(), passed, *passes)
    ]


def _text_table(points: np.recarray) -> tuple:
    """The text of the points ``points`` (N,) that both report writers read:
    the JSON text of every field and the ``repr`` of every scalar float
    field, each a list of N strings by field name.

    The entries of all float fields are turned into text together: one
    ``np.unique`` over their bits, so -0.0 and 0.0 stay apart, and one
    ``repr`` per distinct bit pattern, which is the JSON form of a finite
    float.  A vector or matrix field (``t``, ``f``) is written once per
    distinct row, from its entries' texts.  In the JSON an entry that is not
    finite takes the text ``json`` gives it (``NaN``, ``Infinity``), except
    that a scalar of ``_NULLABLE`` is ``null``; the ``repr`` columns keep
    ``nan`` and ``inf``.  Booleans are ``true`` or ``false``, and ``json``
    encodes the error strings.
    """
    # a plain structured array, whose field access skips np.recarray's
    # Python methods
    points = np.asarray(points)
    dtype = points.dtype
    floats = [name for name in dtype.names if dtype[name].base == float]
    entries = np.concatenate([points[name].reshape(len(points), -1) for name in floats], axis=1)
    bits, codes = np.unique(entries.view(np.uint64), return_inverse=True)
    values = bits.view(float)
    reprs = np.array(list(map(repr, values.tolist())), dtype=object)
    texts, nulls = reprs.copy(), reprs.copy()
    special = np.flatnonzero(~np.isfinite(values))
    texts[special] = [json.dumps(value) for value in values[special].tolist()]
    nulls[special] = "null"
    widths = [math.prod(dtype[name].shape) for name in floats]
    fields = np.split(codes.reshape(entries.shape), np.cumsum(widths)[:-1], axis=1)
    json_text, repr_text = {}, {}
    for name, field in zip(floats, fields):
        shape = dtype[name].shape
        if not shape:
            repr_text[name] = reprs[field[:, 0]].tolist()
            json_text[name] = (nulls if name in _NULLABLE else texts)[field[:, 0]].tolist()
            continue
        rows = np.ascontiguousarray(field).view(np.dtype((np.void, field[0].nbytes)))[:, 0]
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        # the nested list that repr and json write, with %s for each entry
        template = repr(np.zeros(shape).tolist()).replace("0.0", "%s")
        lines = [template % tuple(row) for row in texts[field[first]].tolist()]
        json_text[name] = np.array(lines, dtype=object)[inverse].tolist()
    for name in dtype.names:
        if dtype[name] == bool:
            json_text[name] = np.where(points[name], "true", "false").tolist()
        elif dtype[name] == object:
            json_text[name] = ["null" if e is None else json.dumps(e)
                               for e in points[name].tolist()]
    return json_text, repr_text


def write_report_json(report: StabilityReport, path) -> None:
    """Write the report as JSON: the header fields ``direction_count``,
    ``law``, ``per_parameter`` and ``region`` indented, then ``points``
    last, one line per point, a compact object with sorted keys.  The point
    fields' texts come from the report's text table (:func:`_text_table`),
    which :func:`write_summary_csv` shares.  They fill one (N, 2F + 1)
    object table, each after its key's text, with the end of the line
    last, which is joined once.
    """
    head = json.dumps({"law": report.law_label, "direction_count": report.direction_count,
                       "region": report.region, "per_parameter": report.per_parameter},
                      indent=2, sort_keys=True)
    names = sorted(report.points.dtype.names)
    json_text, _ = report._text
    table = np.empty((len(report.points), 2 * len(names) + 1), dtype=object)
    for k, name in enumerate(names):
        table[:, 2 * k] = f'{", " if k else "{"}"{name}": '
        table[:, 2 * k + 1] = json_text[name]
    table[:, -1] = "},\n    "
    table[-1:, -1] = "}"
    points = "".join(table.ravel().tolist())
    Path(path).write_text(f'{head[:-2]},\n  "points": [\n    {points}\n  ]\n}}\n')


def write_summary_csv(report: StabilityReport, path) -> None:
    """Per-point summary: ``t,lambda1,lambda2,i1,i2,elliptic,min_value,be_ok``.

    The lines are joined as text, with the ``\\r\\n`` ends that
    ``csv.writer`` writes.  No field needs quoting: they are float
    ``repr``s and ``true`` or ``false`` from the report's text table
    (:func:`_text_table`), which :func:`write_report_json` shares, and
    ``t`` as ``_format_params`` writes it, float ``repr``s joined by ``;``.
    """
    json_text, repr_text = report._text
    t = [text for entry in report.per_parameter
         for text in [_format_params(entry["t"])] * entry["points"]]
    lines = map(",".join, zip(t, repr_text["lambda1"], repr_text["lambda2"], repr_text["i1"],
                              repr_text["i2"], json_text["elliptic"], repr_text["min_value"],
                              json_text["be_ok"]))
    header = "t,lambda1,lambda2,i1,i2,elliptic,min_value,be_ok"
    Path(path).write_text("\r\n".join([header, *lines, ""]), newline="")
