"""Reference forms of the stability scan's geometry, kept for the tests.

``outer_point_geometry`` builds the acoustic geometry of any F from (P, 6,
3, 3) outer products: the coefficients of ``B_I B_J`` in the six symmetric
components of each tangent term's acoustic tensor.  At a diagonal F only
the entries ``PRINCIPAL_ENTRIES`` can be nonzero, and the tests require
them to equal ``stability._point_geometry``.  ``tangent_plane_basis`` spans
the rank-one increments admissible on det F = 1.
"""

import numpy as np

from monopann.constitutive import _check_isochoric

_ROW = np.array([0, 1, 2, 0, 0, 1])
_COL = np.array([0, 1, 2, 1, 2, 2])
# delta_ij at each symmetric component, and delta_ij delta_IJ laid out as
# in _outer
_DIAGONAL = np.eye(3)[_ROW, _COL]
_DELTA = _DIAGONAL[:, None, None] * np.eye(3)
_COMPONENTS = list(zip(_ROW.tolist(), _COL.tolist()))
# the entries 9 s + 3 I + J of the (6, 3, 3) layout in the order of the
# principal geometry: the coefficient of B_j B_k in the component (j, k) for
# (j, k) = (1, 2), (2, 0), (0, 1), then that of B_J^2 in the component (i, i)
PRINCIPAL_ENTRIES = np.array(
    [9 * _COMPONENTS.index((min(j, k), max(j, k))) + 3 * min(j, k) + max(j, k)
     for j, k in ((1, 2), (2, 0), (0, 1))]
    + [9 * i + 4 * J for i in range(3) for J in range(3)]
)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (P, 6, 3, 3) of ``B_I B_J`` in the symmetric components
    (i, j) of ``(xB) o (yB)``, for (P, 3, 3) tensors x and y: the entries
    ``x[i, I] y[j, J]``."""
    return x[:, _ROW, :, None] * y[:, _COL, None, :]


def outer_point_geometry(f: np.ndarray, *terms):
    """``(coefficients (P, 5, 54), finv_t (P, 3, 3))`` of the points ``f``
    from their ``kinematics._invariant_terms``: per tangent term (see
    ``constitutive._tangent_terms``), the coefficients of ``B_I B_J`` in the
    symmetric components (i, j) of its acoustic tensor, entry 9 s + 3 I + J
    for the component s = (i, j), and ``F^-T``."""
    _check_isochoric(terms[0])
    det, h, i1, i2, g2, d1, d2 = terms
    c = np.swapaxes(f, -1, -2) @ f
    f_ft = f @ np.swapaxes(f, -1, -2)
    finv_t = h / det[:, None, None]
    det, i1, i2 = (x[:, None, None, None] for x in (det, i1, i2))
    j1, j2 = det ** (-2.0 / 3.0), det ** (-4.0 / 3.0)
    dj1, dj2 = -2.0 / 3.0 * j1 / det, -4.0 / 3.0 * j2 / det
    hh = _outer(h, h)
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
