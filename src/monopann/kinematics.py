"""3x3 tensor algebra for isochoric finite-strain kinematics.

All routines operate on numpy arrays of shape (..., 3, 3) and broadcast
over leading dimensions.  Deformation gradients are dimensionless.
"""

import numpy as np

from .errors import InvalidStretchError, InvertedConfigurationError

__all__ = [
    "tensor_cross",
    "isochoric_invariants",
    "invariant_derivatives",
    "principal_stretch_gradient",
]


def _tr(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1)


def tensor_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor cross product (a x b)_iI = eps_ijk eps_IJK a_jJ b_kK.

    Evaluated in the closed form, free of permutation tensors, of Bonet,
    Gil & Ortigosa (CMAME 283, 2015)::

        a x b = [(tr a tr b - tr ab) I - tr b a - tr a b + ab + ba]^T

    Symmetric in its arguments.  For any invertible f, the cofactor
    ``(det f) f^-T`` equals ``0.5 * tensor_cross(f, f)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tr_a, tr_b = _tr(a), _tr(b)
    ab, ba = a @ b, b @ a
    out = ab + ba - _bview(tr_b) * a - _bview(tr_a) * b
    out += _bview(tr_a * tr_b - _tr(ab)) * np.eye(3)
    return np.swapaxes(out, -1, -2)


def _bview(x: np.ndarray, order: int = 2) -> np.ndarray:
    """Append singleton axes so a (...) scalar field broadcasts over tensors."""
    return x[(...,) + (None,) * order]


def _invariant_terms(f: np.ndarray, det=None):
    """Closed forms of the isochoric invariants' first-order quantities.

    Returns ``(det, h, i1, i2, g2, d1, d2)`` of f (..., 3, 3) from one det,
    ``det`` where given, else LAPACK's, and LAPACK's inverse of f.  They are
    the cofactor ``h = det f^-T``, the raw invariants ``i1 = |f|^2`` and
    ``i2 = |h|^2``, ``g2 = 2 (|f|^2 f - f C)`` with ``C = f^T f``, the
    derivative of ``|h|^2``, and the derivatives ``d1``, ``d2`` of the
    isochoric invariants ``det^(-2/3) i1`` and ``det^(-4/3) i2``.

    Raises
    ------
    InvertedConfigurationError
        If any input has non-positive or non-finite determinant.
    """
    f = np.asarray(f, dtype=float)
    det = np.linalg.det(f) if det is None else det
    _check_determinant(det)
    h = _bview(det) * np.swapaxes(np.linalg.inv(f), -1, -2)
    i1 = np.einsum("...iI,...iI->...", f, f)
    i2 = np.einsum("...iI,...iI->...", h, h)
    g2 = 2.0 * (_bview(i1) * f - f @ (np.swapaxes(f, -1, -2) @ f))
    d1 = _scaled_first(det, h, i1, 2.0 * f, -2.0 / 3.0)
    d2 = _scaled_first(det, h, i2, g2, -4.0 / 3.0)
    return det, h, i1, i2, g2, d1, d2


def _check_determinant(det: np.ndarray) -> None:
    """Raise ``InvertedConfigurationError`` where det f is not finite and positive."""
    if np.any(det <= 0.0) or not np.all(np.isfinite(det)):
        raise InvertedConfigurationError("invariant derivatives require det f > 0")


def _principal_terms(s: np.ndarray, det: np.ndarray):
    """:func:`_invariant_terms` of the diagonal tensors ``diag(s)`` from
    their diagonals ``s`` (P, 3) and their det ``det`` (P,), which is not
    checked: ``(det, h, i1, i2, g2, d1, d2)`` with the diagonals (P, 3) of
    ``h``, ``g2``, ``d1`` and ``d2``.

    Each value is formed by the operations that :func:`_invariant_terms`
    applies to ``diag(s)`` and the reciprocals of s, which are LAPACK's
    inverse wherever they are finite, in the same order, so it equals that
    diagonal bit for bit: the zeros off the diagonal add nothing to a sum.
    The steps run along the points, on the rows of ``s.T``.
    """
    s = s.T
    h = det * (1.0 / s)
    square, h_square = s * s, h * h
    i1 = (square[0] + square[1]) + square[2]
    i2 = (h_square[0] + h_square[1]) + h_square[2]
    g2 = 2.0 * (i1 * s - s * square)
    d1 = _scaled_first(det, h, i1, 2.0 * s, -2.0 / 3.0, 0)
    d2 = _scaled_first(det, h, i2, g2, -4.0 / 3.0, 0)
    return det, h.T, i1, i2, g2.T, d1.T, d2.T


def _scaled_first(det, h, raw, raw_grad, p, order=2):
    # d(J^p * raw) = p J^(p-1) raw H + J^p d(raw)
    return _bview(p * det ** (p - 1.0) * raw, order) * h + _bview(det**p, order) * raw_grad


def isochoric_invariants(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Volume-normalized invariants of the right Cauchy-Green tensor.

    Returns ``(J**(-2/3) tr C, J**(-4/3) tr cof C)`` with ``C = f^T f`` and
    ``J = det f``, computed as ``J**(-2/3) |f|^2`` and
    ``J**(-4/3) |cof f|^2``.  Both equal 3 exactly when f is a rotation,
    and are invariant under any positive scaling of f.

    Raises
    ------
    InvertedConfigurationError
        If any input has non-positive determinant.
    """
    return _isochoric(_invariant_terms(f))


def _isochoric(terms) -> tuple[np.ndarray, np.ndarray]:
    """The isochoric invariants from the :func:`_invariant_terms` of f."""
    det, _, i1, i2, _, _, _ = terms
    return det ** (-2.0 / 3.0) * i1, det ** (-4.0 / 3.0) * i2


def invariant_derivatives(
    f: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """First and second derivatives of both isochoric invariants w.r.t. f.

    Returns ``(dI1, dI2, d2I1, d2I2)`` with shapes (..., 3, 3) and
    (..., 3, 3, 3, 3).  The second derivatives are major-symmetric by
    construction.
    """
    f = np.asarray(f, dtype=float)
    return _invariant_derivatives(f, _invariant_terms(f))


def _invariant_derivatives(f: np.ndarray, terms):
    """:func:`invariant_derivatives` of ``f`` from its :func:`_invariant_terms`."""
    det, h, i1, i2, g2, d1, d2 = terms
    eye = np.eye(3)
    delta = np.einsum("ij,IJ->iIjJ", eye, eye)
    # second derivative of det: f x e_jJ over the unit tensors e_jJ = delta[j, J],
    # indexed [j, J, i, I], which major symmetry makes the same as [i, I, j, J]
    x_f = tensor_cross(f[..., None, None, :, :], delta)
    # second derivatives of |f|^2 and of |h|^2, the latter
    # 2 [2 F_iI F_jJ + |F|^2 d_ij d_IJ - d_ij C_IJ - F_iJ F_jI - (F F^T)_ij d_IJ]
    d2_raw1 = 2.0 * delta
    d2_raw2 = 2.0 * (
        2.0 * np.einsum("...iI,...jJ->...iIjJ", f, f)
        + _bview(i1, 4) * delta
        - np.einsum("ij,...IJ->...iIjJ", eye, np.swapaxes(f, -1, -2) @ f)
        - np.einsum("...iJ,...jI->...iIjJ", f, f)
        - np.einsum("...ij,IJ->...iIjJ", f @ np.swapaxes(f, -1, -2), eye)
    )

    dd1 = _scaled_second(det, h, x_f, i1, 2.0 * f, d2_raw1, -2.0 / 3.0)
    dd2 = _scaled_second(det, h, x_f, i2, g2, d2_raw2, -4.0 / 3.0)
    return d1, d2, dd1, dd2


def _scaled_second(det, h, x_f, raw, raw_grad, raw_hess, p):
    # d2(J^p * raw) expanded by the product rule; x_f is d2(det)/dF2.
    hh = np.einsum("...iI,...jJ->...iIjJ", h, h)
    hg = np.einsum("...iI,...jJ->...iIjJ", h, raw_grad)
    gh = np.einsum("...iI,...jJ->...iIjJ", raw_grad, h)
    out = _bview(p * (p - 1.0) * det ** (p - 2.0) * raw, 4) * hh
    out += _bview(p * det ** (p - 1.0), 4) * (hg + gh)
    out += _bview(p * det ** (p - 1.0) * raw, 4) * x_f
    out += _bview(det**p, 4) * raw_hess
    return out


def _check_positive(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not (np.isfinite(values) & (values > 0.0)).all():
        raise InvalidStretchError("stretch values must be positive and finite")
    return values


def principal_stretch_gradient(lam1, lam2) -> np.ndarray:
    """diag(lam1, lam2, 1/(lam1 lam2)); broadcasts over stretch arrays."""
    lam1, lam2 = np.broadcast_arrays(_check_positive(lam1), _check_positive(lam2))
    out = np.zeros(lam1.shape + (3, 3))
    out[..., 0, 0] = lam1
    out[..., 1, 1] = lam2
    out[..., 2, 2] = 1.0 / (lam1 * lam2)
    return out
