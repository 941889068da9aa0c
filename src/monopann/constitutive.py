"""Incompressible hyperelastic material laws built on invariant potentials.

A *law* exposes the potential and its first/second derivatives in the
isochoric invariants, uniformly for the neural potentials and for the
closed-form baseline.  On top of that the module assembles the analytic
uniaxial tension stress, the full first Piola-Kirchhoff stress with its
pressure term, and the full second derivative of the energy with respect
to the deformation gradient.

Stresses are first Piola-Kirchhoff throughout, in MPa.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from . import networks
from .errors import InvalidStretchError, NotIsochoricError
from .kinematics import (
    _invariant_terms,
    _isochoric,
    invariant_derivatives,
    isochoric_invariants,
)

__all__ = [
    "MaterialLaw",
    "NeuralLaw",
    "MooneyRivlin",
    "neo_hookean",
    "as_law",
    "uniaxial_invariants",
    "uniaxial_stress",
    "pk1_stress",
    "pk1_tangent",
    "traction_free_gamma",
    "write_curve_csv",
]

ISOCHORIC_TOLERANCE = 1e-10


@runtime_checkable
class MaterialLaw(Protocol):
    """Uniform view of a parametrized invariant-based potential.

    ``i1`` and ``i2`` are arrays of matching shape; ``par`` broadcasts
    against them with trailing parameter axis.
    """

    label: str

    def energy(self, i1, i2, par) -> np.ndarray: ...

    def coefficients(self, i1, i2, par) -> np.ndarray: ...

    def hessian(self, i1, i2, par) -> np.ndarray: ...


@dataclass
class NeuralLaw:
    """Adapter exposing a :class:`PotentialModel` as a material law."""

    model: networks.PotentialModel
    label: str = "neural"

    def _inv(self, i1, i2):
        return np.stack(np.broadcast_arrays(np.asarray(i1, float), np.asarray(i2, float)), axis=-1)

    def energy(self, i1, i2, par):
        return networks.forward_batch(self.model, self._inv(i1, i2), par)

    def coefficients(self, i1, i2, par):
        return networks.invariant_gradients_batch(self.model, self._inv(i1, i2), par)

    def hessian(self, i1, i2, par):
        return networks.invariant_hessians_batch(self.model, self._inv(i1, i2), par)


@dataclass
class MooneyRivlin:
    """Two-term Mooney-Rivlin law with a coupling term, coefficients cubic in
    a scalar manufacturing parameter.

    Each coefficient is a polynomial in ``par[..., 0]`` given highest degree
    first (``numpy.polyval`` convention), in MPa.  With the invariants
    evaluated isochorically the law slots into the same pipeline as the
    neural potentials.
    """

    c10: np.ndarray
    c01: np.ndarray
    c11: np.ndarray
    label: str = "mooney-rivlin"

    def __post_init__(self):
        self.c10 = np.atleast_1d(np.asarray(self.c10, dtype=float))
        self.c01 = np.atleast_1d(np.asarray(self.c01, dtype=float))
        self.c11 = np.atleast_1d(np.asarray(self.c11, dtype=float))

    def _coeffs(self, par):
        g = np.asarray(par, dtype=float)[..., 0]
        return np.polyval(self.c10, g), np.polyval(self.c01, g), np.polyval(self.c11, g)

    def energy(self, i1, i2, par):
        a, b, c = self._coeffs(par)
        j1 = np.asarray(i1, float) - 3.0
        j2 = np.asarray(i2, float) - 3.0
        return a * j1 + b * j2 + c * j1 * j2

    def coefficients(self, i1, i2, par):
        a, b, c = self._coeffs(par)
        j1 = np.asarray(i1, float) - 3.0
        j2 = np.asarray(i2, float) - 3.0
        return np.stack(np.broadcast_arrays(a + c * j2, b + c * j1), axis=-1)

    def hessian(self, i1, i2, par):
        _, _, c = self._coeffs(par)
        shape = np.broadcast_shapes(np.shape(i1), np.shape(i2), np.shape(c))
        out = np.zeros(shape + (2, 2))
        out[..., 0, 1] = c
        out[..., 1, 0] = c
        return out


def neo_hookean(c: float, label: str | None = None) -> MooneyRivlin:
    """Single-coefficient special case ``psi = c (I1 - 3)``."""
    return MooneyRivlin([c], [0.0], [0.0], label=label or f"neo-hookean(c={c})")


def as_law(obj) -> MaterialLaw:
    if isinstance(obj, networks.PotentialModel):
        return NeuralLaw(obj, label=obj.architecture.value)
    return obj


def uniaxial_invariants(lam):
    """Isochoric invariants of incompressible uniaxial tension at stretch lam."""
    lam = np.asarray(lam, dtype=float)
    return lam**2 + 2.0 / lam, 2.0 * lam + lam**-2.0


def uniaxial_stress(law, lam, par) -> np.ndarray:
    """Tensile first Piola-Kirchhoff stress of incompressible uniaxial tension.

    ``P = 2 (dpsi/dI1 + dpsi/dI2 / lam) (lam - lam^-2)``; exactly zero at
    lam = 1.  Broadcasts over arrays of stretches and parameters.
    """
    law = as_law(law)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise InvalidStretchError("uniaxial stress requires lam > 0")
    i1, i2 = uniaxial_invariants(lam)
    c = law.coefficients(i1, i2, par)
    return 2.0 * (c[..., 0] + c[..., 1] / lam) * (lam - lam**-2.0)


def _check_isochoric(f: np.ndarray) -> np.ndarray:
    det = np.linalg.det(f)
    if np.any(np.abs(det - 1.0) > ISOCHORIC_TOLERANCE):
        raise NotIsochoricError("deformation gradient must satisfy det F = 1")
    return det


def pk1_stress(law, f, par, gamma: float = 0.0) -> np.ndarray:
    """First Piola-Kirchhoff stress ``dW/dF - gamma J F^-T`` on det F = 1.

    ``gamma`` is the pressure-like multiplier enforcing incompressibility;
    it comes from boundary conditions, not from the law.
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float)
    det = _check_isochoric(f)
    terms = _invariant_terms(f)
    *_, d1, d2 = terms
    c = law.coefficients(*_isochoric(terms), par)
    p = c[..., 0, None, None] * d1 + c[..., 1, None, None] * d2
    if np.any(gamma != 0.0):
        finv_t = np.swapaxes(np.linalg.inv(f), -1, -2)
        p = p - np.asarray(gamma)[..., None, None] * det[..., None, None] * finv_t
    return p


def _tangent_weights(coef: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Weights ``(psi_11, psi_12, psi_22, psi_1, psi_2)`` of the five terms of
    :func:`_tangent_terms`, stacked on a trailing axis of length 5, from the
    law's coefficients (..., 2) and Hessian (..., 2, 2)."""
    return np.stack(
        [hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1], coef[..., 0], coef[..., 1]],
        axis=-1,
    )


def _tangent_terms(f) -> np.ndarray:
    """The five law-independent terms of :func:`pk1_tangent`, (..., 5, 3, 3, 3, 3).

    In the order of :func:`_tangent_weights` they are ``d1 o d1``,
    ``d1 o d2 + d2 o d1``, ``d2 o d2``, ``d2I1/dF2`` and ``d2I2/dF2``, with
    ``dk = dIk/dF``; each is major-symmetric.  The tangent is their sum
    weighted by the law's second and first derivatives in the invariants.
    """
    f = np.asarray(f, dtype=float)
    _check_isochoric(f)
    d1, d2, dd1, dd2 = invariant_derivatives(f)

    def outer(a, b):
        return np.einsum("...iI,...jJ->...iIjJ", a, b)

    return np.stack(
        [outer(d1, d1), outer(d1, d2) + outer(d2, d1), outer(d2, d2), dd1, dd2],
        axis=-5,
    )


def pk1_tangent(law, f, par) -> np.ndarray:
    """Second derivative of the energy w.r.t. the deformation gradient.

    Chain rule through the invariants: second-derivative (constitutive) part
    plus first-derivative (geometric) part, as the weighted sum of
    :func:`_tangent_terms`.  The pressure term is excluded; the
    incompressible ellipticity conditions do not involve it.
    """
    law = as_law(law)
    terms = _tangent_terms(f)
    i1, i2 = isochoric_invariants(f)
    w = _tangent_weights(law.coefficients(i1, i2, par), law.hessian(i1, i2, par))
    tangent = w[..., None, :] @ terms.reshape(terms.shape[:-4] + (81,))
    return tangent.reshape(tangent.shape[:-2] + (3, 3, 3, 3))


def traction_free_gamma(law, f, par, axis: int = 1) -> np.ndarray:
    """Multiplier that kills the normal stress on a lateral face.

    Solves ``P[axis, axis] = 0`` in closed form; for the homogeneous modes
    used here this is the traction-free lateral boundary condition.
    """
    law = as_law(law)
    f = np.asarray(f, dtype=float)
    det = _check_isochoric(f)
    dw = pk1_stress(law, f, par, gamma=0.0)
    finv_t = np.swapaxes(np.linalg.inv(f), -1, -2)
    return dw[..., axis, axis] / (det * finv_t[..., axis, axis])


def _format_params(par) -> str:
    par = np.atleast_1d(np.asarray(par, dtype=float))
    return ";".join(repr(float(v)) for v in par)


def write_curve_csv(path, lam, p_model, p_data, par) -> None:
    """Write one stretch-stress curve to CSV: ``lambda,P_model,P_data,t``.

    ``p_data`` may be None for pure model curves; missing values are stored
    as ``nan``.
    """
    lam = np.asarray(lam, dtype=float)
    p_model = np.asarray(p_model, dtype=float)
    if p_data is None:
        p_data = np.full_like(lam, np.nan)
    p_data = np.asarray(p_data, dtype=float)
    t_text = _format_params(par)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "P_model", "P_data", "t"])
        for x, pm, pd in zip(lam, p_model, p_data):
            writer.writerow([repr(float(x)), repr(float(pm)), repr(float(pd)), t_text])
