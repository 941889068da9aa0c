import numpy as np
import pytest

from monopann import constitutive as cons
from monopann import kinematics as kin
from monopann.errors import InvalidStretchError, InvertedConfigurationError

from conftest import (
    central_difference,
    central_difference_tensor,
    random_rotation,
    random_unimodular,
)
from levi_civita import cross_operator_ref, tensor_cross_ref


def cofactor(f):
    """The cofactor ``(det f) f^-T`` that the invariant pass computes."""
    return kin._invariant_terms(f)[1]


def first_derivatives(f):
    """The isochoric invariants' first derivatives that the stress reads."""
    return kin._invariant_terms(f)[5:]


class TestTensorCross:
    def test_identity_pair(self):
        np.testing.assert_allclose(
            kin.tensor_cross(np.eye(3), np.eye(3)), 2.0 * np.eye(3)
        )

    def test_symmetric_in_arguments(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            kin.tensor_cross(a, b), kin.tensor_cross(b, a), atol=1e-14
        )

    def test_half_self_cross_is_cofactor(self):
        f = np.diag([2.0, 0.5, 1.0])
        np.testing.assert_allclose(
            0.5 * kin.tensor_cross(f, f), np.diag([0.5, 2.0, 1.0]), atol=1e-14
        )

    def test_closed_forms_match_levi_civita_definitions(self, rng):
        a = rng.standard_normal((4, 5, 3, 3))
        b = rng.standard_normal((4, 5, 3, 3))
        # well conditioned, with det f > 0 after flipping the first row
        f = np.eye(3) + 0.2 * rng.standard_normal((4, 5, 3, 3))
        f[..., 0, :] *= np.sign(np.linalg.det(f))[..., None]
        pairs = [(kin.tensor_cross(a, b), tensor_cross_ref(a, b))]
        pairs += zip(kin.invariant_derivatives(f)[2:], second_derivatives_ref(f))
        for got, ref in pairs:
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def second_derivatives_ref(f):
    """Second derivatives of both isochoric invariants of f (..., 3, 3) from
    the Levi-Civita definitions: with ``h = (f x f) / 2``, ``X_m`` the
    cross operator of m and ``J = det f``, the raw second derivatives are
    ``2 I`` for ``|f|^2`` and ``2 (X_f : X_f + X_h)`` for ``|h|^2``, and the
    product rule scales them by ``J^-2/3`` and ``J^-4/3``."""
    h = 0.5 * tensor_cross_ref(f, f)
    x_f = cross_operator_ref(f)
    j = (np.einsum("...iI,...iI->...", f, h) / 3.0)[..., None, None, None, None]

    def outer(x, y):
        return np.einsum("...iI,...jJ->...iIjJ", x, y)

    raw_hess = (
        2.0 * np.einsum("ij,IJ->iIjJ", np.eye(3), np.eye(3)),
        2.0 * (np.einsum("...aAiI,...aAjJ->...iIjJ", x_f, x_f) + cross_operator_ref(h)),
    )
    raw_grad = 2.0 * f, 2.0 * np.einsum("...aA,...aAiI->...iI", h, x_f)
    out = []
    for x, grad, hess, p in zip((f, h), raw_grad, raw_hess, (-2.0 / 3.0, -4.0 / 3.0)):
        raw = np.sum(x * x, axis=(-2, -1))[..., None, None, None, None]
        out.append(p * (p - 1.0) * j ** (p - 2.0) * raw * outer(h, h)
                   + p * j ** (p - 1.0) * (outer(h, grad) + outer(grad, h) + raw * x_f)
                   + j**p * hess)
    return out


class TestCofactor:
    def test_identity(self):
        np.testing.assert_array_equal(cofactor(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            cofactor(np.diag([2.0, 0.5, 1.0])), np.diag([0.5, 2.0, 1.0]),
            atol=1e-15,
        )

    def test_cross_product_identity_random(self, rng):
        for _ in range(1000):
            f = rng.standard_normal((3, 3))
            det = np.linalg.det(f)
            if abs(det) < 1e-2:
                continue
            # the invariant pass takes det f > 0 only, and cof(-f) = cof f
            cof = cofactor(np.sign(det) * f)
            alt = 0.5 * kin.tensor_cross(f, f)
            np.testing.assert_allclose(cof, alt, rtol=1e-12, atol=1e-12)

    def test_batched(self, rng):
        fs = np.stack([random_unimodular(rng) for _ in range(5)])
        batch = cofactor(fs)
        for k in range(5):
            np.testing.assert_array_equal(batch[k], cofactor(fs[k]))


class TestIsochoricInvariants:
    def test_reference_state(self):
        i1, i2 = kin.isochoric_invariants(np.eye(3))
        assert i1 == pytest.approx(3.0, abs=1e-14)
        assert i2 == pytest.approx(3.0, abs=1e-14)

    def test_uniaxial_stretch_two(self):
        # incompressible uniaxial: I1 = lam^2 + 2/lam, I2 = 2 lam + lam^-2
        f = kin.principal_stretch_gradient(2.0, 2.0**-0.5)
        i1, i2 = kin.isochoric_invariants(f)
        assert i1 == pytest.approx(5.0, rel=1e-13)
        assert i2 == pytest.approx(4.25, rel=1e-13)

    def test_scale_invariance(self, rng):
        f = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if np.linalg.det(f) <= 0:
            f = np.eye(3)
        a = kin.isochoric_invariants(f)
        b = kin.isochoric_invariants(2.0 * f)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_objectivity_and_isotropy(self, rng):
        for _ in range(1000):
            f = random_unimodular(rng)
            q1 = random_rotation(rng)
            q2 = random_rotation(rng)
            ref = kin.isochoric_invariants(f)
            rot = kin.isochoric_invariants(q1 @ f @ q2.T)
            np.testing.assert_allclose(rot, ref, rtol=1e-12, atol=1e-12)

    def test_lower_bound_on_stretch_grid(self):
        lam1, lam2 = np.meshgrid(
            np.linspace(0.5, 3.0, 7), np.linspace(0.5, 3.0, 7), indexing="ij"
        )
        i1, i2 = kin.isochoric_invariants(kin.principal_stretch_gradient(lam1, lam2))
        assert np.all(i1 >= 3.0 - 1e-12)
        assert np.all(i2 >= 3.0 - 1e-12)

    def test_inverted_configuration_raises(self):
        with pytest.raises(InvertedConfigurationError):
            kin.isochoric_invariants(np.diag([-1.0, 1.0, 1.0]))


class TestInvariantDerivatives:
    def test_vanish_at_identity(self):
        d1, d2 = first_derivatives(np.eye(3))
        np.testing.assert_allclose(d1, 0.0, atol=1e-14)
        np.testing.assert_allclose(d2, 0.0, atol=1e-14)

    def test_first_derivatives_match_fd(self, rng):
        for _ in range(20):
            f = random_unimodular(rng)
            d1, d2 = first_derivatives(f)
            fd1 = central_difference(lambda x: kin.isochoric_invariants(x)[0], f)
            fd2 = central_difference(lambda x: kin.isochoric_invariants(x)[1], f)
            np.testing.assert_allclose(d1, fd1, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(d2, fd2, rtol=1e-6, atol=1e-8)

    def test_second_derivatives_match_fd(self, rng):
        for _ in range(5):
            f = random_unimodular(rng)
            _, _, dd1, dd2 = kin.invariant_derivatives(f)
            fd1 = central_difference_tensor(lambda x: first_derivatives(x)[0], f)
            fd2 = central_difference_tensor(lambda x: first_derivatives(x)[1], f)
            np.testing.assert_allclose(dd1, fd1, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(dd2, fd2, rtol=1e-6, atol=1e-7)

    def test_major_symmetry(self, rng):
        f = random_unimodular(rng)
        _, _, dd1, dd2 = kin.invariant_derivatives(f)
        for dd in (dd1, dd2):
            swapped = np.einsum("iIjJ->jJiI", dd)
            err = np.abs(dd - swapped).max() / np.abs(dd).max()
            assert err < 1e-10

    def test_consistent_with_full_variant(self, rng):
        f = random_unimodular(rng)
        d1a, d2a = first_derivatives(f)
        d1b, d2b, _, _ = kin.invariant_derivatives(f)
        np.testing.assert_array_equal(d1a, d1b)
        np.testing.assert_array_equal(d2a, d2b)

    def test_second_invariant_algebraic_identity(self, rng):
        # tr cof C == ((tr C)^2 - tr C^2) / 2
        f = random_unimodular(rng)
        c = f.T @ f
        direct = np.trace(cofactor(c))
        alt = 0.5 * (np.trace(c) ** 2 - np.trace(c @ c))
        assert direct == pytest.approx(alt, rel=1e-12)


class TestPrincipalStretchGradient:
    def test_identity_at_unit_stretch(self):
        np.testing.assert_allclose(kin.principal_stretch_gradient(1.0, 1.0), np.eye(3))

    def test_uniaxial_invariants(self):
        lam = 2.0
        f = kin.principal_stretch_gradient(lam, lam**-0.5)
        i1, i2 = kin.isochoric_invariants(f)
        np.testing.assert_allclose([i1, i2], cons.uniaxial_invariants(lam), rtol=1e-13)

    @pytest.mark.parametrize(
        "second",
        [lambda lam: lam**-0.5, lambda lam: lam, np.ones_like],
        ids=["uniaxial", "equibiaxial", "pure-shear"],
    )
    def test_unit_determinant(self, second):
        lam = np.linspace(0.4, 3.0, 9)
        fs = kin.principal_stretch_gradient(lam, second(lam))
        np.testing.assert_allclose(np.linalg.det(fs), 1.0, atol=1e-12)

    def test_broadcast_unit_determinant(self):
        fs = kin.principal_stretch_gradient([[1.5], [0.7]], [1.2, 2.0, 0.9])
        assert fs.shape == (2, 3, 3, 3)
        np.testing.assert_allclose(np.linalg.det(fs), 1.0, atol=1e-12)

    def test_nonpositive_stretch_raises(self):
        with pytest.raises(InvalidStretchError):
            kin.principal_stretch_gradient(0.0, 1.0)

    @pytest.mark.parametrize("lam1, lam2", [(np.nan, 1.0), (1.0, np.inf),
                                            ([0.5, 1.0], [np.inf, 2.0])])
    def test_principal_stretch_gradient_rejects_non_finite_stretch(self, lam1, lam2):
        with pytest.raises(InvalidStretchError, match="finite"):
            kin.principal_stretch_gradient(lam1, lam2)
        assert kin.principal_stretch_gradient(1.5, 1.2).shape == (3, 3)


class TestDiagonalInverse:
    """The scan's invariant pass runs on the principal stretches s of its
    diagonal F (``_principal_terms``), with the reciprocals of s in place
    of LAPACK's inverse, and gives the diagonals of ``_invariant_terms``."""

    @pytest.mark.parametrize("low, high", [(0.5, 3.0), (1e-300, 1e300)],
                             ids=["scan-grid", "extremes"])
    def test_invariant_terms_match_lapack_bit_for_bit(self, low, high):
        draws = np.random.default_rng(24).uniform(np.log(low), np.log(high), (2, 20000))
        with np.errstate(all="ignore"):
            f = kin.principal_stretch_gradient(*np.exp(draws))
            s, det = np.diagonal(f, axis1=-2, axis2=-1), np.linalg.det(f)
            # the pairs whose 1/(l1 l2), det F and reciprocals are finite and
            # nonzero; the invariants may still overflow at the extremes
            kept = np.all(np.isfinite(1.0 / s), axis=-1) & np.isfinite(det) & (det > 0)
            f, s, det = f[kept], s[kept], det[kept]
            assert len(f) > 10000
            got = kin._principal_terms(s, det)
            ref = kin._invariant_terms(f, det)
        for new, old in zip(got, ref):
            if old.ndim == 3:
                # a tensor whose diagonal is finite is diagonal
                diagonal = np.diagonal(old, axis1=-2, axis2=-1)
                finite = np.isfinite(diagonal).all(axis=-1)
                assert finite.sum() > 1000
                assert not old.reshape(-1, 9)[finite][:, [1, 2, 3, 5, 6, 7]].any()
                old = diagonal
            assert new.shape == old.shape
            assert new.tobytes() == np.ascontiguousarray(old).tobytes()


class TestRandomGenerators:
    def test_rotation_is_orthogonal(self, rng):
        for _ in range(50):
            q = random_rotation(rng)
            np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)

    def test_unimodular_determinant(self, rng):
        for _ in range(50):
            f = random_unimodular(rng)
            assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-12)
