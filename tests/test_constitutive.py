import numpy as np
import pytest

from monopann import constitutive as cons
from monopann import kinematics as kin
from monopann import networks as nets
from monopann.errors import InvalidStretchError, NotIsochoricError

from conftest import (
    central_difference,
    random_rotation,
    random_unimodular,
    stack_models,
    uniaxial_gradient,
)

# cubic reported for the grayscale-parametrized baseline, MPa
C10_CUBIC = [114.3, -207.3, 23.99, -1.143]


def all_arch_models(rng, nodes=4, param_dim=1):
    return [
        nets.build_model(arch, nodes, param_dim, rng) for arch in nets.Architecture
    ]


class TestStressCoefficients:
    def test_neo_hookean_constant(self):
        law = cons.neo_hookean(0.5)
        assert tuple(law.coefficients(4.1, 3.7, [0.0])) == (0.5, 0.0)

    def test_mooney_rivlin_cubic_at_reference(self):
        law = cons.MooneyRivlin(C10_CUBIC, [0.0], [0.0])
        c1, _ = law.coefficients(3.0, 3.0, [0.1])
        assert c1 == pytest.approx(-0.7027, abs=5e-5)

    def test_zero_weight_model(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        for layer in model.layers:
            layer.weights[...] = 0.0
        law = cons.as_law(model)
        assert tuple(law.coefficients(4.0, 4.0, [0.5])) == (0.0, 0.0)

    def test_coefficients_objective(self, rng):
        law = cons.as_law(nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng))
        f = random_unimodular(rng)
        q1, q2 = random_rotation(rng), random_rotation(rng)
        i1, i2 = kin.isochoric_invariants(np.stack([f, q1 @ f @ q2.T]))
        a, b = law.coefficients(i1, i2, np.array([0.3]))
        np.testing.assert_allclose(a, b, rtol=1e-12)


def separate_hessian(model, i1, i2, par):
    """The neural Hessian in the invariants from a trace and reverse sweep of
    its own, apart from the stress coefficients: the reference that the
    Hessian of ``derivatives`` must equal bit for bit."""
    inv, par, lead = nets._as_batch(model, np.stack([i1, i2], axis=-1), par)
    entry, hidden = nets._entry(model), model.layers[:-1]
    work = nets._Workspace(model, inv - 3.0, par)
    nets._trace(model, work)
    nets._reverse(model, work)
    jac = hidden[entry].weights[..., :2]
    pairs = jac[..., nets._GRAM_ROW] * jac[..., nets._GRAM_COL]
    h = (work.curvatures[entry] * work.adjoints[entry]) @ pairs
    # the tangents along I1 and I2, a'_k = (s'_{k-1} o a'_{k-1}) W_k^T from
    # a'_e = W_e[:, :2], each with its own weighted sums
    tangents = [np.broadcast_to(jac[..., a][..., None, :], work.slopes[entry].shape)
                for a in range(2)]
    for k in range(entry + 1, len(hidden)):
        tangents = [(work.slopes[k - 1] * t) @ work.transposed[k] for t in tangents]
        for j, (a, b) in enumerate(zip(nets._GRAM_ROW, nets._GRAM_COL)):
            weighted = work.curvatures[k] * work.adjoints[k] * tangents[a]
            h[..., j] += np.vecdot(weighted, tangents[b])
    h = h[..., nets._GRAM_FULL]
    return h.reshape(h.shape[:-3] + lead + (2, 2))


class TestDerivatives:
    """``derivatives`` returns, bit for bit, what ``coefficients`` and a
    separate Hessian evaluation give."""

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_neural_matches_separate_evaluations(self, arch, rng):
        models = [nets.build_model(arch, 6, 2, rng) for _ in range(3)]
        for model in models:
            for layer in model.layers[:-1]:
                layer.bias[...] = rng.uniform(-0.5, 0.5, layer.bias.shape)
        i1, i2 = 3.0 + 3.0 * rng.random((2, 20))
        par = rng.random((20, 2))
        # with a leading restart axis, each slice is the model's own result
        stacked = cons.as_law(stack_models(models))
        coef, hess = stacked.derivatives(i1, i2, par)
        assert coef.shape == (3, 20, 2) and hess.shape == (3, 20, 2, 2)
        np.testing.assert_array_equal(coef, stacked.coefficients(i1, i2, par))
        for r, model in enumerate(models):
            law = cons.as_law(model)
            one_coef, one_hess = law.derivatives(i1, i2, par)
            np.testing.assert_array_equal(one_coef, law.coefficients(i1, i2, par))
            np.testing.assert_array_equal(one_hess, separate_hessian(model, i1, i2, par))
            np.testing.assert_array_equal(coef[r], one_coef)
            np.testing.assert_array_equal(hess[r], one_hess)

    def test_mooney_rivlin_closed_forms(self, rng):
        law = cons.MooneyRivlin([0.1, 0.3], [-0.05, 0.02], [0.01, -0.04])
        i1, i2 = 3.0 + 3.0 * rng.random((2, 20))
        # three parameter rows broadcast against the 20 invariant pairs
        par = rng.random((3, 1, 1))
        coef, hess = law.derivatives(i1, i2, par)
        a, b, c = (np.polyval(k, par[..., 0]) for k in (law.c10, law.c01, law.c11))
        np.testing.assert_array_equal(coef, law.coefficients(i1, i2, par))
        np.testing.assert_array_equal(coef[..., 0], a + c * (i2 - 3.0))
        np.testing.assert_array_equal(coef[..., 1], b + c * (i1 - 3.0))
        expected = np.zeros((3, 20, 2, 2))
        expected[..., 0, 1] = expected[..., 1, 0] = c
        np.testing.assert_array_equal(hess, expected)


class TestUniaxialStress:
    def test_zero_at_unit_stretch(self, rng):
        for model in all_arch_models(rng):
            assert cons.uniaxial_stress(model, 1.0, np.array([0.5])) == 0.0

    def test_neo_hookean_analytic(self):
        law = cons.neo_hookean(0.5)
        p = cons.uniaxial_stress(law, 2.0, np.array([0.0]))
        assert p == pytest.approx(1.75, rel=1e-14)

    def test_matches_three_dimensional_path(self, rng):
        lams = np.linspace(0.5, 7.0, 27)
        t = np.array([0.4])
        for model in all_arch_models(rng):
            p1d = cons.uniaxial_stress(model, lams, t)
            fs = uniaxial_gradient(lams)
            gamma = cons.traction_free_gamma(model, fs, t)
            p3d = cons.pk1_stress(model, fs, t, gamma=gamma)[..., 0, 0]
            np.testing.assert_allclose(p1d, p3d, rtol=1e-10, atol=1e-13)

    def test_invalid_stretch(self):
        with pytest.raises(InvalidStretchError):
            cons.uniaxial_stress(cons.neo_hookean(1.0), -1.0, np.array([0.0]))


class TestPk1:
    def test_zero_at_identity_for_all_architectures(self, rng):
        t = np.array([0.7])
        for model in all_arch_models(rng):
            p = cons.pk1_stress(model, np.eye(3), t, gamma=0.0)
            assert np.linalg.norm(p) < 1e-12

    def test_zero_model_gives_zero_tangent(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        for layer in model.layers:
            layer.weights[...] = 0.0
        f = random_unimodular(rng)
        tangent = cons.pk1_tangent(model, f, np.array([0.2]))
        np.testing.assert_array_equal(tangent, np.zeros((3, 3, 3, 3)))

    def test_stress_matches_fd_of_energy(self, rng):
        t = np.array([0.4])
        gamma = 0.3
        for model in all_arch_models(rng):
            law = cons.as_law(model)
            f = random_unimodular(rng)

            def energy(x):
                i1, i2 = kin.isochoric_invariants(x)
                j = np.linalg.det(x)
                return float(law.energy(i1, i2, t)) - gamma * (j - 1.0)

            p = cons.pk1_stress(model, f, t, gamma=gamma)
            fd = central_difference(energy, f)
            np.testing.assert_allclose(p, fd, rtol=1e-6, atol=1e-8)

    def test_tangent_matches_fd_of_stress(self, rng):
        t = np.array([0.4])
        for model in all_arch_models(rng):
            f = random_unimodular(rng)
            tangent = cons.pk1_tangent(model, f, t)
            fd = _fd_tangent(cons.as_law(model), f, t)
            np.testing.assert_allclose(tangent, fd, rtol=1e-5, atol=1e-6)

    def test_tangent_major_symmetry(self, rng):
        model = nets.build_model(nets.Architecture.UNRESTRICTED_2HL, 5, 1, rng)
        f = random_unimodular(rng)
        tangent = cons.pk1_tangent(model, f, np.array([0.6]))
        swapped = np.einsum("iIjJ->jJiI", tangent)
        err = np.abs(tangent - swapped).max() / np.abs(tangent).max()
        assert err < 1e-10

    def test_neo_hookean_rank_one_nonnegative(self, rng):
        law = cons.neo_hookean(0.5)
        t = np.array([0.0])
        for _ in range(50):
            f = random_unimodular(rng)
            tangent = cons.pk1_tangent(law, f, t)
            b = rng.standard_normal(3)
            n = np.linalg.inv(f).T @ b
            a = rng.standard_normal(3)
            a -= (a @ n) / (n @ n) * n  # a x B in the unit-determinant tangent space
            val = np.einsum("iIjJ,i,I,j,J->", tangent, a, b, a, b)
            assert val >= -1e-12

    def test_not_isochoric_raises(self):
        with pytest.raises(NotIsochoricError):
            cons.pk1_stress(cons.neo_hookean(1.0), 1.1 * np.eye(3), np.array([0.0]))


def _fd_tangent(law, f, t, h=1e-5):
    """Entrywise central differences of the gamma-free stress."""

    def stress(x):
        terms = kin._invariant_terms(x)
        i1, i2 = kin._isochoric(terms)
        d1, d2 = terms[5:]
        c = law.coefficients(i1, i2, t)
        return c[..., 0] * d1 + c[..., 1] * d2

    out = np.zeros((3, 3, 3, 3))
    for j in range(3):
        for J in range(3):
            fp = f.copy()
            fm = f.copy()
            fp[j, J] += h
            fm[j, J] -= h
            out[:, :, j, J] = (stress(fp) - stress(fm)) / (2.0 * h)
    return out


class TestCurveExport:
    def test_round_trip(self, tmp_path):
        lam = np.linspace(1.0, 2.0, 5)
        law = cons.neo_hookean(0.5)
        p = cons.uniaxial_stress(law, lam, np.array([0.0]))
        path = tmp_path / "curve.csv"
        cons.write_curve_csv(path, lam, p, p, np.array([0.25]))
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "lambda,P_model,P_data,t"
        assert len(rows) == 6
        back = np.array([row.split(",")[:3] for row in rows[1:]], dtype=float)
        np.testing.assert_array_equal(back[:, 0], lam)
        np.testing.assert_array_equal(back[:, 1], p)
