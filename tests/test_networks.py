import numpy as np
import pytest

from monopann import networks as nets
from monopann.calibration import _stack
from monopann.errors import ConstraintViolationError, ShapeMismatchError

from conftest import central_difference, central_difference_tensor

ALL_ARCHITECTURES = list(nets.Architecture)
CONSTRAINED = [nets.Architecture.MONOTONIC, nets.Architecture.CONVEX_MONOTONIC]
TWO_HIDDEN = [nets.Architecture.MONOTONIC, nets.Architecture.UNRESTRICTED_2HL]


def make_model(arch, rng, nodes=4, param_dim=1):
    return nets.build_model(arch, nodes, param_dim, rng)


def zero_model(arch, rng, nodes=4, param_dim=1):
    model = make_model(arch, rng, nodes, param_dim)
    for layer in model.layers:
        layer.weights[...] = 0.0
        if layer.bias is not None:
            layer.bias[...] = 0.0
    return model


def random_states(rng, count, param_dim=1, spread=3.0):
    inv = 3.0 + spread * rng.random((count, 2))
    par = rng.random((count, param_dim))
    return inv, par


class TestForward:
    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_zero_weights_give_zero(self, arch, rng):
        model = zero_model(arch, rng)
        assert nets.forward_batch(model, [4.7, 3.9], [0.3]) == 0.0

    def test_single_softplus_node_log_two(self, rng):
        # one softplus node with unit weight and zero bias, fed x = 0
        model = zero_model(nets.Architecture.MONOTONIC, rng, nodes=1)
        model.layers[1].weights[...] = 1.0  # softplus layer
        model.layers[2].weights[...] = 1.0  # linear output
        psi = nets.forward_batch(model, [3.0, 3.0], [0.0])  # tanh branch is 0
        assert psi == pytest.approx(np.log(2.0), rel=1e-12)

    def test_monotone_in_ordered_inputs(self, rng):
        model = make_model(nets.Architecture.MONOTONIC, rng, nodes=6)
        lo, hi = nets.forward_batch(model, [[3.0, 3.0], [5.0, 4.25]], [0.2])
        assert hi >= lo

    def test_monotone_composition_random_pairs(self, rng):
        for arch in CONSTRAINED:
            model = make_model(arch, rng, nodes=5)
            # per pair: three uniforms for x, then three for the step to y
            draws = rng.random((1000, 2, 3))
            x = np.array([3.0, 3.0, 0.0]) + draws[:, 0] * [2.0, 2.0, 1.0]
            y = x + draws[:, 1] * 0.5
            fx = nets.forward_batch(model, x[:, :2], x[:, 2:])
            fy = nets.forward_batch(model, y[:, :2], y[:, 2:])
            assert np.all(fy >= fx - 1e-12)

    def test_convexity_along_invariant_segments(self, rng):
        model = make_model(nets.Architecture.CONVEX_MONOTONIC, rng, nodes=5)
        t = np.array([0.4])
        # per segment: two uniforms each for a and b, then one for alpha
        draws = rng.random((1000, 5))
        a = 3.0 + 4.0 * draws[:, 0:2]
        b = 3.0 + 4.0 * draws[:, 2:4]
        alpha = draws[:, 4]
        mid = alpha[:, None] * a + (1.0 - alpha[:, None]) * b
        f_mid = nets.forward_batch(model, mid, t)
        f_a = nets.forward_batch(model, a, t)
        f_b = nets.forward_batch(model, b, t)
        assert np.all(f_mid <= alpha * f_a + (1.0 - alpha) * f_b + 1e-10)

    def test_shape_mismatch(self, rng):
        model = make_model(nets.Architecture.MONOTONIC, rng, param_dim=2)
        with pytest.raises(ShapeMismatchError):
            nets.forward_batch(model, [3.0, 3.0], [0.5])


class TestDerivatives:
    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_invariant_gradients_match_fd(self, arch, rng):
        model = make_model(arch, rng, nodes=5, param_dim=2)
        inv, par = random_states(rng, 10, param_dim=2)
        g = nets.invariant_gradients_batch(model, inv, par)
        for s in range(10):
            fd = central_difference(
                lambda x: nets.forward_batch(model, x, par[s]), inv[s]
            )
            np.testing.assert_allclose(g[s], fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_parameter_gradients_match_fd(self, arch, rng):
        model = make_model(arch, rng, nodes=5, param_dim=2)
        inv, par = random_states(rng, 10, param_dim=2)
        g = nets.parameter_gradients_batch(model, inv, par)
        for s in range(10):
            fd = central_difference(
                lambda x: nets.forward_batch(model, inv[s], x), par[s]
            )
            np.testing.assert_allclose(g[s], fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_hessians_match_fd(self, arch, rng):
        model = make_model(arch, rng, nodes=5)
        inv, par = random_states(rng, 5)
        h = nets.invariant_hessians_batch(model, inv, par)
        for s in range(5):
            fd = central_difference_tensor(
                lambda x: nets.invariant_gradients_batch(model, x, par[s]), inv[s]
            )
            np.testing.assert_allclose(h[s], fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_hessians_match_fd_at_acceptance_size(self, arch, rng):
        # n = 8 and m = 1, the size of the trained models the scan probes
        model = make_model(arch, rng, nodes=8, param_dim=1)
        inv, par = random_states(rng, 6)
        h = nets.invariant_hessians_batch(model, inv, par)
        assert h.shape == (6, 2, 2)
        for s in range(6):
            fd = central_difference_tensor(
                lambda x: nets.invariant_gradients_batch(model, x, par[s]), inv[s]
            )
            np.testing.assert_allclose(h[s], fd, rtol=1e-5, atol=1e-8)

    def test_zero_model_derivatives(self, rng):
        model = zero_model(nets.Architecture.MONOTONIC, rng)
        inv, par = [4.0, 3.5], [0.7]
        np.testing.assert_array_equal(
            nets.invariant_gradients_batch(model, inv, par), [0.0, 0.0]
        )
        np.testing.assert_array_equal(nets.parameter_gradients_batch(model, inv, par), [0.0])
        np.testing.assert_array_equal(
            nets.invariant_hessians_batch(model, inv, par), np.zeros((2, 2))
        )

    def test_constrained_gradients_nonnegative_sweep(self, rng):
        for arch in CONSTRAINED:
            model = make_model(arch, rng, nodes=6)
            inv, par = random_states(rng, 10_000)
            g = nets.invariant_gradients_batch(model, inv, par)
            gp = nets.parameter_gradients_batch(model, inv, par)
            assert g.min() >= 0.0
            assert gp.min() >= 0.0

    def test_convex_monotonic_hessian_psd_sweep(self, rng):
        model = make_model(nets.Architecture.CONVEX_MONOTONIC, rng, nodes=6)
        inv, par = random_states(rng, 10_000)
        h = nets.invariant_hessians_batch(model, inv, par)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-10

    def test_hessian_symmetry(self, rng):
        for arch in ALL_ARCHITECTURES:
            model = make_model(arch, rng)
            inv, par = random_states(rng, 50)
            h = nets.invariant_hessians_batch(model, inv, par)
            np.testing.assert_allclose(h, np.swapaxes(h, -1, -2), atol=1e-14)


class TestVjp:
    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_vjp_matches_fd(self, arch, rng):
        model = make_model(arch, rng, nodes=4, param_dim=2)
        inv, par = random_states(rng, 6, param_dim=2)
        cot = rng.standard_normal((6, 2))
        grads = nets.invariant_gradient_vjp(model, inv, par, cot)
        arrays = nets.parameter_arrays(model)
        assert len(grads) == len(arrays)

        def objective():
            g = nets.invariant_gradients_batch(model, inv, par)
            return float(np.sum(cot * g))

        h = 1e-6
        for arr, grad in zip(arrays, grads):
            assert grad.shape == arr.shape
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                f_plus = objective()
                arr[idx] = orig - h
                f_minus = objective()
                arr[idx] = orig
                fd = (f_plus - f_minus) / (2.0 * h)
                assert grad[idx] == pytest.approx(fd, rel=5e-5, abs=1e-7)


def explicit_u_two_hidden(model, zinv, par, cot):
    """Stress coefficients and their VJP for a two-hidden-layer model,
    derived in reverse mode through the per-sample Jacobian
    ``u = W2 diag(t1) W1`` (..., S, n, 2 + m) of the second layer, which is
    formed explicitly.  The arrays may carry a leading restart axis."""
    l1, l2, l3 = model.layers
    w1, w2, w3 = l1.weights, l2.weights, l3.weights[..., 0, :]
    z = np.concatenate([zinv, par], axis=-1)
    a1 = z @ np.swapaxes(w1, -1, -2) + l1.bias[..., None, :]
    x1 = np.tanh(a1)
    t1 = 1.0 - x1**2
    t2 = -2.0 * x1 * t1
    a2 = x1 @ np.swapaxes(w2, -1, -2) + l2.bias[..., None, :]
    s1 = 1.0 / (1.0 + np.exp(-a2))
    s2 = s1 * (1.0 - s1)
    u = np.einsum("...ij,...sj,...jk->...sik", w2, t1, w1)
    v = w3[..., None, :] * s1
    coefficients = np.einsum("...si,...sik->...sk", v, u)[..., :2]
    # reverse sweep of sum_s cot[s] . (v[s] u[s])[:2]
    du = np.zeros_like(u)
    du[..., :2] = v[..., :, None] * cot[..., :, None, :]
    dv = np.einsum("...sik,...sk->...si", u[..., :2], cot)
    da2 = s2 * w3[..., None, :] * dv
    dt1 = np.einsum("...sik,...ij,...jk->...sj", du, w2, w1)
    da1 = (da2 @ w2) * t1 + dt1 * t2
    dw1 = np.einsum("...sj,...sl->...jl", da1, z)
    dw1 += np.einsum("...sik,...ij,...sj->...jk", du, w2, t1)
    dw2 = np.einsum("...si,...sj->...ij", da2, x1)
    dw2 += np.einsum("...sik,...sj,...jk->...ij", du, t1, w1)
    dw3 = np.einsum("...si,...si->...i", s1, dv)[..., None, :]
    grads = [dw1, da1.sum(axis=-2), dw2, da2.sum(axis=-2), dw3]
    return coefficients, grads


class TestFactoredTwoHidden:
    """The 2-HL gradient and VJP never form u; they must still agree with
    the explicit-u derivation, per restart and stacked."""

    @pytest.mark.parametrize("arch", TWO_HIDDEN)
    @pytest.mark.parametrize("nodes,samples,restarts", [(8, 60, 5), (32, 200, 2)])
    def test_matches_explicit_u_and_unstacked_calls(self, arch, nodes, samples,
                                                    restarts, rng):
        models = [make_model(arch, rng, nodes=nodes) for _ in range(restarts)]
        for model in models:
            for layer in model.layers[:-1]:
                layer.bias[...] = rng.uniform(-0.5, 0.5, layer.bias.shape)
        stacked = _stack(models)
        inv, par = random_states(rng, samples)
        zinv = inv - 3.0
        cot = rng.standard_normal((restarts, samples, 2))
        coefficients, vjp = nets._stress_vjp(stacked, zinv, par)
        grads = vjp(cot)
        ref_coefficients, ref_grads = explicit_u_two_hidden(stacked, zinv, par, cot)
        for got, want in zip([coefficients, *grads], [ref_coefficients, *ref_grads]):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        for r, model in enumerate(models):
            one, one_vjp = nets._stress_vjp(model, zinv, par)
            np.testing.assert_array_equal(coefficients[r], one)
            for got, want in zip(grads, one_vjp(cot[r])):
                np.testing.assert_array_equal(got[r], want)


class TestCountsAndSparsity:
    def test_two_hidden_layer_count(self, rng):
        # n = 8, m = 1: n^2 + n(m + 5) = 112
        for arch in (
            nets.Architecture.MONOTONIC,
            nets.Architecture.UNRESTRICTED_2HL,
            nets.Architecture.CONVEX_MONOTONIC,
        ):
            model = make_model(arch, rng, nodes=8, param_dim=1)
            assert nets.parameter_count(model) == 112
            assert nets.sparsity(model)[1] == 112

    def test_one_hidden_layer_count(self, rng):
        # n = 8, m = 1: n(m + 4) = 40
        model = make_model(nets.Architecture.UNRESTRICTED_1HL, rng, nodes=8)
        assert nets.parameter_count(model) == 40

    def test_fresh_unrestricted_model_fully_dense(self, rng):
        model = make_model(nets.Architecture.UNRESTRICTED_2HL, rng, nodes=8)
        nonzero, total = nets.sparsity(model)
        # biases start at zero; every weight is drawn from a continuous law
        weights = sum(l.weights.size for l in model.layers)
        assert nonzero == weights
        assert total == 112


class TestValidationAndSerialization:
    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_round_trip_bit_identical(self, arch, rng):
        model = make_model(arch, rng, nodes=3, param_dim=2)
        model.metadata["label"] = "round-trip"
        text = nets.model_to_json(model)
        clone = nets.model_from_json(text)
        for a, b in zip(nets.parameter_arrays(model), nets.parameter_arrays(clone)):
            np.testing.assert_array_equal(a, b)
        assert nets.model_to_json(clone) == text

    def test_validate_flags_negative_constrained_weight(self, rng):
        model = make_model(nets.Architecture.MONOTONIC, rng)
        nets.validate(model)
        model.layers[1].weights[0, 0] = -1e-15
        with pytest.raises(ConstraintViolationError):
            nets.validate(model)

    def test_validate_flags_wrong_shape(self, rng):
        model = make_model(nets.Architecture.MONOTONIC, rng)
        model.layers[1].weights = np.zeros((2, 2))
        with pytest.raises(ShapeMismatchError):
            nets.validate(model)

    def test_save_load(self, rng, tmp_path):
        model = make_model(nets.Architecture.CONVEX_MONOTONIC, rng)
        path = tmp_path / "model.json"
        nets.save_model(model, path)
        clone = nets.load_model(path)
        inv, par = [4.2, 3.8], [0.5]
        assert nets.forward_batch(clone, inv, par) == nets.forward_batch(model, inv, par)
