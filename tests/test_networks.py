import json
import tracemalloc

import numpy as np
import pytest

from monopann import networks as nets
from monopann.errors import ConstraintViolationError, ShapeMismatchError

from conftest import (central_difference, central_difference_tensor, parameter_gradients,
                      stack_models)

ALL_ARCHITECTURES = list(nets.Architecture)
CONSTRAINED = [nets.Architecture.MONOTONIC, nets.Architecture.CONVEX_MONOTONIC]
TWO_HIDDEN = [nets.Architecture.MONOTONIC, nets.Architecture.UNRESTRICTED_2HL]
# stacks with three hidden layers, which no architecture builds
THREE_HIDDEN = ["three_hidden_chain", "three_hidden_convex"]
DERIVATIVE_CASES = ALL_ARCHITECTURES + THREE_HIDDEN


def three_hidden_model(kind, rng, nodes, param_dim):
    """A hand-built model: the free chain tanh -> softplus -> tanh -> linear,
    or the convex-monotonic input assembly (a tanh branch on the parameters
    joining the invariants in a softplus layer) with an extra softplus
    layer and non-negative weights.  It is not :func:`nets.validate`-d."""
    n, m = nodes, param_dim
    act = nets.Activation
    if kind == "three_hidden_chain":
        arch, constrained = nets.Architecture.UNRESTRICTED_2HL, False
        plan = [((n, 2 + m), act.TANH), ((n, n), act.SOFTPLUS), ((n, n), act.TANH)]
    else:
        arch, constrained = nets.Architecture.CONVEX_MONOTONIC, True
        plan = [((n, m), act.TANH), ((n, 2 + n), act.SOFTPLUS), ((n, n), act.SOFTPLUS)]
    constraint = nets.Constraint.NON_NEGATIVE if constrained else nets.Constraint.FREE
    layers = []
    for shape, activation in plan + [((1, n), act.LINEAR)]:
        w = rng.uniform(-1.0, 1.0, shape)
        bias = None if activation is act.LINEAR else rng.uniform(-0.5, 0.5, n)
        layers.append(nets.Layer(np.abs(w) if constrained else w, bias, activation,
                                 constraint))
    return nets.PotentialModel(arch, n, m, layers)


def make_model(arch, rng, nodes=4, param_dim=1):
    if arch in THREE_HIDDEN:
        return three_hidden_model(arch, rng, nodes, param_dim)
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


def stress_vjp(model, zinv, par, cot, work=None):
    """Stress coefficients and their VJP along ``cot``, traced in ``work`` or
    a fresh workspace, with the gradient written into fresh arrays."""
    coefficients, vjp = nets._stress_vjp(model, work or nets._Workspace(model, zinv, par))
    return coefficients, vjp(cot, [np.empty(a.shape) for a in nets.parameter_arrays(model)])


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
    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    def test_invariant_gradients_match_fd(self, arch, rng):
        model = make_model(arch, rng, nodes=5, param_dim=2)
        inv, par = random_states(rng, 10, param_dim=2)
        g = nets.invariant_gradients_batch(model, inv, par)
        for s in range(10):
            fd = central_difference(
                lambda x: nets.forward_batch(model, x, par[s]), inv[s]
            )
            np.testing.assert_allclose(g[s], fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    def test_parameter_gradients_match_fd(self, arch, rng):
        model = make_model(arch, rng, nodes=5, param_dim=2)
        inv, par = random_states(rng, 10, param_dim=2)
        g = parameter_gradients(model, inv, par)
        for s in range(10):
            fd = central_difference(
                lambda x: nets.forward_batch(model, inv[s], x), par[s]
            )
            np.testing.assert_allclose(g[s], fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    def test_hessians_match_fd(self, arch, rng):
        model = make_model(arch, rng, nodes=5)
        inv, par = random_states(rng, 5)
        _, h = nets.invariant_hessians_batch(model, inv, par)
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
        _, h = nets.invariant_hessians_batch(model, inv, par)
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
        np.testing.assert_array_equal(parameter_gradients(model, inv, par), [0.0])
        np.testing.assert_array_equal(
            nets.invariant_hessians_batch(model, inv, par)[1], np.zeros((2, 2))
        )

    def test_constrained_gradients_nonnegative_sweep(self, rng):
        for arch in CONSTRAINED:
            model = make_model(arch, rng, nodes=6)
            inv, par = random_states(rng, 10_000)
            g = nets.invariant_gradients_batch(model, inv, par)
            gp = parameter_gradients(model, inv, par)
            assert g.min() >= 0.0
            assert gp.min() >= 0.0

    def test_convex_monotonic_hessian_psd_sweep(self, rng):
        model = make_model(nets.Architecture.CONVEX_MONOTONIC, rng, nodes=6)
        inv, par = random_states(rng, 10_000)
        _, h = nets.invariant_hessians_batch(model, inv, par)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-10

    def test_hessian_symmetry(self, rng):
        for arch in ALL_ARCHITECTURES:
            model = make_model(arch, rng)
            inv, par = random_states(rng, 50)
            _, h = nets.invariant_hessians_batch(model, inv, par)
            np.testing.assert_allclose(h, np.swapaxes(h, -1, -2), atol=1e-14)

    def test_hessian_peak_below_one_jacobian_product(self, rng):
        # the tangents along I1 and I2 replace per-sample (n, n) products:
        # at the scan's largest law call a Hessian peaks below one (S, n, n)
        # array (about 19 MB; 50 MB with those products)
        nodes, samples = 32, 4096
        model = make_model(nets.Architecture.MONOTONIC, rng, nodes=nodes)
        inv, par = random_states(rng, samples)
        tracemalloc.start()
        try:
            nets.invariant_hessians_batch(model, inv, par)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * samples * nodes * nodes


class TestVjp:
    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
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


def stable_sigmoid(a):
    """The sigmoid evaluated on each side of 0 in its non-overflowing form."""
    s = np.empty_like(a)
    pos = a >= 0.0
    s[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    s[~pos] = np.exp(a[~pos]) / (1.0 + np.exp(a[~pos]))
    return s


class TestActivation:
    """``_activate`` takes sigma, sigma' and sigma'' from one evaluation."""

    # +-800, where exp(-|a|) underflows to 0, +-40, both zeros and a dense grid
    GRID = np.concatenate([[-800.0, -40.0, -0.0, 0.0, 40.0, 800.0],
                           np.linspace(-20.0, 20.0, 401)])

    @staticmethod
    def activate(kind, a, output=True, in_place=False):
        """``_activate`` into fresh arrays, or with the value written over
        (a copy of) ``a``; returns the value (None if skipped) and both slopes."""
        a = a.copy()
        x, d1, d2, *spare = (np.empty_like(a) for _ in range(5))
        x = a if in_place else x if output else None
        # underflow of exp(-|a|) to 0 is the stable forms' intended result
        with np.errstate(all="raise", under="ignore"):
            nets._activate(kind, a, x, d1, d2, spare)
        return x, d1, d2

    @staticmethod
    def assert_bits_equal(got, want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_tanh_bit_identical_to_textbook_forms(self):
        a = self.GRID
        for in_place in (False, True):
            x, d1, d2 = self.activate(nets.Activation.TANH, a, in_place=in_place)
            self.assert_bits_equal(x, np.tanh(a))
            self.assert_bits_equal(d1, 1.0 - np.tanh(a) ** 2)
            self.assert_bits_equal(d2, -2.0 * np.tanh(a) * (1.0 - np.tanh(a) ** 2))

    def test_softplus_bit_identical_to_textbook_forms(self):
        a = self.GRID
        s = stable_sigmoid(a)
        for in_place in (False, True):
            x, d1, d2 = self.activate(nets.Activation.SOFTPLUS, a, in_place=in_place)
            self.assert_bits_equal(x, np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a))))
            self.assert_bits_equal(d1, s)
            self.assert_bits_equal(d2, s * (1.0 - s))
            np.testing.assert_allclose(x, np.logaddexp(0.0, a), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("kind", [nets.Activation.TANH, nets.Activation.SOFTPLUS])
    def test_derivatives_match_central_differences(self, kind):
        a, h = np.linspace(-6.0, 6.0, 121), 1e-5
        _, d1, d2 = self.activate(kind, a)
        x_plus, d1_plus, _ = self.activate(kind, a + h)
        x_minus, d1_minus, _ = self.activate(kind, a - h)
        np.testing.assert_allclose(d1, (x_plus - x_minus) / (2.0 * h), rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(d2, (d1_plus - d1_minus) / (2.0 * h), rtol=1e-7, atol=1e-10)

    def test_softplus_can_skip_its_value(self):
        a = self.GRID
        x, d1, d2 = self.activate(nets.Activation.SOFTPLUS, a, output=False)
        assert x is None
        self.assert_bits_equal(d1, stable_sigmoid(a))

    def test_linear_is_not_a_hidden_activation(self):
        with pytest.raises(ValueError, match="linear"):
            self.activate(nets.Activation.LINEAR, self.GRID)

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_one_transcendental_call_per_hidden_layer(self, arch, rng, monkeypatch):
        """A trace and its VJP take tanh once per tanh layer and exp once
        per softplus layer."""
        model = make_model(arch, rng, nodes=5)
        inv, par = random_states(rng, 7)
        calls = {"tanh": 0, "exp": 0}
        for name in calls:
            def counted(*args, _ufunc=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _ufunc(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        stress_vjp(model, inv - 3.0, par, rng.standard_normal((7, 2)))
        kinds = [layer.activation for layer in model.layers[:-1]]
        assert calls == {"tanh": kinds.count(nets.Activation.TANH),
                         "exp": kinds.count(nets.Activation.SOFTPLUS)}


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
        stacked = stack_models(models)
        inv, par = random_states(rng, samples)
        zinv = inv - 3.0
        cot = rng.standard_normal((restarts, samples, 2))
        coefficients, grads = stress_vjp(stacked, zinv, par, cot)
        ref_coefficients, ref_grads = explicit_u_two_hidden(stacked, zinv, par, cot)
        for got, want in zip([coefficients, *grads], [ref_coefficients, *ref_grads]):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        for r, model in enumerate(models):
            one, one_grads = stress_vjp(model, zinv, par, cot[r])
            np.testing.assert_array_equal(coefficients[r], one)
            for got, want in zip(grads, one_grads):
                np.testing.assert_array_equal(got[r], want)


class TestStackedRestarts:
    """With a leading restart axis (``conftest.stack_models``), every slice
    equals the per-model result exactly."""

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_hessians_and_parameter_gradients_match_per_model(self, arch, rng):
        models = [make_model(arch, rng, nodes=6, param_dim=2) for _ in range(3)]
        for model in models:
            for layer in model.layers[:-1]:
                layer.bias[...] = rng.uniform(-0.5, 0.5, layer.bias.shape)
        stacked = stack_models(models)
        inv, par = random_states(rng, 20, param_dim=2)
        _, h = nets.invariant_hessians_batch(stacked, inv, par)
        g = parameter_gradients(stacked, inv, par)
        assert h.shape == (3, 20, 2, 2) and g.shape == (3, 20, 2)
        for r, model in enumerate(models):
            np.testing.assert_array_equal(h[r], nets.invariant_hessians_batch(model, inv, par)[1])
            np.testing.assert_array_equal(g[r], parameter_gradients(model, inv, par))


class TestCurvatures:
    """Only the Hessian and the VJP read the curvatures s'', each from the
    entry layer up, so no other entry point takes one."""

    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    def test_taken_only_where_read(self, arch, rng, monkeypatch):
        model = make_model(arch, rng, nodes=5)
        inv, par = random_states(rng, 7)
        cot = rng.standard_normal((7, 2))
        taken, activate = [], nets._activate

        def recorded(kind, a, x, d1, d2, spare):
            taken.append(d2 is not None)
            activate(kind, a, x, d1, d2, spare)

        monkeypatch.setattr(nets, "_activate", recorded)
        depth, entry = len(model.layers) - 1, nets._entry(model)
        none, from_entry = [False] * depth, [k >= entry for k in range(depth)]
        for call, want in [(nets.forward_batch, none),
                           (nets.invariant_gradients_batch, none),
                           (nets.invariant_hessians_batch, from_entry),
                           (lambda m, i, p: stress_vjp(m, i - 3.0, p, cot), from_entry)]:
            taken.clear()
            call(model, inv, par)
            assert taken == want

    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    def test_coefficients_match_the_traces_that_take_them(self, arch, rng):
        """The stress coefficients of a trace without curvatures equal, bit
        for bit, those of the VJP's and the Hessian's traces, stacked and
        per model."""
        models = [make_model(arch, rng, nodes=8, param_dim=2) for _ in range(3)]
        for model in models:
            for layer in model.layers[:-1]:
                layer.bias[...] = rng.uniform(-0.5, 0.5, layer.bias.shape)
        inv, par = random_states(rng, 100, param_dim=2)
        cot = rng.standard_normal((3, 100, 2))
        stacked = stack_models(models)
        g = nets.invariant_gradients_batch(stacked, inv, par)
        for want in (nets.invariant_hessians_batch(stacked, inv, par)[0],
                     stress_vjp(stacked, inv - 3.0, par, cot)[0]):
            assert g.tobytes() == want.tobytes()
        for r, model in enumerate(models):
            one = nets.invariant_gradients_batch(model, inv, par)
            assert one.tobytes() == g[r].tobytes()
            assert one.tobytes() == nets.invariant_hessians_batch(model, inv, par)[0].tobytes()


class TestWorkspace:
    """A calibration traces every epoch through one workspace: what its
    trace and VJP write must not depend on what an earlier call left there."""

    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    def test_reused_workspace_matches_fresh_ones_bit_for_bit(self, arch, rng):
        inv, par = random_states(rng, 9, param_dim=2)
        zinv = inv - 3.0
        stacks = []
        for _ in range(3):
            models = [make_model(arch, rng, nodes=5, param_dim=2) for _ in range(2)]
            for model in models:
                for layer in model.layers[:-1]:
                    layer.bias[...] = rng.uniform(-0.5, 0.5, layer.bias.shape)
            stacks.append(stack_models(models))
        # NaN weights fill every array the first call writes with NaN, which
        # a later call would carry into its results if it read one unwritten
        for a in nets.parameter_arrays(stacks[0]):
            a[...] = np.nan
        shared = nets._Workspace(stacks[0], zinv, par)
        for stack in stacks:
            cot = rng.standard_normal((2, 9, 2))
            coefficients, grads = stress_vjp(stack, zinv, par, cot, shared)
            if stack is stacks[0]:
                continue
            fresh, fresh_grads = stress_vjp(stack, zinv, par, cot)
            assert coefficients.tobytes() == fresh.tobytes()
            for got, want in zip(grads, fresh_grads, strict=True):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    @pytest.mark.parametrize("stacked", [False, True])
    def test_traces_refresh_the_weight_layouts(self, arch, stacked, rng):
        """After a trace and its reverse rule, ``transposed`` holds each hidden
        layer's contiguous ``W^T`` and ``row`` the output row on every sample;
        after an in-place update of the weights, as the ADAM step makes, the
        next trace holds the new ones: a stale copy would pass every bit test
        of a first epoch."""
        models = [make_model(arch, rng, nodes=5, param_dim=2) for _ in range(3)]
        model = stack_models(models) if stacked else models[0]
        inv, par = random_states(rng, 9, param_dim=2)
        work = nets._Workspace(model, inv - 3.0, par)
        for step in range(2):
            if step:
                for layer in model.layers:
                    layer.weights -= rng.uniform(0.0, 0.1, layer.weights.shape)
            nets._trace(model, work)
            nets._reverse(model, work)
            hidden = model.layers[:-1]
            assert len(work.transposed) == len(hidden)
            for slot, layer in zip(work.transposed, hidden):
                want = np.ascontiguousarray(layer.weights.mT)
                assert slot.shape == want.shape and slot.tobytes() == want.tobytes()
            row = model.layers[-1].weights
            want = np.broadcast_to(row, row.shape[:-2] + (9, row.shape[-1]))
            assert work.row.shape == want.shape
            assert work.row.tobytes() == np.ascontiguousarray(want).tobytes()
            assert work.adjoints[-1] is work.row


class TestArena:
    RUNS = [(2, (3,)), (1, ()), (2, (2, 7, 3)), (1, (5,)), (1, ()), (1, ()), (1, (4, 2))]

    def check(self, runs, views):
        shapes = [shape for count, shape in runs for _ in range(count)]
        assert [view.shape for view in views] == shapes
        for k, view in enumerate(views):
            assert isinstance(view, np.ndarray) and view.dtype == np.float64
            assert view.flags.c_contiguous and view.ctypes.data % 64 == 0
            view[...] = k
        # every view keeps what was written into it
        for k, view in enumerate(views):
            assert (view == k).all()

    def test_views_are_aligned_contiguous_and_disjoint(self):
        views = nets._arena(self.RUNS)
        self.check(self.RUNS, views)
        # one buffer, with at most 7 entries of padding per view, plus 8
        base = views[0].base
        assert all(view.base is base for view in views)
        assert base.size <= sum(view.size + 7 for view in views) + 8

    @pytest.mark.parametrize("arch", DERIVATIVE_CASES)
    @pytest.mark.parametrize("stacked", [False, True])
    def test_workspace_layout_slots_are_aligned(self, arch, stacked, rng):
        """The output-row and transposed-weight slots of a workspace are
        views of its one arena, contiguous and on 64-byte boundaries."""
        models = [make_model(arch, rng, nodes=5, param_dim=2) for _ in range(3)]
        model = stack_models(models) if stacked else models[0]
        inv, par = random_states(rng, 9, param_dim=2)
        work = nets._Workspace(model, inv - 3.0, par)
        lead = (3,) if stacked else ()
        views = [work.row, *work.transposed]
        assert work.row.shape == (*lead, 9, 5)
        assert [v.shape for v in work.transposed] == [
            layer.weights.mT.shape for layer in model.layers[:-1]]
        base = work.slopes[0].base
        for view in views:
            assert view.flags.c_contiguous and view.ctypes.data % 64 == 0
            assert view.base is base

    def test_smaller_runs_share_the_buffer(self):
        base = nets._arena(self.RUNS)[0].base
        smaller = [(2, (1,)), (1, ()), (2, (2, 5, 3)), (1, (5,)), (1, ()), (1, ()),
                   (1, (1, 2))]
        views = nets._arena(smaller, base)
        self.check(smaller, views)
        assert all(view.base is base for view in views)


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


def edit_entry(path, value=None, drop=False):
    """An edit of a model document that sets, or drops, the entry at ``path``."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        if drop:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value

    return edit


class TestMalformedModelFiles:
    """Model documents come from outside the program; a malformed one is
    rejected with the package's own error, naming what is wrong."""

    @pytest.mark.parametrize("edit, error, match", [
        (edit_entry(["layers"], drop=True), ShapeMismatchError, "'layers'"),
        (edit_entry(["architecture"], drop=True), ShapeMismatchError, "'architecture'"),
        (edit_entry(["layers", 1, "b"], drop=True), ShapeMismatchError, "'b'"),
        (edit_entry(["layers", 0, "w", 1], [0.5]), ShapeMismatchError, "layer 0: 'w'"),
        (edit_entry(["layers", 1, "b"], [[0.1], 0.2, 0.3, 0.4]), ShapeMismatchError,
         "layer 1: 'b'"),
        (edit_entry(["layers", 2, "w", 0, 1], "x"), ShapeMismatchError, "layer 2: 'w'"),
        (edit_entry(["layers", 0, "w", 2, 1], None), ConstraintViolationError,
         "layer 0: non-finite"),
        (edit_entry(["layers", 1, "w", 3, 3], float("nan")), ConstraintViolationError,
         "layer 1: non-finite"),
        (edit_entry(["layers", 1, "b", 0], float("-inf")), ConstraintViolationError,
         "layer 1: non-finite value in 'b'"),
        (edit_entry(["layers", 2, "w", 0, 0], float("inf")), ConstraintViolationError,
         "layer 2: non-finite"),
        (edit_entry(["layers"], {"w": [[1.0]]}), ShapeMismatchError, "'layers' is not"),
        (edit_entry(["layers", 1], [0.5]), ShapeMismatchError, "layer 1: 'w'"),
        (edit_entry(["n"], None), ShapeMismatchError, "'n' is not"),
        (edit_entry(["n"], [4]), ShapeMismatchError, "'n' is not"),
        (edit_entry(["n"], 4.0), ShapeMismatchError, "'n' is not"),
        (edit_entry(["m"], None), ShapeMismatchError, "'m' is not"),
        (edit_entry(["m"], True), ShapeMismatchError, "'m' is not"),
        (edit_entry(["layers", 0, "activation"], "relu"), ValueError,
         "'relu' is not a valid Activation"),
    ], ids=["no-layers", "no-architecture", "no-bias-key", "ragged-w", "ragged-b",
            "text-weight", "null-weight", "nan-weight", "infinite-bias",
            "infinite-output-weight", "layers-object", "layer-list", "null-n", "list-n",
            "float-n", "null-m", "bool-m", "unknown-activation"])
    def test_rejected(self, edit, error, match, rng, tmp_path):
        doc = json.loads(nets.model_to_json(make_model(nets.Architecture.MONOTONIC, rng)))
        edit(doc)
        with pytest.raises(error, match=match) as parsed:
            nets.model_from_json(json.dumps(doc))
        # the same rejection from a file names it, with the same type
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error) as loaded:
            nets.load_model(path)
        assert type(loaded.value) is type(parsed.value)
        assert str(loaded.value) == f"{path}: {parsed.value}"

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "4"])
    def test_document_not_an_object(self, text):
        with pytest.raises(ShapeMismatchError, match="not a JSON object"):
            nets.model_from_json(text)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"n": 4,')
        with pytest.raises(ValueError, match="net.json: Expecting"):
            nets.load_model(path)

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES)
    def test_validate_flags_non_finite_free_weight(self, arch, rng):
        model = make_model(arch, rng)
        model.layers[0].weights[0, 0] = np.nan
        with pytest.raises(ConstraintViolationError, match="non-finite"):
            nets.validate(model)
