import re
import tracemalloc

import numpy as np
import pytest

from monopann import calibration as cal
from monopann import constitutive as cons
from monopann import networks as nets
from monopann.errors import EmptyDatasetError

from conftest import stack_models


def oracle_law():
    # gentle positive cubics keep the data representable by monotone models
    return cons.MooneyRivlin(
        [0.0, 0.0, 0.25, 0.15], [0.0, 0.0, 0.05, 0.03], [0.0, 0.0, 0.02, 0.0]
    )


def sequential_reference(dataset, config, architecture, nodes, build=nets.build_model):
    """Restart-by-restart training from the public single-model API.

    Returns (model, epochs_run, final_mse) per restart index.
    """
    lam, stress, t = dataset.calibration_arrays()
    out = []
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        model = build(architecture, nodes, t.shape[1], np.random.default_rng(child))
        state = cal.init_adam(model)
        epochs_run = 0
        for _ in range(config.epochs):
            loss, grads = cal.loss_and_gradient(model, lam, stress, t)
            if not np.isfinite(loss):
                break
            cal.adam_step(model, grads, state, config)
            epochs_run += 1
        out.append((model, epochs_run, cal.mse_loss(model, dataset)))
    return out


def poisoned_builder(index, scale=1e200):
    """``build_model`` whose ``index``-th call returns a model with its output
    weights scaled by ``scale``, so that its loss overflows."""
    original, calls = nets.build_model, []

    def build(*args, **kwargs):
        model = original(*args, **kwargs)
        if len(calls) == index:
            model.layers[-1].weights *= scale
        calls.append(model)
        return model

    return build


def neo_hookean_dataset(points=20, label="nh"):
    return cal.generate_synthetic(
        cons.neo_hookean(0.5), np.linspace(1.0, 2.0, points), [0.5], label=label
    )


class TestDataset:
    def test_round_trip(self, tmp_path):
        ds = cal.generate_synthetic(
            oracle_law(), np.linspace(1.0, 2.0, 5), [0.1, 0.9], label="demo",
            source="synthetic",
        )
        path = tmp_path / "demo.csv"
        cal.save_dataset(ds, path)
        back = cal.load_dataset(path)
        np.testing.assert_array_equal(back.lam, ds.lam)
        np.testing.assert_array_equal(back.stress, ds.stress)
        np.testing.assert_array_equal(back.param_raw, ds.param_raw)
        assert back.param_min == 0.1 and back.param_max == 0.9
        assert back.label == "demo"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("lambda,stress_mpa,param_raw\n1.0,0.0,0.5\n\n1.5,0.2,0.5\n\n")
        ds = cal.load_dataset(path)
        np.testing.assert_array_equal(ds.lam, [1.0, 1.5])
        np.testing.assert_array_equal(ds.stress, [0.0, 0.2])

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("lambda,stress_mpa,param_raw\n1.0,0.0,0.5\n1.5,0.2\n")
        with pytest.raises(ValueError, match="line 3: expected 3 fields, got 2"):
            cal.load_dataset(path)

    def test_non_numeric_field_names_its_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("lambda,stress_mpa,param_raw\n1.0,0.0,0.5\n1.0,abc,0.1\n")
        with pytest.raises(ValueError) as exc:
            cal.load_dataset(path)
        assert str(exc.value) == f"{path} line 3: could not convert string to float: 'abc'"

    def test_normalization_bounds(self):
        ds = cal.Dataset([1.0, 1.5], [0.0, 1.0], [10.0, 30.0], 10.0, 30.0)
        np.testing.assert_array_equal(ds.params_normalized()[:, 0], [0.0, 1.0])

    def test_single_parameter_value_normalizes_to_zero(self):
        ds = cal.Dataset([1.0, 1.5], [0.0, 1.0], [10.0, 10.0], 10.0, 10.0)
        np.testing.assert_array_equal(ds.params_normalized()[:, 0], [0.0, 0.0])

    @pytest.mark.parametrize("noise", [-1e-3, np.nan, np.inf])
    def test_synthetic_noise_level_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise level"):
            cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, 4), [0.5],
                                   noise_std=noise, rng=np.random.default_rng(0))

    def test_split_by_parameter(self):
        ds = cal.generate_synthetic(
            oracle_law(), np.linspace(1.0, 2.0, 4), [0.1, 0.5, 0.9]
        )
        split = cal.split_by_parameter(ds, [0.5])
        assert len(split.test_indices) == 4
        assert len(split.calibration_indices) == 8
        assert set(split.param_raw[split.test_indices]) == {0.5}

    @pytest.mark.parametrize("holdout, message", [([np.nan], "finite"),
                                                  ([0.5, np.inf], "finite"),
                                                  ([0.9, 0.42], "match no sample")])
    def test_split_by_parameter_rejects_a_value_that_holds_out_nothing(
        self, holdout, message
    ):
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, 5), [0.1, 0.9])
        with pytest.raises(ValueError, match=message):
            cal.split_by_parameter(ds, holdout)

    def test_split_by_stretch(self):
        ds = neo_hookean_dataset()
        split = cal.split_by_stretch(ds, 1.5)
        assert np.all(split.lam[split.calibration_indices] <= 1.5)
        assert np.all(split.lam[split.test_indices] > 1.5)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_split_by_stretch_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            cal.split_by_stretch(neo_hookean_dataset(), threshold)

    def test_split_must_cover(self):
        with pytest.raises(ValueError):
            cal.Dataset(
                [1.0, 1.5], [0.0, 1.0], [0.0, 1.0], 0.0, 1.0,
                calibration_indices=[0], test_indices=[],
            )

    @pytest.mark.parametrize(
        "lam, param_raw",
        [
            ([1.0, np.nan, 1.5], [0.5, 0.5, 0.5]),
            ([1.0, np.inf, 1.5], [0.5, 0.5, 0.5]),
            ([1.0, 1.2, 1.5], [0.5, np.nan, 0.5]),
            ([1.0, np.nan, np.inf], [0.5, np.nan, 0.5]),
        ],
    )
    def test_non_finite_rejected(self, lam, param_raw):
        with pytest.raises(ValueError):
            cal.Dataset(lam, [0.0, 0.1, 0.2], param_raw, 0.5, 0.5)


class TestLoss:
    def test_perfect_model_zero_loss(self):
        law = oracle_law()
        ds = cal.generate_synthetic(law, np.linspace(1.0, 2.0, 7), [0.2, 0.8])
        # feeding raw parameters back into the generating law reproduces it
        p = cons.uniaxial_stress(law, ds.lam, ds.param_raw[:, None])
        resid = p - ds.stress
        assert float(np.mean(resid**2)) == 0.0

    def test_zero_model_on_reference_data(self, rng):
        ds = cal.Dataset([1.0, 1.0], [0.0, 0.0], [0.0, 1.0], 0.0, 1.0)
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        assert cal.mse_loss(model, ds) == 0.0

    def test_hand_computed_two_sample_loss(self):
        # neo-Hookean c = 0.5: P(1.5) = 1.5 - 1/2.25, P(2) = 1.75, data (1, 2)
        ds = cal.Dataset([1.5, 2.0], [1.0, 2.0], [0.0, 0.0], 0.0, 0.0)
        loss = cal.mse_loss(cons.neo_hookean(0.5), ds)
        assert loss == pytest.approx(0.032793209876543215, rel=1e-12)

    def test_empty_calibration_raises(self):
        ds = cal.Dataset(
            [1.0, 1.5], [0.0, 1.0], [0.0, 1.0], 0.0, 1.0,
            calibration_indices=[], test_indices=[0, 1],
        )
        with pytest.raises(EmptyDatasetError):
            cal.mse_loss(cons.neo_hookean(1.0), ds)

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_gradient_matches_fd(self, arch, rng):
        model = nets.build_model(arch, 3, 1, rng)
        lam = np.linspace(1.1, 1.9, 5)
        stress = 0.3 * (lam - 1.0)
        t = np.full((5, 1), 0.5)
        _, grads = cal.loss_and_gradient(model, lam, stress, t)
        arrays = nets.parameter_arrays(model)
        h = 1e-6
        for arr, grad in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = cal.loss_and_gradient(model, lam, stress, t)
                arr[idx] = orig - h
                lm, _ = cal.loss_and_gradient(model, lam, stress, t)
                arr[idx] = orig
                fd = (lp - lm) / (2.0 * h)
                assert grad[idx] == pytest.approx(fd, rel=5e-5, abs=1e-8)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "lr", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")]
    )
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            cal.TrainConfig(epochs=1, learning_rate=lr)

    @pytest.mark.parametrize("field", ["epochs", "restarts"])
    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3), "3", None])
    def test_counts_must_be_integers(self, field, value):
        message = f"{field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cal.TrainConfig(**{"epochs": 1, field: value})

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_numpy_integers_are_counts(self, value):
        config = cal.TrainConfig(epochs=value, restarts=value)
        assert config.epochs == 3 and config.restarts == 3


class TestAdam:
    def test_zero_gradient_leaves_parameters(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 3, 1, rng)
        before = [a.copy() for a in nets.parameter_arrays(model)]
        grads = [np.zeros_like(a) for a in nets.parameter_arrays(model)]
        cal.adam_step(model, grads, cal.init_adam(model), cal.TrainConfig(epochs=1))
        for a, b in zip(nets.parameter_arrays(model), before):
            np.testing.assert_array_equal(a, b)

    def test_projection_clamps_to_exact_zero(self, rng):
        model = nets.build_model(nets.Architecture.MONOTONIC, 3, 1, rng)
        model.layers[0].weights[0, 0] = 1e-4  # small positive weight
        grads = [np.zeros_like(a) for a in nets.parameter_arrays(model)]
        grads[0][0, 0] = 10.0  # push it negative
        cal.adam_step(
            model, grads, cal.init_adam(model),
            cal.TrainConfig(epochs=1, learning_rate=0.1),
        )
        assert model.layers[0].weights[0, 0] == 0.0

    def test_two_step_hand_recursion(self, rng):
        # scalar parameter theta0 = 1, lr = 0.1, gradients (0.5, -0.25);
        # bias-corrected moment recursion evaluated by hand:
        #   step 1: m=0.05, v=2.5e-4, theta = 1 - 0.1*0.5/(0.5+1e-7)
        #   step 2: m=0.02, v=3.12...e-4, theta = 0.873366...
        model = nets.build_model(nets.Architecture.UNRESTRICTED_1HL, 1, 1, rng)
        arrays = nets.parameter_arrays(model)
        for a in arrays:
            a[...] = 0.0
        model.layers[0].weights[0, 0] = 1.0
        config = cal.TrainConfig(epochs=1, learning_rate=0.1)
        state = cal.init_adam(model)
        grads = [np.zeros_like(a) for a in arrays]

        grads[0][0, 0] = 0.5
        cal.adam_step(model, grads, state, config)
        assert model.layers[0].weights[0, 0] == pytest.approx(
            0.900000019999996, abs=1e-15
        )
        grads[0][0, 0] = -0.25
        cal.adam_step(model, grads, state, config)
        assert model.layers[0].weights[0, 0] == pytest.approx(
            0.873366322772819, abs=1e-14
        )

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_flat_update_freezes_a_row_and_matches_per_model_steps(self, arch, rng):
        models = [nets.build_model(arch, 3, 1, rng) for _ in range(3)]
        stack = stack_models(models)
        arrays = nets.parameter_arrays(stack)
        params = arrays[0].base
        size = nets.parameter_count(models[0])
        assert params.shape == (3, size)
        assert all(np.shares_memory(a, params) for a in arrays)
        # positive gradients drive small constrained weights onto zero
        grads = rng.uniform(0.0, 1.0, (3, 3, size))
        config = cal.TrainConfig(epochs=1, learning_rate=0.1)
        before = params.copy()
        state = cal.AdamState(0, np.zeros_like(params), np.zeros_like(params))
        for grad in grads:
            cal._adam_update(params, grad, cal._floor(models[0]), state,
                             config, np.array([False, True, False]))
        np.testing.assert_array_equal(params[1], before[1])
        for r in (0, 2):
            model, alone = models[r], cal.init_adam(models[r])
            for grad in grads:
                row = nets.parameter_arrays(nets.with_buffer(model, grad[r]))
                cal.adam_step(model, row, alone, config)
            for a, b in zip(nets.parameter_arrays(model), arrays):
                np.testing.assert_array_equal(a, b[r])
        if arch in nets.CONSTRAINED_ARCHITECTURES:
            assert (params[[0, 2]] == 0.0).any()


class TestCalibrate:
    def test_zero_epochs_returns_initial_model(self):
        ds = neo_hookean_dataset()
        results = cal.calibrate(
            ds, cal.TrainConfig(epochs=0, restarts=1, seed=11),
            nets.Architecture.MONOTONIC, 4,
        )
        assert len(results) == 1
        model, record = results[0]
        assert record.epochs_run == 0
        assert record.final_mse == pytest.approx(cal.mse_loss(model, ds), rel=1e-15)

    def test_short_oracle_recovery(self):
        ds = neo_hookean_dataset()
        # seed-sequence children are index-stable, so the epochs=0 run sees
        # exactly the initializations of the trained run, restart by restart
        initial = {
            r.restart_index: r.final_mse
            for _, r in cal.calibrate(
                ds, cal.TrainConfig(epochs=0, restarts=2, seed=4),
                nets.Architecture.MONOTONIC, 8,
            )
        }
        results = cal.calibrate(
            ds, cal.TrainConfig(epochs=2000, restarts=2, seed=4),
            nets.Architecture.MONOTONIC, 8,
        )
        best_model, best = results[0]
        assert best.log10_mse <= -3.0
        for _, record in results:
            assert record.final_mse <= 1.1 * initial[record.restart_index]
        # feasibility is exact after every projected step
        params = np.concatenate([a.ravel() for a in nets.parameter_arrays(best_model)])
        assert params[nets.constraint_mask(best_model)].min() >= 0.0

    def test_best_of_k_selection_monotone(self):
        ds = neo_hookean_dataset()
        losses = []
        for restarts in (1, 2, 3):
            res = cal.calibrate(
                ds, cal.TrainConfig(epochs=300, restarts=restarts, seed=21),
                nets.Architecture.MONOTONIC, 4,
            )
            losses.append(res[0][1].final_mse)
        assert losses[1] <= losses[0]
        assert losses[2] <= losses[1]

    def test_deterministic_given_seed(self):
        ds = neo_hookean_dataset()
        config = cal.TrainConfig(epochs=150, restarts=2, seed=5)
        first = cal.calibrate(ds, config, nets.Architecture.MONOTONIC, 4)
        second = cal.calibrate(ds, config, nets.Architecture.MONOTONIC, 4)
        for (m1, r1), (m2, r2) in zip(first, second):
            assert r1.to_dict() == r2.to_dict()
            for a, b in zip(nets.parameter_arrays(m1), nets.parameter_arrays(m2)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_stacked_restarts_match_sequential_reference(self, arch):
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, 10), [0.1, 0.9])
        config = cal.TrainConfig(epochs=1000, restarts=3, seed=8)
        results = cal.calibrate(ds, config, arch, 4)
        reference = sequential_reference(ds, config, arch, 4)
        assert sorted(r.restart_index for _, r in results) == [0, 1, 2]
        for model, record in results:
            ref_model, ref_epochs, ref_mse = reference[record.restart_index]
            assert record.epochs_run == ref_epochs == config.epochs
            assert not record.diverged
            assert record.final_mse == pytest.approx(ref_mse, rel=0.0, abs=1e-10)
            for a, b in zip(nets.parameter_arrays(model), nets.parameter_arrays(ref_model)):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_final_mse_equals_mse_loss_from_one_trace(self, arch, monkeypatch):
        """The final MSEs of all restarts come from one trace of the stack,
        and each equals ``mse_loss`` of its restart's model exactly."""
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, 10), [0.1, 0.9])
        monkeypatch.setattr(nets, "build_model", poisoned_builder(1))
        calls, mse_loss = [], cal.mse_loss
        monkeypatch.setattr(cal, "mse_loss", lambda *a: calls.append(a) or mse_loss(*a))
        with np.errstate(all="ignore"):
            results = cal.calibrate(ds, cal.TrainConfig(epochs=100, restarts=3, seed=8),
                                    arch, 4)
            assert not calls
            for model, record in results:
                want = mse_loss(model, ds)
                assert record.final_mse == want or np.isnan(record.final_mse) and np.isnan(want)
        assert [r.restart_index for _, r in results if r.diverged] == [1]
        assert not np.isfinite(results[-1][1].final_mse)

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_diverged_restart_is_frozen_and_isolated(self, arch, monkeypatch):
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, 10), [0.1, 0.9])
        config = cal.TrainConfig(epochs=200, restarts=3, seed=8)
        clean = {r.restart_index: (m, r) for m, r in cal.calibrate(ds, config, arch, 4)}
        with np.errstate(all="ignore"):
            ref_model, ref_epochs, _ = sequential_reference(
                ds, config, arch, 4, build=poisoned_builder(1)
            )[1]
            monkeypatch.setattr(nets, "build_model", poisoned_builder(1))
            results = cal.calibrate(ds, config, arch, 4)

        model, record = results[-1]
        assert record.restart_index == 1 and record.rank == 2
        assert record.diverged and record.epochs_run == ref_epochs
        for a, b in zip(nets.parameter_arrays(model), nets.parameter_arrays(ref_model)):
            np.testing.assert_array_equal(a, b)
        for model, record in results[:-1]:
            clean_model, clean_record = clean[record.restart_index]
            assert not record.diverged
            got, want = record.to_dict(), clean_record.to_dict()
            del got["rank"], want["rank"]
            assert got == want
            for a, b in zip(nets.parameter_arrays(model), nets.parameter_arrays(clean_model)):
                np.testing.assert_array_equal(a, b)


def reference_train(models, lam, stress, t, config, poke=None):
    """``calibration._train`` as it was written with fresh temporaries: the
    stress residual, ``np.mean`` of its square and ``np.stack`` of the
    cotangent, the ADAM update's expressions, and the divergence bookkeeping
    on every epoch.  ``poke(epoch, params)`` runs after each update.
    Returns the (R, P) parameters, the epochs run and each epoch's losses."""
    params = np.stack([cal._flat(nets.parameter_arrays(m)) for m in models])
    stack, mask = nets.with_buffer(models[0], params), nets.constraint_mask(models[0])
    m, v = np.zeros_like(params), np.zeros_like(params)
    active = np.ones(len(models), dtype=bool)
    epochs_run = np.zeros(len(models), dtype=int)
    zinv, stretch = cal._uniaxial_terms(lam)
    work, grad = nets._Workspace(stack, zinv, t), np.empty_like(params)
    grads = nets.parameter_arrays(nets.with_buffer(models[0], grad))
    history = []
    for epoch in range(config.epochs):
        g, vjp = nets._stress_vjp(stack, work)
        residual = 2.0 * (g[..., 0] + g[..., 1] / lam) * stretch - stress
        losses = np.mean(residual**2, axis=-1)
        scale = (2.0 / lam.size) * residual * 2.0 * stretch
        vjp(np.stack([scale, scale / lam], axis=-1), grads)
        history.append(losses)
        active &= np.isfinite(losses)
        if not active.any():
            break
        b1c = 1.0 - cal.ADAM_BETA1 ** (epoch + 1)
        b2c = 1.0 - cal.ADAM_BETA2 ** (epoch + 1)
        m *= cal.ADAM_BETA1
        m += (1.0 - cal.ADAM_BETA1) * grad
        v *= cal.ADAM_BETA2
        v += (1.0 - cal.ADAM_BETA2) * grad**2
        step = config.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + cal.ADAM_EPS)
        if not active.all():
            step[~active] = 0.0
        params -= step
        np.maximum(params, 0.0, out=params, where=mask)
        epochs_run += active
        if poke is not None:
            poke(epoch, params)
    return params, epochs_run, history


class TestEpochOracle:
    """The epoch's residual, loss, cotangent and ADAM update write into
    buffers built once per run; every element still sees the operations of
    :func:`reference_train`, so weights, losses and epochs are bit-identical."""

    @staticmethod
    def poke(epoch, params):
        # row 0 diverges after 20 epochs, and the last row from the start
        # (see ``run``); at R = 2 that leaves no row to train
        if epoch == 19:
            params[0, 0] = np.nan

    def run(self, arch, nodes, restarts, samples, diverge, monkeypatch):
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, samples // 5),
                                    [0.1, 0.3, 0.5, 0.7, 0.9])
        lam, stress, t = ds.calibration_arrays()
        config = cal.TrainConfig(epochs=50, restarts=restarts, seed=13)

        def build():
            children = np.random.SeedSequence(config.seed).spawn(restarts)
            models = [nets.build_model(arch, nodes, 1, np.random.default_rng(c))
                      for c in children]
            if diverge:
                models[-1].layers[-1].weights *= 1e200
            return models

        poke = self.poke if diverge else None
        history, loss, update = [], cal._loss_and_gradient, cal._adam_update

        def traced_loss(*args):
            losses, grads = loss(*args)
            history.append(losses.copy())
            return losses, grads

        def poked_update(params, *rest):
            update(params, *rest)
            if poke is not None:
                poke(len(history) - 1, params)

        monkeypatch.setattr(cal, "_loss_and_gradient", traced_loss)
        monkeypatch.setattr(cal, "_adam_update", poked_update)
        with np.errstate(all="ignore"):
            models = build()
            epochs_run, _ = cal._train(models, lam, stress, t, config)
            want, want_epochs, want_history = reference_train(build(), lam, stress, t,
                                                              config, poke)
        got = np.stack([cal._flat(nets.parameter_arrays(m)) for m in models])
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(epochs_run, want_epochs)
        assert len(history) == len(want_history)
        for a, b in zip(history, want_history):
            assert a.tobytes() == b.tobytes()
        return epochs_run

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    @pytest.mark.parametrize("nodes,restarts,samples", [(8, 5, 60), (32, 2, 200)])
    def test_fifty_epochs_bit_identical(self, arch, nodes, restarts, samples, monkeypatch):
        epochs_run = self.run(arch, nodes, restarts, samples, False, monkeypatch)
        assert (epochs_run == 50).all()

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    @pytest.mark.parametrize("nodes,restarts,samples", [(8, 5, 60), (32, 2, 200)])
    def test_frozen_rows_bit_identical(self, arch, nodes, restarts, samples, monkeypatch):
        epochs_run = self.run(arch, nodes, restarts, samples, True, monkeypatch)
        assert epochs_run[0] == 20 and epochs_run[-1] == 0
        assert (epochs_run[1:-1] == 50).all()


class TestEpochAllocation:
    """An epoch writes its arrays of shape (R, S, n) into the one workspace
    of the run, so between two ADAM steps the traced memory peaks less than
    128 KiB above what the epoch leaves: large arrays freed and taken again
    per epoch make the C heap trim memory and fault it back in."""

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    @pytest.mark.parametrize("nodes,restarts,samples", [(32, 2, 200), (8, 5, 60)])
    def test_epoch_transient_is_small(self, arch, nodes, restarts, samples, monkeypatch):
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, samples // 5),
                                    [0.1, 0.3, 0.5, 0.7, 0.9])
        transients, update = [], cal._adam_update

        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            transients.append(peak - current)
            update(*args, **kwargs)
            tracemalloc.reset_peak()

        monkeypatch.setattr(cal, "_adam_update", traced)
        tracemalloc.start()
        try:
            cal.calibrate(ds, cal.TrainConfig(epochs=5, restarts=restarts, seed=3), arch, nodes)
        finally:
            tracemalloc.stop()
        # the first covers the run's set-up as well
        assert len(transients) == 5
        assert max(transients[1:]) < 128 * 1024

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_no_array_around_the_network(self, arch, monkeypatch):
        """Around the network's trace and VJP an epoch allocates no array.
        At (n, R, S) = (8, 5, 60) what an epoch still takes is numpy's
        iteration buffers, the largest about 19 KiB for a broadcast
        (R, S, n) operation inside the network (only the bias adds still
        broadcast; the output row is spread over the samples once per
        trace), and the update takes under 1 KiB, less than any (R, P)
        array (1.6 KiB with one hidden layer).
        With a fresh residual, square, cotangent and ADAM temporaries, an
        epoch took about 30 KiB and the update 5 to 14 KiB."""
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, 12),
                                    [0.1, 0.3, 0.5, 0.7, 0.9])
        epochs, updates, update = [], [], cal._adam_update

        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            epochs.append(peak - current)
            tracemalloc.reset_peak()
            update(*args, **kwargs)
            updates.append(tracemalloc.get_traced_memory()[1] - current)
            tracemalloc.reset_peak()

        monkeypatch.setattr(cal, "_adam_update", traced)
        tracemalloc.start()
        try:
            cal.calibrate(ds, cal.TrainConfig(epochs=5, restarts=5, seed=3), arch, 8)
        finally:
            tracemalloc.stop()
        assert len(epochs) == 5
        assert max(epochs[1:]) < 24 * 1024
        assert max(updates[1:]) < 1024

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_adam_reads_the_buffer_the_vjp_writes(self, arch, monkeypatch):
        """Every epoch's VJP writes views of one (R, P) buffer, and that
        buffer is what the ADAM update reads."""
        epochs, loss, update = [], cal._loss_and_gradient, cal._adam_update

        def traced_loss(*args):
            losses, grads = loss(*args)
            epochs.append([grads])
            return losses, grads

        def traced_update(params, grad, *rest):
            epochs[-1].append(grad)
            update(params, grad, *rest)

        monkeypatch.setattr(cal, "_loss_and_gradient", traced_loss)
        monkeypatch.setattr(cal, "_adam_update", traced_update)
        cal.calibrate(neo_hookean_dataset(), cal.TrainConfig(epochs=3, restarts=2, seed=1),
                      arch, 4)
        buffer = epochs[0][1]
        assert len(epochs) == 3
        assert buffer.shape == (2, nets.expected_parameter_count(arch, 4, 1))
        for grads, grad in epochs:
            assert grad is buffer
            assert all(np.shares_memory(g, buffer) for g in grads)
            np.testing.assert_array_equal(
                grad, np.concatenate([g.reshape(2, -1) for g in grads], axis=-1))


def aligned(view) -> bool:
    """Whether ``view`` is C-contiguous and starts at a 64-byte boundary."""
    return view.flags.c_contiguous and view.ctypes.data % 64 == 0


def workspace_views(model, work):
    """The arena views of a ``networks._Workspace`` of ``model``: its slots,
    the entry layer's input, its product, the adjoint of that input, the
    output row and the transposed weights."""
    entry = nets._entry(model)
    held = [out for k, out in enumerate(work.outputs) if k + 1 != entry]
    views = [*work.scratch, *work.slopes, *work.curvatures, *work.a_hats, *held,
             *work.products, work.inputs[entry], work.entry_bar, work.row,
             *work.transposed]
    return [view for view in views if view is not None]


class TestArena:
    """Every buffer a training run writes is a view of an arena that starts
    on a 64-byte boundary; at another start phase an AVX-512 load of such a
    buffer splits across two cache lines."""

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    @pytest.mark.parametrize("nodes,restarts,samples", [(8, 5, 60), (32, 2, 200)])
    def test_every_training_buffer_is_aligned(self, arch, nodes, restarts, samples,
                                              monkeypatch):
        ds = cal.generate_synthetic(oracle_law(), np.linspace(1.0, 2.0, samples // 5),
                                    [0.1, 0.3, 0.5, 0.7, 0.9])
        seen, loss, update = {}, cal._loss_and_gradient, cal._adam_update

        def traced_loss(model, epoch):
            seen["model"], seen["epoch"] = model, epoch
            return loss(model, epoch)

        def traced_update(params, grad, floor, state, *rest):
            seen["update"] = params, grad, floor, state
            update(params, grad, floor, state, *rest)

        monkeypatch.setattr(cal, "_loss_and_gradient", traced_loss)
        monkeypatch.setattr(cal, "_adam_update", traced_update)
        cal.calibrate(ds, cal.TrainConfig(epochs=2, restarts=restarts, seed=3), arch, nodes)
        epoch, (params, grad, floor, state) = seen["epoch"], seen["update"]
        work = workspace_views(seen["model"], epoch.work)
        rows = [epoch.lam, epoch.stretch, epoch.stress, epoch.residual, epoch.square,
                epoch.losses, epoch.cot]
        optimizer = [params, grad, floor, state.m, state.v, *state.scratch]
        assert len(work) >= 8 and {view.shape[0] for view in rows[:-2]} == {restarts}
        assert {view.shape for view in optimizer} == {
            (restarts, nets.expected_parameter_count(arch, nodes, 1))}
        assert all(aligned(view) for view in work + rows + optimizer)
        # the trained models view the parameters, whose arena holds nothing
        # else (at most 7 entries of padding and 8 of slack): the rest of the
        # run's buffers are freed with it
        assert params.base.size < params.size + 16
        assert all(view.base is not params.base for view in optimizer[1:])

    @pytest.mark.parametrize("arch", list(nets.Architecture))
    def test_public_evaluations_are_aligned(self, arch, rng):
        # an unstacked model: the losses are 0-d, the parameter count may
        # not be a multiple of 8 doubles
        model = nets.build_model(arch, 3, 1, rng)
        lam = np.linspace(1.0, 2.0, 7)
        grads = [np.empty(a.shape) for a in nets.parameter_arrays(model)]
        epoch = cal._Epoch(model, lam, np.ones(7), np.full((7, 1), 0.5), grads)
        assert epoch.losses.shape == () and isinstance(epoch.losses, np.ndarray)
        state = cal.init_adam(model)
        views = [epoch.lam, epoch.stretch, epoch.stress, epoch.residual, epoch.square,
                 epoch.losses, epoch.cot, state.m, state.v, *state.scratch,
                 *workspace_views(model, epoch.work)]
        assert all(aligned(view) for view in views)
        assert not state.m.any() and not state.v.any()


class TestEvaluate:
    def test_perfect_model_zero_residuals(self):
        law = oracle_law()
        ds = cal.generate_synthetic(law, np.linspace(1.0, 2.0, 6), [0.3])
        ds = cal.split_by_stretch(ds, 1.5)
        # normalized parameter == 0 for the single value; wrap a law that
        # reproduces the data regardless of parameters
        frozen = cons.MooneyRivlin(
            [np.polyval(law.c10, 0.3)],
            [np.polyval(law.c01, 0.3)],
            [np.polyval(law.c11, 0.3)],
        )
        report = cal.evaluate(frozen, ds)
        assert report.defined
        assert report.mse == pytest.approx(0.0, abs=1e-28)
        assert all(row["residual"] == pytest.approx(0.0, abs=1e-14) for row in report.rows)

    def test_test_slice_equal_to_calibration(self, rng):
        ds = neo_hookean_dataset()
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        report = cal.evaluate(model, ds, slice_="calibration")
        assert report.mse == pytest.approx(cal.mse_loss(model, ds), rel=1e-15)

    @pytest.mark.parametrize("slice_", ["train", "Test", "", None])
    def test_unknown_slice_rejected(self, rng, slice_):
        ds = cal.split_by_stretch(neo_hookean_dataset(), 1.5)
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        with pytest.raises(ValueError, match="slice"):
            cal.evaluate(model, ds, slice_=slice_)

    def test_empty_slice_flagged(self, rng):
        ds = neo_hookean_dataset()
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        report = cal.evaluate(model, ds)  # no test indices by default
        assert not report.defined
        assert report.mse is None and report.rows == []

    @pytest.mark.parametrize(
        "mse, expected",
        [(0.0, float("-inf")), (float("nan"), float("nan")), (1e-4, -4.0)],
    )
    def test_log10_mse(self, mse, expected):
        # a NaN MSE must not read as the perfect fit that only 0 is
        np.testing.assert_equal(cal.EvaluationReport([], mse, True).log10_mse, expected)

    def test_extrapolation_reports_finite_residuals(self, rng):
        ds = cal.split_by_stretch(neo_hookean_dataset(), 1.6)
        model = nets.build_model(nets.Architecture.MONOTONIC, 4, 1, rng)
        report = cal.evaluate(model, ds)
        assert report.defined
        assert all(np.isfinite(row["residual"]) for row in report.rows)
