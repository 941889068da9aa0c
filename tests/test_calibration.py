import numpy as np
import pytest

from monopann import calibration as cal
from monopann import constitutive as cons
from monopann import networks as nets
from monopann.errors import EmptyDatasetError


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

    def test_normalization_bounds(self):
        ds = cal.Dataset([1.0, 1.5], [0.0, 1.0], [10.0, 30.0], 10.0, 30.0)
        np.testing.assert_array_equal(ds.params_normalized()[:, 0], [0.0, 1.0])

    def test_single_parameter_value_normalizes_to_zero(self):
        ds = cal.Dataset([1.0, 1.5], [0.0, 1.0], [10.0, 10.0], 10.0, 10.0)
        np.testing.assert_array_equal(ds.params_normalized()[:, 0], [0.0, 0.0])

    def test_split_by_parameter(self):
        ds = cal.generate_synthetic(
            oracle_law(), np.linspace(1.0, 2.0, 4), [0.1, 0.5, 0.9]
        )
        split = cal.split_by_parameter(ds, [0.5])
        assert len(split.test_indices) == 4
        assert len(split.calibration_indices) == 8
        assert set(split.param_raw[split.test_indices]) == {0.5}

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

    @pytest.mark.parametrize(
        "arch", [nets.Architecture.MONOTONIC, nets.Architecture.CONVEX_MONOTONIC,
                 nets.Architecture.UNRESTRICTED_1HL]
    )
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
        for layer, mask in zip(
            best_model.layers, nets.constraint_masks(best_model)[::2]
        ):
            if mask:
                assert layer.weights.min() >= 0.0

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
