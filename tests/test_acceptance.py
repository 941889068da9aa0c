"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  All tolerances are fixed here; the training-based criteria use the
documented synthetic oracle family and finish on desk hardware in a few
minutes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from monopann import calibration as cal
from monopann import constitutive as cons
from monopann import kinematics as kin
from monopann import networks as nets
from monopann import stability as stab
from monopann.cli import main as cli_main

from conftest import parameter_gradients, random_rotation, random_unimodular
from levi_civita import tensor_cross_ref
from scan_oracle import tangent_plane_basis

RTOL_DERIV = 1e-5
RTOL_ACOUSTIC = 1e-4
ATOL_FLOOR = 1e-8
FD_STEP = 1e-5

MODELS_PER_ARCH = 100
STATES_PER_MODEL = 100

ORACLE_C10 = [0.0, 0.0, 0.25, 0.15]
ORACLE_C01 = [0.0, 0.0, 0.05, 0.03]
ORACLE_C11 = [0.0, 0.0, 0.02, 0.0]
CAL_PARAMS = [0.1, 0.5, 0.9]
HOLDOUT_PARAM = 0.3
SCAN_T = [[0.0], [0.5], [1.0]]
SWEEP = 200  # points of the batched hessian_decomposition sweep per model


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def oracle_law():
    return cons.MooneyRivlin(ORACLE_C10, ORACLE_C01, ORACLE_C11, label="oracle")


@pytest.fixture(scope="session")
def oracle_dataset():
    dataset = cal.generate_synthetic(
        oracle_law(),
        np.linspace(1.0, 2.0, 20),
        CAL_PARAMS + [HOLDOUT_PARAM],
        label="mr-oracle",
    )
    return cal.split_by_parameter(dataset, [HOLDOUT_PARAM])


@pytest.fixture(scope="session")
def trained(oracle_dataset):
    """The expensive trainings, shared by the criteria below."""
    config = cal.TrainConfig(epochs=20000, restarts=5, seed=2026)
    mono = cal.calibrate(oracle_dataset, config, nets.Architecture.MONOTONIC, 8)
    unres = cal.calibrate(
        oracle_dataset, config, nets.Architecture.UNRESTRICTED_2HL, 8
    )
    config16 = cal.TrainConfig(epochs=8000, restarts=2, seed=2026)
    mono16 = cal.calibrate(oracle_dataset, config16, nets.Architecture.MONOTONIC, 16)
    return {"mono": mono, "unres": unres, "mono16": mono16}


# ---------------------------------------------------------------------------
# batched finite-difference oracles (independent of the analytic paths)


def batch_energy(model, f_batch, t_batch):
    i1, i2 = kin.isochoric_invariants(f_batch)
    return nets.forward_batch(model, np.stack([i1, i2], axis=-1), t_batch)


def batch_stress_free(model, f_batch, t_batch):
    """gamma-free stress without the det F = 1 gate, usable off-manifold."""
    terms = kin._invariant_terms(f_batch)
    i1, i2 = kin._isochoric(terms)
    *_, d1, d2 = terms
    g = nets.invariant_gradients_batch(model, np.stack([i1, i2], axis=-1), t_batch)
    return g[..., 0, None, None] * d1 + g[..., 1, None, None] * d2


def fd_stress(model, f_batch, t_batch, h=FD_STEP):
    out = np.zeros_like(f_batch)
    for i in range(3):
        for j in range(3):
            fp, fm = f_batch.copy(), f_batch.copy()
            fp[:, i, j] += h
            fm[:, i, j] -= h
            out[:, i, j] = (
                batch_energy(model, fp, t_batch) - batch_energy(model, fm, t_batch)
            ) / (2.0 * h)
    return out


def fd_tangent(model, f_batch, t_batch, h=FD_STEP):
    out = np.zeros(f_batch.shape[:1] + (3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            fp, fm = f_batch.copy(), f_batch.copy()
            fp[:, i, j] += h
            fm[:, i, j] -= h
            out[:, :, :, i, j] = (
                batch_stress_free(model, fp, t_batch)
                - batch_stress_free(model, fm, t_batch)
            ) / (2.0 * h)
    return out


def fd_input_gradients(model, inv, par, h=FD_STEP):
    cols = []
    for k in range(2):
        ip, im = inv.copy(), inv.copy()
        ip[:, k] += h
        im[:, k] -= h
        cols.append(
            (nets.forward_batch(model, ip, par) - nets.forward_batch(model, im, par))
            / (2.0 * h)
        )
    return np.stack(cols, axis=-1)


def fd_param_gradients(model, inv, par, h=FD_STEP):
    cols = []
    for k in range(par.shape[1]):
        pp, pm = par.copy(), par.copy()
        pp[:, k] += h
        pm[:, k] -= h
        cols.append(
            (nets.forward_batch(model, inv, pp) - nets.forward_batch(model, inv, pm))
            / (2.0 * h)
        )
    return np.stack(cols, axis=-1)


def fd_hessian(model, inv, par, h=FD_STEP):
    cols = []
    for k in range(2):
        ip, im = inv.copy(), inv.copy()
        ip[:, k] += h
        im[:, k] -= h
        cols.append(
            (
                nets.invariant_gradients_batch(model, ip, par)
                - nets.invariant_gradients_batch(model, im, par)
            )
            / (2.0 * h)
        )
    return np.stack(cols, axis=-1)


def test_derivative_correctness():
    """Analytic derivatives against central differences, all architectures."""
    rng = np.random.default_rng(101)
    passed = True
    try:
        for arch in nets.Architecture:
            for _ in range(MODELS_PER_ARCH):
                model = nets.build_model(arch, 4, 1, rng)
                inv = 3.0 + 4.0 * rng.random((STATES_PER_MODEL, 2))
                par = rng.random((STATES_PER_MODEL, 1))
                np.testing.assert_allclose(
                    nets.invariant_gradients_batch(model, inv, par),
                    fd_input_gradients(model, inv, par),
                    rtol=RTOL_DERIV, atol=ATOL_FLOOR,
                )
                np.testing.assert_allclose(
                    parameter_gradients(model, inv, par),
                    fd_param_gradients(model, inv, par),
                    rtol=RTOL_DERIV, atol=ATOL_FLOOR,
                )
                np.testing.assert_allclose(
                    nets.invariant_hessians_batch(model, inv, par)[1],
                    fd_hessian(model, inv, par),
                    rtol=RTOL_DERIV, atol=ATOL_FLOOR,
                )
                fs = np.stack(
                    [random_unimodular(rng) for _ in range(STATES_PER_MODEL)]
                )
                np.testing.assert_allclose(
                    batch_stress_free(model, fs, par),
                    fd_stress(model, fs, par),
                    rtol=RTOL_DERIV, atol=ATOL_FLOOR,
                )
                tangent = cons.pk1_tangent(model, fs, par)
                np.testing.assert_allclose(
                    tangent, fd_tangent(model, fs, par),
                    rtol=RTOL_DERIV, atol=1e-6,
                )
                # acoustic tensor against the central difference of the
                # stress along the rank-one ray a x b
                b = rng.standard_normal(3)
                b /= np.linalg.norm(b)
                a = rng.standard_normal(3)
                a /= np.linalg.norm(a)
                q = np.einsum("siajb,a,b->sij", tangent, b, b)
                incr = np.outer(a, b)
                h = FD_STEP
                fd_ray = np.einsum(
                    "sij,ij->s",
                    batch_stress_free(model, fs + h * incr, par)
                    - batch_stress_free(model, fs - h * incr, par),
                    incr,
                ) / (2.0 * h)
                np.testing.assert_allclose(
                    np.einsum("sij,i,j->s", q, a, a), fd_ray,
                    rtol=RTOL_ACOUSTIC, atol=ATOL_FLOOR,
                )
    except AssertionError:
        passed = False
        raise
    finally:
        report("derivative-correctness", passed,
               f"{MODELS_PER_ARCH} models x {STATES_PER_MODEL} states per architecture")


def test_constraint_suite():
    """Non-negative stress/parameter gradients; convex model Hessians p.s.d."""
    rng = np.random.default_rng(202)
    passed = True
    try:
        for arch in (nets.Architecture.MONOTONIC, nets.Architecture.CONVEX_MONOTONIC):
            for _ in range(10):
                model = nets.build_model(arch, 8, 1, rng)
                inv = 3.0 + 6.0 * rng.random((10_000, 2))
                par = rng.random((10_000, 1))
                assert nets.invariant_gradients_batch(model, inv, par).min() >= 0.0
                assert parameter_gradients(model, inv, par).min() >= 0.0
                if arch is nets.Architecture.CONVEX_MONOTONIC:
                    eigs = np.linalg.eigvalsh(
                        nets.invariant_hessians_batch(model, inv, par)[1]
                    )
                    assert eigs.min() >= -1e-10
    except AssertionError:
        passed = False
        raise
    finally:
        report("constraint-suite", passed, "10^4 states per model, exact")


def test_stress_normalization():
    """Zero stress at the reference configuration for every architecture."""
    rng = np.random.default_rng(303)
    passed = True
    worst = 0.0
    try:
        for arch in nets.Architecture:
            for _ in range(50):
                model = nets.build_model(arch, 6, 2, rng)
                p = cons.pk1_stress(model, np.eye(3), rng.random(2), gamma=0.0)
                worst = max(worst, float(np.linalg.norm(p)))
        assert worst < 1e-12
    except AssertionError:
        passed = False
        raise
    finally:
        report("stress-normalization", passed, f"max |P(I)| = {worst:.2e}")


def test_kinematics_identities():
    """Cofactor cross-product identity and invariant rotation invariance."""
    rng = np.random.default_rng(404)
    passed = True
    try:
        fs = np.stack([random_unimodular(rng) for _ in range(1000)])
        cof = kin._invariant_terms(fs)[1]
        alt = 0.5 * tensor_cross_ref(fs, fs)
        np.testing.assert_allclose(cof, alt, rtol=1e-12, atol=1e-12)
        q1 = np.stack([random_rotation(rng) for _ in range(1000)])
        q2 = np.stack([random_rotation(rng) for _ in range(1000)])
        ref = kin.isochoric_invariants(fs)
        rot = kin.isochoric_invariants(q1 @ fs @ np.swapaxes(q2, -1, -2))
        np.testing.assert_allclose(rot[0], ref[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rot[1], ref[1], rtol=1e-12, atol=1e-12)
    except AssertionError:
        passed = False
        raise
    finally:
        report("kinematics-identities", passed, "1000 cases, tol 1e-12")


def test_oracle_recovery(oracle_dataset, trained):
    """Parametrized oracle fit and held-out parameter interpolation."""
    best_model, best_record = trained["mono"][0]
    holdout = cal.evaluate(best_model, oracle_dataset)
    passed = best_record.log10_mse <= -5.0 and holdout.log10_mse <= -3.0
    report(
        "oracle-recovery", passed,
        f"best log10 MSE {best_record.log10_mse:.2f} (<= -5), "
        f"holdout {holdout.log10_mse:.2f} (<= -3)",
    )
    assert best_record.log10_mse <= -5.0
    assert holdout.defined and holdout.log10_mse <= -3.0


def test_ellipticity_ground_truth():
    """Known-elliptic and known-non-elliptic laws, and the relaxation order."""
    directions = stab.fibonacci_directions()
    lam = np.linspace(0.5, 3.0, 8)
    passed = True
    try:
        nh = stab.scan_invariant_plane(
            cons.neo_hookean(0.5), [[0.0]], lam, lam, directions
        )
        assert nh.elliptic_fraction() == 1.0
        flipped = stab.scan_invariant_plane(
            cons.neo_hookean(-0.5), [[0.0]], lam, lam, directions
        )
        assert flipped.elliptic_fraction() < 1.0
        for point in [*nh.points, *flipped.points]:
            assert point.error is None
            if point.compressible_elliptic:
                assert point.elliptic
    except AssertionError:
        passed = False
        raise
    finally:
        report("ellipticity-ground-truth", passed,
               "neo-Hookean 1.0, sign-flipped < 1.0, relaxation order intact")


def test_comparative_stability(trained):
    """Constrained vs free potentials, trained identically and scanned identically."""
    directions = stab.fibonacci_directions()
    lam = np.linspace(0.5, 3.0, 10)
    mono = stab.scan_invariant_plane(
        trained["mono"][0][0], SCAN_T, lam, lam, directions
    )
    unres = stab.scan_invariant_plane(
        trained["unres"][0][0], SCAN_T, lam, lam, directions
    )
    mono_fr = [e["elliptic_fraction"] for e in mono.per_parameter]
    unres_fr = [e["elliptic_fraction"] for e in unres.per_parameter]
    be_rate = [e["be_fraction"] for e in mono.per_parameter]
    ordering = all(m >= u for m, u in zip(mono_fr, unres_fr))
    be_full = all(rate == 1.0 for rate in be_rate)
    relaxation = all(
        (not p.compressible_elliptic) or p.elliptic
        for p in [*mono.points, *unres.points]
        if p.error is None
    )
    passed = ordering and be_full and relaxation
    report(
        "comparative-stability", passed,
        f"elliptic fractions per t: constrained {np.round(mono_fr, 3).tolist()} "
        f"vs free {np.round(unres_fr, 3).tolist()}",
    )
    assert ordering
    assert be_full
    assert relaxation


def test_sparsity_direction(trained):
    """Free models stay dense; constrained wide models develop exact zeros."""
    dense_ok = True
    for model, _ in trained["unres"]:
        nonzero, total = nets.sparsity(model)
        dense_ok = dense_ok and nonzero == total
    zero_ok = True
    fractions = []
    for model, _ in trained["mono16"]:
        nonzero, total = nets.sparsity(model)
        fractions.append(nonzero / total)
        zero_ok = zero_ok and nonzero < total
    passed = dense_ok and zero_ok
    report(
        "sparsity-direction", passed,
        f"free models dense; constrained n=16 nonzero fractions "
        f"{np.round(fractions, 3).tolist()} (reported, not asserted further)",
    )
    assert dense_ok
    assert zero_ok


def test_trained_geometric_term_psd(trained):
    """The paper's argument on trained models: with non-negative stress
    coefficients the geometric term of the rank-one form is p.s.d., and on
    the unit-determinant tangent plane the two terms sum to the full form."""
    rng = np.random.default_rng(505)
    sweep_rng = np.random.default_rng(506)
    models = [model for key in ("mono", "mono16") for model, _ in trained[key]]
    lowest, worst = np.inf, 0.0
    passed = True
    try:
        for model in models:
            law = cons.as_law(model)
            for _ in range(20):
                f = random_unimodular(rng)
                t = rng.uniform(0.0, 1.0, 1)
                con, geo = stab.hessian_decomposition(law, f, t)
                tangent = cons.pk1_tangent(law, f, t)
                for _ in range(5):
                    b = rng.standard_normal(3)
                    value = geo(rng.standard_normal(3), b)
                    lowest = min(lowest, value)
                    assert value >= 0.0
                    for a in tangent_plane_basis(f, b):
                        full = np.einsum("iIjJ,i,I,j,J->", tangent, a, b, a, b)
                        split = con(a, b) + geo(a, b)
                        worst = max(worst, abs(split - full) / max(abs(full), 1e-12))
                        assert split == pytest.approx(full, rel=1e-10, abs=1e-12)
            # one batched call over a stack of points, each with its own
            # parameter and rank-one pair, from a generator of its own so
            # that the draws above stay as they are
            f = np.stack([random_unimodular(sweep_rng) for _ in range(SWEEP)])
            t = sweep_rng.uniform(0.0, 1.0, (SWEEP, 1))
            a, b = sweep_rng.standard_normal((2, SWEEP, 3))
            values = stab.hessian_decomposition(law, f, t)[1](a, b)
            lowest = min(lowest, values.min())
            assert values.shape == (SWEEP,) and np.all(values >= 0.0)
            single = [stab.hessian_decomposition(law, f[k], t[k])[1](a[k], b[k])
                      for k in range(SWEEP)]
            assert values == pytest.approx(single, rel=1e-12, abs=1e-12)
    except AssertionError:
        passed = False
        raise
    finally:
        report("trained-geometric-term", passed,
               f"{len(models)} monotonic models x (100 rank-one pairs + a batched "
               f"sweep of {SWEEP}): min geometric {lowest:.2e} (>= 0), "
               f"split error {worst:.1e}")


def _run_all_commands(root: Path, seed: int) -> dict:
    data = root / "data"
    models = root / "models"
    cli_main(["gendata", "--grid", "1.0,2.0,8", "--params", "0.2,0.8",
              "--out", str(data), "--seed", str(seed)])
    paths = f"{data}/dataset_p0.2.csv,{data}/dataset_p0.8.csv"
    cli_main(["calibrate", "--data", paths, "--nodes", "4", "--epochs", "150",
              "--restarts", "2", "--seed", str(seed), "--out", str(models)])
    cli_main(["evaluate", "--model", str(models / "monotonic_rank0.json"),
              "--data", paths, "--slice", "calibration",
              "--out", str(root / "eval"), "--seed", str(seed)])
    cli_main(["scan", "--model", str(models / "monotonic_rank0.json"),
              "--law", "neo-hookean", "--t-values", "0,1",
              "--lambda1", "0.8,1.6,3", "--lambda2", "0.8,1.6,3",
              "--directions", "32", "--out", str(root / "scan"),
              "--seed", str(seed)])
    cli_main(["hyperparam", "--data", paths, "--archs", "monotonic",
              "--nodes", "2,4", "--epochs", "60", "--restarts", "1",
              "--seed", str(seed), "--out", str(root / "hp")])
    cli_main(["report", "--model", str(models / "monotonic_rank0.json"),
              "--data", paths, "--out", str(root / "report"),
              "--seed", str(seed)])
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_cli_determinism(tmp_path):
    """Every command, re-run with the same seed, writes identical bytes."""
    first = _run_all_commands(tmp_path / "run1", seed=7)
    second = _run_all_commands(tmp_path / "run2", seed=7)
    passed = first == second and len(first) > 10
    report("cli-determinism", passed, f"{len(first)} artifacts compared")
    assert first == second
