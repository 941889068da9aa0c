"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench``.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "calibrate-acceptance": {"epochs": 3, "restarts": 2, "microbench_epochs": 2},
    "calibrate-wide": {"epochs": 3, "stretches": 5, "microbench_epochs": 2},
    "scan-grid": {"lambda1": (0.5, 3.0, 2), "lambda2": (0.5, 3.0, 3), "directions": 10},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, changes in TINY.items():
        monkeypatch.setitem(
            bench.WORKLOADS, name, dataclasses.replace(bench.WORKLOADS[name], **changes)
        )
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)


def run_benchmark(capsys, workload, seed, trace):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert bench.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def monopann_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "monopann" or name.startswith("monopann.")
        for attr, value in vars(module).items()
    }


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_metric_printed_with_unit(capsys, workload, trace):
    result = run_benchmark(capsys, workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_split(capsys):
    scan = run_benchmark(capsys, "scan-grid", 3, 1)["metrics"]
    assert all(scan[k]["value"] == 0 for k in scan
               if k.startswith("calibration.") and k.endswith(".calls"))
    assert scan["constitutive.pk1_tangent.per_point"]["value"] == 2
    assert scan["kinematics.isochoric_invariants.per_point"]["value"] == 4
    assert scan["kinematics.tensor_cross.per_point"]["value"] == 6
    for workload in ("calibrate-acceptance", "calibrate-wide"):
        fit = run_benchmark(capsys, workload, 3, 1)["metrics"]
        assert fit["constitutive.pk1_tangent.calls"]["value"] == 0
        assert all(fit[k]["value"] == 0 for k in fit
                   if k.startswith("kinematics.") and k.endswith(".calls"))
        assert fit["networks.invariant_gradient_vjp.per_restart_epoch"]["value"] == 1


def test_traced_run_restores_every_function(capsys):
    bench._import_package()
    before = monopann_attributes()
    for workload in sorted(bench.WORKLOADS):
        run_benchmark(capsys, workload, 3, 1)
    after = monopann_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_seed_changes_inputs_not_metric_names(tmp_path, capsys, workload):
    pkg = bench._import_package()
    spec = bench.WORKLOADS[workload]

    def inputs(seed):
        folder = tmp_path / "inputs"
        shutil.rmtree(folder, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            spec.generate(pkg, folder, seed)
        return bench._tree_digest(folder), spec.commands(folder, tmp_path / "out", seed)

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)
    for trace in (0, 1):
        names = [set(run_benchmark(capsys, workload, seed, trace)["metrics"])
                 for seed in (1, 2)]
        assert names[0] == names[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
