"""Agreement of calibration between two checkouts.

Run from the repository root, for example against an unpacked copy of
another commit::

    python3 scripts/calibrate_agreement.py --parent ../parent --change .

It calibrates every architecture for ``EPOCHS`` epochs with each checkout's
``src``, each in its own fresh interpreter, at the shapes of the two
calibrate workloads of ``bench/run.py``: n = 8 with 5 restarts on 60
samples, and n = 32 with 2 restarts on 200 samples, on noise-free data of
the benchmark's Mooney-Rivlin oracle.  It prints the largest absolute
difference of any trained weight or bias and the largest relative
difference of a restart's final MSE, and exits 1 if either exceeds
``TOLERANCE`` or if the epochs run or divergence flags differ.

Each checkout also runs the ``gendata`` and ``calibrate`` commands of the
benchmark's two calibrate workloads (at ``SEED``), and the sha256 of every
model and record file they write is compared; each differing file is printed
with both hashes.  A differing file does not change the exit status, since
rounding drift within ``TOLERANCE`` may change the last digit of a weight.

Compare after a few thousand epochs at most: rounding differences between
two algebraically equal gradients grow with training, and after 20000
epochs they reach 1e-3 in the weights.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOLERANCE = 1e-12
EPOCHS = 1000
SEED = 7
# (nodes, restarts, stretches, raw parameter values) of calibrate-acceptance
# (without its held-out value) and of calibrate-wide
SHAPES = ((8, 5, 20, (0.1, 0.5, 0.9)), (32, 2, 40, (0.1, 0.3, 0.5, 0.7, 0.9)))
ORACLE = ([0.0, 0.0, 0.25, 0.15], [0.0, 0.0, 0.05, 0.03], [0.0, 0.0, 0.02, 0.0])
# the calibrate workloads of bench/run.py: name, architectures, nodes, restarts,
# epochs, stretches, raw parameter values, held-out values
CLI_WORKLOADS = (
    ("calibrate-acceptance", ("monotonic", "unrestricted_2hl"), 8, 5, 200, 20,
     (0.1, 0.5, 0.9), (0.3,)),
    ("calibrate-wide", ("monotonic", "unrestricted_2hl", "convex_monotonic",
                        "unrestricted_1hl"), 32, 2, 50, 40, (0.1, 0.3, 0.5, 0.7, 0.9), ()),
)


def calibrate_all(src: Path) -> dict:
    """Per architecture and shape, each restart's trained arrays, final MSE,
    epochs run and divergence flag, computed with ``src``."""
    sys.path.insert(0, str(src))
    import numpy as np

    from monopann import calibration, constitutive, networks

    law = constitutive.MooneyRivlin(*ORACLE)
    out = {}
    for nodes, restarts, stretches, params in SHAPES:
        data = calibration.generate_synthetic(law, np.linspace(1.0, 2.0, stretches), params)
        config = calibration.TrainConfig(epochs=EPOCHS, restarts=restarts, seed=SEED)
        for arch in networks.Architecture:
            results = calibration.calibrate(data, config, arch, nodes)
            out[f"{arch.value}-n{nodes}"] = [
                {
                    "arrays": [a.ravel().tolist() for a in networks.parameter_arrays(model)],
                    "mse": record.final_mse,
                    "epochs": record.epochs_run,
                    "diverged": record.diverged,
                }
                for model, record in sorted(results, key=lambda mr: mr[1].restart_index)
            ]
    return out


def cli_artifacts(src: Path, work: Path) -> dict:
    """The sha256 of every file that the benchmark's calibrate commands
    write with ``src``, by workload and name."""
    sys.path.insert(0, str(src))
    from monopann import cli

    oracle = ["--oracle", "mooney-rivlin"]
    for name, values in zip(("c10", "c01", "c11"), ORACLE):
        oracle += [f"--{name}-cubic", ",".join(f"{v:g}" for v in values)]
    hashes = {}
    for name, archs, nodes, restarts, epochs, stretches, params, holdout in CLI_WORKLOADS:
        inputs, out = work / name / "inputs", work / name / "out"
        values = params + holdout
        if cli.main(["gendata", *oracle, "--grid", f"1.0,2.0,{stretches}",
                     "--params", ",".join(f"{v:g}" for v in values), "--out", str(inputs)]):
            raise SystemExit(f"{name}: gendata failed")
        common = [
            "--data", ",".join(str(inputs / f"dataset_p{v:g}.csv") for v in values),
            "--nodes", str(nodes), "--epochs", str(epochs), "--restarts", str(restarts),
            "--seed", str(SEED), "--out", str(out),
        ]
        if holdout:
            common += ["--holdout-params", ",".join(f"{v:g}" for v in holdout)]
        for arch in archs:
            if cli.main(["calibrate", "--arch", arch, *common]):
                raise SystemExit(f"{name}: calibrate --arch {arch} failed")
        hashes.update({f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in sorted(out.iterdir())})
    return hashes


def run_child(src: Path) -> dict:
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(src), "--work", work],
            capture_output=True, text=True, check=True, timeout=3600,
        )
    return json.loads(done.stdout.splitlines()[-1])


def compare(parent: dict, change: dict) -> tuple[list, float, float]:
    """Differing epochs or flags, largest weight difference, largest
    relative MSE difference."""
    if parent.keys() != change.keys():
        return [f"runs differ: {sorted(parent)} vs {sorted(change)}"], 0.0, 0.0
    diffs, worst_weight, worst_mse = [], 0.0, 0.0
    for key, old_runs in parent.items():
        for k, (old, new) in enumerate(zip(old_runs, change[key], strict=True)):
            diffs += [f"{key} restart {k}: {name} {old[name]!r} -> {new[name]!r}"
                      for name in ("epochs", "diverged") if old[name] != new[name]]
            for a, b in zip(old["arrays"], new["arrays"], strict=True):
                worst_weight = max([worst_weight] + [abs(x - y) for x, y in zip(a, b)])
            worst_mse = max(worst_mse, abs(old["mse"] - new["mse"]) / abs(old["mse"]))
    return diffs, worst_weight, worst_mse


def compare_files(parent: dict, change: dict) -> list:
    """Each artifact that differs, or that only one side wrote, with the
    sha256 of both sides."""
    return [f"artifact {name} differs: {parent.get(name)} -> {change.get(name)}"
            for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, help="checkout under test")
    parser.add_argument("--child", type=Path,
                        help="calibrate with this src directory and print the results")
    parser.add_argument("--work", type=Path, help="scratch directory of --child")
    args = parser.parse_args(argv)
    if args.child is not None:
        src = args.child.resolve()
        print(json.dumps({"runs": calibrate_all(src),
                          "artifacts": cli_artifacts(src, args.work)}))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    parent = run_child((args.parent / "src").resolve())
    change = run_child((args.change / "src").resolve())
    diffs, worst_weight, worst_mse = compare(parent["runs"], change["runs"])
    files = compare_files(parent["artifacts"], change["artifacts"])
    for line in diffs + files:
        print(line)
    print(f"runs: {len(parent['runs'])} ({EPOCHS} epochs each), differing epochs or "
          f"divergence flags: {len(diffs)}")
    print(f"largest weight difference: {worst_weight:.3g} (bound {TOLERANCE:g})")
    print(f"largest relative MSE difference: {worst_mse:.3g} (bound {TOLERANCE:g})")
    print(f"CLI calibrate artifacts: {len(parent['artifacts'])}, differing: {len(files)}")
    return 1 if diffs or max(worst_weight, worst_mse) > TOLERANCE else 0


if __name__ == "__main__":
    sys.exit(main())
