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

Compare after a few thousand epochs at most: rounding differences between
two algebraically equal gradients grow with training, and after 20000
epochs they reach 1e-3 in the weights.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

TOLERANCE = 1e-12
EPOCHS = 1000
SEED = 7
# (nodes, restarts, stretches, raw parameter values) of calibrate-acceptance
# (without its held-out value) and of calibrate-wide
SHAPES = ((8, 5, 20, (0.1, 0.5, 0.9)), (32, 2, 40, (0.1, 0.3, 0.5, 0.7, 0.9)))
ORACLE = ([0.0, 0.0, 0.25, 0.15], [0.0, 0.0, 0.05, 0.03], [0.0, 0.0, 0.02, 0.0])


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


def run_child(src: Path) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(src)],
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, help="checkout under test")
    parser.add_argument("--child", type=Path,
                        help="calibrate with this src directory and print the results")
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(calibrate_all(args.child.resolve())))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    parent = run_child((args.parent / "src").resolve())
    change = run_child((args.change / "src").resolve())
    diffs, worst_weight, worst_mse = compare(parent, change)
    for line in diffs:
        print(line)
    print(f"runs: {len(parent)} ({EPOCHS} epochs each), differing epochs or "
          f"divergence flags: {len(diffs)}")
    print(f"largest weight difference: {worst_weight:.3g} (bound {TOLERANCE:g})")
    print(f"largest relative MSE difference: {worst_mse:.3g} (bound {TOLERANCE:g})")
    return 1 if diffs or max(worst_weight, worst_mse) > TOLERANCE else 0


if __name__ == "__main__":
    sys.exit(main())
