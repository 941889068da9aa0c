"""Agreement of the stability scan between two checkouts.

Run from the repository root, for example against an unpacked copy of
another commit::

    python3 scripts/scan_agreement.py --parent ../parent --change .

It scans a fixed set of laws with each checkout's ``src``, each in its own
fresh interpreter: untrained networks of all four architectures (n = 6,
seeds 11 to 13) and a Mooney-Rivlin law, on a 12x12 stretch grid over
[0.3, 4], with 3 parameter rows and 150 Fibonacci directions.  The reports
are compared as each checkout's ``stability.write_report_json`` writes
them.  It prints the worst deviation of the condition minima (absolute, or
relative above 1) and of the invariants i1, i2 (relative).

Each checkout also runs four ``scan`` commands (:func:`cli_scans`), and the
sha256 of every artifact they write is compared: the two of the
benchmark's scan-grid workload (a seeded monotonic network with n = 8,
then the Mooney-Rivlin law, over 3 parameter rows, a 10x10 grid over
[0.5, 3] and 200 directions), both laws in one command, which also writes
``comparison.csv``, and the network on a 4x4 grid over [1e-200, 3], whose
failed points write null values and error texts.

It exits 1 if any verdict, ``error`` or ``per_parameter`` entry differs, if
a minimum differs by more than ``MINIMUM_TOLERANCE``, or if any CLI
artifact differs; every differing entry and file is printed.
"""

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

MINIMUM_TOLERANCE = 1e-12
SEEDS = (11, 12, 13)
NODES = 6
GRID = (0.3, 4.0, 12)
ROWS = [[0.0], [0.5], [1.0]]
DIRECTIONS = 150
EXACT = ("elliptic", "compressible_elliptic", "be_ok", "mono_ok", "error")
MINIMA = ("min_value", "compressible_min_value")
# the scan-grid workload of bench/run.py
CLI_SEED = 1
CLI_NODES = 8
CLI_GRID = ["--lambda1", "0.5,3,10", "--lambda2", "0.5,3,10"]
CLI_ARGS = ["--t-values", "0,0.5,1", "--directions", "200", "--seed", str(CLI_SEED)]
CLI_ORACLE = [
    "--law", "mooney-rivlin",
    "--c10-cubic", "0,0,0.25,0.15",
    "--c01-cubic", "0,0,0.05,0.03",
    "--c11-cubic", "0,0,0.02,0",
]


def cli_scans(model: str) -> dict:
    """The arguments of each ``scan`` command, by the name of the directory
    it writes into: the scan-grid workload's two, both laws in one command
    (which writes ``comparison.csv``), and a grid whose stretch products
    under- and overflow, so that points fail."""
    return {
        "model": ["--model", model, *CLI_GRID, *CLI_ARGS],
        "oracle": [*CLI_ORACLE, *CLI_GRID, *CLI_ARGS],
        "both": ["--model", model, *CLI_ORACLE, *CLI_GRID, *CLI_ARGS],
        "failing": ["--model", model, "--lambda1", "1e-200,3,4",
                    "--lambda2", "1e-200,3,4", *CLI_ARGS],
    }


def scan_all(src: Path, work: Path) -> dict:
    """The scan report of every law, by label, computed with ``src`` and
    read back from the JSON that ``src`` writes into ``work``."""
    sys.path.insert(0, str(src))
    import numpy as np

    from monopann import constitutive, networks, stability

    laws = [
        constitutive.NeuralLaw(
            networks.build_model(arch, NODES, 1, np.random.default_rng(seed)),
            label=f"{arch.value}-{seed}",
        )
        for arch in networks.Architecture for seed in SEEDS
    ]
    laws.append(constitutive.MooneyRivlin([0.1, 0.3], [-0.05, 0.02], [0.01, -0.04]))
    lam = np.linspace(*GRID[:2], GRID[2])
    # direction_set returned a DirectionSet in older checkouts, which the
    # scan takes as it takes the array of fibonacci_directions
    directions = getattr(stability, "direction_set", stability.fibonacci_directions)(
        count=DIRECTIONS)
    reports = {}
    for k, law in enumerate(laws):
        path = work / f"law{k}_report.json"
        report = stability.scan_invariant_plane(law, ROWS, lam, lam, directions)
        stability.write_report_json(report, path)
        reports[law.label] = json.loads(path.read_text())
    return reports


def cli_artifacts(src: Path, work: Path) -> dict:
    """The sha256 of every file that the :func:`cli_scans` commands write
    with ``src``, by its path under ``work``."""
    sys.path.insert(0, str(src))
    import numpy as np

    from monopann import cli, networks

    model = networks.build_model(networks.Architecture.MONOTONIC, CLI_NODES, 1,
                                 np.random.default_rng(CLI_SEED))
    networks.save_model(model, work / "scan_model.json")
    for name, args in cli_scans(str(work / "scan_model.json")).items():
        if cli.main(["scan", *args, "--out", str(work / name)]) != 0:
            raise SystemExit(f"scan {name} failed")
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.glob("*/*"))}


def run_child(src: Path) -> dict:
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(src), "--work", work],
            capture_output=True, text=True, check=True, timeout=1800,
        )
    return json.loads(done.stdout.splitlines()[-1])


def deviation(a, b, floor: float) -> float:
    """``|a - b|`` relative to ``max(|a|, floor)``; 0 where both are missing,
    infinite where only one is."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b) / max(abs(a), floor)


def compare(parent: dict, change: dict) -> tuple[list, float, float]:
    """Differing exact entries, worst minimum deviation, worst invariant
    deviation."""
    if parent.keys() != change.keys():
        return [f"laws differ: {sorted(parent)} vs {sorted(change)}"], 0.0, 0.0
    diffs, worst_min, worst_inv = [], 0.0, 0.0
    for label, old in parent.items():
        new = change[label]
        if old["per_parameter"] != new["per_parameter"]:
            diffs.append(f"{label}: per_parameter differs")
        for k, (p, q) in enumerate(zip(old["points"], new["points"], strict=True)):
            diffs += [f"{label} point {k}: {key} {p[key]!r} -> {q[key]!r}"
                      for key in EXACT if p[key] != q[key]]
            worst_min = max([worst_min] + [deviation(p[key], q[key], 1.0)
                                           for key in MINIMA])
            worst_inv = max([worst_inv] + [deviation(p[key], q[key], 0.0)
                                           for key in ("i1", "i2")])
    return diffs, worst_min, worst_inv


def compare_files(parent: dict, change: dict) -> list:
    """The names of the artifacts that differ, or that only one side wrote."""
    return [f"artifact {name} differs" for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    parser.add_argument("--change", type=Path, help="checkout under test")
    parser.add_argument("--child", type=Path,
                        help="scan with this src directory and print the results")
    parser.add_argument("--work", type=Path, help="scratch directory of --child")
    args = parser.parse_args(argv)
    if args.child is not None:
        src = args.child.resolve()
        (args.work / "cli").mkdir()
        print(json.dumps({"reports": scan_all(src, args.work),
                          "artifacts": cli_artifacts(src, args.work / "cli")}))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    parent = run_child((args.parent / "src").resolve())
    change = run_child((args.change / "src").resolve())
    diffs, worst_min, worst_inv = compare(parent["reports"], change["reports"])
    files = compare_files(parent["artifacts"], change["artifacts"])
    for line in diffs + files:
        print(line)
    print(f"laws: {len(parent['reports'])}, differing verdicts, errors or "
          f"per_parameter entries: {len(diffs)}")
    print(f"worst minimum deviation: {worst_min:.3g} "
          f"(absolute, or relative above 1; bound {MINIMUM_TOLERANCE:g})")
    print(f"worst i1/i2 relative deviation: {worst_inv:.3g}")
    print(f"CLI scan artifacts: {len(parent['artifacts'])}, differing: {len(files)}")
    return 1 if diffs or files or worst_min > MINIMUM_TOLERANCE else 0


if __name__ == "__main__":
    sys.exit(main())
