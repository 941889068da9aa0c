"""Steady-state minor page faults per pass of the ``scan-grid`` benchmark.

Run from the repository root::

    python3 scripts/scan_faults.py --passes 40

It drives whole passes of the benchmark's ``scan-grid`` workload
(``bench/run.py``: its inputs, its ``scan`` commands and its checks) in a
fresh interpreter, and counts the minor page faults of each pass after the
warm-up passes with ``getrusage``.  A pass that allocates and frees large
blocks can make the C heap return memory to the system and fault it back
in on the next pass; in steady state a pass should fault nothing.  Where
that happens depends on the process layout, so the count is taken in
three environments: as given, with ``Z=0`` added, and with ``Z=0 X=1``
added.  The added variables mean nothing to the program; they only move
the process's initial memory layout.

``--root`` selects the checkout whose ``bench/run.py`` and ``src`` are
measured, for example an unpacked copy of another commit.  The last line
of standard output is one JSON object with the faults per pass, by
environment.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENTS = {"plain": {}, "Z=0": {"Z": "0"}, "Z=0 X=1": {"Z": "0", "X": "1"}}


def count_faults(root: Path, seed: int, warmup: int, passes: int) -> list:
    """Minor faults of each of ``passes`` scan-grid passes after ``warmup``."""
    sys.path.insert(0, str(root / "bench"))
    import run as bench

    pkg = bench._import_package()
    workload = bench.WORKLOADS["scan-grid"]
    probe = (workload.core,)
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()):
        runner = bench.Runner(pkg, workload, seed, Path(work))
        for _ in range(warmup):
            runner.run_pass(probe)
        faults = []
        for _ in range(passes):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            runner.run_pass(probe)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    if runner.failed:
        raise SystemExit(f"error: {runner.failed} failed checks or points")
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--passes", type=int, default=40)
    parser.add_argument("--child", action="store_true",
                        help="count in this process and print the counts")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.child:
        print(json.dumps(count_faults(root, args.seed, args.warmup, args.passes)))
        return 0
    result = {}
    for name, extra in ENVIRONMENTS.items():
        done = subprocess.run(
            [sys.executable, __file__, "--child", "--root", str(root),
             "--seed", str(args.seed), "--warmup", str(args.warmup),
             "--passes", str(args.passes)],
            env=dict(os.environ, **extra), capture_output=True, text=True,
            check=True, timeout=1800,
        )
        faults = json.loads(done.stdout.splitlines()[-1])
        result[name] = {"median": statistics.median(faults), "max": max(faults),
                        "total": sum(faults), "passes": len(faults)}
        print(f"{name:8s} minor faults per pass: median {result[name]['median']:g}, "
              f"max {result[name]['max']}, total {result[name]['total']} "
              f"over {len(faults)} passes")
    print(json.dumps({"root": str(root), "faults_per_pass": result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
