"""Time per phase of the stability scan, in microseconds per scan.

Run from the repository root, for example against an unpacked copy of
another commit::

    python3 scripts/scan_phases.py --src ../parent/src --src src

For each ``--src`` it starts a fresh interpreter that imports monopann from
that directory alone.  There it runs the two scans of the benchmark's
``scan-grid`` workload, a seeded monotonic network (n = 8) and the
Mooney-Rivlin oracle, each over 3 parameter rows, a 10x10 stretch grid over
[0.5, 3] and 200 Fibonacci directions, ``--scans`` times each after
``--warmup`` scans, alternating the two laws.  It wraps the scan's phases
in ``stability`` with timers and reports the median per scan of:

* ``points``: ``_scan_points``, the deformation gradients, LAPACK's det of
  each, and one invariant pass on their principal stretches (P, 3), which
  gives the invariants and the diagonals of the invariant terms;
* ``law``: ``_law_values``, the law's stress coefficients and tangent
  weights of every parameter row;
* ``geometry``: ``_point_geometry``, the law- and direction-independent
  coefficients of the acoustic tensors, from the products of those
  diagonals that they read;
* ``polynomials``: ``_polynomials``, the coefficients of the condition
  polynomials of every parameter row (0 for a checkout without them), whose
  power-of-two factors the symmetrizer products apply;
* ``minima``: ``_minima``, the blocked condition values and their minima;
* ``report``: the rest of ``scan_invariant_plane``: argument checks, the
  stretch pairs, the Baker-Ericksen stretches, the verdict fields, the
  report's structured array and its ``per_parameter`` entries;
* ``total``: ``scan_invariant_plane`` as a whole;
* ``write``: ``write_report_json`` and ``write_summary_csv`` of the scan's
  report, into a temporary directory, after the scan and outside
  ``total``;
* ``peak_kb``: the tracemalloc peak of one more scan of the law, in kB,
  taken after the timed scans and without their timers, so that tracing
  slows none of them.

The timers cost about a microsecond per call, and every phase is called
once per scan of this size.  Each checkout runs in its own process, so
that the two do not share a C heap.  A shared host's speed drifts between
processes, so ``--rounds`` processes per checkout run in turn (A, B, A,
B, ...), and each figure is the median over the rounds.  Compare the
phases of two checkouts against the spread of a phase whose code they
share.  The last line of standard output is one JSON object with every
figure, by checkout and law.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

PHASES = ("_scan_points", "_law_values", "_point_geometry", "_polynomials", "_minima")
NAMES = ("points", "law", "geometry", "polynomials", "minima")
COLUMNS = (*NAMES, "report", "total", "write", "peak_kb")
# the scan-grid workload of bench/run.py
ROWS = [[0.0], [0.5], [1.0]]
GRID = (0.5, 3.0, 10)
DIRECTIONS = 200
NODES = 8
SEED = 1
ORACLE = ([0.0, 0.0, 0.25, 0.15], [0.0, 0.0, 0.05, 0.03], [0.0, 0.0, 0.02, 0.0])


def measure(src: Path, scans: int, warmup: int) -> dict:
    """Median microseconds per scan of each phase and the tracemalloc peak
    of one scan in kB, by law, computed with ``src``."""
    sys.path.insert(0, str(src))
    import numpy as np

    from monopann import constitutive, networks, stability

    clock = time.perf_counter
    spent = dict.fromkeys(NAMES, 0.0)

    def timed(name, function):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spent[name] += clock() - start

        return wrapper

    originals = {phase: getattr(stability, phase) for phase in PHASES
                 if hasattr(stability, phase)}
    for phase, name in zip(PHASES, NAMES):
        if phase in originals:
            setattr(stability, phase, timed(name, originals[phase]))
    model = networks.build_model(networks.Architecture.MONOTONIC, NODES, 1,
                                 np.random.default_rng(SEED))
    laws = {"network": constitutive.NeuralLaw(model, label="scan_model"),
            "mooney-rivlin": constitutive.MooneyRivlin(*ORACLE)}
    lam = np.linspace(*GRID[:2], GRID[2])
    directions = stability.fibonacci_directions(DIRECTIONS)
    samples = {label: [] for label in laws}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for k in range(warmup + scans):
            for label, law in laws.items():
                for name in spent:
                    spent[name] = 0.0
                start = clock()
                report = stability.scan_invariant_plane(law, ROWS, lam, lam, directions)
                total = clock() - start
                start = clock()
                stability.write_report_json(report, out / "report.json")
                stability.write_summary_csv(report, out / "summary.csv")
                write = clock() - start
                if k >= warmup:
                    samples[label].append([*(spent[name] for name in NAMES),
                                           total - sum(spent.values()), total, write])
    for phase, function in originals.items():
        setattr(stability, phase, function)
    peaks = {}
    for label, law in laws.items():
        tracemalloc.start()
        stability.scan_invariant_plane(law, ROWS, lam, lam, directions)
        peaks[label] = tracemalloc.get_traced_memory()[1] / 1e3
        tracemalloc.stop()
    return {
        label: dict(zip(COLUMNS, [*(1e6 * np.median(rows, axis=0)).tolist(), peaks[label]]))
        for label, rows in samples.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a checkout's src directory; give one per checkout")
    parser.add_argument("--scans", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=3,
                        help="processes per checkout, run in turn")
    parser.add_argument("--child", action="store_true",
                        help="measure the one --src in this process and print JSON")
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.src[0].resolve(), args.scans, args.warmup)))
        return 0
    srcs = [src.resolve() for src in args.src]
    rounds = {src: [] for src in srcs}
    for _ in range(args.rounds):
        for src in srcs:
            done = subprocess.run(
                [sys.executable, __file__, "--child", "--src", str(src),
                 "--scans", str(args.scans), "--warmup", str(args.warmup)],
                capture_output=True, text=True, check=True, timeout=3600,
            )
            rounds[src].append(json.loads(done.stdout.splitlines()[-1]))
    result = {}
    for src, runs in rounds.items():
        result[str(src)] = {
            label: {column: statistics.median(run[label][column] for run in runs)
                    for column in COLUMNS}
            for label in runs[0]
        }
        print(src)
        print(f"  {'law (median us per scan)':26s}" + "".join(f"{c:>12s}" for c in COLUMNS))
        for label, row in result[str(src)].items():
            print(f"  {label:26s}" + "".join(f"{row[c]:12.1f}" for c in COLUMNS))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
