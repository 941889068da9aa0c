"""Time, minor page faults and allocation per training epoch.

Run from the repository root, for example against an unpacked copy of
another commit::

    python3 scripts/epoch_faults.py --src ../parent/src --src src

For each ``--src`` it starts a fresh interpreter that imports monopann from
that directory alone.  There it calibrates every architecture, in the order
of the benchmark's ``calibrate-wide`` workload, at the shapes (n, R, S) of
the benchmark's two calibrate workloads, (8, 5, 60) and (32, 2, 200), on
noise-free data of the benchmark's Mooney-Rivlin oracle.  It wraps the ADAM
update, which runs once per epoch, and reports per epoch after ``--warmup``
epochs:

* ``us``: the median time between consecutive updates, in microseconds;
* ``faults``: the mean of the minor page faults (``getrusage`` ``ru_minflt``)
  between consecutive updates;
* ``transient_kib``: the largest tracemalloc peak of an epoch's loss and
  gradient above the memory still traced at its end, from a second
  calibration with tracemalloc on, so that tracing disturbs neither the
  timing nor the heap of the first;
* ``adam_us``: the median time of one ADAM update;
* ``outside_us``: the median time of one loss and gradient evaluation
  (``calibration._loss_and_gradient``) less the time spent in the
  network's trace and VJP (``networks._stress_vjp`` and the VJP it
  returns): the residual, the loss and the cotangent.

The last two come from a third calibration with the three functions
wrapped in timers; the wrappers take time of their own, so ``us`` is taken
without them.

Each checkout runs in its own process: two checkouts interleaved in one
process share one C heap, and where that heap trims memory and faults it
back in then depends on both.  The last line of standard output is one
JSON object with every figure, by checkout, architecture and shape.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ARCHS = ("monotonic", "unrestricted_2hl", "convex_monotonic", "unrestricted_1hl")
# (nodes, restarts, stretches, raw parameter values) of calibrate-acceptance
# (without its held-out value) and of calibrate-wide
SHAPES = ((8, 5, 20, (0.1, 0.5, 0.9)), (32, 2, 40, (0.1, 0.3, 0.5, 0.7, 0.9)))
ORACLE = ([0.0, 0.0, 0.25, 0.15], [0.0, 0.0, 0.05, 0.03], [0.0, 0.0, 0.02, 0.0])


def measure(src: Path, epochs: int, warmup: int) -> dict:
    """Per-epoch figures of every architecture and shape, computed with ``src``."""
    sys.path.insert(0, str(src))
    import numpy as np

    from monopann import calibration, constitutive, networks

    law = constitutive.MooneyRivlin(*ORACLE)
    update, loss, stress_vjp = (calibration._adam_update, calibration._loss_and_gradient,
                                networks._stress_vjp)

    def calibrate(data, config, arch, nodes, record, timed=None):
        """Calibrate with ``record()`` called before every ADAM update, and
        with the phase timers of ``timed`` (adam, outside) if it is given."""
        clock, network = time.perf_counter, [0.0]

        def wrapped_update(*args, **kwargs):
            record()
            start = clock()
            update(*args, **kwargs)
            if timed:
                timed[0].append(clock() - start)

        def wrapped_loss(*args):
            start = clock()
            out = loss(*args)
            timed[1].append(clock() - start - network[0])
            return out

        def wrapped_stress_vjp(*args):
            start = clock()
            coefficients, vjp = stress_vjp(*args)
            network[0] = clock() - start

            def wrapped_vjp(*args):
                start = clock()
                out = vjp(*args)
                network[0] += clock() - start
                return out

            return coefficients, wrapped_vjp

        calibration._adam_update = wrapped_update
        if timed:
            calibration._loss_and_gradient = wrapped_loss
            networks._stress_vjp = wrapped_stress_vjp
        try:
            calibration.calibrate(data, config, networks.Architecture(arch), nodes)
        finally:
            calibration._adam_update, calibration._loss_and_gradient = update, loss
            networks._stress_vjp = stress_vjp

    out = {}
    for nodes, restarts, stretches, params in SHAPES:
        data = calibration.generate_synthetic(law, np.linspace(1.0, 2.0, stretches), params)
        config = calibration.TrainConfig(epochs=warmup + epochs + 1, restarts=restarts)
        shape = f"n{nodes}_r{restarts}_s{len(data)}"
        for arch in ARCHS:
            clocks, faults = [], []
            calibrate(data, config, arch, nodes, lambda: (
                clocks.append(time.perf_counter()),
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)))
            transients = []
            tracemalloc.start()
            try:
                def trace():
                    current, peak = tracemalloc.get_traced_memory()
                    transients.append(peak - current)
                    tracemalloc.reset_peak()

                calibrate(data, config, arch, nodes, trace)
            finally:
                tracemalloc.stop()
            timed = ([], [])
            calibrate(data, config, arch, nodes, lambda: None, timed)
            steps = np.diff(clocks[warmup:])
            out[f"{arch}/{shape}"] = {
                "us": 1e6 * float(np.median(steps)),
                "faults": float(np.mean(np.diff(faults[warmup:]))),
                "transient_kib": max(transients[warmup:]) / 1024,
                "adam_us": 1e6 * float(np.median(timed[0][warmup:])),
                "outside_us": 1e6 * float(np.median(timed[1][warmup:])),
                "epochs": len(steps),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True,
                        help="a checkout's src directory; give one per checkout")
    parser.add_argument("--epochs", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--child", action="store_true",
                        help="measure the one --src in this process and print JSON")
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.src[0].resolve(), args.epochs, args.warmup)))
        return 0
    result = {}
    for src in args.src:
        src = src.resolve()
        done = subprocess.run(
            [sys.executable, __file__, "--child", "--src", str(src),
             "--epochs", str(args.epochs), "--warmup", str(args.warmup)],
            capture_output=True, text=True, check=True, timeout=3600,
        )
        result[str(src)] = json.loads(done.stdout.splitlines()[-1])
        print(src)
        print(f"  {'architecture/shape':36s} {'us/epoch':>9s} {'faults/epoch':>12s} "
              f"{'transient KiB':>13s} {'adam us':>8s} {'outside us':>10s}")
        for key, row in result[str(src)].items():
            print(f"  {key:36s} {row['us']:9.1f} {row['faults']:12.2f} "
                  f"{row['transient_kib']:13.1f} {row['adam_us']:8.1f} {row['outside_us']:10.1f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
