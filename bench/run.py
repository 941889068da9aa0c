"""Benchmark of the monopann pipeline: calibration and stability scans.

Run from the repository root::

    python3 bench/run.py --workload calibrate-acceptance --seed 1 --seconds 20 --trace 0

Each workload drives the command-line entry point (``monopann.cli.main``)
in this process, on inputs generated from ``--seed``: the seed becomes the
CLI ``--seed`` of the calibration restarts and draws the weights of the
scanned model.  A run sets up its inputs several times (``setup_s`` is the
median), makes one warm-up pass, then repeats whole passes of the
workload's commands for ``--seconds`` and reports medians over them.
``peak_mem_mb`` is the peak resident set of the run's process, which
runs this one workload only.  Known-answer checks run after every pass;
a failed check counts as a failed operation and the run goes on.

The timings ``setup_s``, ``command_s`` and ``work_per_s`` are scaled to a
reference speed.  On a shared host the speed the process gets drifts by
up to 2x over minutes, which no run length averages out.  So a fixed
reference loop, which touches no monopann code, is timed right before and
right after each command (and each input generation), and the command's
time is multiplied by ``REFERENCE_S`` over the mean of those two loop
times.  The import timed in a fresh interpreter is scaled by the loop
time in that interpreter.  A change to the program moves the scaled time
as it moves the raw one; the raw medians are printed beside the scaled
ones, and the per-layer timings of ``--trace 1`` are raw.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  In those
passes only the two entry points whose inside time is measured
(``calibration.calibrate`` and ``stability.scan_invariant_plane``) are
wrapped.  ``--trace 1`` alternates untraced passes with traced ones, in
which every public function of the layers ``networks``, ``calibration``,
``constitutive``, ``kinematics``, ``stability`` and ``cli`` is wrapped to
count calls and time them, and reports the per-layer metrics plus
``trace_overhead``, the relative cost of the wrappers.  All wrappers are
removed after each pass.  A per-layer metric of a layer that a workload
does not use reads 0 (for example ``calibration.*`` on ``scan-grid``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The harness pins
no CPU, sets no thread count and changes no machine setting; it records
the thread variables it finds.  Inputs and outputs go to
``.bench_work/`` under the repository root and are removed at the end.
"""

import argparse
import contextlib
import csv
import functools
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

LAYERS = ("networks", "calibration", "constitutive", "kinematics", "stability", "cli")
# private CLI helpers traced as well, because they are the artifact write path
CLI_WRITERS = ("cli._write", "cli._write_rows")
WRITE_SPANS = CLI_WRITERS + (
    "networks.save_model",
    "stability.write_report_json",
    "stability.write_summary_csv",
)
LOAD_SPANS = ("calibration.load_datasets", "networks.load_model")
CALIBRATE = "calibration.calibrate"
SCAN = "stability.scan_invariant_plane"
VJP = "networks.invariant_gradient_vjp"

SETUP_REPEATS = 11
ARCHS = ("monotonic", "unrestricted_2hl", "convex_monotonic", "unrestricted_1hl")
# ROADMAP baseline figures from ad-hoc scripts on a 2-core x86-64 machine
# (Python 3.11.7, numpy 2.4.6, OpenBLAS),
# printed beside the measured ones
ROADMAP_EPOCH_US = {
    "monotonic": 735.0,
    "unrestricted_2hl": 491.0,
    "convex_monotonic": 434.0,
    "unrestricted_1hl": 287.0,
}
ROADMAP_MS_PER_POINT = 2.68
ORACLE = [
    "--oracle", "mooney-rivlin",
    "--c10-cubic", "0,0,0.25,0.15",
    "--c01-cubic", "0,0,0.05,0.03",
    "--c11-cubic", "0,0,0.02,0",
]
NOTE = (
    "note: this harness pins no CPU, sets no thread count and changes no "
    "machine setting; it runs in one process"
)


# seconds ``reference_s`` takes on the 2-vCPU x86-64 host the benchmark was
# defined on (Python 3.11.7, numpy 2.4.6), when that host ran at its faster
# speed; scaled timings are in seconds at that speed
REFERENCE_S = 0.007
_REFERENCE_ARRAYS = (
    np.random.default_rng(0).standard_normal((60, 8)),
    np.random.default_rng(1).standard_normal((8, 8)),
)


def reference_s() -> float:
    """Seconds taken by a fixed loop of small numpy operations and Python
    arithmetic, the mix monopann spends its time in.  It calls no monopann
    code, so it reads only the speed the host gives this process now."""
    a, w = _REFERENCE_ARRAYS
    acc = 0.0
    start = time.perf_counter()
    for _ in range(800):
        h = np.tanh(a @ w)
        g = (1.0 - h * h) @ w.T
        acc += float(np.einsum("ij,ij->", g, a)) + sum(h[0].tolist())
    return time.perf_counter() - start


def scale_to_reference(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at reference speed, from the loop times that bracket it."""
    return raw_s * 2.0 * REFERENCE_S / (before_s + after_s)


def _import_package() -> dict:
    """Import the layers of monopann from this checkout's ``src`` and nowhere else."""
    if not (SRC / "monopann" / "__init__.py").is_file():
        raise SystemExit(f"error: no monopann package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {layer: importlib.import_module(f"monopann.{layer}") for layer in LAYERS}
    origin = Path(sys.modules["monopann"].__file__).resolve().parent
    if origin != SRC / "monopann":
        raise SystemExit(f"error: monopann imported from {origin}")
    return modules


# ---------------------------------------------------------------------------
# tracing


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    self_samples: list = field(default_factory=list)


class Tracer:
    """Wraps named layer functions; counts calls, inclusive and self time.

    A wrapper replaces the function in every monopann module that holds the
    same object, including modules that imported it by name.  Self time is
    a call's duration minus that of the wrapped calls made inside it.
    ``observers`` map a name to ``f(args, result)``, called after
    each call.  Use as a context manager; leaving it restores every
    original function.
    """

    def __init__(self, modules: dict, names, observers=None):
        self.modules = modules
        self.names = list(names)
        self.observers = observers or {}
        self.spans = {name: Span() for name in self.names}
        self._stack = []
        self._patches = []

    def __enter__(self):
        holders = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "monopann" or key.startswith("monopann."))
        ]
        for name in self.names:
            layer, attr = name.split(".", 1)
            original = getattr(self.modules[layer], attr)
            wrapper = self._wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        observer = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += own
                span.self_samples.append(own)
                if stack:
                    stack[-1] += elapsed
            if observer is not None:
                observer(args, result)
            return result

        return wrapper


def public_functions(modules: dict) -> list:
    """``layer.name`` of every public function defined in each layer module."""
    names = []
    for layer in LAYERS:
        module = modules[layer]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                names.append(f"{layer}.{attr}")
    return names + list(CLI_WRITERS)


# ---------------------------------------------------------------------------
# statistics


def summary(samples, unit: str) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.6g} {unit}, n={n}"
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            rank = max(math.ceil(p / 100.0 * n) - 1, 0)
            return f"{text}, p{p:g} {values[rank]:.6g} {unit}"
    return f"{text}, no percentile has 10 samples beyond it"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Checks:
    results: list = field(default_factory=list)

    def add(self, name: str, fn) -> None:
        """Run one known-answer check; an exception is a failure, not an abort."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken check fails the operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


def _tree_digest(path: Path) -> dict:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _data_paths(inputs: Path, params) -> str:
    return ",".join(str(inputs / f"dataset_p{v:g}.csv") for v in params)


def _same_mse(recorded: float, recomputed: float):
    ok = abs(recorded - recomputed) <= 1e-12 * abs(recomputed)
    return ok, f"record {recorded!r} vs mse_loss {recomputed!r}"


@dataclass
class CalibrateWorkload:
    """``calibrate`` once per architecture."""

    name: str
    why: str
    archs: tuple
    nodes: int
    restarts: int
    epochs: int
    stretches: int
    params: tuple
    holdout: tuple = ()
    microbench_epochs: int = 400

    core = CALIBRATE
    labels = ("calibrate_s", "epochs_per_s", "restart-epochs")

    def generate(self, pkg, inputs, seed):
        """Noise-free oracle data; the seed only enters the CLI ``--seed``."""
        params = ",".join(f"{v:g}" for v in self.params + self.holdout)
        rc = pkg["cli"].main(
            ["gendata", *ORACLE, "--grid", f"1.0,2.0,{self.stretches}",
             "--params", params, "--out", str(inputs)]
        )
        if rc != 0:
            raise RuntimeError(f"gendata exited with {rc}")

    def commands(self, inputs, out, seed):
        common = [
            "--data", _data_paths(inputs, self.params + self.holdout),
            "--nodes", str(self.nodes), "--epochs", str(self.epochs),
            "--restarts", str(self.restarts), "--seed", str(seed), "--out", str(out),
        ]
        if self.holdout:
            common += ["--holdout-params", ",".join(f"{v:g}" for v in self.holdout)]
        return [["calibrate", "--arch", arch, *common] for arch in self.archs]

    def observers(self, sink):
        sink["calibrations"] = []
        sink["vjp_u_bytes"] = 0

        def on_calibrate(args, result):
            sink["calibrations"].append((args[2].value, result))

        def on_vjp(args, result):
            # computed, not measured: 8 bytes times the s x n x n x (2+m)
            # index space of the two-hidden-layer VJP einsum that forms u
            model, inv = args[0], args[1]
            if model.architecture.value in ("monotonic", "unrestricted_2hl"):
                s = max(inv.size // 2, 1)
                size = 8 * s * model.nodes * model.nodes * (2 + model.param_dim)
                sink["vjp_u_bytes"] = max(sink["vjp_u_bytes"], size)

        return {CALIBRATE: on_calibrate, VJP: on_vjp}

    def work_done(self, sink) -> float:
        return float(sum(
            r.epochs_run for _, results in sink["calibrations"] for _, r in results
        ))

    def operations(self, sink) -> int:
        return sum(len(results) for _, results in sink["calibrations"])

    def _dataset(self, pkg, inputs):
        cal = pkg["calibration"]
        paths = _data_paths(inputs, self.params + self.holdout).split(",")
        dataset = cal.load_datasets(paths)
        if self.holdout:
            dataset = cal.split_by_parameter(dataset, list(self.holdout))
        return dataset

    def check(self, pkg, checks, inputs, out, sink) -> int:
        """Known-answer checks; returns the failed operations (diverged restarts)."""
        cal, nets = pkg["calibration"], pkg["networks"]
        dataset = self._dataset(pkg, inputs)
        calibrations = sink["calibrations"]
        checks.add("one calibrate call per architecture", lambda: (
            [a for a, _ in calibrations] == list(self.archs),
            f"{[a for a, _ in calibrations]}"))
        for arch, results in calibrations:
            records = [r for _, r in results]
            checks.add(f"{arch}: epochs_run of every non-diverged restart", lambda: (
                all(r.epochs_run == self.epochs for r in records if not r.diverged),
                f"{[r.epochs_run for r in records]} vs {self.epochs}"))
            checks.add(f"{arch}: ranks 0..R-1", lambda: (
                [r.rank for r in records] == list(range(self.restarts)),
                f"{[r.rank for r in records]}"))
        for arch in self.archs:
            with (out / f"{arch}_records.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            checks.add(f"{arch}: one record per restart",
                       lambda: (len(rows) == self.restarts, f"{len(rows)} rows"))
            for row in rows:
                path = out / f"{arch}_rank{row['rank']}.json"
                checks.add(f"{path.name}: reloads, final_mse equals mse_loss",
                           lambda: _same_mse(float(row["final_mse"]),
                                             cal.mse_loss(nets.load_model(path), dataset)))
        return sum(r.diverged for _, results in calibrations for _, r in results)

    def microbench(self, pkg, inputs, seed) -> dict:
        """Loss, gradient and ADAM step per restart-epoch, in µs, per architecture.

        Calls the library directly (no CLI, no wrappers) on this workload's
        calibration arrays at its node count; median over five timed blocks
        after one warm-up block.
        """
        cal, nets = pkg["calibration"], pkg["networks"]
        lam, stress, t = self._dataset(pkg, inputs).calibration_arrays()
        config = cal.TrainConfig(epochs=1, seed=seed)
        result = {}
        for arch in ARCHS:
            model = nets.build_model(nets.Architecture(arch), self.nodes, t.shape[1],
                                     np.random.default_rng(seed))
            state = cal.init_adam(model)
            blocks = []
            for _ in range(6):
                start = time.perf_counter()
                for _ in range(self.microbench_epochs):
                    _, grads = cal.loss_and_gradient(model, lam, stress, t)
                    cal.adam_step(model, grads, state, config)
                blocks.append((time.perf_counter() - start) / self.microbench_epochs)
            result[arch] = 1e6 * _median(blocks[1:])
        return result

    def layer_metrics(self, traced, untraced, micro) -> dict:
        sink = traced[-1]["sink"]
        results = [rs for _, rs in sink["calibrations"]]
        epochs = self.work_done(sink)
        out = {
            "calibration.restart_epochs": epochs,
            "calibration.diverged_restarts": float(
                sum(r.diverged for rs in results for _, r in rs)),
            "calibration.best_log10_mse": statistics.fmean(
                rs[0][1].log10_mse for rs in results),
            "networks.vjp_u_bytes": float(sink["vjp_u_bytes"]),
            "networks.invariant_gradient_vjp.per_restart_epoch":
                traced[-1]["spans"][VJP].calls / epochs,
        }
        for arch, value in micro.items():
            out[f"calibration.epoch_us.{arch}"] = value
            note = ""
            if self.nodes == 8:
                note = f" (ROADMAP: {ROADMAP_EPOCH_US[arch]:g} us at n=8, 60 samples)"
            print(f"calibration.epoch_us.{arch}: {value:.6g} us at n={self.nodes}{note}")
        for arch, rs in sink["calibrations"]:
            print(f"{arch}: best log10 MSE {rs[0][1].log10_mse:.6g} "
                  f"after {self.epochs} epochs")
        return out


@dataclass
class ScanWorkload:
    """``scan`` of a seeded monotonic model, then of the Mooney-Rivlin law.

    One command per law, so that the reference loop brackets each law's
    scan rather than both together.
    """

    name: str
    why: str
    t_values: tuple
    lambda1: tuple
    lambda2: tuple
    directions: int
    model_nodes: int

    core = SCAN
    labels = ("scan_s", "points_per_s", "points")
    laws = ("scan_model", "mooney-rivlin")

    @property
    def points_per_law(self) -> int:
        return len(self.t_values) * self.lambda1[2] * self.lambda2[2]

    def generate(self, pkg, inputs, seed):
        nets = pkg["networks"]
        inputs.mkdir(parents=True, exist_ok=True)
        model = nets.build_model(nets.Architecture.MONOTONIC, self.model_nodes, 1,
                                 np.random.default_rng(seed))
        nets.save_model(model, inputs / "scan_model.json")

    def commands(self, inputs, out, seed):
        def grid(g):
            return f"{g[0]:g},{g[1]:g},{g[2]}"

        common = [
            "--t-values", ",".join(f"{v:g}" for v in self.t_values),
            "--lambda1", grid(self.lambda1), "--lambda2", grid(self.lambda2),
            "--directions", str(self.directions), "--seed", str(seed),
            "--out", str(out),
        ]
        return [
            ["scan", "--model", str(inputs / "scan_model.json"), *common],
            ["scan", "--law", "mooney-rivlin", *ORACLE[2:], *common],
        ]

    def observers(self, sink):
        sink["points"] = 0

        def on_scan(args, result):
            sink["points"] += len(result.points)

        return {SCAN: on_scan}

    def work_done(self, sink) -> float:
        return float(sink["points"])

    def operations(self, sink) -> int:
        return sink["points"]

    def check(self, pkg, checks, inputs, out, sink) -> int:
        """Known-answer checks on the written reports; returns the failed points."""
        failed_points = 0
        for stem in self.laws:
            report = json.loads((out / f"{stem}_report.json").read_text())
            errors = [p["error"] for p in report["points"] if p["error"] is not None]
            failed_points += len(errors)
            per = report["per_parameter"]
            checks.add(f"{stem}: point count", lambda: (
                len(report["points"]) == self.points_per_law,
                f"{len(report['points'])} vs {self.points_per_law}"))
            checks.add(f"{stem}: direction_count", lambda: (
                report["direction_count"] == self.directions,
                f"{report['direction_count']} vs {self.directions}"))
            checks.add(f"{stem}: no failed points",
                       lambda: (not errors, f"{errors[:3]}"))
            # the oracle is elliptic everywhere; a non-negative network is
            # monotonic in the invariants, whatever its weights
            keys = ["be_fraction", "mono_fraction"]
            if stem == "mooney-rivlin":
                keys.insert(0, "elliptic_fraction")
            checks.add(f"{stem}: {', '.join(keys)} all 1.0", lambda: (
                all(e[k] == 1.0 for e in per for k in keys),
                f"{[[e[k] for k in keys] for e in per]}"))
        return failed_points

    def microbench(self, pkg, inputs, seed) -> dict:
        return {}

    def layer_metrics(self, traced, untraced, micro) -> dict:
        spans = traced[-1]["spans"]
        points = float(traced[-1]["sink"]["points"])
        neural = float(self.points_per_law)
        evals = (2 * spans["stability.ellipticity_incompressible"].calls
                 + 3 * spans["stability.ellipticity_compressible"].calls)
        ms_per_point = _median([1e3 * p["core_s"] / p["work"] for p in untraced])
        print(f"stability.ms_per_point: {ms_per_point:.6g} ms "
              f"(ROADMAP: {ROADMAP_MS_PER_POINT:g} ms)")
        return {
            "constitutive.pk1_tangent.per_point":
                spans["constitutive.pk1_tangent"].calls / points,
            "kinematics.isochoric_invariants.per_point":
                spans["kinematics.isochoric_invariants"].calls / points,
            "kinematics.tensor_cross.per_point":
                spans["kinematics.tensor_cross"].calls / points,
            "networks.invariant_gradients_batch.per_point":
                spans["networks.invariant_gradients_batch"].calls / neural,
            "networks.invariant_hessians_batch.per_point":
                spans["networks.invariant_hessians_batch"].calls / neural,
            "stability.ms_per_point": ms_per_point,
            "stability.condition_evals": float(evals * self.directions),
            "stability.failed_points": float(traced[-1]["failed_ops"]),
        }


# Why each workload: see the ``why`` fields, mirrored in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        CalibrateWorkload(
            name="calibrate-acceptance",
            why="the tier-1 trained fixture at a reduced epoch budget: 60 samples, "
                "n=8, 5 sequential restarts each of monotonic and unrestricted_2hl",
            archs=("monotonic", "unrestricted_2hl"),
            nodes=8, restarts=5, epochs=200, stretches=20,
            params=(0.1, 0.5, 0.9), holdout=(0.3,),
        ),
        CalibrateWorkload(
            name="calibrate-wide",
            why="calibrate at n=32, 2 restarts, on 200 samples, once per architecture "
                "(all four): the arithmetic- and memory-bound regime of the 2-HL VJP",
            archs=ARCHS, nodes=32, restarts=2, epochs=50, stretches=40,
            params=(0.1, 0.3, 0.5, 0.7, 0.9), microbench_epochs=40,
        ),
        ScanWorkload(
            name="scan-grid",
            why="600 points x 200 directions, one scan each of a seeded network and "
                "the Mooney-Rivlin law: kinematics, constitutive, stability, report writes",
            t_values=(0.0, 0.5, 1.0),
            lambda1=(0.5, 3.0, 10), lambda2=(0.5, 3.0, 10),
            directions=200, model_nodes=8,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "command_s": "s",
    "work_per_s": "1/s",
    "peak_mem_mb": "MB",
}

# spans whose calls and self time are reported, by layer
TIMED_SPANS = {
    "networks": ("invariant_gradient_vjp", "invariant_gradients_batch",
                 "invariant_hessians_batch"),
    "calibration": ("calibrate", "loss_and_gradient", "adam_step"),
    "constitutive": ("pk1_tangent",),
    "kinematics": ("invariant_derivatives", "isochoric_invariants", "tensor_cross"),
    "stability": ("ellipticity_incompressible", "ellipticity_compressible",
                  "baker_ericksen_check", "scan_invariant_plane"),
}
PER_LAYER_UNITS = {
    **{f"{layer}.{fn}.{kind}": unit
       for layer, fns in TIMED_SPANS.items() for fn in fns
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    **{f"{name}.per_point": "count"
       for name in ("constitutive.pk1_tangent", "kinematics.isochoric_invariants",
                    "kinematics.tensor_cross", "networks.invariant_gradients_batch",
                    "networks.invariant_hessians_batch")},
    "networks.invariant_gradient_vjp.per_restart_epoch": "count",
    "networks.vjp_u_bytes": "computed_bytes",
    **{f"calibration.epoch_us.{arch}": "us" for arch in ARCHS},
    "calibration.restart_epochs": "count",
    "calibration.diverged_restarts": "count",
    "calibration.best_log10_mse": "log10_MPa2",
    "stability.ms_per_point": "ms",
    "stability.condition_evals": "count",
    "stability.failed_points": "count",
    "cli.write_ms": "ms",
    "cli.load_ms": "ms",
    "cli.bytes_written": "bytes",
    "trace_overhead": "ratio",
    "failed_fraction": "ratio",
}


# ---------------------------------------------------------------------------
# runner


def environment() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError, ValueError) as exc:  # informational only
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var)
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _os_threads():
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _import_seconds() -> tuple:
    """Time to import monopann in a fresh interpreter, which is waited for,
    and the reference loop's time in that interpreter right after.

    The child may run on another CPU than this process, at another speed,
    so its own loop time scales its import.  The loop runs twice there and
    the second time counts, because the first pays for cold caches.
    """
    code = (
        "import sys, time; t = time.perf_counter(); import monopann; "
        "s = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
        "from run import reference_s; reference_s(); print(s, reference_s())"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    import_s, reference = (float(v) for v in done.stdout.split()[-2:])
    return import_s, reference


def setup(pkg, workload, work: Path, seed: int, checks: Checks):
    """Set up ``SETUP_REPEATS`` times: import in a fresh interpreter, then
    generate and write the inputs.  Returns the first inputs, the raw times
    and the times scaled to reference speed."""
    times, scaled, digests = [], [], []
    for rep in range(SETUP_REPEATS):
        inputs = work / f"inputs{rep}"
        import_s, child_reference = _import_seconds()
        before = reference_s()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            workload.generate(pkg, inputs, seed)
        generate_s = time.perf_counter() - start
        times.append(import_s + generate_s)
        scaled.append(import_s * REFERENCE_S / child_reference
                      + scale_to_reference(generate_s, before, reference_s()))
        digests.append(_tree_digest(inputs))
        if rep:
            shutil.rmtree(inputs)
    checks.add("setup inputs identical across repetitions",
               lambda: (all(d == digests[0] for d in digests), ""))
    return work / "inputs0", times, scaled


class Runner:
    """One run of one workload: passes, checks and their tallies."""

    def __init__(self, pkg, workload, seed: int, work: Path):
        self.pkg = pkg
        self.workload = workload
        self.checks = Checks()
        self.operations = 0
        self.failed_operations = 0
        self.reference = None
        self.inputs, self.setup_raw, self.setup_times = setup(
            pkg, workload, work, seed, self.checks)
        self.out = work / "out"
        self.commands = workload.commands(self.inputs, self.out, seed)

    def run_pass(self, names) -> dict:
        """Run the workload's commands once with ``names`` wrapped, then check.

        The reference loop is timed before the first command and after each
        one, so that every command is bracketed by two loop times.
        """
        sink = {}
        tracer = Tracer(self.pkg, names, self.workload.observers(sink))
        core = tracer.spans[self.workload.core]
        codes, wall, core_s, scaled_wall, scaled_core = [], 0.0, 0.0, 0.0, 0.0
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            before = reference_s()
            for argv in self.commands:
                core_start = core.total_s
                start = time.perf_counter()
                codes.append(self.pkg["cli"].main(argv))
                elapsed = time.perf_counter() - start
                inside = core.total_s - core_start
                after = reference_s()
                wall += elapsed
                core_s += inside
                scaled_wall += scale_to_reference(elapsed, before, after)
                scaled_core += scale_to_reference(inside, before, after)
                before = after
        for argv, rc in zip(self.commands, codes):
            self.checks.add(f"{argv[0]} exit code", lambda: (rc == 0, f"exit {rc}"))
        failed_ops = self.workload.check(self.pkg, self.checks, self.inputs, self.out, sink)
        digest = _tree_digest(self.out)
        if self.reference is None:
            self.reference = digest
        self.checks.add("artifacts byte-identical to the first pass",
                        lambda: (digest == self.reference, ""))
        self.operations += self.workload.operations(sink)
        self.failed_operations += failed_ops
        return {
            "wall_s": wall,
            "core_s": core_s,
            "scaled_wall_s": scaled_wall,
            "scaled_core_s": scaled_core,
            "work": self.workload.work_done(sink),
            "sink": sink,
            "spans": tracer.spans,
            "failed_ops": failed_ops,
            "bytes": _tree_bytes(self.out),
        }

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks.results)

    @property
    def failed(self) -> int:
        return self.failed_operations + len(self.checks.failed)


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    pkg = _import_package()
    print("env " + json.dumps(environment(), sort_keys=True))
    print(NOTE)
    print(f"workload {workload.name}: {workload.why}")
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(pkg, workload, seed, work)
        probe = (workload.core,)
        runner.run_pass(probe)  # warm-up
        traced_names = public_functions(pkg)
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            untraced.append(runner.run_pass(probe))
            if trace:
                traced.append(runner.run_pass(traced_names))
            if time.perf_counter() - start >= seconds:
                break
        if trace:
            micro = workload.microbench(pkg, runner.inputs, seed)
            metrics = layer_metrics(workload, traced, untraced, micro, runner)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(workload, runner, untraced)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    checks = runner.checks
    for name, ok, detail in checks.results:
        if not ok:
            print(f"check FAILED: {name}: {detail}")
    print(f"checks: {len(checks.results) - len(checks.failed)}/{len(checks.results)} "
          f"passed; operations failed: {runner.failed}/{runner.attempted}")
    print(f"threads in this process: {_os_threads()} (nproc {os.cpu_count()})")
    return {
        "correct": not checks.failed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def end_to_end(workload, runner, passes) -> dict:
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    walls = [p["scaled_wall_s"] for p in passes]
    rates = [p["work"] / p["scaled_core_s"] for p in passes]
    command, rate, unit = workload.labels
    print(f"timings scaled to reference speed (REFERENCE_S {REFERENCE_S:g} s); raw ones after")
    print(f"setup_s: {summary(runner.setup_times, 's')}; "
          f"raw {summary(runner.setup_raw, 's')}")
    print(f"command_s ({command}): {summary(walls, 's')}; "
          f"raw {summary([p['wall_s'] for p in passes], 's')}")
    print(f"work_per_s ({rate}, {unit} per second inside {workload.core}): "
          f"{summary(rates, '1/s')}; "
          f"raw {summary([p['work'] / p['core_s'] for p in passes], '1/s')}")
    print(f"peak_mem_mb: {peak_mb:.6g} MB (peak resident set of this process)")
    return {
        "setup_s": _median(runner.setup_times),
        "command_s": _median(walls),
        "work_per_s": _median(rates),
        "peak_mem_mb": peak_mb,
    }


def layer_metrics(workload, traced, untraced, micro, runner) -> dict:
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    last = traced[-1]["spans"]
    for name in last:
        counts = {p["spans"][name].calls for p in traced}
        if len(counts) > 1:
            print(f"count varies between traced passes, so it is a timing: "
                  f"{name}.calls {sorted(counts)}")
    for layer, fns in TIMED_SPANS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            metrics[f"{name}.calls"] = float(last[name].calls)
            metrics[f"{name}.self_ms"] = 1e3 * _median(
                [p["spans"][name].self_s for p in traced])
    metrics["cli.write_ms"] = 1e3 * _median(
        [sum(p["spans"][n].total_s for n in WRITE_SPANS) for p in traced])
    metrics["cli.load_ms"] = 1e3 * _median(
        [sum(p["spans"][n].total_s for n in LOAD_SPANS) for p in traced])
    metrics["cli.bytes_written"] = float(traced[-1]["bytes"])
    plain = _median([p["scaled_wall_s"] for p in untraced])
    metrics["trace_overhead"] = _median([p["scaled_wall_s"] for p in traced]) / plain - 1.0
    metrics["failed_fraction"] = runner.failed / runner.attempted

    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
          f"trace_overhead {metrics['trace_overhead']:.4f}")
    print(f"{'span':44s} {'calls':>8s} {'self ms':>10s}  self us per call")
    for name, span in sorted(last.items(), key=lambda kv: -kv[1].self_s):
        if span.calls:
            per_call = summary([1e6 * s for s in span.self_samples], "us")
            print(f"{name:44s} {span.calls:8d} {1e3 * span.self_s:10.3f}  {per_call}")
    metrics.update(workload.layer_metrics(traced, untraced, micro))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
