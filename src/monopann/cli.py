"""Command-line pipeline: data synthesis, calibration, evaluation, scans.

Commands::

    gendata     synthesize uniaxial datasets from a closed-form law
    calibrate   fit a potential to dataset CSVs, write models and records
    evaluate    residual table and aggregate error on a dataset slice
    scan        material-stability scan over the invariant plane
    hyperparam  replay a node-count grid, tabulating error and sparsity
    report      stretch-stress curve exports and SVG plots

Every command takes ``--config`` (JSON file with defaults; explicit flags
win), ``--seed`` and ``--out``.  Given the same seed and inputs, every
command writes byte-identical artifacts.
"""

import argparse
import csv
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import calibration, constitutive, networks, plotting, stability
from .errors import MonopannError

__all__ = ["main"]

# documented default oracle: gentle positive cubics over the unit interval,
# so synthetic curves stay monotone-friendly
DEFAULT_C10 = "0,0,0.25,0.15"
DEFAULT_C01 = "0,0,0.05,0.03"
DEFAULT_C11 = "0,0,0.02,0"


def _floats(text) -> list:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v != ""]


def _grid(text) -> np.ndarray:
    values = _floats(text)
    if len(values) != 3:
        raise ValueError("grid must be min,max,count")
    if not np.all(np.isfinite(values[:2])):
        raise ValueError(f"grid bounds must be finite, got {values[0]:g},{values[1]:g}")
    return np.linspace(values[0], values[1], _whole(values[2], "grid count"))


def _whole(value: float, what: str) -> int:
    if not value.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value:g}")
    return int(value)


def _strings(text) -> list:
    if isinstance(text, (list, tuple)):
        return [str(v) for v in text]
    return [v for v in str(text).split(",") if v]


def _require(path) -> Path:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(path)
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    print(f"wrote {path}")
    return path


def _write_rows(path: Path, header: list, rows: list) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")
    return path


def _closed_form_law(name: str, args):
    """The closed-form law ``name`` with the coefficients given in ``args``."""
    if name == "neo-hookean":
        return constitutive.neo_hookean(args.c)
    if name == "mooney-rivlin":
        return constitutive.MooneyRivlin(
            _floats(args.c10_cubic), _floats(args.c01_cubic), _floats(args.c11_cubic)
        )
    raise ValueError(f"unknown closed-form law: {name}")


def cmd_gendata(args) -> int:
    out = _out_dir(args)
    law = _closed_form_law(args.oracle, args)
    lam = _grid(args.grid)
    params = _floats(args.params)
    rng = np.random.default_rng(args.seed) if args.noise > 0.0 else None
    full = calibration.generate_synthetic(
        law, lam, params, noise_std=args.noise, rng=rng,
        label=args.label, source=f"synthetic:{law.label}",
    )
    # one CSV per parameter value; sidecars share the family-wide bounds
    for value in params:
        mask = full.param_raw == value
        subset = calibration.Dataset(
            full.lam[mask], full.stress[mask], full.param_raw[mask],
            full.param_min, full.param_max, args.label, full.source,
        )
        path = out / f"{args.name}_p{value:g}.csv"
        calibration.save_dataset(subset, path)
        print(f"wrote {path}")
    return 0


def _load_data(args) -> calibration.Dataset:
    paths = [_require(p) for p in _strings(args.data)]
    dataset = calibration.load_datasets(paths)
    if args.holdout_params is not None:
        dataset = calibration.split_by_parameter(dataset, _floats(args.holdout_params))
    if args.max_calibration_stretch is not None:
        dataset = calibration.split_by_stretch(dataset, args.max_calibration_stretch)
    return dataset


def _train_config(args) -> calibration.TrainConfig:
    return calibration.TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, restarts=args.restarts,
        seed=args.seed,
    )


# the CalibrationRecord fields of a records CSV, in column order; csv
# writes a float as its repr
RECORD_HEADER = [
    "rank", "restart_index", "seed", "final_mse", "log10_mse", "epochs_run",
    "diverged", "learning_rate", "beta1", "beta2", "eps",
]


def cmd_calibrate(args) -> int:
    out = _out_dir(args)
    dataset = _load_data(args)
    config = _train_config(args)
    architecture = networks.Architecture(args.arch)
    results = calibration.calibrate(dataset, config, architecture, args.nodes)
    tag = args.tag or args.arch
    for model, record in results:
        path = out / f"{tag}_rank{record.rank}.json"
        networks.save_model(model, path)
        print(f"wrote {path}")
    _write_rows(out / f"{tag}_records.csv", RECORD_HEADER,
                [[getattr(r, k) for k in RECORD_HEADER] for _, r in results])
    best = results[0][1]
    print(f"best log10 MSE: {best.log10_mse:.4f} (restart {best.restart_index})")
    return 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    model = networks.load_model(_require(args.model))
    dataset = _load_data(args)
    report = calibration.evaluate(model, dataset, slice_=args.slice)
    rows = [
        [
            repr(r["lambda"]), repr(r["param_raw"]), repr(r["P_data"]),
            repr(r["P_model"]), repr(r["residual"]),
        ]
        for r in report.rows
    ]
    _write_rows(
        out / "residuals.csv",
        ["lambda", "param_raw", "P_data", "P_model", "residual"],
        rows,
    )
    metrics = {
        "count": len(report.rows),
        "defined": report.defined,
        "log10_mse": report.log10_mse,
        "mse": report.mse,
        "slice": args.slice,
    }
    _write(out / "metrics.json", json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return 0


def _scan_laws(args) -> dict:
    """The laws to scan, by the file stem of their reports.

    Raises ``MonopannError`` when two laws share a stem, whose reports would
    overwrite each other.
    """
    laws = []
    for path in _strings(args.model or ""):
        model = networks.load_model(_require(path))
        laws.append(constitutive.NeuralLaw(model, label=Path(path).stem))
    if args.law is not None:
        laws.append(_closed_form_law(args.law, args))
    if not laws:
        raise MonopannError("scan needs --model and/or --law")
    by_stem = {}
    for law in laws:
        stem = re.sub(r"[^\w.+-]+", "_", law.label).strip("_")
        if stem in by_stem:
            raise MonopannError(f"two scanned laws share the report stem '{stem}'")
        by_stem[stem] = law
    return by_stem


def cmd_scan(args) -> int:
    out = _out_dir(args)
    laws = _scan_laws(args)
    directions = stability.fibonacci_directions(args.directions)
    t_grid = [[v] for v in _floats(args.t_values)]
    lam1 = _grid(args.lambda1)
    lam2 = _grid(args.lambda2)
    summaries = []
    for stem, law in laws.items():
        report = stability.scan_invariant_plane(law, t_grid, lam1, lam2, directions)
        stability.write_report_json(report, out / f"{stem}_report.json")
        print(f"wrote {out / (stem + '_report.json')}")
        stability.write_summary_csv(report, out / f"{stem}_summary.csv")
        print(f"wrote {out / (stem + '_summary.csv')}")
        for entry in report.per_parameter:
            summaries.append([law.label, entry])
        print(f"{law.label}: elliptic fraction {report.elliptic_fraction():.4f}")
    if len(laws) > 1:
        # a row whose points all failed has no fractions (None), written nan
        fractions = list(stability._FRACTIONS)
        rows = [
            [
                label,
                constitutive._format_params(entry["t"]),
                *("nan" if entry[key] is None else repr(entry[key]) for key in fractions),
            ]
            for label, entry in summaries
        ]
        _write_rows(out / "comparison.csv", ["law", "t", *fractions], rows)
    return 0


def cmd_hyperparam(args) -> int:
    out = _out_dir(args)
    dataset = _load_data(args)
    config = _train_config(args)
    node_counts = [_whole(v, "node count") for v in _floats(args.nodes)]
    mse_rows, sparsity_rows = [], []
    for arch_name in _strings(args.archs):
        architecture = networks.Architecture(arch_name)
        for nodes in node_counts:
            results = calibration.calibrate(dataset, config, architecture, nodes)
            model, record = results[0]
            nonzero, total = networks.sparsity(model)
            mse_rows.append(
                [arch_name, nodes, repr(record.final_mse), repr(record.log10_mse)]
            )
            sparsity_rows.append(
                [arch_name, nodes, nonzero, total, repr(nonzero / total)]
            )
            print(
                f"{arch_name} n={nodes}: log10 MSE {record.log10_mse:.3f}, "
                f"nonzero {nonzero}/{total}"
            )
    _write_rows(out / "mse_vs_nodes.csv",
                ["architecture", "nodes", "final_mse", "log10_mse"], mse_rows)
    _write_rows(out / "sparsity_vs_nodes.csv",
                ["architecture", "nodes", "nonzero", "total", "fraction"],
                sparsity_rows)
    return 0


def cmd_report(args) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    out = _out_dir(args)
    model = networks.load_model(_require(args.model))
    dataset = _load_data(args)
    stem = Path(args.model).stem
    series = []
    for value in np.unique(dataset.param_raw):
        mask = dataset.param_raw == value
        lam_data = dataset.lam[mask]
        p_data = dataset.stress[mask]
        t = dataset.params_normalized(np.array([value]))[0]
        p_model = constitutive.uniaxial_stress(model, lam_data, t)
        path = out / f"{stem}_curve_p{value:g}.csv"
        constitutive.write_curve_csv(path, lam_data, p_model, p_data, t)
        print(f"wrote {path}")
        lam_dense = np.linspace(lam_data.min(), lam_data.max(), args.points)
        p_dense = constitutive.uniaxial_stress(model, lam_dense, t)
        series.append(plotting.Series(lam_data, p_data, f"data p={value:g}", markers=True))
        series.append(plotting.Series(lam_dense, p_dense, f"model p={value:g}"))
    svg = plotting.line_chart(
        series, title=stem, xlabel="stretch", ylabel="stress in MPa"
    )
    _write(out / f"{stem}_curves.svg", svg)
    return 0


# ---------------------------------------------------------------------------
# parser


def _common(p) -> None:
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")


def _split(p) -> None:
    p.add_argument("--holdout-params", default=None,
                   help="raw parameter values moved to the test split")
    p.add_argument("--max-calibration-stretch", type=float, default=None)


def _train(p) -> None:
    p.add_argument("--epochs", type=int, default=20000)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--lr", type=float, default=2e-3)


def _coefficients(p) -> None:
    p.add_argument("--c", type=float, default=0.5, help="neo-hookean coefficient")
    p.add_argument("--c10-cubic", default=DEFAULT_C10,
                   help="a,b,c,d for a*G^3+b*G^2+c*G+d in MPa")
    p.add_argument("--c01-cubic", default=DEFAULT_C01)
    p.add_argument("--c11-cubic", default=DEFAULT_C11)


def _gendata_arguments(p) -> None:
    _common(p)
    _coefficients(p)
    p.add_argument("--oracle", choices=["mooney-rivlin", "neo-hookean"],
                   default="mooney-rivlin")
    p.add_argument("--grid", default="1.0,2.0,20", help="lambda_min,lambda_max,n")
    p.add_argument("--params", default="0.1,0.5,0.9", help="raw parameter values")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--label", default="synthetic")
    p.add_argument("--name", default="dataset", help="output file stem")
    p.set_defaults(handler=cmd_gendata)


def _calibrate_arguments(p) -> None:
    _common(p)
    _split(p)
    _train(p)
    p.add_argument("--data", required=True, help="dataset CSV path(s), comma separated")
    p.add_argument("--arch", default="monotonic",
                   choices=[a.value for a in networks.Architecture])
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--tag", default=None, help="output file prefix")
    p.set_defaults(handler=cmd_calibrate)


def _evaluate_arguments(p) -> None:
    _common(p)
    _split(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--slice", choices=["test", "calibration"], default="test")
    p.set_defaults(handler=cmd_evaluate)


def _scan_arguments(p) -> None:
    _common(p)
    _coefficients(p)
    p.add_argument("--model", default=None, help="model JSON path(s), comma separated")
    p.add_argument("--law", choices=["neo-hookean", "mooney-rivlin"], default=None)
    p.add_argument("--t-values", default="0,0.5,1")
    p.add_argument("--lambda1", default="0.5,3.0,8")
    p.add_argument("--lambda2", default="0.5,3.0,8")
    p.add_argument("--directions", type=int, default=200)
    p.set_defaults(handler=cmd_scan)


def _hyperparam_arguments(p) -> None:
    _common(p)
    _split(p)
    _train(p)
    p.add_argument("--data", required=True)
    p.add_argument("--archs", default="monotonic,unrestricted_2hl,unrestricted_1hl")
    p.add_argument("--nodes", default="2,4,8,16,32,64")
    p.set_defaults(handler=cmd_hyperparam)


def _report_arguments(p) -> None:
    _common(p)
    _split(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--points", type=int, default=101, help="dense curve resolution")
    p.set_defaults(handler=cmd_report)


# every command, in the order of the usage line: its help and the function
# that adds its arguments to its subparser
_COMMANDS = {
    "gendata": ("synthesize datasets", _gendata_arguments),
    "calibrate": ("fit a potential", _calibrate_arguments),
    "evaluate": ("residuals on a slice", _evaluate_arguments),
    "scan": ("material-stability scan", _scan_arguments),
    "hyperparam": ("node-count grid: error and sparsity tables", _hyperparam_arguments),
    "report": ("curve exports and plots", _report_arguments),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given the name of one, the parser of
    that command alone.

    The one-command parser gets the metavar that ``argparse`` would write
    for all six commands, so its usage line names every command.  Help,
    usage and error output then do not depend on which parser ``main``
    built: an argument list that starts with a command's name can fail only
    in that command's subparser or with unrecognized arguments, whose
    message shows the usage line.  The full parser keeps no metavar, since
    its errors name the subcommand argument ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="monopann",
        description="parametrized hyperelastic potentials: calibration and stability",
    )
    if command in _COMMANDS:
        names, metavar = [command], "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = list(_COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Make the values in the ``--config`` file the defaults of the command.

    A value for an option with a ``type`` becomes a string default, which
    ``argparse`` converts with that type as it converts a flag's value:
    ``directions: 7.5`` fails as ``--directions 7.5`` does, where a number
    default would be taken as it is.  A null value stays None, the default
    of no value, and a value for an option without a type stays as it is,
    so that a JSON list can give ``params``, ``t_values`` or ``archs``.
    A config that is not valid JSON or not a JSON object, or whose entry for
    a command is not a JSON object, raises ``ValueError`` naming the file.
    """
    try:
        config = json.loads(_require(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: config is not a JSON object")
    for name in _COMMANDS:
        if not isinstance(config.get(name, {}), dict):
            raise ValueError(f"{args.config}: config entry '{name}' is not a JSON object")
    merged = {k: v for k, v in config.items() if not isinstance(v, dict)}
    merged.update(config.get(args.command, {}))
    for action in parser._subparsers._group_actions:
        sub = action.choices[args.command]
        types = {a.dest: a.type for a in sub._actions}
        sub.set_defaults(**{k: v if v is None or types[k] is None else str(v)
                            for k, v in merged.items() if k in types})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a parser for the named command only, since one main() runs one command
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # config supplies defaults; explicit flags still win when reparsed
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return 2
    except (MonopannError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
