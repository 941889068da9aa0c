import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from monopann import calibration, cli, constitutive
from monopann.cli import main
from monopann.networks import Architecture, build_model, save_model

PAPER_STYLE_C10 = "114.3,-207.3,23.99,-1.143"


def run(*argv):
    return main([str(a) for a in argv])


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestGendata:
    def test_neo_hookean_single_curve(self, tmp_path):
        out = tmp_path / "data"
        assert run(
            "gendata", "--oracle", "neo-hookean", "--c", "0.5",
            "--grid", "1.0,2.0,20", "--params", "0.5", "--out", out,
        ) == 0
        header, rows = read_csv(out / "dataset_p0.5.csv")
        assert header == ["lambda", "stress_mpa", "param_raw"]
        assert len(rows) == 20
        assert float(rows[0][0]) == 1.0 and float(rows[0][1]) == 0.0

    def test_negative_first_coefficient_visible_in_slope(self, tmp_path):
        out = tmp_path / "data"
        assert run(
            "gendata", "--oracle", "mooney-rivlin",
            "--c10-cubic", PAPER_STYLE_C10, "--c01-cubic", "0",
            "--c11-cubic", "0", "--grid", "1.0,1.02,11",
            "--params", "0.1", "--out", out, "--name", "gs",
        ) == 0
        _, rows = read_csv(out / "gs_p0.1.csv")
        # c10(0.1) = -0.7027 MPa, so the tension curve starts with negative slope
        assert float(rows[1][1]) < 0.0
        slope = float(rows[1][1]) / (float(rows[1][0]) - 1.0)
        assert slope == pytest.approx(6.0 * -0.7027, rel=1e-2)

    def test_two_parameter_values_two_files(self, tmp_path):
        out = tmp_path / "data"
        assert run(
            "gendata", "--grid", "1.0,2.0,5", "--params", "0.2,0.8", "--out", out,
        ) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["dataset_p0.2.csv", "dataset_p0.8.csv"]
        # sidecars share the family-wide normalization bounds
        for sidecar in out.glob("*.json"):
            doc = json.loads(sidecar.read_text())
            assert doc["param_min"] == 0.2 and doc["param_max"] == 0.8

    @pytest.mark.parametrize("params, pair", [
        ("0.1,0.10000001,0.5", "0.1 and 0.10000001"),
        ("0.1,0.1", "0.1 and 0.1"),
    ], ids=["alike", "equal"])
    def test_parameter_values_sharing_a_file_rejected(self, tmp_path, capsys, params, pair):
        # their files would overwrite each other: nothing is written
        out = tmp_path / "data"
        assert run("gendata", "--grid", "1,2,5", "--params", params, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: parameter values {pair} share the file {out / 'dataset_p0.1.csv'}" in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_bad_noise_level_rejected(self, tmp_path, capsys, noise):
        # a negative or NaN level would otherwise give noise-free data
        out = tmp_path / "data"
        assert run(
            "gendata", "--grid", "1.0,2.0,5", "--params", "0.5",
            f"--noise={noise}", "--out", out,
        ) == 1
        assert "noise level must be finite and >= 0" in capsys.readouterr().err
        assert not list(out.glob("*"))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(
        "gendata", "--grid", "1.0,2.0,10", "--params", "0.1,0.9", "--out", out,
    ) == 0
    return [out / "dataset_p0.1.csv", out / "dataset_p0.9.csv"]


def data_arg(paths):
    return ",".join(str(p) for p in paths)


class TestCalibrate:
    def test_zero_epochs_writes_model_and_record(self, tmp_path, small_dataset):
        out = tmp_path / "models"
        assert run(
            "calibrate", "--data", data_arg(small_dataset), "--arch", "monotonic",
            "--nodes", 4, "--epochs", 0, "--restarts", 1, "--seed", 1, "--out", out,
        ) == 0
        assert (out / "monotonic_rank0.json").exists()
        header, rows = read_csv(out / "monotonic_records.csv")
        assert header[0] == "rank" and len(rows) == 1
        assert rows[0][6] == "False"  # not diverged

    @pytest.mark.parametrize("sidecar, message", [
        ({"material_label": "x"}, "sidecar has no param_min, param_max"),
        ({"param_min": 0.1}, "sidecar has no param_max"),
        ([0.1, 0.9], "sidecar is not a JSON object"),
        ({"param_min": "a", "param_max": 1}, 'param_min is not a finite number: "a"'),
        ({"param_min": None, "param_max": 1}, "param_min is not a finite number: null"),
        ({"param_min": 0, "param_max": True}, "param_max is not a finite number: true"),
        ({"param_min": 0, "param_max": [1]}, "param_max is not a finite number: [1]"),
        ({"param_min": float("nan"), "param_max": 1},
         "param_min is not a finite number: NaN"),
        ({"param_min": 0.8, "param_max": 0.2}, "param_min 0.8 exceeds param_max 0.2"),
    ], ids=["no-bounds", "no-max", "list", "string-min", "null-min", "bool-max",
            "list-max", "nan-min", "swapped"])
    def test_bad_sidecar_rejected(self, tmp_path, small_dataset, capsys, sidecar,
                                  message):
        data = tmp_path / "data.csv"
        data.write_text(small_dataset[0].read_text())
        data.with_suffix(".json").write_text(json.dumps(sidecar))
        out = tmp_path / "models"
        assert run("calibrate", "--data", data, "--epochs", 0, "--restarts", 1,
                   "--out", out) == 1
        assert f"error: {data.with_suffix('.json')}: {message}" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_sidecar_not_json_rejected(self, tmp_path, small_dataset, capsys):
        data = tmp_path / "data.csv"
        data.write_text(small_dataset[0].read_text())
        data.with_suffix(".json").write_text("{")
        out = tmp_path / "models"
        assert run("calibrate", "--data", data, "--epochs", 0, "--restarts", 1,
                   "--out", out) == 1
        assert (f"error: {data.with_suffix('.json')}: Expecting property name"
                in capsys.readouterr().err)
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, tmp_path, small_dataset, lr,
                                               capsys):
        out = tmp_path / "models"
        assert run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 5, "--restarts", 2, "--lr", lr, "--out", out,
        ) == 1
        assert "learning rate" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_zero_stretch_threshold_holds_out_everything(self, tmp_path,
                                                          small_dataset, capsys):
        # 0 is a threshold like any other: every sample lies beyond it
        out = tmp_path / "models"
        assert run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 5, "--restarts", 1, "--max-calibration-stretch", 0,
            "--out", out,
        ) == 1
        assert "calibration slice is empty" in capsys.readouterr().err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_stretch_threshold_rejected(self, tmp_path, small_dataset,
                                                   threshold, capsys):
        out = tmp_path / "models"
        assert run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 5, "--restarts", 1, "--max-calibration-stretch",
            threshold, "--out", out,
        ) == 1
        assert "finite" in capsys.readouterr().err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("value, message", [("nan", "finite"),
                                                ("0.42", "match no sample")])
    def test_holdout_value_that_holds_out_nothing_rejected(
        self, tmp_path, small_dataset, value, message, capsys
    ):
        out = tmp_path / "models"
        assert run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 5, "--restarts", 1, "--holdout-params", value,
            "--out", out,
        ) == 1
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.json"))

    def test_holdout_split_evaluated(self, tmp_path, small_dataset):
        models = tmp_path / "models"
        assert run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 200, "--restarts", 1, "--seed", 1,
            "--holdout-params", "0.9", "--out", models,
        ) == 0
        ev = tmp_path / "eval"
        assert run(
            "evaluate", "--model", models / "monotonic_rank0.json",
            "--data", data_arg(small_dataset), "--holdout-params", "0.9",
            "--out", ev,
        ) == 0
        metrics = json.loads((ev / "metrics.json").read_text())
        assert metrics["defined"] and metrics["count"] == 10

    def test_empty_test_slice_flagged(self, tmp_path, small_dataset):
        models = tmp_path / "models"
        run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 0, "--restarts", 1, "--out", models,
        )
        ev = tmp_path / "eval"
        assert run(
            "evaluate", "--model", models / "monotonic_rank0.json",
            "--data", data_arg(small_dataset), "--out", ev,
        ) == 0
        metrics = json.loads((ev / "metrics.json").read_text())
        assert metrics["defined"] is False and metrics["mse"] is None


class TestScan:
    def test_neo_hookean_fraction_one(self, tmp_path):
        out = tmp_path / "scan"
        assert run(
            "scan", "--law", "neo-hookean", "--c", "0.5", "--t-values", "0",
            "--lambda1", "0.6,2.0,4", "--lambda2", "0.6,2.0,4",
            "--directions", 64, "--out", out,
        ) == 0
        report = json.loads((out / "neo-hookean_c_0.5_report.json").read_text())
        assert report["per_parameter"][0]["elliptic_fraction"] == 1.0
        header, rows = read_csv(out / "neo-hookean_c_0.5_summary.csv")
        assert header == ["t", "lambda1", "lambda2", "i1", "i2", "elliptic",
                          "min_value", "be_ok"]
        assert all(row[5] == "true" for row in rows)

    def test_fractional_grid_count_rejected(self, tmp_path, capsys):
        # int(2.5) would silently scan 2 values
        out = tmp_path / "scan"
        assert run(
            "scan", "--law", "neo-hookean", "--c", "0.5", "--t-values", "0",
            "--lambda1", "0.5,3.0,2.5", "--lambda2", "0.6,2.0,4",
            "--directions", 8, "--out", out,
        ) == 1
        assert "whole number" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_non_finite_grid_bound_rejected(self, tmp_path, capsys, recwarn):
        out = tmp_path / "scan"
        assert run(
            "scan", "--law", "neo-hookean", "--t-values", "0",
            "--lambda1", "0.5,inf,3", "--lambda2", "0.6,2.0,4",
            "--directions", 8, "--out", out,
        ) == 1
        assert "grid bounds must be finite" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not list(out.glob("*"))

    def test_non_finite_parameter_row_rejected(self, tmp_path, capsys):
        # its points would all fail, and its t would be a bare NaN in the JSON
        out = tmp_path / "scan"
        assert run(
            "scan", "--law", "neo-hookean", "--t-values", "nan,0.5",
            "--lambda1", "0.6,2.0,4", "--lambda2", "0.6,2.0,4",
            "--directions", 8, "--out", out,
        ) == 1
        assert "error: parameter row 0 is not finite: [nan]" in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("lambda1,lambda2,reasons", [
        # 1/(l1 l2) overflows at (1e-160, 1e-160); |F|^2 elsewhere on the edges
        ("1e-160,1,3", "1e-160,1,2", {
            (1e-160, 1e-160): "det F = inf is not finite and positive",
            (1e-160, 1.0): "isochoric invariants not finite: I1 = inf, I2 = inf",
            (0.5, 1e-160): "isochoric invariants not finite: I1 = inf, I2 = inf",
            (1.0, 1e-160): "isochoric invariants not finite: I1 = inf, I2 = inf",
        }),
        ("1e-200,1,3", "0.5,1,2", {
            (1e-200, 0.5): "isochoric invariants not finite: I1 = inf, I2 = inf",
            (1e-200, 1.0): "isochoric invariants not finite: I1 = inf, I2 = inf",
        }),
    ])
    def test_overflowing_points_fail_alone(self, tmp_path, recwarn, lambda1, lambda2,
                                           reasons):
        out = tmp_path / "scan"
        assert run(
            "scan", "--law", "neo-hookean", "--c", "0.5", "--t-values", "0,1",
            "--lambda1", lambda1, "--lambda2", lambda2,
            "--directions", 16, "--out", out,
        ) == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        report = json.loads((out / "neo-hookean_c_0.5_report.json").read_text())
        assert len(report["points"]) == 12
        for p in report["points"]:
            reason = reasons.get((p["lambda1"], p["lambda2"]))
            assert p["error"] == reason
            assert (p["i1"] is None) == (reason is not None)
            assert p["elliptic"] == (reason is None)
        assert [r["failed_points"] for r in report["per_parameter"]] == [len(reasons)] * 2
        # the region spans the evaluated points only
        assert report["region"]["i1"][0] == 3.0 < report["region"]["i1"][1] < 20.0

    def test_duplicate_report_stem_rejected(self, tmp_path, small_dataset, capsys):
        for name in ("a", "b"):
            assert run(
                "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
                "--epochs", 0, "--restarts", 1, "--out", tmp_path / name,
            ) == 0
        out = tmp_path / "scan"
        assert run(
            "scan", "--model",
            f"{tmp_path / 'a' / 'monotonic_rank0.json'},"
            f"{tmp_path / 'b' / 'monotonic_rank0.json'}",
            "--t-values", "0", "--lambda1", "0.8,1.5,3", "--lambda2", "0.8,1.5,3",
            "--directions", 8, "--out", out,
        ) == 1
        assert "'monotonic_rank0'" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_missing_model_exits_with_file_not_found(self, tmp_path, capsys):
        code = run("scan", "--model", tmp_path / "absent.json", "--out", tmp_path)
        assert code == 2
        assert "FileNotFound" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit, message", [
        ("scan", None, "layer 1: non-finite value in 'w'"),
        ("evaluate", None, "layer 1: non-finite value in 'w'"),
        ("scan", lambda text: "[1, 2]", "model document is not a JSON object"),
        ("evaluate", lambda text: "[1, 2]", "model document is not a JSON object"),
        ("scan", lambda text: text.replace('"tanh"', '"relu"', 1),
         "'relu' is not a valid Activation"),
    ], ids=["scan", "evaluate", "scan-not-an-object", "evaluate-not-an-object",
            "scan-unknown-activation"])
    def test_non_finite_model_weight_rejected(self, tmp_path, small_dataset, command,
                                              edit, message, capsys):
        # the model file holds a NaN weight, or its text passed through
        # ``edit``; the error names the file
        model = build_model(Architecture.MONOTONIC, 4, 1, np.random.default_rng(0))
        model.layers[1].weights[2, 0] = np.nan
        path = tmp_path / "net.json"
        save_model(model, path)
        if edit is not None:
            path.write_text(edit(path.read_text()))
        out = tmp_path / "out"
        args = (["--t-values", "0", "--lambda1", "0.8,1.5,3", "--lambda2", "0.8,1.5,3"]
                if command == "scan" else ["--data", data_arg(small_dataset)])
        assert run(command, "--model", path, *args, "--out", out) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_two_laws_comparison_csv(self, tmp_path, small_dataset):
        models = tmp_path / "models"
        run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 100, "--restarts", 1, "--out", models,
        )
        out = tmp_path / "scan"
        assert run(
            "scan", "--model", models / "monotonic_rank0.json",
            "--law", "neo-hookean", "--t-values", "0,1",
            "--lambda1", "0.8,1.5,3", "--lambda2", "0.8,1.5,3",
            "--directions", 32, "--out", out,
        ) == 0
        header, rows = read_csv(out / "comparison.csv")
        assert header[0] == "law" and len(rows) == 4  # 2 laws x 2 t values

    def test_all_failed_rows_have_no_fractions(self, tmp_path):
        # |F|^2 overflows at every point, so every point fails in every row
        model = build_model(Architecture.MONOTONIC, 4, 1, np.random.default_rng(0))
        save_model(model, tmp_path / "net.json")
        out = tmp_path / "scan"
        assert run(
            "scan", "--model", tmp_path / "net.json", "--law", "neo-hookean",
            "--t-values", "0,1", "--lambda1", "1e-200,1e-200,1",
            "--lambda2", "0.5,1,2", "--directions", 8, "--out", out,
        ) == 0
        fractions = ["elliptic_fraction", "compressible_fraction", "be_fraction",
                     "mono_fraction"]
        for stem in ("net", "neo-hookean_c_0.5"):
            report = json.loads((out / f"{stem}_report.json").read_text())
            for entry in report["per_parameter"]:
                assert entry["failed_points"] == entry["points"] == 2
                assert [entry[key] for key in fractions] == [None] * 4
        header, rows = read_csv(out / "comparison.csv")
        assert header[2:] == fractions
        assert [row[2:] for row in rows] == [["nan"] * 4] * 4


class TestHyperparam:
    def test_single_node_grid(self, tmp_path, small_dataset):
        out = tmp_path / "hp"
        assert run(
            "hyperparam", "--data", data_arg(small_dataset),
            "--archs", "unrestricted_2hl", "--nodes", "4",
            "--epochs", 100, "--restarts", 1, "--out", out,
        ) == 0
        header, rows = read_csv(out / "mse_vs_nodes.csv")
        assert len(rows) == 1
        header, rows = read_csv(out / "sparsity_vs_nodes.csv")
        # free continuous weights never hit exactly zero
        assert len(rows) == 1
        nonzero, total = int(rows[0][2]), int(rows[0][3])
        assert nonzero == total

    def test_fractional_node_count_rejected(self, tmp_path, capsys, small_dataset):
        # int(2.5) would silently train n = 2
        out = tmp_path / "hp"
        assert run(
            "hyperparam", "--data", data_arg(small_dataset),
            "--archs", "monotonic", "--nodes", "4,2.5",
            "--epochs", 10, "--restarts", 1, "--out", out,
        ) == 1
        assert "node count must be a whole number, got 2.5" in capsys.readouterr().err
        assert not list(out.glob("*"))


class TestReport:
    def test_curve_files_and_svg(self, tmp_path, small_dataset):
        models = tmp_path / "models"
        run(
            "calibrate", "--data", data_arg(small_dataset), "--nodes", 4,
            "--epochs", 100, "--restarts", 1, "--out", models,
        )
        out = tmp_path / "report"
        assert run(
            "report", "--model", models / "monotonic_rank0.json",
            "--data", data_arg(small_dataset), "--out", out,
        ) == 0
        curves = sorted(p.name for p in out.glob("*.csv"))
        assert curves == [
            "monotonic_rank0_curve_p0.1.csv",
            "monotonic_rank0_curve_p0.9.csv",
        ]
        svg = (out / "monotonic_rank0_curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_parameter_values_sharing_a_file_rejected(self, tmp_path, capsys):
        # raw values 0.1 and 0.10000001 would write one curve file and one
        # series label twice: nothing is written
        law = constitutive.neo_hookean(0.5)
        data = tmp_path / "data.csv"
        calibration.save_dataset(calibration.generate_synthetic(
            law, np.linspace(1.0, 2.0, 5), [0.1, 0.10000001, 0.9]), data)
        model = tmp_path / "net.json"
        save_model(build_model(Architecture.MONOTONIC, 4, 1, np.random.default_rng(0)), model)
        out = tmp_path / "report"
        assert run("report", "--model", model, "--data", data, "--out", out) == 1
        err = capsys.readouterr().err
        assert ("error: parameter values 0.1 and 0.10000001 share the file "
                f"{out / 'net_curve_p0.1.csv'}") in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("points", [0, 1])
    def test_fewer_than_two_points_rejected(self, tmp_path, small_dataset, capsys,
                                            points):
        out = tmp_path / "report"
        assert run(
            "report", "--model", tmp_path / "model.json",
            "--data", data_arg(small_dataset), "--points", points, "--out", out,
        ) == 1
        assert f"--points must be at least 2, got {points}" in capsys.readouterr().err
        assert not out.exists()


class TestConfigAndDeterminism:
    def test_config_defaults_with_cli_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "gendata": {"grid": "1.0,2.0,7", "params": "0.3", "name": "cfg"},
        }))
        out = tmp_path / "data"
        assert run(
            "gendata", "--config", config, "--out", out, "--params", "0.6",
        ) == 0
        # grid/name come from the config, params from the explicit flag
        _, rows = read_csv(out / "cfg_p0.6.csv")
        assert len(rows) == 7

    def test_config_given_with_equals_sign(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"scan": {"directions": 7}}))
        out = tmp_path / "scan"
        assert run(
            "scan", "--law", "neo-hookean", f"--config={config}", "--t-values", "0.5",
            "--lambda1", "0.8,1.6,2", "--lambda2", "0.8,1.6,2", "--out", out,
        ) == 0
        (path,) = out.glob("*_report.json")
        assert json.loads(path.read_text())["direction_count"] == 7

    @pytest.mark.parametrize("argv, option, value", [
        (("scan", "--law", "neo-hookean"), "directions", 7.5),
        (("calibrate", "--data", "data.csv"), "epochs", 10.5),
        (("calibrate", "--data", "data.csv"), "restarts", 2.5),
        (("calibrate", "--data", "data.csv"), "nodes", 4.5),
        (("report", "--model", "model.json", "--data", "data.csv"), "points", 50.5),
    ])
    def test_config_value_fails_as_the_flag_does(self, argv, option, value, tmp_path,
                                                 capsys):
        # a non-integral number for an integer option: the parser rejects it
        # with exit code 2, from the config file as from the flag
        config = tmp_path / "c.json"
        config.write_text(json.dumps({argv[0]: {option: value}}))
        out = ["--out", tmp_path / "out"]
        flag = outcome([*argv, f"--{option}", str(value), *out], capsys)
        assert flag[0] == 2 and f"invalid int value: '{value}'" in flag[2]
        assert outcome([*argv, "--config", config, *out], capsys) == flag
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, lists", [
        (("gendata", "--grid", "1.0,2.0,5"), {"params": [0.1, 0.5, 0.9]}),
        (("scan", "--law", "neo-hookean", "--lambda1", "0.8,1.6,2",
          "--lambda2", "0.8,1.6,2", "--directions", 16), {"t_values": [0, 0.5, 1]}),
        (("hyperparam", "--epochs", 20, "--restarts", 1),
         {"archs": ["monotonic"], "nodes": [2, 4]}),
    ])
    def test_config_list_matches_the_comma_flag(self, argv, lists, tmp_path, small_dataset):
        # an option without a type takes a JSON list from the config file as
        # it takes the comma-separated flag
        if argv[0] == "hyperparam":
            argv += ("--data", data_arg(small_dataset))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({argv[0]: lists}))
        flags = [a for k, v in lists.items()
                 for a in (f"--{k.replace('_', '-')}", ",".join(map(str, v)))]
        assert run(*argv, *flags, "--out", tmp_path / "flag") == 0
        assert run(*argv, "--config", config, "--out", tmp_path / "config") == 0
        digest = tree_digest(tmp_path / "flag")
        assert digest and tree_digest(tmp_path / "config") == digest

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "config is not a JSON object"),
        ({"calibrate": 3}, "config entry 'calibrate' is not a JSON object"),
    ], ids=["list", "number-entry"])
    def test_config_not_an_object_rejected(self, config, message, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run("calibrate", "--data", "data.csv", "--config", path, "--out", out) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{")
        out = tmp_path / "out"
        assert run("calibrate", "--data", "data.csv", "--config", path, "--out", out) == 1
        assert f"error: {path}: Expecting property name" in capsys.readouterr().err
        assert not out.exists()

    def test_config_without_path_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("scan", "--law", "neo-hookean", "--out", tmp_path, "--config")
        assert exc.value.code == 2
        assert "argument --config: expected one argument" in capsys.readouterr().err
        assert run("scan", "--law", "neo-hookean", "--out", tmp_path, "--config=") == 2
        assert "FileNotFound" in capsys.readouterr().err

    def test_generator_option_is_gone(self, tmp_path, capsys):
        # the directions are Fibonacci lattice points, and no option picks others
        with pytest.raises(SystemExit) as exc:
            run("scan", "--law", "neo-hookean", "--generator", "spherical_grid",
                "--out", tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments: --generator" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, small_dataset):
        digests = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            run("gendata", "--grid", "1.0,2.0,6", "--params", "0.2,0.7",
                "--out", root / "data", "--seed", 5)
            run("calibrate", "--data",
                data_arg([root / "data" / "dataset_p0.2.csv",
                          root / "data" / "dataset_p0.7.csv"]),
                "--nodes", 4, "--epochs", 150, "--restarts", 2, "--seed", 5,
                "--out", root / "models")
            run("scan", "--model", root / "models" / "monotonic_rank0.json",
                "--t-values", "0,1", "--lambda1", "0.8,1.6,3",
                "--lambda2", "0.8,1.6,3", "--directions", 32,
                "--out", root / "scan", "--seed", 5)
            run("report", "--model", root / "models" / "monotonic_rank0.json",
                "--data", data_arg([root / "data" / "dataset_p0.2.csv",
                                    root / "data" / "dataset_p0.7.csv"]),
                "--out", root / "report", "--seed", 5)
            digests.append(tree_digest(root))
        assert digests[0] == digests[1]


COMMANDS = ("gendata", "calibrate", "evaluate", "scan", "hyperparam", "report")
SCAN = ("scan", "--law", "neo-hookean", "--t-values", "0.5", "--lambda1", "0.8,1.6,2",
        "--lambda2", "0.8,1.6,2", "--directions", "8")


def outcome(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    """``main`` builds only the invoked command's subparser; what it prints
    and returns must be what the parser of every command gives."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "scan": {"directions": 12}}))
        return path

    @pytest.mark.parametrize("argv", [
        ["--help"],
        *([command, "--help"] for command in COMMANDS),
        ["bogus"],
        [*SCAN, "--bogus"],
        ["scan", "--law", "neo-hookean", "--directions", "x"],
        [*SCAN, "--config", "CONFIG"],
    ], ids=" ".join)
    def test_output_matches_full_parser(self, argv, config, tmp_path, capsys,
                                        monkeypatch):
        argv = [config if a == "CONFIG" else a for a in argv]
        if argv[0] == "scan":
            argv += ["--out", tmp_path / "scan"]
        own = outcome(argv, capsys)
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
        assert outcome(argv, capsys) == own

    def test_config_sets_the_defaults(self, config, tmp_path):
        out = tmp_path / "scan"
        assert run(*SCAN[:-2], "--config", config, "--out", out) == 0
        (path,) = out.glob("*_report.json")
        assert json.loads(path.read_text())["direction_count"] == 12

    def test_usage_line_names_every_command(self, tmp_path, capsys):
        code, out, err = outcome([*SCAN, "--out", tmp_path, "--bogus"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "usage: monopann [-h] {gendata,calibrate,evaluate,scan,hyperparam,report} ...",
            "monopann: error: unrecognized arguments: --bogus",
        ]
