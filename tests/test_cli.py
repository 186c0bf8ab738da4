import argparse
import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import read_explanations_csv

from procfair import cli
from procfair.cli import main
from procfair.datasets import (
    FAIR_CORRELATION_THRESHOLD,
    SPLIT_RATIO,
    SyntheticConfig,
    select_fair_features,
    standardized_split,
)
from procfair.fairness import AuditConfig
from procfair.mitigation import DETECTION_KERNEL, DETECTION_THRESHOLD, ModifyConfig
from procfair.models import TrainConfig
from procfair.seeding import derive_seed
from procfair.sweeps import sweep_sensitive_weight
from procfair.two_sample import PermutationConfig, permutation_pvalue
from test_sweeps import _perfbench_tracing

FAST_AUDIT = ["--n", "20", "--background", "30", "--permutations", "150"]


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str):
    """json.loads that rejects the NaN and Infinity json.dump writes for
    non-finite floats, as a strict JSON reader does."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset plus fair/unfair models shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert run_cli("gen-data", "--out", data_dir, "--m", "1500", "--n-advantaged", "900", "--seed", "0") == 0
    data = data_dir / "synthetic.csv"
    schema = data_dir / "synthetic.schema.json"

    unfair_dir = root / "unfair"
    assert run_cli(
        "train", "--data", data, "--schema", schema, "--out", unfair_dir,
        "--epochs", "150", "--seed", "0",
    ) == 0
    fair_dir = root / "fair"
    assert run_cli(
        "train", "--data", data, "--schema", schema, "--out", fair_dir,
        "--features", "x1,x2", "--epochs", "150", "--seed", "0",
    ) == 0
    return {
        "data": data,
        "schema": schema,
        "unfair_model": unfair_dir / "model.json",
        "fair_model": fair_dir / "model.json",
        "root": root,
    }


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_outputs(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--m", "800", "--n-advantaged", "480", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "dataset DP" in out
    assert (tmp_path / "synthetic.csv").exists()
    schema = strict_json((tmp_path / "synthetic.schema.json").read_text())
    assert schema["sensitive"] == "xs"
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["command"] == "gen-data"
    assert set(report) == {"version", "command", "config", "results", "timing"}


def test_gen_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("gen-data", "--out", tmp_path / sub, "--m", "600", "--n-advantaged", "350", "--seed", "9") == 0
    assert (tmp_path / "a/synthetic.csv").read_bytes() == (tmp_path / "b/synthetic.csv").read_bytes()


def test_gen_data_bad_config_fails(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--m", "10", "--n-advantaged", "20") == 1
    err = strict_json(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert "n_advantaged" in err["error"]


# ---------------------------------------------------------------------------
# train


def test_train_writes_model_and_metrics(workspace, capsys):
    doc = strict_json(Path(workspace["unfair_model"]).read_text())
    assert doc["kind"] == "mlp"
    assert doc["feature_names"] == ["x1", "x2", "xs", "xp"]
    assert doc["data_split"] == {"ratio": 0.8, "seed": 0}
    assert doc["training"]["epochs"] == 150


def test_train_records_its_training_settings_in_order(workspace):
    doc = strict_json(Path(workspace["unfair_model"]).read_text())
    assert list(doc["training"].items()) == [
        ("epochs", 150),
        ("learning_rate", 0.01),
        ("adam_beta1", 0.9),
        ("adam_beta2", 0.999),
        ("adam_eps", 1e-8),
        ("dp_weight", 0.0),
        ("seed", 0),
    ]


def test_train_feature_subset(workspace):
    doc = strict_json(Path(workspace["fair_model"]).read_text())
    assert doc["feature_names"] == ["x1", "x2"]
    assert doc["feature_indices"] == [0, 1]


def test_train_epochs_zero_saves_initial_model(workspace, tmp_path):
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, "--epochs", "0", "--seed", "3",
    ) == 0
    doc = strict_json((tmp_path / "model.json").read_text())
    assert np.allclose(doc["parameters"]["b1"], 0.0)


def test_train_unknown_feature_fails(workspace, tmp_path, capsys):
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, "--features", "nope",
    ) == 1
    assert "unknown feature" in strict_json(capsys.readouterr().err)["error"]


def test_a_sensitive_value_in_neither_group_fails(workspace, tmp_path, capsys):
    rows = list(csv.reader(Path(workspace["data"]).read_text().splitlines()))
    sex = rows[0].index("xs")
    rows[5][sex] = "2.0"
    data = tmp_path / "stray.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(row for row in rows if not row[0].startswith("#"))
    assert run_cli("train", "--data", data, "--schema", workspace["schema"], "--out", tmp_path / "out") == 1
    err = strict_json(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "holds 1 value(s) in neither group: 2.0" in err["error"]


def test_train_logistic_kind(workspace, tmp_path):
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, "--kind", "logistic", "--epochs", "80", "--seed", "0",
    ) == 0
    doc = strict_json((tmp_path / "model.json").read_text())
    assert doc["kind"] == "logistic"
    assert doc["sensitive_position"] == 2


@pytest.mark.parametrize(
    "flags", [["--hidden", "0"], ["--kind", "logistic", "--hidden", "8"]], ids=["zero", "logistic"]
)
def test_train_rejects_a_hidden_size_it_cannot_use(workspace, tmp_path, capsys, flags):
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, *flags, "--epochs", "5",
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["command"] == "train"
    assert err["type"] == "ValueError"
    assert not (tmp_path / "model.json").exists()


# ---------------------------------------------------------------------------
# audit


def test_audit_verdicts(workspace, tmp_path, capsys):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path / "u", *FAST_AUDIT, "--seed", "0",
    ) == 0
    unfair = strict_json((tmp_path / "u/audit.json").read_text())
    assert unfair["procedural_verdict"] == "unfair"
    assert unfair["gpf_fae"] <= 0.05

    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path / "f", *FAST_AUDIT, "--seed", "0",
    ) == 0
    fair = strict_json((tmp_path / "f/audit.json").read_text())
    assert fair["procedural_verdict"] == "fair"
    assert fair["gpf_fae"] >= 0.9
    assert fair["version"]


def test_audit_missing_model_fails(workspace, tmp_path, capsys):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", tmp_path / "missing.json", "--out", tmp_path,
    ) == 1
    capsys.readouterr()


def test_audit_with_a_singular_coalition_sample_fails(workspace, tmp_path, capsys):
    # four coalitions cannot determine the MLP's four attributions
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT, "--coalitions", "4",
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["command"], err["type"]) == ("audit", "ValueError")
    assert "n_coalitions=4" in err["error"] and "d=4" in err["error"]
    assert not (tmp_path / "audit.json").exists()


@pytest.mark.parametrize(
    "kernel, bandwidth, message",
    [
        ("gaussian", "1e200", "gaussian bandwidth 1e+200 is too large: 2 sigma^2 overflows"),
        ("exponential", "1e300", "exponential kernel bandwidth 1e+300 rounds every kernel entry"),
    ],
)
def test_audit_rejects_a_degenerate_bandwidth(workspace, tmp_path, capsys, kernel, bandwidth, message):
    # either bandwidth would make every kernel entry 1 and every model "fair"
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT,
        "--kernel", kernel, "--bandwidth", bandwidth,
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["command"], err["type"]) == ("audit", "ValueError")
    assert message in err["error"]
    assert not (tmp_path / "audit.json").exists()


def test_audit_export_explanations(workspace, tmp_path):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path, *FAST_AUDIT,
        "--export-explanations", "--seed", "0",
    ) == 0
    with open(tmp_path / "explanations_group1.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["x1", "x2", "base", "target"]


@pytest.mark.parametrize("size", [-5, 0])
def test_audit_rejects_a_background_below_one(workspace, tmp_path, capsys, size):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path, "--n", "20", "--background", size,
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["command"], err["type"]) == ("audit", "ValueError")
    assert f"background size must be at least 1, got {size}" in err["error"]
    assert not (tmp_path / "audit.json").exists()


# ---------------------------------------------------------------------------
# detect / mitigate


def test_detect_flags_sensitive_and_proxy(workspace, tmp_path, capsys):
    assert run_cli(
        "detect", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT, "--seed", "0",
    ) == 0
    doc = strict_json((tmp_path / "unfair_features.json").read_text())
    assert doc["feature_names"] == ["xs", "xp"]
    assert len(doc["pvalues"]) == 4
    assert "xs, xp" in capsys.readouterr().out


def test_traced_detect_nests_the_feature_tests_under_one_detect_span(workspace, tmp_path):
    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op("detect"):
        code = cli.main([
            "detect", "--data", str(workspace["data"]), "--schema", str(workspace["schema"]),
            "--model", str(workspace["unfair_model"]), "--out", str(tmp_path), *FAST_AUDIT,
        ])
    assert code == 0
    spans = tracer.op_spans("detect")
    detects = [i for i, s in enumerate(tracer.spans) if s.op == "detect" and s.name == "mitigation.detect"]
    assert len(detects) == 1
    tests = [s for s in spans if s.name == "two_sample.permutation_pvalue"]
    # the audit's GPF test, then one test per feature inside detection
    assert [s.parent == detects[0] for s in tests] == [False, True, True, True, True]
    metrics, _ = tracing.op_metrics(tracer, "detect")
    assert metrics["mitigation.detect_self_s"] > 0


def test_mitigate_retrain(workspace, tmp_path):
    assert run_cli(
        "mitigate", "retrain", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT, "--seed", "0",
    ) == 0
    doc = strict_json((tmp_path / "mitigation.json").read_text())
    assert doc["method"] == "retrain"
    assert doc["report_after"]["gpf_fae"] > doc["report_before"]["gpf_fae"]
    retrained = strict_json((tmp_path / "model_retrained.json").read_text())
    assert retrained["feature_names"] == ["x1", "x2"]


def test_mitigate_modify(workspace, tmp_path):
    assert run_cli(
        "mitigate", "modify", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT,
        "--tau", "60", "--seed", "0",
    ) == 0
    doc = strict_json((tmp_path / "mitigation.json").read_text())
    assert doc["method"] == "modify"
    assert doc["zeta_final"] < doc["zeta_initial"]
    assert len(doc["zeta_trace"]) == 60
    assert (tmp_path / "model_modified.json").exists()


@pytest.fixture(scope="module")
def logistic_model(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("logistic")
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", out, "--kind", "logistic", "--epochs", "150", "--seed", "0",
    ) == 0
    return out / "model.json"


def test_mitigate_modify_logistic(workspace, logistic_model, tmp_path):
    assert run_cli(
        "mitigate", "modify", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", logistic_model, "--out", tmp_path, *FAST_AUDIT, "--tau", "60", "--seed", "0",
    ) == 0
    doc = strict_json((tmp_path / "mitigation.json").read_text())
    assert doc["unfair_features"]["feature_names"] == ["xs", "xp"]
    assert doc["zeta_final"] < doc["zeta_initial"]
    modified = strict_json((tmp_path / "model_modified.json").read_text())
    assert modified["kind"] == "logistic"
    assert modified["sensitive_position"] == 2
    assert modified["dims"] == {"d": 4}


def test_mitigate_retrain_logistic(workspace, logistic_model, tmp_path):
    assert run_cli(
        "mitigate", "retrain", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", logistic_model, "--out", tmp_path, *FAST_AUDIT, "--seed", "0",
    ) == 0
    retrained = strict_json((tmp_path / "model_retrained.json").read_text())
    assert retrained["kind"] == "logistic"
    assert retrained["feature_names"] == ["x1", "x2"]
    assert retrained["sensitive_position"] is None


def test_mitigate_retrain_keeps_the_hidden_size(workspace, tmp_path):
    data = ["--data", workspace["data"], "--schema", workspace["schema"]]
    assert run_cli("train", *data, "--out", tmp_path, "--hidden", "8", "--epochs", "150", "--seed", "0") == 0
    assert strict_json((tmp_path / "model.json").read_text())["dims"] == {"d": 4, "hidden": 8}
    assert run_cli(
        "mitigate", "retrain", *data, "--model", tmp_path / "model.json",
        "--out", tmp_path / "r", *FAST_AUDIT, "--seed", "0",
    ) == 0
    retrained = strict_json((tmp_path / "r" / "model_retrained.json").read_text())
    assert retrained["dims"] == {"d": 2, "hidden": 8}


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_ws_monotone_trend(workspace, tmp_path):
    assert run_cli(
        "sweep-ws", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, "--points", "4", "--seeds", "2", "--epochs", "100",
        "--n", "20", "--background", "30", "--permutations", "150", "--seed", "0",
    ) == 0
    with open(tmp_path / "sweep_ws.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert float(rows[0]["w_s"]) == 0.0
    assert float(rows[0]["gpf_mean"]) >= 0.8
    assert float(rows[-1]["gpf_mean"]) <= 0.1
    assert float(rows[-1]["w_s_normalized"]) == 1.0


def test_sweep_n_outputs(workspace, tmp_path):
    assert run_cli(
        "sweep-n", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path,
        "--n-values", "10,20", "--seeds", "2", "--background", "30",
        "--permutations", "150", "--seed", "0",
    ) == 0
    with open(tmp_path / "sweep_n.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [10, 20]
    assert all(float(r["gpf_mean"]) > 0.5 for r in rows)


def test_sweep_n_unfair_model_detected_at_large_n(workspace, tmp_path):
    assert run_cli(
        "sweep-n", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path,
        "--n-values", "100", "--seeds", "1", "--background", "30",
        "--permutations", "150", "--seed", "0",
    ) == 0
    with open(tmp_path / "sweep_n.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["gpf_mean"]) <= 0.05


def test_sweep_n_too_large_fails(workspace, tmp_path, capsys):
    assert run_cli(
        "sweep-n", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path,
        "--n-values", "5000", "--seeds", "1",
    ) == 1
    assert "anchors" in strict_json(capsys.readouterr().err)["error"]


def test_sweep_n_takes_no_pair_count_flag(workspace, tmp_path, capsys):
    assert run_cli(
        "sweep-n", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path,
        "--n-values", "10", "--seeds", "1", "--n", "10",
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["command"], err["type"]) == ("sweep-n", "ArgumentError")
    assert "--n" in err["error"]
    assert not (tmp_path / "report.json").exists()


def test_sweep_pool_distance_decreases(workspace, tmp_path):
    assert run_cli(
        "sweep-pool", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path,
        "--pool-sizes", "100,1200", "--n", "20", "--seeds", "3",
        "--background", "30", "--permutations", "150", "--seed", "0",
    ) == 0
    with open(tmp_path / "sweep_pool.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["mean_pair_distance"]) >= float(rows[1]["mean_pair_distance"])


def test_sweep_pool_below_2n_fails(workspace, tmp_path, capsys):
    assert run_cli(
        "sweep-pool", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path,
        "--pool-sizes", "30", "--n", "20", "--seeds", "1",
    ) == 1
    assert "below 2n" in strict_json(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "argv, table",
    [
        (["sweep-ws", "--seeds", "0", "--epochs", "20"], "sweep_ws.csv"),
        (["sweep-ws", "--points", "0", "--epochs", "20"], "sweep_ws.csv"),
        (["sweep-n", "--seeds", "0", "--model", "fair"], "sweep_n.csv"),
        (["sweep-pool", "--seeds", "0", "--pool-sizes", "400", "--n", "20", "--model", "fair"], "sweep_pool.csv"),
    ],
)
def test_empty_sweep_fails_before_writing(workspace, tmp_path, capsys, argv, table):
    argv = [workspace["fair_model"] if a == "fair" else a for a in argv]
    assert run_cli(*argv, "--data", workspace["data"], "--schema", workspace["schema"], "--out", tmp_path) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["command"], err["type"]) == (argv[0], "ValueError")
    assert "is empty" in err["error"]
    assert not (tmp_path / table).exists()
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# boundary


@pytest.fixture(scope="module")
def boundary_outputs(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    for method, name in (("retrain", "r"), ("modify", "m")):
        assert run_cli(
            "mitigate", method, "--data", workspace["data"], "--schema", workspace["schema"],
            "--model", workspace["unfair_model"], "--out", root / name, *FAST_AUDIT,
            "--tau", "60", "--seed", "0",
        ) == 0
    out = root / "grid"
    assert run_cli(
        "boundary", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"],
        "--modified", root / "m" / "model_modified.json",
        "--retrained", root / "r" / "model_retrained.json",
        "--out", out, "--resolution", "20", "--seed", "0",
    ) == 0
    return out


def test_boundary_grid_shape(boundary_outputs):
    with open(boundary_outputs / "boundary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400  # 20 x 20
    assert set(rows[0]) == {"x", "y", "pred_original", "pred_modified", "pred_retrained"}
    assert (boundary_outputs / "boundary_points.csv").exists()


def test_boundary_modified_more_faithful(boundary_outputs):
    report = strict_json((boundary_outputs / "report.json").read_text())
    results = report["results"]
    assert results["disagreement_modified"] <= results["disagreement_retrained"]


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_boundary_rejects_a_resolution_below_one(workspace, boundary_outputs, tmp_path, capsys, resolution):
    root = boundary_outputs.parent
    assert run_cli(
        "boundary", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--modified", root / "m" / "model_modified.json",
        "--retrained", root / "r" / "model_retrained.json", "--out", tmp_path, "--resolution", resolution,
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "--resolution" in err["error"]
    assert not (tmp_path / "boundary.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("margin", ["-3", "-0.1"])
def test_boundary_rejects_a_negative_margin(workspace, boundary_outputs, tmp_path, capsys, margin):
    # --margin -3 would otherwise walk the box of --margin 2 backwards
    root = boundary_outputs.parent
    assert run_cli(
        "boundary", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--modified", root / "m" / "model_modified.json",
        "--retrained", root / "r" / "model_retrained.json", "--out", tmp_path, "--resolution", "5",
        "--margin", margin,
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "--margin" in err["error"]
    assert not (tmp_path / "boundary.csv").exists()
    assert not (tmp_path / "report.json").exists()


def test_boundary_rejects_a_model_with_other_columns(workspace, boundary_outputs, tmp_path, capsys):
    doc = strict_json(Path(workspace["unfair_model"]).read_text())
    doc["feature_names"][:2] = ["x2", "x1"]
    (tmp_path / "swapped.json").write_text(json.dumps(doc))
    root = boundary_outputs.parent
    assert run_cli(
        "boundary", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--modified", tmp_path / "swapped.json",
        "--retrained", root / "r" / "model_retrained.json", "--out", tmp_path, "--resolution", "5",
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "'x2'" in err["error"]


# ---------------------------------------------------------------------------
# data/model agreement


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: doc.update(dims={"d": 99, "hidden": 1}), "dims"),
        (lambda doc: doc.pop("kind"), "'kind'"),
        (lambda doc: doc.update(feature_indices=[0, 0, 0, 0], feature_names=["x1"] * 4), "distinct"),
        (lambda doc: doc.update(feature_indices=[0, 1, 2, -1]), "non-negative"),
        (lambda doc: doc.update(feature_indices=[0, 1, 2, 3.9]), "integers"),
        (lambda doc: doc.update(feature_indices=[0, 1, 2, 3.0]), "integers"),
        (lambda doc: doc.update(feature_names=["x1"]), "1 feature names for a model of 4 features"),
    ],
    ids=["dims", "no-kind", "repeated-indices", "negative-index", "fractional-index", "float-index", "short-names"],
)
def test_audit_rejects_a_malformed_model_document(workspace, tmp_path, capsys, change, message):
    doc = strict_json(Path(workspace["unfair_model"]).read_text())
    change(doc)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", tmp_path / "model.json", "--out", tmp_path / "out", *FAST_AUDIT,
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert message in err["error"]


def test_audit_with_reordered_columns_fails(workspace, tmp_path, capsys):
    swapped = tmp_path / "swapped.csv"
    lines = Path(workspace["data"]).read_text().splitlines(keepends=True)
    with open(swapped, "w") as fh:
        for line in lines:
            if not line.startswith("#"):
                cells = line.split(",")
                cells[0], cells[1] = cells[1], cells[0]
                line = ",".join(cells)
            fh.write(line)
    assert run_cli(
        "audit", "--data", swapped, "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path / "out", *FAST_AUDIT,
    ) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "'x1'" in err["error"]


@pytest.fixture(scope="module")
def agreement(workspace, tmp_path_factory):
    """audit (both pools), detect and mitigate modify of one model with the
    same flags."""
    root = tmp_path_factory.mktemp("agreement")
    common = [
        "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], *FAST_AUDIT, "--seed", "3",
    ]
    for pool in ("test", "full"):
        assert run_cli("audit", *common, "--pool", pool, "--export-explanations", "--out", root / pool) == 0
    assert run_cli("detect", *common, "--out", root / "detect") == 0
    assert run_cli("mitigate", "modify", *common, "--tau", "5", "--out", root / "modify") == 0
    return root


def test_mitigate_reuses_the_audit_and_the_detection(agreement):
    audit_doc = strict_json((agreement / "test" / "audit.json").read_text())
    detect_doc = strict_json((agreement / "detect" / "unfair_features.json").read_text())
    mitigation = strict_json((agreement / "modify" / "mitigation.json").read_text())
    del audit_doc["version"], audit_doc["model"]
    assert mitigation["report_before"] == audit_doc
    for key in ("indices", "feature_names", "pvalues"):
        assert mitigation["unfair_features"][key] == detect_doc[key]
    assert detect_doc["feature_names"] == ["xs", "xp"]


def test_audit_document_keys_and_config(agreement):
    audit_doc = strict_json((agreement / "full" / "audit.json").read_text())
    assert list(audit_doc) == [
        "version", "model", "gpf_fae", "dp", "eo", "eod", "accuracy", "mean_pair_distance",
        "procedural_verdict", "distributive_verdicts", "n_pairs", "pool_size", "config",
    ]
    assert list(audit_doc["config"].items()) == [
        ("n_pairs", 20),
        ("background_size", 30),
        ("n_coalitions", None),
        ("kernel_kind", "exponential"),
        ("kernel_bandwidth", None),
        ("n_permutations", 150),
        ("procedural_threshold", 0.05),
        ("distributive_threshold", 0.1),
        ("pool", "full"),
        ("seed", 3),
    ]


@pytest.mark.parametrize("pool", ["test", "full"])
def test_exported_explanations_reproduce_the_audit_gpf(agreement, pool):
    audit_doc = strict_json((agreement / pool / "audit.json").read_text())
    e1 = read_explanations_csv(agreement / pool / "explanations_group1.csv")
    e2 = read_explanations_csv(agreement / pool / "explanations_group2.csv")
    assert e1.n == e2.n == audit_doc["n_pairs"]
    perm_config = PermutationConfig(audit_doc["config"]["n_permutations"], derive_seed(3, "permutation"))
    assert permutation_pvalue(e1.values, e2.values, None, perm_config) == audit_doc["gpf_fae"]


# ---------------------------------------------------------------------------
# plumbing


def test_config_file_supplies_defaults(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 700, "n_advantaged": 400, "seed": 5}))
    assert run_cli("gen-data", "--out", tmp_path, "--config", config) == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["config"]["m"] == 700
    assert report["config"]["seed"] == 5


def test_config_file_cli_overrides(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 700, "n_advantaged": 400}))
    assert run_cli("gen-data", "--out", tmp_path, "--config", config, "--m", "900") == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["config"]["m"] == 900


def test_config_equals_form(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 700, "n_advantaged": 400}))
    assert run_cli("gen-data", "--out", tmp_path, f"--config={config}") == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["config"]["m"] == 700


@pytest.mark.parametrize(
    "key, value",
    [
        ("weights", [-0.1, 1.0, 0.5, 0.5, 0.5]),
        ("export_explanations", True),
        ("export_explanations", False),
        ("coalitions", None),
    ],
)
def test_config_file_values_of_each_json_kind(workspace, tmp_path, key, value):
    # a list gives the flag its values and true sets a switch; false and
    # null leave the flag at its default, which for --coalitions is null
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    if key == "weights":
        argv = ["gen-data", "--m", "600", "--n-advantaged", "350"]
    else:
        argv = [
            "audit", "--data", workspace["data"], "--schema", workspace["schema"],
            "--model", workspace["fair_model"], *FAST_AUDIT,
        ]
    assert run_cli(*argv, "--out", tmp_path, "--config", config) == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["config"][key] == value
    assert (tmp_path / "explanations_group1.csv").exists() == (value is True)


def test_config_missing_file_fails(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert run_cli("gen-data", "--out", tmp_path, f"--config={missing}") == 1
    err = strict_json(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert "absent.json" in err["error"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "reader, document",
    [
        ("config", [1, 2]),
        ("model", [1, 2]),
        ("schema", 7),
        # raw bytes: a truncated document, and one that is not UTF-8
        pytest.param("config", b'{"m": 7,', id="config-truncated"),
        pytest.param("model", b'{"kind": "mlp", ', id="model-truncated"),
        pytest.param("schema", b'{"label": ', id="schema-truncated"),
        pytest.param("config", b'\xff{"m": 7}', id="config-not-utf8"),
    ],
)
def test_a_json_document_that_is_not_an_object_fails_as_json(workspace, tmp_path, capsys, reader, document):
    bad = tmp_path / "bad.json"
    bad.write_bytes(document if isinstance(document, bytes) else json.dumps(document).encode())
    data = ["--data", workspace["data"]]
    argv = {
        "config": ["gen-data", "--config", bad],
        "model": ["audit", *data, "--schema", workspace["schema"], "--model", bad],
        "schema": ["train", *data, "--schema", bad],
    }[reader]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["command"], err["type"]) == (argv[0], "ValueError")
    assert str(bad) in err["error"]
    assert not (out / "report.json").exists()


def test_a_csv_that_is_not_utf8_fails_naming_the_file(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,sex,label\n1,1,0\n\xff,0,1\n")
    out = tmp_path / "out"
    assert run_cli("train", "--data", bad, "--schema", workspace["schema"], "--out", out) == 1
    err = strict_json(capsys.readouterr().err)
    assert (err["command"], err["type"]) == ("train", "ValueError")
    assert str(bad) in err["error"]
    assert not (out / "report.json").exists()


def test_config_without_value_fails(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--config") == 1
    err = strict_json(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert "--config" in err["error"]


def test_error_object_names_exception_type(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--m", "10", "--n-advantaged", "20") == 1
    assert strict_json(capsys.readouterr().err)["type"] == "ValueError"
    assert run_cli("gen-data", "--out", tmp_path, f"--config={tmp_path / 'absent.json'}") == 1
    assert strict_json(capsys.readouterr().err)["type"] == "FileNotFoundError"


def test_threads_flag_removed(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--threads", "2") == 1
    err = strict_json(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert err["type"] == "ArgumentError"
    assert "--threads" in err["error"]
    assert not (tmp_path / "report.json").exists()


# the flags each command requires, as paths that need not exist: a bad float
# flag must fail while parsing, before any file is read
_REQUIRED = {
    "gen-data": [],
    "train": ["--data", "absent.csv", "--schema", "absent.json"],
    "audit": ["--data", "absent.csv", "--schema", "absent.json", "--model", "absent.json"],
    "detect": ["--data", "absent.csv", "--schema", "absent.json", "--model", "absent.json"],
    "mitigate": ["modify", "--data", "absent.csv", "--schema", "absent.json", "--model", "absent.json"],
    "sweep-ws": ["--data", "absent.csv", "--schema", "absent.json"],
    "sweep-n": ["--data", "absent.csv", "--schema", "absent.json", "--model", "absent.json"],
    "sweep-pool": [
        "--data", "absent.csv", "--schema", "absent.json", "--model", "absent.json", "--pool-sizes", "50",
    ],
    "boundary": [
        "--data", "absent.csv", "--schema", "absent.json", "--model", "absent.json",
        "--modified", "absent.json", "--retrained", "absent.json",
    ],
}


def _records_from_flags(args) -> dict:
    """The library records a command builds from its parsed flags."""
    records = {}
    if hasattr(args, "permutations"):
        records[AuditConfig] = cli._audit_config(args)
    if hasattr(args, "epochs"):
        fields = {"dp_weight": args.dp_weight} if hasattr(args, "dp_weight") else {}
        records[TrainConfig] = TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed, **fields)
    if hasattr(args, "alpha"):
        records[ModifyConfig] = ModifyConfig(alpha=args.alpha, tau=args.tau, learning_rate=args.lr)
    if hasattr(args, "noise_std"):
        records[SyntheticConfig] = SyntheticConfig(
            m=args.m, n_advantaged=args.n_advantaged, weights=tuple(args.weights),
            proxy_std=args.proxy_std, noise_std=args.noise_std, seed=args.seed,
        )
    return records


# the records each command builds from its flags
_RECORDS = {
    "gen-data": {SyntheticConfig},
    "train": {TrainConfig},
    "audit": {AuditConfig},
    "detect": {AuditConfig},
    "mitigate": {AuditConfig, ModifyConfig},
    "sweep-ws": {AuditConfig, TrainConfig},
    "sweep-n": {AuditConfig},
    "sweep-pool": {AuditConfig},
    "boundary": set(),
}


def _default(fn, parameter):
    return inspect.signature(fn).parameters[parameter].default


@pytest.mark.parametrize("command", sorted(_RECORDS))
def test_flag_defaults_are_the_library_defaults(command, monkeypatch):
    args = cli.build_parser().parse_args([command, *_REQUIRED[command]])
    records = _records_from_flags(args)
    assert set(records) == _RECORDS[command]
    for kind, record in records.items():
        assert record == kind()
    if command in ("detect", "mitigate"):
        assert args.beta == DETECTION_THRESHOLD
        assert args.detection_kernel == DETECTION_KERNEL
    if command in ("train", "sweep-ws"):
        assert args.split_ratio == SPLIT_RATIO == _default(standardized_split, "ratio")
    if command == "sweep-ws":
        assert args.fair_threshold == FAIR_CORRELATION_THRESHOLD == _default(select_fair_features, "threshold")
        assert _default(sweep_sensitive_weight, "fair_threshold") == FAIR_CORRELATION_THRESHOLD
    if hasattr(args, "model"):
        # a model document that records no split is split at the library ratio
        ratios = []
        model = SimpleNamespace(feature_names=None, feature_indices=())
        monkeypatch.setattr(cli, "load_model", lambda path: (model, {}))
        monkeypatch.setattr(cli, "load_csv", lambda data, schema: None)
        monkeypatch.setattr(cli, "standardized_split", lambda dataset, ratio, seed: (ratios.append(ratio), None))
        cli._load_models(args)
        assert ratios == [SPLIT_RATIO]


def test_detect_and_mitigate_declare_the_same_detection_flags():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def detection_flags(command):
        return [
            (a.option_strings, a.dest, a.default, a.type, a.choices, a.help)
            for a in commands[command]._actions
            if a.dest in ("beta", "detection_kernel")
        ]

    assert detection_flags("detect") == detection_flags("mitigate")
    assert [flags[0] for flags in detection_flags("mitigate")] == [["--beta"], ["--detection-kernel"]]
    assert detection_flags("mitigate")[0][-1]  # --beta has help text


def _float_flags():
    """(command, flag, nargs) for every float-valued flag of every command."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(_REQUIRED)
    return [
        pytest.param(
            command, action.option_strings[0], action.nargs or 1, id=command + action.option_strings[0]
        )
        for command, sub in commands.items()
        for action in sub._actions
        if action.type not in (None, int, str)
    ]


# "-inf" would read as a flag; "1e999" overflows to inf
@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
@pytest.mark.parametrize("command, flag, nargs", _float_flags())
def test_float_flags_reject_non_finite_values(tmp_path, capsys, command, flag, nargs, value):
    argv = [command, *_REQUIRED[command], flag, *[value] * nargs, "--out", tmp_path]
    assert run_cli(*argv) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["command"] == command
    assert err["type"] == "ArgumentError"
    assert flag in err["error"] and repr(value) in err["error"]
    assert not (tmp_path / "report.json").exists()


def test_missing_required_flag_fails_as_json(tmp_path, capsys):
    assert run_cli("audit", "--data", "d.csv", "--schema", "d.json", "--out", tmp_path) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["command"] == "audit"
    assert err["type"] == "ArgumentError"
    assert "--model" in err["error"]
    with pytest.raises(SystemExit) as exit_info:
        run_cli("audit", "--help")
    assert exit_info.value.code == 0


def test_study_driver_fast_run_completes(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "run_synthetic_study.py"), "--fast", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "boundary" / "boundary.csv").exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "procfair.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "procfair" in proc.stdout


def test_report_embeds_version_and_config(workspace, tmp_path):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path, *FAST_AUDIT, "--seed", "2",
    ) == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["version"]
    assert report["config"]["seed"] == 2
    assert report["config"]["n"] == 20
    assert isinstance(report["timing"], float)
