import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from procfair.attribution import read_explanations_csv
from procfair.cli import main
from procfair.seeding import derive_seed
from procfair.two_sample import PermutationConfig, permutation_pvalue

FAST_AUDIT = ["--n", "20", "--background", "30", "--permutations", "150"]


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


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
    schema = json.loads((tmp_path / "synthetic.schema.json").read_text())
    assert schema["sensitive"] == "xs"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "gen-data"
    assert set(report) == {"version", "command", "config", "results", "timing"}


def test_gen_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("gen-data", "--out", tmp_path / sub, "--m", "600", "--n-advantaged", "350", "--seed", "9") == 0
    assert (tmp_path / "a/synthetic.csv").read_bytes() == (tmp_path / "b/synthetic.csv").read_bytes()


def test_gen_data_bad_config_fails(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--m", "10", "--n-advantaged", "20") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert "n_advantaged" in err["error"]


# ---------------------------------------------------------------------------
# train


def test_train_writes_model_and_metrics(workspace, capsys):
    doc = json.loads(Path(workspace["unfair_model"]).read_text())
    assert doc["kind"] == "mlp"
    assert doc["feature_names"] == ["x1", "x2", "xs", "xp"]
    assert doc["data_split"] == {"ratio": 0.8, "seed": 0}
    assert doc["training"]["epochs"] == 150


def test_train_feature_subset(workspace):
    doc = json.loads(Path(workspace["fair_model"]).read_text())
    assert doc["feature_names"] == ["x1", "x2"]
    assert doc["feature_indices"] == [0, 1]


def test_train_epochs_zero_saves_initial_model(workspace, tmp_path):
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, "--epochs", "0", "--seed", "3",
    ) == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    assert np.allclose(doc["parameters"]["b1"], 0.0)


def test_train_unknown_feature_fails(workspace, tmp_path, capsys):
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, "--features", "nope",
    ) == 1
    assert "unknown feature" in json.loads(capsys.readouterr().err)["error"]


def test_train_logistic_kind(workspace, tmp_path):
    assert run_cli(
        "train", "--data", workspace["data"], "--schema", workspace["schema"],
        "--out", tmp_path, "--kind", "logistic", "--epochs", "80", "--seed", "0",
    ) == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["kind"] == "logistic"
    assert doc["sensitive_position"] == 2


# ---------------------------------------------------------------------------
# audit


def test_audit_verdicts(workspace, tmp_path, capsys):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path / "u", *FAST_AUDIT, "--seed", "0",
    ) == 0
    unfair = json.loads((tmp_path / "u/audit.json").read_text())
    assert unfair["procedural_verdict"] == "unfair"
    assert unfair["gpf_fae"] <= 0.05

    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path / "f", *FAST_AUDIT, "--seed", "0",
    ) == 0
    fair = json.loads((tmp_path / "f/audit.json").read_text())
    assert fair["procedural_verdict"] == "fair"
    assert fair["gpf_fae"] >= 0.9
    assert fair["version"]


def test_audit_missing_model_fails(workspace, tmp_path, capsys):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", tmp_path / "missing.json", "--out", tmp_path,
    ) == 1
    capsys.readouterr()


def test_audit_export_explanations(workspace, tmp_path):
    assert run_cli(
        "audit", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["fair_model"], "--out", tmp_path, *FAST_AUDIT,
        "--export-explanations", "--seed", "0",
    ) == 0
    with open(tmp_path / "explanations_group1.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["x1", "x2", "base", "target"]


# ---------------------------------------------------------------------------
# detect / mitigate


def test_detect_flags_sensitive_and_proxy(workspace, tmp_path, capsys):
    assert run_cli(
        "detect", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT, "--seed", "0",
    ) == 0
    doc = json.loads((tmp_path / "unfair_features.json").read_text())
    assert doc["feature_names"] == ["xs", "xp"]
    assert len(doc["pvalues"]) == 4
    assert "xs, xp" in capsys.readouterr().out


def test_mitigate_retrain(workspace, tmp_path):
    assert run_cli(
        "mitigate", "retrain", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT, "--seed", "0",
    ) == 0
    doc = json.loads((tmp_path / "mitigation.json").read_text())
    assert doc["method"] == "retrain"
    assert doc["report_after"]["gpf_fae"] > doc["report_before"]["gpf_fae"]
    retrained = json.loads((tmp_path / "model_retrained.json").read_text())
    assert retrained["feature_names"] == ["x1", "x2"]


def test_mitigate_modify(workspace, tmp_path):
    assert run_cli(
        "mitigate", "modify", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--out", tmp_path, *FAST_AUDIT,
        "--tau", "60", "--seed", "0",
    ) == 0
    doc = json.loads((tmp_path / "mitigation.json").read_text())
    assert doc["method"] == "modify"
    assert doc["zeta_final"] < doc["zeta_initial"]
    assert len(doc["zeta_trace"]) == 60
    assert (tmp_path / "model_modified.json").exists()


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
    assert "anchors" in json.loads(capsys.readouterr().err)["error"]


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
    assert "below 2n" in json.loads(capsys.readouterr().err)["error"]


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
    report = json.loads((boundary_outputs / "report.json").read_text())
    results = report["results"]
    assert results["disagreement_modified"] <= results["disagreement_retrained"]


def test_boundary_rejects_a_model_with_other_columns(workspace, boundary_outputs, tmp_path, capsys):
    doc = json.loads(Path(workspace["unfair_model"]).read_text())
    doc["feature_names"][:2] = ["x2", "x1"]
    (tmp_path / "swapped.json").write_text(json.dumps(doc))
    root = boundary_outputs.parent
    assert run_cli(
        "boundary", "--data", workspace["data"], "--schema", workspace["schema"],
        "--model", workspace["unfair_model"], "--modified", tmp_path / "swapped.json",
        "--retrained", root / "r" / "model_retrained.json", "--out", tmp_path, "--resolution", "5",
    ) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "'x2'" in err["error"]


# ---------------------------------------------------------------------------
# data/model agreement


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
    err = json.loads(capsys.readouterr().err)
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
    audit_doc = json.loads((agreement / "test" / "audit.json").read_text())
    detect_doc = json.loads((agreement / "detect" / "unfair_features.json").read_text())
    mitigation = json.loads((agreement / "modify" / "mitigation.json").read_text())
    del audit_doc["version"], audit_doc["model"]
    assert mitigation["report_before"] == audit_doc
    for key in ("indices", "feature_names", "pvalues"):
        assert mitigation["unfair_features"][key] == detect_doc[key]
    assert detect_doc["feature_names"] == ["xs", "xp"]


@pytest.mark.parametrize("pool", ["test", "full"])
def test_exported_explanations_reproduce_the_audit_gpf(agreement, pool):
    audit_doc = json.loads((agreement / pool / "audit.json").read_text())
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
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["m"] == 700
    assert report["config"]["seed"] == 5


def test_config_file_cli_overrides(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 700, "n_advantaged": 400}))
    assert run_cli("gen-data", "--out", tmp_path, "--config", config, "--m", "900") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["m"] == 900


def test_config_equals_form(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": 700, "n_advantaged": 400}))
    assert run_cli("gen-data", "--out", tmp_path, f"--config={config}") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["m"] == 700


def test_config_missing_file_fails(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert run_cli("gen-data", "--out", tmp_path, f"--config={missing}") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert "absent.json" in err["error"]
    assert not (tmp_path / "report.json").exists()


def test_config_without_value_fails(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--config") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert "--config" in err["error"]


def test_error_object_names_exception_type(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--m", "10", "--n-advantaged", "20") == 1
    assert json.loads(capsys.readouterr().err)["type"] == "ValueError"
    assert run_cli("gen-data", "--out", tmp_path, f"--config={tmp_path / 'absent.json'}") == 1
    assert json.loads(capsys.readouterr().err)["type"] == "FileNotFoundError"


def test_threads_flag_removed(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path, "--threads", "2") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "gen-data"
    assert err["type"] == "ArgumentError"
    assert "--threads" in err["error"]
    assert not (tmp_path / "report.json").exists()


def test_missing_required_flag_fails_as_json(tmp_path, capsys):
    assert run_cli("audit", "--data", "d.csv", "--schema", "d.json", "--out", tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
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
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["version"]
    assert report["config"]["seed"] == 2
    assert report["config"]["n"] == 20
    assert isinstance(report["timing"], float)
