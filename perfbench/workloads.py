"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``, runs one
operation through procfair's public API in ``op`` and says in ``check`` what
the data's construction implies about the result. ``digest`` names the op's
deterministic outputs, which are hashed for information only. Only the
generated data depends on the seed; every procfair knob, its seeds included,
stays at its default unless the workload's definition sets it.

Calls go through module attributes (``cli.main``, ``fairness.audit``,
``sweeps.sweep_sensitive_weight``) so that the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from procfair import cli, fairness, sweeps
from procfair.datasets import (
    SYNTHETIC_FEATURE_NAMES,
    SyntheticConfig,
    TabularDataset,
    generate_synthetic,
    standardized_split,
    write_csv,
    write_schema,
)
from procfair.fairness import AuditConfig
from procfair.models import TrainConfig, fit_mlp
from procfair.seeding import derive_seed

UNFAIR_FEATURES = {"xs", "xp"}
GPF_THRESHOLD = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir) -> state
    op: Callable  # (state, opdir) -> outputs
    check: Callable  # outputs -> list of problems
    digest: Callable  # outputs -> JSON-serialisable deterministic outputs


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _gpf_problems(label: str, p_value, want_unfair: bool) -> list[str]:
    if not _finite(p_value):
        return [f"{label}: non-finite GPF {p_value!r}"]
    if want_unfair and p_value > GPF_THRESHOLD:
        return [f"{label}: GPF {p_value} > {GPF_THRESHOLD}, expected unfair"]
    if not want_unfair and p_value <= GPF_THRESHOLD:
        return [f"{label}: GPF {p_value} <= {GPF_THRESHOLD}, expected fair"]
    return []


# ---------------------------------------------------------------------------
# pipeline_d4: the paper-scale CLI chain


def _pipeline_setup(seed: int, workdir: Path) -> dict:
    dataset = generate_synthetic(SyntheticConfig(seed=seed))
    data, schema = workdir / "synthetic.csv", workdir / "synthetic.schema.json"
    write_csv(dataset, data)
    write_schema(dataset, schema)
    return {"data": str(data), "schema": str(schema)}


def _cli(argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"procfair {argv[0]} exited {code}: {stderr.getvalue().strip()}")


def _read(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _pipeline_op(state: dict, opdir: Path) -> dict:
    data = ["--data", state["data"], "--schema", state["schema"]]
    model = ["--model", str(opdir / "model.json")]
    _cli(["train", *data, "--out", str(opdir)])
    _cli(["audit", *data, *model, "--out", str(opdir / "audit")])
    _cli(["detect", *data, *model, "--out", str(opdir / "detect")])
    _cli(["mitigate", "modify", *data, *model, "--out", str(opdir / "modify")])
    _cli(["mitigate", "retrain", *data, *model, "--out", str(opdir / "retrain")])
    modify = _read(opdir / "modify" / "mitigation.json")
    retrain = _read(opdir / "retrain" / "mitigation.json")
    return {
        "audit_gpf": _read(opdir / "audit" / "audit.json")["gpf_fae"],
        "audit_verdict": _read(opdir / "audit" / "audit.json")["procedural_verdict"],
        "flagged": _read(opdir / "detect" / "unfair_features.json")["feature_names"],
        "modify_gpf": modify["report_after"]["gpf_fae"],
        "retrain_gpf": retrain["report_after"]["gpf_fae"],
        "modified_params": _read(opdir / "modify" / "model_modified.json")["parameters"],
        "retrained_params": _read(opdir / "retrain" / "model_retrained.json")["parameters"],
    }


def _pipeline_check(out: dict) -> list[str]:
    problems = _gpf_problems("audit", out["audit_gpf"], want_unfair=True)
    if out["audit_verdict"] != "unfair":
        problems.append(f"audit verdict {out['audit_verdict']!r}, expected 'unfair'")
    if set(out["flagged"]) != UNFAIR_FEATURES or len(out["flagged"]) != 2:
        problems.append(f"detect flagged {out['flagged']}, expected xs and xp")
    # Retraining without xs and xp leaves no group signal, so it must pass.
    # Modification only penalises the flagged features' gradients, so what
    # the construction implies is a higher GPF than the audited model's; it
    # reached GPF > 0.05 on 18 of data seeds 0-19.
    problems += _gpf_problems("mitigate retrain", out["retrain_gpf"], want_unfair=False)
    if not (_finite(out["modify_gpf"]) and out["modify_gpf"] > out["audit_gpf"]):
        problems.append(f"mitigate modify: GPF {out['modify_gpf']} not above the audit's {out['audit_gpf']}")
    return problems


def _pipeline_digest(out: dict) -> dict:
    return {k: out[k] for k in ("audit_gpf", "flagged", "modified_params", "retrained_params")}


# ---------------------------------------------------------------------------
# explain_d20, pool_200k: one library audit of a model fit in setup


def _fit_setup(dataset: TabularDataset, ratio: float) -> dict:
    split, _ = standardized_split(dataset, ratio)
    model, _ = fit_mlp(split.train, TrainConfig())
    return {"split": split, "model": model}


def _wide_setup(seed: int, workdir: Path) -> dict:
    base = generate_synthetic(SyntheticConfig(seed=seed))
    noise = np.random.default_rng(derive_seed(seed, "noise")).standard_normal((base.m, 16))
    names = SYNTHETIC_FEATURE_NAMES + tuple(f"z{j}" for j in range(16))
    dataset = TabularDataset(
        np.column_stack([base.features, noise]), names, base.labels,
        base.sensitive_index, base.group_values,
    )
    return {**_fit_setup(dataset, 0.8), "config": AuditConfig(n_pairs=20)}


def _pool_setup(seed: int, workdir: Path) -> dict:
    dataset = generate_synthetic(SyntheticConfig(m=200_000, n_advantaged=120_000, seed=seed))
    return {**_fit_setup(dataset, 0.04), "config": AuditConfig(n_pairs=100, pool="full")}


def _audit_op(state: dict, opdir: Path) -> dict:
    report = fairness.audit(state["model"], state["split"], state["config"])
    return {"gpf": report.gpf_fae, "verdict": report.procedural_verdict}


def _audit_check(out: dict) -> list[str]:
    problems = _gpf_problems("audit", out["gpf"], want_unfair=True)
    if out["verdict"] != "unfair":
        problems.append(f"audit verdict {out['verdict']!r}, expected 'unfair'")
    return problems


def _audit_digest(out: dict) -> dict:
    return {"gpf": out["gpf"]}


# ---------------------------------------------------------------------------
# sweep_ws: 50-point sensitive-weight grid x 2 seeds of a logistic model

SWEEP_GRID = np.linspace(0.0, 5.0, 50)
SWEEP_SEEDS = [derive_seed(0, f"ws-sweep-{i}") for i in range(2)]


def _sweep_setup(seed: int, workdir: Path) -> dict:
    split, _ = standardized_split(generate_synthetic(SyntheticConfig(seed=seed)), 0.8)
    return {"split": split}


def _sweep_op(state: dict, opdir: Path) -> dict:
    split = state["split"]
    feats, matrix = sweeps.sweep_sensitive_weight(split, SWEEP_GRID, SWEEP_SEEDS, TrainConfig())
    return {
        "features": [split.train.feature_names[i] for i in feats],
        "matrix": [[float(v) for v in row] for row in matrix],
    }


def _sweep_check(out: dict) -> list[str]:
    problems = []
    if out["features"] != ["x1", "x2", "xs"]:
        problems.append(f"sweep features {out['features']}, expected the fair features plus xs")
    values = [v for row in out["matrix"] for v in row]
    if not all(_finite(v) and 0.0 < v <= 1.0 for v in values):
        problems.append("sweep GPF outside (0, 1]")
        return problems
    # A zero sensitive weight leaves a model on fair features only; the
    # largest weight makes group membership drive the decision.
    for row in out["matrix"]:
        problems += _gpf_problems("w_s = 0", row[0], want_unfair=False)
        problems += _gpf_problems(f"w_s = {SWEEP_GRID[-1]}", row[-1], want_unfair=True)
    return problems


def _sweep_digest(out: dict) -> dict:
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_d4", _pipeline_setup, _pipeline_op, _pipeline_check, _pipeline_digest),
        Workload("explain_d20", _wide_setup, _audit_op, _audit_check, _audit_digest),
        Workload("pool_200k", _pool_setup, _audit_op, _audit_check, _audit_digest),
        Workload("sweep_ws", _sweep_setup, _sweep_op, _sweep_check, _sweep_digest),
    )
}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
