"""Tests of the benchmark itself: failure counting and the span recorder.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import closed_loop, end_to_end  # noqa: E402
from tracing import PATCHES, Tracer, op_metrics  # noqa: E402


def test_forced_wrong_expectation_counts_one_failure():
    def check(out):
        return ["forced wrong expectation"] if out == 2 else []

    loop = closed_loop(lambda i, traced: i, check, seconds=0.0, min_ops=5)
    assert (loop.attempted, loop.failed) == (5, 1)
    assert loop.records[2].problems == ["forced wrong expectation"]
    metrics = end_to_end(loop, [1.0], 10.0)
    assert metrics["ok_ops_ratio"] == (0.8, "ratio")


def test_raising_op_counts_one_failure_and_the_run_goes_on():
    def op(i, traced):
        if i == 1:
            raise ValueError("boom")
        return i

    loop = closed_loop(op, lambda out: [], seconds=0.0, min_ops=4)
    assert (loop.attempted, loop.failed) == (4, 1)
    assert loop.records[1].problems[0].startswith("raised ValueError")
    assert loop.records[1].digest is None


def test_time_between_ops_counts_neither_to_ops_nor_to_the_phase():
    import time

    def op(i, traced):
        time.sleep(0.01)
        return i

    loop = closed_loop(op, lambda out: [], seconds=0.0, min_ops=3, warmup=1, between=lambda: time.sleep(0.05))
    assert (loop.attempted, len(loop.measured)) == (4, 3)
    assert all(r.wall_s < 0.05 for r in loop.records)
    assert loop.phase_s < 0.1  # three 0.01 s ops, not the 0.15 s slept after them


def test_self_times_add_up_to_the_op():
    tracer = Tracer()
    with tracer.op("op0"):
        with tracer._span("fairness.audit", "fairness"):
            with tracer._span("attribution.explain_set", "attribution"):
                with tracer._span("models.decision_score", "models") as span:
                    span.counts = {"rows": 7}
    metrics, error = op_metrics(tracer, "op0")
    assert error < 1e-9
    assert metrics["attribution.model_rows"] == 7
    assert metrics["attribution.explain_calls"] == 1
    assert metrics["attribution.model_eval_s"] <= metrics["attribution.explain_s"]


def _tiny_audit(tracer, op_id):
    from procfair import fairness
    from procfair.datasets import SyntheticConfig, generate_synthetic, standardized_split
    from procfair.models import TrainConfig, fit_mlp

    split, _ = standardized_split(generate_synthetic(SyntheticConfig(m=400, n_advantaged=240)))
    model, _ = fit_mlp(split.train, TrainConfig(epochs=5))
    with tracer.installed(), tracer.op(op_id):
        fairness.audit(model, split, fairness.AuditConfig(n_pairs=10, n_permutations=100))
    return op_metrics(tracer, op_id)


def test_traced_audit_counts_repeat_and_patches_are_restored():
    import importlib

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in PATCHES}
    tracer = Tracer()
    first, error1 = _tiny_audit(tracer, "a")
    second, error2 = _tiny_audit(tracer, "b")
    assert max(error1, error2) < 1e-6
    counts = [k for k in first if not k.endswith(("_s", "_mb"))]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["attribution.explain_calls"] == 2
    assert first["fairness.audit_calls"] == 1
    assert first["two_sample.perm_stats"] == 100
    assert first["attribution.explain_peak_mb"] > 0
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
