"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.installed()`` rebinds
public procfair functions in the namespaces of the modules that import them
(``procfair.fairness.select_pairs``, ``procfair.mitigation.audit``, ...) and
restores the originals on exit. Each span keeps its name, layer, start, end,
parent, op id, the counts derived from its call, and, for the spans that ask
for it, the tracemalloc peak of the allocations made inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("cli", "datasets", "models", "attribution", "two_sample", "fairness", "mitigation", "sweeps")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    op: str
    end: float = 0.0
    children_s: float = 0.0
    counts: dict = field(default_factory=dict)
    peak_mb: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # Spans run on one thread and close in order, so children never
        # overlap and the time they cover is the sum of their durations.
        return self.duration - self.children_s


# -- counts derived from call arguments (or, for load_csv, the rows read) ----


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _train_counts(args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    epochs = config.epochs if config is not None else 300
    return {"epochs": epochs, "row_epochs": epochs * _arg(args, kwargs, 1, "dataset").m}


def _select_pairs_counts(args, kwargs, result):
    pool = _arg(args, kwargs, 0, "pool")
    n = _arg(args, kwargs, 1, "n", 100)
    g1, g2 = int(pool.advantaged_mask.sum()), int(pool.disadvantaged_mask.sum())
    return {"candidate_distances": (n // 2) * g2 + (n - n // 2) * g1}


def _perm_counts(args, kwargs, result):
    perm_config = _arg(args, kwargs, 3, "perm_config")
    return {"perm_stats": perm_config.n_permutations if perm_config is not None else 1000}


def _modify_counts(args, kwargs, result):
    config = _arg(args, kwargs, 3, "config")
    return {"modify_steps": config.tau if config is not None else 200}


def _rows_arg1(args, kwargs, result):
    return {"rows": len(args[1])}


def _rows_loaded(args, kwargs, result):
    return {"rows": result.m}


# (module, attribute, span name, count function, tracemalloc peak); a span's
# layer is the prefix of its name.
PATCHES = (
    ("procfair.cli", "main", "cli.main", None, False),
    ("procfair.cli", "load_csv", "datasets.load_csv", _rows_loaded, False),
    ("procfair.cli", "standardized_split", "datasets.standardized_split", None, False),
    ("procfair.cli", "load_model", "models.load_model", None, False),
    ("procfair.cli", "save_model", "models.save_model", None, False),
    ("procfair.cli", "predict_labels", "models.predict_labels", None, False),
    ("procfair.cli", "sample_background", "attribution.sample_background", None, False),
    ("procfair.cli", "audit", "fairness.audit", None, False),
    ("procfair.cli", "detect_unfair_features", "mitigation.detect", None, False),
    ("procfair.cli", "modify_model", "mitigation.modify", _modify_counts, False),
    ("procfair.cli", "retrain_without", "mitigation.retrain", None, False),
    ("procfair.models", "train", "models.train", _train_counts, False),
    ("procfair.fairness", "audit", "fairness.audit", None, False),
    ("procfair.fairness", "concat_datasets", "datasets.concat", None, False),
    ("procfair.fairness", "predict_labels", "models.predict_labels", None, False),
    ("procfair.fairness", "sample_background", "attribution.sample_background", None, False),
    ("procfair.fairness", "select_pairs", "fairness.select_pairs", _select_pairs_counts, True),
    ("procfair.fairness", "explain_set", "attribution.explain_set", None, True),
    ("procfair.fairness", "decision_score", "models.decision_score", _rows_arg1, False),
    ("procfair.fairness", "permutation_pvalue", "two_sample.permutation_pvalue", _perm_counts, False),
    ("procfair.mitigation", "audit", "fairness.audit", None, False),
    ("procfair.mitigation", "matched_explanations", "fairness.matched_explanations", None, False),
    ("procfair.mitigation", "permutation_pvalue", "two_sample.permutation_pvalue", _perm_counts, False),
    ("procfair.sweeps", "sweep_sensitive_weight", "sweeps.sweep_sensitive_weight", None, False),
    ("procfair.sweeps", "gpf_run", "fairness.gpf_run", None, False),
    ("procfair.sweeps", "select_fair_features", "datasets.select_fair_features", None, False),
    ("procfair.sweeps", "set_sensitive_weight", "models.set_sensitive_weight", None, False),
)


class Tracer:
    """Keeps spans in memory; ``op(op_id)`` opens the root span of one op
    (layer ``bench``), and every patched call inside it becomes a child."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = ""

    @contextlib.contextmanager
    def _span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, layer, 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += span.duration

    @contextlib.contextmanager
    def op(self, op_id: str):
        self._op = op_id
        with self._span("op", "bench") as span:
            yield span

    def _wrap(self, fn, name, count_fn, peak):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            try:
                with self._span(name, layer) as span:
                    result = fn(*args, **kwargs)
                if peak:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                if peak:
                    tracemalloc.stop()
            if count_fn is not None:
                span.counts = count_fn(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every patched name for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, count_fn, peak in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count_fn, peak))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def op_spans(self, op_id: str) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]


def _total(spans, name, attr="duration") -> float:
    return sum((getattr(s, attr) for s in spans if s.name == name), 0.0)


def _count(spans, name, key=None) -> int:
    return sum(s.counts[key] if key else 1 for s in spans if s.name == name)


def _peak(spans, name) -> float:
    return max((s.peak_mb for s in spans if s.name == name), default=0.0)


def op_metrics(tracer: Tracer, op_id: str) -> tuple[dict, float]:
    """Per-layer metrics of one op, plus the additivity error: how far the
    layers' self times summed (the harness's own ``bench`` layer included)
    are from the op's traced wall time."""
    spans = tracer.op_spans(op_id)
    root = spans[0]
    model_evals = [
        s for s in spans
        if s.name == "models.decision_score" and tracer.spans[s.parent].name == "attribution.explain_set"
    ]
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for s in spans:
        layer_self[s.layer] += s.self_s
    metrics = {
        "models.train_s": _total(spans, "models.train"),
        "models.epochs": _count(spans, "models.train", "epochs"),
        "models.train_row_epochs": _count(spans, "models.train", "row_epochs"),
        "mitigation.modify_self_s": _total(spans, "mitigation.modify", "self_s"),
        "mitigation.modify_steps": _count(spans, "mitigation.modify", "modify_steps"),
        "mitigation.detect_self_s": _total(spans, "mitigation.detect", "self_s"),
        "mitigation.retrain_self_s": _total(spans, "mitigation.retrain", "self_s"),
        "attribution.explain_s": _total(spans, "attribution.explain_set"),
        "attribution.model_eval_s": sum((s.duration for s in model_evals), 0.0),
        "attribution.solve_s": _total(spans, "attribution.explain_set", "self_s"),
        "attribution.model_rows": sum(s.counts["rows"] for s in model_evals),
        "attribution.explain_peak_mb": _peak(spans, "attribution.explain_set"),
        "attribution.explain_calls": _count(spans, "attribution.explain_set"),
        "fairness.audit_calls": _count(spans, "fairness.audit"),
        "fairness.audit_self_s": _total(spans, "fairness.audit", "self_s"),
        "fairness.select_pairs_s": _total(spans, "fairness.select_pairs"),
        "fairness.candidate_distances": _count(spans, "fairness.select_pairs", "candidate_distances"),
        "fairness.select_pairs_peak_mb": _peak(spans, "fairness.select_pairs"),
        "two_sample.perm_test_s": _total(spans, "two_sample.permutation_pvalue"),
        "two_sample.perm_tests": _count(spans, "two_sample.permutation_pvalue"),
        "two_sample.perm_stats": _count(spans, "two_sample.permutation_pvalue", "perm_stats"),
        "datasets.load_s": _total(spans, "datasets.load_csv"),
        "datasets.rows_loaded": _count(spans, "datasets.load_csv", "rows"),
        "sweeps.gpf_runs": _count(spans, "fairness.gpf_run"),
        "trace.op_wall_s": root.duration,
    }
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    return metrics, abs(sum(layer_self.values()) - root.duration)
