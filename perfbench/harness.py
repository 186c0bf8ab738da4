"""Closed-loop driver: one client, one op in flight at a time.

``closed_loop`` runs warm-up ops, then runs ops until the measuring time is
spent (at least ``min_ops``). It times each op, checks its outputs and
records a failed op without stopping: an op fails if it raises or if its
check reports a problem. Warm-up ops are checked too but are not timed into
the metrics, so caches fill and lazy set-up finishes first. The
workload-specific parts come in as callables, so the loop can be tested with
stub ops.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class OpRecord:
    wall_s: float
    problems: list[str]
    digest: str | None = None
    traced: bool = False
    warmup: bool = False


@dataclass
class LoopResult:
    records: list[OpRecord] = field(default_factory=list)
    phase_s: float = 0.0

    @property
    def measured(self) -> list[OpRecord]:
        return [r for r in self.records if not r.warmup]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.problems)


def digest(value) -> str:
    """sha256 of a value's canonical JSON (floats keep their repr digits)."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _run_op(op, check, i: int, traced: bool, digest_of) -> OpRecord:
    t0 = time.perf_counter()
    try:
        out = op(i, traced)
        wall = time.perf_counter() - t0
        problems = list(check(out))
        return OpRecord(wall, problems, digest(digest_of(out)) if digest_of else None, traced)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        wall = time.perf_counter() - t0
        last = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(last.filename)}:{last.lineno}"
        return OpRecord(wall, [f"raised {type(exc).__name__} at {where}: {exc}"], None, traced)


def closed_loop(
    op, check, seconds: float, min_ops: int = 1, warmup: int = 0, digest_of=None, traced=None, between=None
) -> LoopResult:
    """Run ``warmup`` untraced ops, then run ``op(i, traced)`` back to back
    until ``seconds`` have passed and at least ``min_ops`` measured ops ran.
    ``traced(i)`` says whether measured op ``i`` runs traced. ``between()``
    runs after every op; its time counts neither to the op nor to the
    measuring phase."""
    result = LoopResult()
    for i in range(warmup):
        record = _run_op(op, check, i, False, digest_of)
        record.warmup = True
        result.records.append(record)
        if between is not None:
            between()
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        is_traced = bool(traced(i)) if traced else False
        result.records.append(_run_op(op, check, warmup + i, is_traced, digest_of))
        i += 1
        if between is not None:
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
        if time.perf_counter() - start - paused >= seconds and i >= min_ops:
            break
    result.phase_s = time.perf_counter() - start - paused
    return result


def end_to_end(loop: LoopResult, setup_times: list[float], peak_rss_mb: float) -> dict:
    measured = loop.measured
    completed = sum(1 for r in measured if not r.problems)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(r.wall_s for r in measured), "s"),
        "ops_per_s": (completed / loop.phase_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ops_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_runtime_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if no OpenBLAS is
    mapped into this process."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": blas_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
