"""procfair benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload pipeline_d4 --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the program under test is imported
from the checkout's ``src/``. With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, in which untraced and traced ops alternate. The line before it
records the environment and each op's wall time, problems and output digest.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDITIVITY_TOLERANCE_S = 1e-6
# Set-up time is sampled across the whole run. The first set-up builds the
# state the ops use; after each op, more set-ups run while the time spent on
# set-up is below SETUP_SHARE of the run's elapsed time, and the run ends
# with at least SETUP_MIN_REPS of them. The host's speed moved between
# levels lasting seconds to minutes, so set-ups timed in one 3 s window at
# the start of a run read 0.07 or 0.11 s (pipeline_d4) and 1.1 or 1.9 s
# (pool_200k), depending on the level they fell in.
SETUP_SHARE, SETUP_MIN_REPS = 0.15, 3
# On the 2-CPU box, a second OpenBLAS thread left pipeline_d4, pool_200k and
# sweep_ws no faster while doubling their CPU time, and made explain_d20 only
# 1.2x faster. With a busy process on the other CPU, pipeline_d4's op took
# 1.7-1.9x as long with two threads and 1.04x with one, so two threads
# measured the neighbours rather than procfair.
BLAS_THREADS = 1
# pipeline_d4's op takes 8-11 s; at least three measured ops keep op_p50_s a
# true median when a slow host fits only two into the measuring time.
MIN_MEASURED_OPS = 3


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_blas_threads() -> int:
    """Pin BLAS to BLAS_THREADS threads; must run before numpy is first
    imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _import_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import procfair

    if not Path(procfair.__file__).resolve().is_relative_to(src):
        raise ImportError(f"procfair was imported from {procfair.__file__}, not from {src}")


def _per_layer(tracer, loop) -> tuple[dict, list[float]]:
    """Median per-layer metrics over the traced ops, the tracing overhead,
    the traced set-up's training time, and each traced op's additivity
    error."""
    from tracing import op_metrics

    traced = [(i, r) for i, r in enumerate(loop.records) if r.traced]
    per_op, errors = zip(*(op_metrics(tracer, f"op{i}") for i, _ in traced))

    def median(name):
        values = [m[name] for m in per_op]
        # Counts repeat exactly, so the low median is one of them and stays whole.
        if _per_layer_unit(name) == "count":
            return statistics.median_low(values)
        return statistics.median(values)

    metrics = {name: median(name) for name in per_op[0]}
    untraced = [r.wall_s for r in loop.measured if not r.traced]
    metrics["trace.overhead_s"] = statistics.median(r.wall_s for _, r in traced) - statistics.median(untraced)
    metrics["setup.models.train_s"] = sum(
        (s.duration for s in tracer.op_spans("setup") if s.name == "models.train"), 0.0
    )
    return metrics, list(errors)


def _run(args, workload, blas_threads: int) -> tuple[dict, dict]:
    from harness import closed_loop, end_to_end, environment, peak_rss_mb
    from tracing import Tracer
    from workloads import fresh_dir

    workroot = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer()
    run_start = time.perf_counter()
    setup_times = []

    def timed_setup(name: str):
        setup_dir = fresh_dir(workroot / name)
        t0 = time.perf_counter()
        state = workload.setup(args.seed, setup_dir)
        setup_times.append(time.perf_counter() - t0)
        return state

    def more_setups():
        while sum(setup_times) < SETUP_SHARE * (time.perf_counter() - run_start):
            timed_setup("setup-again")

    try:
        if args.trace:  # a traced run reports no set-up time; one traced set-up
            with tracer.installed(), tracer.op("setup"):
                state = timed_setup("setup")
        else:
            state = timed_setup("setup")

        def op(i: int, traced: bool):
            opdir = fresh_dir(workroot / f"op{i}")
            if not traced:
                return workload.op(state, opdir)
            with tracer.installed(), tracer.op(f"op{i}"):
                return workload.op(state, opdir)

        loop = closed_loop(
            op, workload.check, args.seconds,
            min_ops=2 if args.trace else MIN_MEASURED_OPS,
            warmup=1,
            digest_of=workload.digest,
            traced=(lambda i: i % 2 == 0) if args.trace else None,
            between=None if args.trace else more_setups,
        )
        while not args.trace and len(setup_times) < SETUP_MIN_REPS:
            timed_setup("setup-again")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.parent.rmdir()  # only if no other run is using it

    correct = loop.failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(blas_threads),
        "setup_s": setup_times,
        "phase_s": loop.phase_s,
        "ops": [
            {"wall_s": r.wall_s, "warmup": r.warmup, "traced": r.traced, "problems": r.problems, "digest": r.digest}
            for r in loop.records
        ],
    }
    if args.trace:
        metrics, errors = _per_layer(tracer, loop)
        detail["additivity_error_s"] = errors
        correct = correct and max(errors) <= ADDITIVITY_TOLERANCE_S
        reported = {name: {"value": v, "unit": _per_layer_unit(name)} for name, v in metrics.items()}
    else:
        reported = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(loop, setup_times, peak_rss_mb()).items()
        }
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": reported}
    return detail, result


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    blas_threads = _pin_blas_threads()
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = _parse(argv, WORKLOADS)
    detail, result = _run(args, WORKLOADS[args.workload], blas_threads)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
