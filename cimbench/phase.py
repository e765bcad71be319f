"""One measured pass of the compile or sweep workload, in its own
process, so that its peak resident set and its warm caches belong to
this pass alone.

    python3 cimbench/phase.py compile --seed 1 --seconds 30
    python3 cimbench/phase.py sweep --seed 1 --points 400 --jobs 1 --trace

``--seconds`` runs a closed loop until the time is up; ``--points``
runs a fixed amount of work instead (the traced passes and their
untraced twin use it, so they see identical inputs).  The last line of
standard output is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from typing import Dict, List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_checkout()
common.apply_env()

import host  # noqa: E402
import specs  # noqa: E402
import tracer as tracing  # noqa: E402


def compile_pass(args) -> Dict[str, object]:
    from repro import MacroSpec
    from repro.compiler.syndcim import SynDCIM, result_to_record
    from repro.errors import SearchError

    plan = [(spec, specs.OPTION_CLASSES[k]) for spec, k in specs.compile_plan(args.seed)]
    # Warm-up outside the timed phase: one small compile per option
    # class loads the corner SCL and every lazily imported module.
    warm = MacroSpec(height=16, width=16, mcr=1, mac_frequency_mhz=300.0)
    for opts in specs.OPTION_CLASSES.values():
        SynDCIM.from_options(opts).compile(warm, verify=True)

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(tracing.FLOW_TARGETS)
    # The designer's compiles take turns on the host's CPUs.  Each CPU
    # of a virtual host drifts in speed on its own (see README.md), and
    # a single-threaded loop left to the scheduler stays on one of them
    # for tens of seconds; taking turns makes every run sample all of
    # them alike.  The turn shifts by one each cycle, so that no stratum
    # is tied to one CPU.
    cpus = host.cpus()
    # A timed pass also times the host's calibration kernel just before
    # and just after each compile, on the same CPU (see host.py).
    calibrate = not args.points
    latencies: List[float] = []
    ref_latencies: List[float] = []
    ref_busy_s = 0.0
    book = common.RecordBook(implemented=True, verified=True)
    started = time.perf_counter()
    deadline = started + args.seconds
    i = 0
    while (i < args.points) if args.points else (time.perf_counter() < deadline):
        spec, opts = plan[i % len(plan)]
        os.sched_setaffinity(0, {cpus[(i + i // len(plan)) % len(cpus)]})
        i += 1
        kernel_before = host.sample() if calibrate else 0.0
        t0 = time.perf_counter()
        try:
            result = SynDCIM.from_options(opts).compile(spec, verify=True)
        except SearchError as exc:
            result, record = None, {"status": "infeasible", "error": str(exc)}
        except Exception as exc:
            result, record = None, {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        latency = time.perf_counter() - t0
        if result is not None:
            record = result_to_record(result)
            del result
        busy = time.perf_counter() - t0
        latencies.append(latency)
        if calibrate:
            kernel_after = host.sample()
            ref_latencies.append(host.to_reference(latency, kernel_before, kernel_after))
            ref_busy_s += host.to_reference(busy, kernel_before, kernel_after)
        book.add(f"{spec.content_hash()}:{opts.vt}:{opts.corners}", record)
    wall = time.perf_counter() - started
    tracer.uninstall()
    return {
        "points": i,
        "wall_s": wall,
        "latencies": latencies,
        "ref_latencies": ref_latencies,
        "ref_busy_s": ref_busy_s,
        "failed": book.failed,
        "problems": book.problems,
        "qors": book.qors,
        "peak_rss_mb": common.peak_rss_mb(),
        "self_s": tracer.self_seconds(),
        "counts": tracer.counts,
        "missing": tracer.missing,
    }


class _PoolClock:
    """Times the engine's first job dispatch after ``run_jobs`` starts:
    key/dedup work, SCL prewarm and worker start-up."""

    def __init__(self) -> None:
        self.entered = None
        self.samples: List[float] = []

    def install(self, tracer: tracing.Tracer) -> None:
        import repro.batch.engine as engine

        clock = self
        base = getattr(engine, "ProcessPoolExecutor", None)
        if base is None:
            tracer.missing.append("repro.batch.engine.ProcessPoolExecutor")
            return

        class TimedPool(base):
            def submit(self, *a, **k):
                future = super().submit(*a, **k)
                if clock.entered is not None:
                    clock.samples.append(time.perf_counter() - clock.entered)
                    clock.entered = None
                return future

        run_jobs = engine.BatchCompiler.run_jobs

        def timed_run_jobs(engine_self, jobs):
            clock.entered = time.perf_counter()
            return run_jobs(engine_self, jobs)

        tracer.patch(engine, "ProcessPoolExecutor", TimedPool)
        tracer.patch(engine.BatchCompiler, "run_jobs", timed_run_jobs)


def sweep_pass(args) -> Dict[str, object]:
    from repro import BatchCompiler

    engine = BatchCompiler(jobs=args.jobs, use_cache=False)
    warm = specs.sweep_batch(args.seed, -1)[: 4 * args.jobs]
    engine.compile_specs(warm, implement=False)

    tracer = tracing.Tracer()
    pool_clock = _PoolClock()
    if args.trace:
        tracer.install(tracing.BATCH_TARGETS + tracing.FLOW_TARGETS)
    if args.pool_clock:
        pool_clock.install(tracer)
    # A timed pass also times the host's pool kernel between batches,
    # while the engine's pool is down (see host.py).
    pool_kernel = host.PoolKernel(args.jobs) if not args.points else None
    latencies: List[float] = []
    ref_latencies: List[float] = []
    book = common.RecordBook(implemented=False, verified=False)
    batch_stats = []
    points = 0
    busy_s = 0.0
    try:
        kernel_before = pool_kernel.sample() if pool_kernel else 0.0
        started = time.perf_counter()
        deadline = started + args.seconds
        i = 0
        while (points < args.points) if args.points else (
            time.perf_counter() < deadline or i < specs.SWEEP_QOR_BATCHES
        ):
            batch = specs.sweep_batch(args.seed, i)
            i += 1
            t0 = time.perf_counter()
            result = engine.compile_specs(batch, implement=False)
            latency = time.perf_counter() - t0
            latencies.append(latency)
            if pool_kernel:
                kernel_after = pool_kernel.sample()
                ref_latencies.append(host.to_reference(
                    latency, kernel_before, kernel_after, host.POOL_REFERENCE_S,
                ))
                kernel_before = kernel_after
            points += len(result.records)
            batch_stats.append(result.stats)
            if len(result.records) != len(batch):
                book.failed += 1
                book.problems.append(f"{len(result.records)} records for {len(batch)} points")
            seen = set()
            for record in result.records:
                book.add(str(record.get("spec_hash")), record, keep_qor=i <= specs.SWEEP_QOR_BATCHES)
                key = record.get("job_key")
                if key not in seen:
                    seen.add(key)
                    busy_s += float(record.get("elapsed_s") or 0.0)
            del result
        wall = time.perf_counter() - started
    finally:
        if pool_kernel:
            pool_kernel.close()
    tracer.uninstall()
    total = sum(s.total for s in batch_stats)
    return {
        "points": points,
        "wall_s": wall,
        "latencies": latencies,
        "ref_latencies": ref_latencies,
        "ref_busy_s": sum(ref_latencies),
        "failed": book.failed,
        "problems": book.problems,
        "qors": book.qors,
        "peak_rss_mb": common.peak_rss_mb(),
        "self_s": tracer.self_seconds(),
        "counts": tracer.counts,
        "missing": tracer.missing,
        "batch": {
            "busy_s": busy_s,
            "workers": args.jobs,
            "dedup": sum(s.deduplicated for s in batch_stats) / total,
            "retries": sum(s.retried for s in batch_stats),
            "pool_start": pool_clock.samples,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("compile", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--points", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=common.nproc())
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--pool-clock", action="store_true",
        help="time each engine run's first job dispatch (sweep)",
    )
    args = parser.parse_args()
    run = compile_pass if args.workload == "compile" else sweep_pass
    common.emit(run(args))


if __name__ == "__main__":
    main()
