"""The benchmark's command: one workload, one seed, one run.

    python3 cimbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures set-up time with fresh-process probes,
then runs the workload's closed loop for ``--seconds`` with tracing off,
checks every record, and prints the end-to-end metrics.  With
``--trace 1`` it prints the per-layer metrics instead, from traced
passes over a fixed prefix of the same inputs (see README.md).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
import host  # noqa: E402

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "qor_energy_pj_geomean": "pJ/cycle",
    "qor_area_mm2_geomean": "mm2",
    "qor_fmax_mhz_geomean": "MHz",
}

PER_LAYER: Dict[str, str] = {
    "rtl.generate_s": "s",
    "rtl.flatten_s": "s",
    "rtl.netview_s": "s",
    "rtl.validate_s": "s",
    "rtl.netview_builds": "count",
    "rtl.validate_calls": "count",
    "rtl.cells_flat": "count",
    "synth.optimize_s": "s",
    "synth.vt_recover_s": "s",
    "synth.cells_out": "count",
    "layout.place_s": "s",
    "layout.route_s": "s",
    "layout.drc_s": "s",
    "layout.lvs_s": "s",
    "sta.min_period_s": "s",
    "sta.analyze_s": "s",
    "power.activity_s": "s",
    "power.estimate_s": "s",
    "signoff.corners_s": "s",
    "verify.macro_s": "s",
    "compiler.self_s": "s",
    "compiler.attempts": "count",
    "search.search_s": "s",
    "search.candidates": "count",
    "search.fixes": "count",
    "scl.load_s": "s",
    "batch.run_jobs_self_s": "s",
    "batch.pool_start_s": "s",
    "batch.worker_busy_ratio": "ratio",
    "batch.dedup_ratio": "ratio",
    "batch.retries": "count",
    "service.latency_p90_s": "s",
    "service.read_latency_p50_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.run_p50_s": "s",
    "service.http_rtt_p50_s": "s",
    "service.polls_per_point": "count",
    "service.coalesced_ratio": "ratio",
    "service.read_hit_ratio": "ratio",
    "service.compiled_per_unique": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}

#: Span names whose self time is reported as ``<name>_s`` (the root
#: span of a compile is reported as ``compiler.self_s``).
SPAN_METRICS = {
    "compiler": "compiler.self_s",
    "batch.run_jobs": "batch.run_jobs_self_s",
}

#: Counts that must repeat exactly between two traced passes.
DETERMINISTIC_COUNTS = (
    "rtl.netview_builds",
    "rtl.validate_calls",
    "rtl.cells_flat",
    "synth.cells_out",
    "search.candidates",
    "search.fixes",
    "compiler.attempts",
)

#: Design points per traced pass: one whole compile cycle (every
#: stratum once, see specs.py), one sweep batch, and enough service
#: requests for every service stratum to appear twice.
TRACE_POINTS = {"compile": 16, "sweep": 400, "service": 32}
PHASE_TIMEOUT_S = 170


def _python(script: str, *args: str) -> List[str]:
    return [sys.executable, str(common.BENCH_DIR / script), *args]


def _run_json(cmd: List[str]) -> Dict[str, object]:
    """Run a benchmark child to completion; its last stdout line is
    JSON."""
    proc = subprocess.run(
        cmd, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
        text=True, timeout=PHASE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe(workload: str) -> Tuple[float, float]:
    """(seconds from process start to ready, SCL load seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        _python("probe.py", workload), cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=PHASE_TIMEOUT_S)
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe for {workload} failed")
    return ready, float(line.split()[1])


def setup_samples(workload: str, probes: int) -> Tuple[List[float], List[float]]:
    """``probes`` fresh-process set-up times in reference seconds (the
    host's calibration kernel is timed on every CPU between probes, see
    host.py), and SCL load times as measured."""
    import wl_service

    cpus = host.cpus()
    kernel_before = host.sample_each_cpu(cpus)
    setup, scl = [], []
    for _ in range(probes):
        if workload == "service":
            sample = (wl_service.setup_probe(), 0.0)
        else:
            sample = _probe(workload)
        kernel_after = host.sample_each_cpu(cpus)
        setup.append(host.to_reference(sample[0], kernel_before, kernel_after))
        scl.append(sample[1])
        kernel_before = kernel_after
    return setup, scl


def end_to_end(phase: Dict[str, object], setup: List[float]) -> Dict[str, float]:
    """The end-to-end metrics; every time in reference seconds (see
    host.py)."""
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": phase["points"] / phase["ref_busy_s"],
        "latency_p50_s": common.median_hd(phase["ref_latencies"]),
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    metrics.update(common.qor_metrics(phase["qors"]))
    print(
        f"cimbench: wall clock as measured: {phase['points'] / phase['wall_s']:.6g} points/s, "
        f"latency p50 {statistics.median(phase['latencies']):.6g} s",
        file=sys.stderr,
    )
    return metrics


def _measured_pass(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    if workload == "service":
        import wl_service

        return wl_service.service_pass(seed, seconds, 0, timed_rtt=False)
    return _run_json(_python("phase.py", workload, "--seed", str(seed), "--seconds", str(seconds)))


def _traced_passes(workload: str, seed: int) -> Tuple[Dict, Dict, Dict]:
    """Two traced passes and, between them, an untraced one over the
    same inputs, so that a steady drift in the host's speed cancels
    from ``trace.overhead``."""
    points = str(TRACE_POINTS[workload])
    extra = ["--jobs", "1"] if workload == "sweep" else []
    base = _python("phase.py", workload, "--seed", str(seed), "--points", points, *extra)
    first = _run_json(base + ["--trace"])
    untraced = _run_json(base)
    second = _run_json(base + ["--trace"])
    return untraced, first, second


def _span_layers(traced: Dict[str, object], metrics: Dict[str, float]) -> None:
    points = traced["points"]
    for span, seconds in traced["self_s"].items():
        metrics[SPAN_METRICS.get(span, span + "_s")] = seconds / points
    for name, count in traced["counts"].items():
        metrics[name] = count / points
    metrics["trace.unattributed_s"] = (traced["wall_s"] - sum(traced["self_s"].values())) / points


def per_layer_flow(workload: str, seed: int, scl: List[float]) -> Tuple[Dict[str, float], List[Dict], List[str]]:
    untraced, first, second = _traced_passes(workload, seed)
    metrics: Dict[str, float] = {"scl.load_s": statistics.median(scl)}
    _span_layers(first, metrics)
    metrics["trace.overhead"] = (first["wall_s"] + second["wall_s"]) / (2 * untraced["wall_s"]) - 1.0
    for target in first["missing"]:
        print(f"cimbench: trace target missing, its time stays with its caller: {target}", file=sys.stderr)
    problems = []
    for name in DETERMINISTIC_COUNTS:
        if first["counts"].get(name) != second["counts"].get(name):
            problems.append(f"{name} differs between two traced passes")
    passes = [untraced, first, second]
    if workload == "sweep":
        pool = _run_json(_python(
            "phase.py", "sweep", "--seed", str(seed), "--points", "1200", "--pool-clock",
        ))
        batch = pool["batch"]
        metrics["batch.pool_start_s"] = statistics.median(batch["pool_start"]) if batch["pool_start"] else 0.0
        metrics["batch.worker_busy_ratio"] = batch["busy_s"] / (batch["workers"] * pool["wall_s"])
        metrics["batch.dedup_ratio"] = batch["dedup"]
        metrics["batch.retries"] = batch["retries"] / pool["points"]
        passes.append(pool)
    return metrics, passes, problems


def _service_counts(service: Dict[str, object]) -> Dict[str, float]:
    """The service counts that must repeat exactly between passes."""
    return {
        "service.compiled_per_unique": service["compiled"] / service["unique"],
        "service.read_hit_ratio": service["read_hits"] / service["points"],
    }


def per_layer_service(seed: int, seconds: float, scl: List[float]) -> Tuple[Dict[str, float], List[Dict], List[str]]:
    import wl_service

    full = wl_service.service_pass(seed, seconds, 0, timed_rtt=True)
    traced = wl_service.service_pass(seed, 0, TRACE_POINTS["service"], timed_rtt=True)
    untraced = wl_service.service_pass(seed, 0, TRACE_POINTS["service"], timed_rtt=False)
    again = wl_service.service_pass(seed, 0, TRACE_POINTS["service"], timed_rtt=True)
    problems = []
    # Too few samples for a p90, or no poll timed, is a failed check:
    # the figure then reads as a worst case, never as a perfect 0.
    p90 = common.percentile(full["latencies"], 90)
    if p90 is None:
        problems.append(f"{len(full['latencies'])} latency samples are too few for a p90")
        p90 = max(full["latencies"], default=float(seconds))
    if not full["rtts"]:
        problems.append("no poll was timed for the HTTP round trip")
    n = full["points"]
    unattributed = [
        lat - q - r for lat, q, r in zip(full["latencies"], full["queued"], full["run"])
    ]
    metrics = {
        "scl.load_s": statistics.median(scl),
        "service.latency_p90_s": p90,
        "service.read_latency_p50_s": statistics.median(full["read_latencies"]),
        "service.queue_wait_p50_s": statistics.median(full["queued"]),
        "service.run_p50_s": statistics.median(full["run"]),
        "service.http_rtt_p50_s": statistics.median(full["rtts"] or [float(seconds)]),
        "service.polls_per_point": full["polls"] / n,
        "service.coalesced_ratio": full["coalesced"] / n,
        **_service_counts(full),
        "trace.unattributed_s": statistics.median(unattributed),
        "trace.overhead": (traced["wall_s"] + again["wall_s"]) / (2 * untraced["wall_s"]) - 1.0,
    }
    for name, value in _service_counts(full).items():
        if _service_counts(traced)[name] != value:
            problems.append(f"{name} differs between two traced passes")
    return metrics, [full, traced, untraced, again], problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compile", "sweep", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_checkout()

    subprocess.run(
        _python("probe.py", "prime"), cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.DEVNULL, check=True, timeout=PHASE_TIMEOUT_S,
    )
    if args.trace:
        _setup, scl = setup_samples("compile", common.SETUP_PROBES)
        if args.workload == "service":
            layers, passes, problems = per_layer_service(args.seed, args.seconds, scl)
        else:
            layers, passes, problems = per_layer_flow(args.workload, args.seed, scl)
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        # One uncounted warm-up probe, then half the probes before the
        # timed phase and half after it: the host's speed drifts over
        # tens of seconds, and probes on both sides of the phase sample
        # two stretches of it.
        setup_samples(args.workload, 1)
        setup = setup_samples(args.workload, common.SETUP_PROBES // 2)[0]
        phase = _measured_pass(args.workload, args.seed, args.seconds)
        setup += setup_samples(args.workload, common.SETUP_PROBES - common.SETUP_PROBES // 2)[0]
        passes, problems = [phase], []
        values = end_to_end(phase, setup)
        units = END_TO_END

    attempted = sum(p.get("attempted", p["points"]) for p in passes)
    failed = sum(p["failed"] for p in passes) + len(problems)
    for message in problems + [m for p in passes for m in p["problems"]][:20]:
        print(f"cimbench: {message}", file=sys.stderr)
    common.emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
