"""Paths, child-process environment, statistics and record checks shared
by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes: SCL artifact, result stores, journals,
#: temporary files.  Never under ``~/.cache/repro``.
WORK = ROOT / ".cimbench_work"

#: Fields that legitimately differ between repeats of one spec: the
#: engine's bookkeeping, and timings at any depth (the verification
#: report carries its own ``elapsed_s`` and ``vectors_per_s``).
VOLATILE_FIELDS = frozenset(
    ("elapsed_s", "cached", "job_key", "attempts", "retry_history", "vectors_per_s")
)

#: Setup probes per run (after one uncounted warm-up probe).
SETUP_PROBES = 8


def require_checkout() -> None:
    """Exit non-zero, printing no result, unless the program's sources
    sit beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cimbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the
    checkout's sources first on the path, and every cache, store and
    temporary file inside :data:`WORK`."""
    for sub in ("scl", "cache", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["REPRO_SCL_CACHE"] = str(WORK / "scl")
    env["REPRO_CACHE_DIR"] = str(WORK / "cache")
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("REPRO_FAULTS", None)
    return env


def apply_env() -> None:
    """Adopt :func:`child_env` in this process (for phase processes
    that import the program directly)."""
    os.environ.update(child_env())


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def percentile(values: Sequence[float], pct: int) -> Optional[float]:
    """The ``pct``-th percentile, or ``None`` unless at least ten
    samples lie beyond it."""
    if len(values) * (100 - pct) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


def median_hd(values: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median: a mean of all order
    statistics, weighted by the Beta((n+1)/2, (n+1)/2) mass of each
    one's slice of [0, 1].  Compile latencies cluster by input size, and
    the sample median jumps when noise moves which cluster sits in the
    middle; this estimate moves smoothly."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    a = (len(x) + 1) / 2.0
    grid = np.linspace(0.0, 1.0, 4097)
    mid = (grid[:-1] + grid[1:]) / 2.0
    log_pdf = (a - 1.0) * (np.log(mid) + np.log1p(-mid))
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(len(x) + 1) / len(x), grid, cdf))
    return float(weights @ x)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in VOLATILE_FIELDS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def canonical(record: Dict[str, object]) -> str:
    """The record as sorted JSON without the fields that may differ
    between repeats."""
    return json.dumps(_strip(record), sort_keys=True, separators=(",", ":"))


def check_record(record: Dict[str, object], implemented: bool, verified: bool) -> List[str]:
    """Problems with one terminal record; empty when it is correct.

    ``ok`` records must be DRC/LVS clean and meet timing at the target
    (at the worst corner when corners were evaluated); with
    ``verified`` they must also pass verification against the golden
    model.  Search-only records must carry a selected design that meets
    its target.  ``infeasible`` records must say why; any other status
    is a failure."""
    status = record.get("status")
    if status == "infeasible":
        return [] if record.get("error") else ["infeasible record without a reason"]
    if status != "ok":
        return [f"status {status}: {record.get('error')}"]
    problems = []
    selected = record.get("selected") or {}
    if not selected.get("met"):
        problems.append("selected design misses its target")
    impl = record.get("implementation")
    if not implemented:
        return problems
    if not impl:
        return problems + ["ok record without an implementation"]
    for flag in ("drc_clean", "lvs_clean", "timing_met", "signoff_clean"):
        if impl.get(flag) is not True:
            problems.append(f"{flag} is {impl.get(flag)}")
    if verified and impl.get("verified") is not True:
        problems.append(f"verified is {impl.get('verified')}")
    return problems


class RecordBook:
    """Checks records as they arrive and keeps only what the metrics
    need — a digest per spec and the QoR of its first ``ok`` record —
    so the measured process does not grow with the records it saw.

    ``key`` names the work (spec and options); every later record under
    a key must equal the first once volatile fields are stripped."""

    def __init__(self, implemented: bool, verified: bool) -> None:
        self.implemented = implemented
        self.verified = verified
        self.digests: Dict[str, str] = {}
        self.qors: List[Sequence[float]] = []
        self.failed = 0
        self.problems: List[str] = []

    def add(self, key: str, record: Dict[str, object], keep_qor: bool = True) -> None:
        found = check_record(record, self.implemented, self.verified)
        if found:
            self.failed += 1
            self.problems += found
        digest = hashlib.sha256(canonical(record).encode()).hexdigest()
        first = self.digests.get(key)
        if first is None:
            self.digests[key] = digest
            if keep_qor and record.get("status") == "ok":
                qor = implemented_qor if self.implemented else estimated_qor
                self.qors.append(qor(record))
        elif first != digest:
            self.failed += 1
            self.problems.append(f"repeat of {key[:12]} gave a different record")


def implemented_qor(record: Dict[str, object]):
    """(energy pJ/cycle, area mm2, fmax MHz) after layout."""
    impl = record["implementation"]
    return (
        impl["energy_per_cycle_pj"],
        impl["area_um2"] / 1e6,
        impl["max_frequency_mhz"],
    )


def estimated_qor(record: Dict[str, object]):
    """(energy pJ/cycle, area mm2, fmax MHz) of the search estimate."""
    est = record["selected"]
    return (
        est["energy_per_cycle_pj"],
        est["area_um2"] / 1e6,
        1e3 / est["critical_path_ns"],
    )


def qor_metrics(qors: Iterable[Sequence[float]]) -> Dict[str, float]:
    qors = list(qors)
    return {
        "qor_energy_pj_geomean": geomean(q[0] for q in qors),
        "qor_area_mm2_geomean": geomean(q[1] for q in qors),
        "qor_fmax_mhz_geomean": geomean(q[2] for q in qors),
    }


def peak_rss_mb() -> float:
    """Highest resident set of this process and of its waited-for
    children, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def emit(payload: Dict[str, object]) -> None:
    """Print one JSON object as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(payload, sort_keys=True), flush=True)
