"""One set-up probe in a fresh interpreter.

    python3 cimbench/probe.py compile|sweep|prime

Imports the program and loads the SCL artifact; for ``sweep`` it also
starts a ``BatchCompiler`` pool and runs one small search-only batch
through it, which starts and warms its workers.  It then prints
``ready <scl load seconds>`` and exits; ``run.py`` times the probe from
process start to that line.  ``prime`` builds or loads every SCL
artifact the workloads use (nominal and signoff3 worst corner), so that
a first-ever characterization never lands in a measurement.
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_checkout()
common.apply_env()


def main() -> None:
    workload = sys.argv[1]
    import repro  # noqa: F401
    from repro.scl.library import default_scl

    t0 = time.perf_counter()
    default_scl()
    scl_load_s = time.perf_counter() - t0
    if workload == "prime":
        from repro.signoff.corners import parse_corners, worst_corner_scl
        from repro.tech.process import GENERIC_40NM

        worst_corner_scl(GENERIC_40NM, parse_corners("signoff3"))
    if workload == "sweep":
        import specs
        from repro import BatchCompiler

        jobs = common.nproc()
        warm = specs.sweep_batch(0, -1)[: 2 * jobs]
        BatchCompiler(jobs=jobs, use_cache=False).compile_specs(warm, implement=False)
    print(f"ready {scl_load_s:.9f}", flush=True)


if __name__ == "__main__":
    main()
