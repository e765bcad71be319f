"""Host-speed calibration: a fixed kernel timed beside the work.

The host's speed drifts by a quarter over minutes, so the same code,
timed raw, reads differently from one run to the next (README.md,
"Host noise").  Every timing metric is therefore given in *reference
seconds*: the measured wall time multiplied by a kernel's reference
time over its time measured just before and just after that unit of
work.  A unit of work that takes 0.5 s while the
kernel takes its reference time reads 0.5 s; the same work while the
host runs at two thirds of that speed also reads 0.5 s.

There are two kernels, each shaped like the work it stands beside.
The compile loop and the set-up probes run on one CPU at a time, so
theirs is :func:`kernel`, timed on the CPU that did the work.  A sweep
batch's time is set as much by the round trips of a process pool
(wake-ups and pipes) as by CPU speed, and a CPU kernel does not follow
those, so the sweep's is :class:`PoolKernel`: a fixed number of small
tasks through a standard-library process pool with the engine's
sliding window of one task in flight per worker.

The kernels live in the benchmark, not in the program, so no change to
the program moves them, and a program that gets 10 % faster reads 10 %
faster.  They are only ever timed while the program is idle: between
compiles, between sweep batches, between set-up probes, and before and
after the service's timed phase.  Timed beside a busy program they
would slow down with the program and hide a regression.
"""

from __future__ import annotations

import gc
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Sequence

import numpy as np

#: The kernels' times on the reference host (a 2-vCPU x86-64 virtual
#: machine, CPython 3.11 and NumPy 2), in seconds: :func:`kernel`, and
#: :class:`PoolKernel` with two workers.  Fixed: only the ratio to them
#: enters a metric.
REFERENCE_S = 0.012
POOL_REFERENCE_S = 0.068

_ARRAY = np.arange(4096, dtype=np.int64)


def kernel() -> int:
    """A fixed mix of the interpreter work and small NumPy operations
    the compiler does: dict and list traffic, then sorts and searches
    over a few-thousand-element array."""
    table = {}
    out = []
    for i in range(12000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        out.append(max(k, i & 255))
    top = sorted(out)[-1]
    acc = 0
    for j in range(120):
        b = (_ARRAY * (j + 3)) & 1023
        acc += int(np.searchsorted(np.sort(b), 512))
    return len(table) + top + acc


def sample() -> float:
    """Seconds the kernel takes once, on the CPU this process runs on,
    with the collector off (a collection of the program's garbage is
    the program's cost, not the host's)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def sample_each_cpu(on: Sequence[int]) -> float:
    """The mean kernel time over the given CPUs, pinned to each in turn.
    The process's own affinity is restored afterwards, so that any
    process it starts later is not pinned."""
    before = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in on:
            os.sched_setaffinity(0, {cpu})
            times.append(sample())
        return sum(times) / len(times)
    finally:
        os.sched_setaffinity(0, before)


def _pool_task(n: int) -> Dict[str, object]:
    table: Dict[int, int] = {}
    for i in range(n):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
    return {"n": n, "sum": sum(table.values()), "pad": list(range(50))}


class PoolKernel:
    """80 small tasks through a process pool of ``workers`` processes,
    at most one in flight per worker.  The pool is started once and
    shut down, waiting for its processes, by :meth:`close`; between
    samples its workers sleep."""

    TASKS = 80
    TASK_SIZE = 3000

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.pool = ProcessPoolExecutor(max_workers=workers)
        self.sample()  # starts the workers

    def sample(self) -> float:
        t0 = time.perf_counter()
        in_flight: set = set()
        sent = 0
        while sent < self.TASKS or in_flight:
            while sent < self.TASKS and len(in_flight) < self.workers:
                in_flight.add(self.pool.submit(_pool_task, self.TASK_SIZE))
                sent += 1
            done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                future.result()
        return time.perf_counter() - t0

    def close(self) -> None:
        self.pool.shutdown(wait=True)


def to_reference(
    seconds: float, kernel_before: float, kernel_after: float, reference: float = REFERENCE_S,
) -> float:
    """Wall ``seconds`` in reference seconds, from a kernel's time just
    before and just after them and its time on the reference host."""
    return seconds * reference * 2.0 / (kernel_before + kernel_after)

