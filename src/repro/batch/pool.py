"""One long-lived, recyclable worker-process pool.

:class:`WorkerPool` is the only way the batch engine and the compile
service run pooled work.  It wraps a ``ProcessPoolExecutor`` whose
workers run :func:`_worker_initializer`, starts it lazily on the first
:meth:`~WorkerPool.submit` and keeps it until :meth:`~WorkerPool.close`,
so a sweep of many batches, or a service answering many jobs, forks its
workers once instead of once per run.

Recycling
---------
A pool *generation* is one executor's lifetime.  It ends when a caller
recycles it — after a watchdog kill, or after a ``BrokenProcessPool`` —
and the next submit starts generation + 1.  :meth:`~WorkerPool.submit`
returns the generation a future belongs to, so when several callers
share the pool (the service's scheduler threads), a caller whose future
died can tell "another caller's watchdog killed my generation"
(:meth:`~WorkerPool.killed` — collateral, re-run without charging an
attempt) from "my generation broke" (charged, see
:mod:`repro.batch.resilience`).

Start method
------------
Workers use the platform's default start method (``fork`` on Linux),
as the engine's pools always have: a forked worker inherits the
parent's resolved subcircuit library, which keeps pool start-up in
milliseconds.  The service forks from a threaded process; that is safe
here because a worker touches no lock another parent thread may hold —
the queue and store locks stay in the parent, and CPython resets the
import lock in the child.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple


class WorkerPool:
    """A lazily started process pool of ``workers`` processes, shared
    by every caller holding it and recycled on a kill or a break.

    Thread-safe: the compile service's scheduler threads submit to one
    pool concurrently."""

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        #: Generations a watchdog ended on purpose.
        self._killed: Set[int] = set()
        #: Shared-memory segments every worker attaches at start-up.
        self._segments: List[str] = []
        self._closed = False

    @property
    def generation(self) -> int:
        """The generation the next submit lands in."""
        return self._generation

    def worker_pids(self) -> List[int]:
        """Process ids of the live generation's workers (empty while
        no generation runs)."""
        with self._lock:
            if self._executor is None:
                return []
            return sorted(getattr(self._executor, "_processes", None) or {})

    def add_segment(self, name: str) -> None:
        """Hand a published shared-memory segment to the workers of every
        generation started from now on (running workers build what they
        need locally)."""
        with self._lock:
            if name not in self._segments:
                self._segments.append(name)

    def submit(self, fn: Callable, *args) -> Tuple[Future, int]:
        """Schedule ``fn(*args)``; returns the future and the pool
        generation it runs in.  Raises ``RuntimeError`` once closed."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            try:
                return self._live_locked().submit(fn, *args), self._generation
            except BrokenProcessPool:
                # The generation broke since its last submit and no
                # caller has recycled it yet; its own futures carry the
                # break, so start a fresh one for this job.
                self._end_locked()
                return self._live_locked().submit(fn, *args), self._generation

    def map(self, fn: Callable, items: Iterable) -> List[object]:
        """Order-preserving ``fn`` over ``items``.  A broken generation
        is recycled before ``BrokenProcessPool`` propagates, so the next
        call starts clean."""
        submitted = [self.submit(fn, item) for item in items]
        try:
            return [future.result() for future, _generation in submitted]
        except BrokenProcessPool:
            for generation in {g for _future, g in submitted}:
                self.recycle(generation)
            raise
        finally:
            for future, _generation in submitted:
                future.cancel()

    def recycle(self, generation: int, watchdog: bool = False) -> bool:
        """End ``generation`` if it is still the live one: terminate its
        workers and let the next submit start a fresh generation.
        ``watchdog=True`` records the kill as deliberate, so every other
        future that dies with it reads as collateral
        (:meth:`killed`).  Returns whether this call ended it."""
        with self._lock:
            if generation != self._generation or self._executor is None:
                return False
            if watchdog:
                self._killed.add(generation)
            self._end_locked()
            return True

    def killed(self, generation: int) -> bool:
        """Whether a watchdog ended ``generation`` on purpose."""
        with self._lock:
            return generation in self._killed

    def close(self, kill: bool = False) -> None:
        """Shut the pool down for good: wait for running jobs, or with
        ``kill=True`` terminate them first; either way every worker has
        exited on return.  Later submits raise."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            if kill:
                _terminate(executor)
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _live_locked(self) -> ProcessPoolExecutor:
        if self._executor is None:
            name = _prewarm_parent()
            if name is not None and name not in self._segments:
                self._segments.append(name)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_initializer,
                initargs=(tuple(self._segments), True),
            )
        return self._executor

    def _end_locked(self) -> None:
        executor, self._executor = self._executor, None
        self._generation += 1
        _terminate(executor)
        executor.shutdown(wait=False, cancel_futures=True)


def _terminate(executor: ProcessPoolExecutor) -> None:
    """Terminate every worker of ``executor``.  Reaches into its process
    table — there is no public kill switch, and a missing table (API
    drift) degrades to a plain shutdown."""
    for proc in list((getattr(executor, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass


def _prewarm_parent() -> Optional[str]:
    """Resolve the subcircuit library in this process before any worker
    starts, then publish its tensors over shared memory; returns the
    segment name, or ``None`` when publishing was not possible.

    Fork-started children inherit the live object; spawn/forkserver
    children attach the published segment zero-copy through
    :func:`_worker_initializer` (falling back to the persistent disk
    artifact, then to a characterization) — either way no worker re-runs
    the characterization."""
    from ..scl.library import default_scl
    from ..shm.scl import publish_default_scl

    default_scl()
    return publish_default_scl()


def _exit_with_parent(parent: int) -> None:
    """Worker-side: exit once the process that started this worker is
    gone.  A parent killed outright never shuts its pool down, and an
    orphaned worker would wait on its task queue forever."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def _worker_initializer(
    shm_segments: Sequence[str] = (), follow_parent: bool = False
) -> None:
    """Pool-worker startup hook: with ``follow_parent`` (what
    :class:`WorkerPool` passes) exit when the parent dies (see
    :func:`_exit_with_parent`); attach the parent's published
    shared-memory tensors, then make sure an SCL is resolved before the
    first job lands, so per-job latencies measure compilation, not
    characterization.

    Resolution order for the SCL: the shared-memory segment the parent
    published (zero-copy tensor attach, sub-millisecond), then the
    persistent disk artifact (or the live object inherited under
    fork), then a lazy characterization on first use.  Published net
    views are armed for :func:`repro.rtl.netview.net_view` to hydrate
    on demand.  A worker that cannot preload still works, but says so
    once (this hook runs once per process), because a misconfigured
    cache dir showing up as a uniform slowdown is the kind of mystery
    that eats an afternoon."""
    if follow_parent:
        threading.Thread(
            target=_exit_with_parent, args=(os.getppid(),), daemon=True
        ).start()
    try:
        from ..shm.netview import install_attachments

        install_attachments(shm_segments)
    except Exception:
        pass
    try:
        from ..scl.library import default_scl
        from ..shm.scl import attach_default_scl

        if attach_default_scl() is None:
            default_scl()
    except Exception as exc:
        warnings.warn(
            "repro: batch worker could not preload the subcircuit "
            f"library ({type(exc).__name__}: {exc}); jobs will "
            "characterize lazily — check the SCL cache directory",
            RuntimeWarning,
            stacklevel=2,
        )
