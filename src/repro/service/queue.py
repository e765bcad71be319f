"""The service's scheduler: a thread-based priority job queue over the
batch engine.

One :class:`JobQueue` owns one :class:`~repro.batch.cache.ResultStore`,
a set of scheduler threads and one :class:`~repro.batch.pool.
WorkerPool` of the same size.  Each accepted job is executed through a
single-job :class:`~repro.batch.engine.BatchCompiler` run on that pool
and sharing that store, so every resilience feature the batch engine
grew — watchdog timeouts, transient-failure retries, deterministic
fault injection — applies per service job unchanged.  Every compile
runs in a worker *process*, with or without ``options.job_timeout_s``:
jobs compile in parallel instead of taking turns on the scheduler
threads' GIL, and a crashing compilation surfaces as a terminal
``error`` record instead of taking the service down.  The pool's
processes start with the first job, not with the queue.

Deduplication
-------------
The unit of identity is the job content hash
(:meth:`repro.batch.jobs.CompileJob.key` — spec + options + process +
schema version).  A submit whose hash is already *queued or running*
attaches to the existing job (same job id back, ``coalesced`` count
bumped) instead of compiling twice; a submit whose hash is already in
the store returns a finished job immediately (a cache hit).  That is
the service-level guarantee behind "never recompile a hash twice", and
``stats()['compiled']`` is the proof.

Statuses
--------
``queued`` → ``running`` → one of the engine's terminal statuses
(``ok`` / ``infeasible`` / ``error`` / ``timeout``), plus
``cancelled`` for jobs removed from the queue before they started.
Terminal records are appended to the service's write-ahead
:class:`~repro.batch.resilience.SweepJournal` (one journal per service
lifetime), and sweep completion triggers journal pruning so a
long-lived service does not accumulate one JSONL per historical run.
"""

from __future__ import annotations

import heapq
import itertools
import os
import pathlib
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..errors import ServiceError, SpecificationError
from ..options import PPA_PRESETS, CompileOptions
from ..spec import MacroSpec
from ..batch.cache import MemoryResultStore, ResultCache, ResultStore
from ..batch.engine import BatchCompiler
from ..batch.jobs import CompileJob
from ..batch.pool import WorkerPool
from ..batch.resilience import SweepJournal, new_run_id, prune_journals

#: Statuses a job can report; the first two are live, the rest terminal.
QUEUED = "queued"
RUNNING = "running"
CANCELLED = "cancelled"
TERMINAL_STATUSES = ("ok", "infeasible", "error", "timeout", CANCELLED)


def _new_id(prefix: str) -> str:
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


@dataclass
class _JobEntry:
    """Internal per-job state (snapshot through :meth:`JobQueue.job`).

    Wall-clock timestamps (``submitted``/``started``/``finished``) are
    *display metadata only* — an NTP step moves them arbitrarily.  All
    interval math runs on the parallel ``*_mono`` readings from
    :func:`time.monotonic`, which is what the ``queued_s``/``run_s``
    fields in snapshots are computed from.
    """

    id: str
    key: str
    job: CompileJob
    options: CompileOptions
    priority: int
    status: str = QUEUED
    record: Optional[Dict[str, object]] = None
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    cached: bool = False
    #: Later submits that attached to this job instead of recompiling.
    coalesced: int = 0
    done: threading.Event = field(default_factory=threading.Event)

    def mark_started(self) -> None:
        self.started = time.time()
        self.started_mono = time.monotonic()

    def mark_finished(self) -> None:
        self.finished = time.time()
        self.finished_mono = time.monotonic()

    def snapshot(self) -> Dict[str, object]:
        now = time.monotonic()
        started = self.started_mono
        queued_end = started if started is not None else now
        run_s: Optional[float] = None
        if started is not None:
            run_end = (
                self.finished_mono if self.finished_mono is not None else now
            )
            run_s = round(run_end - started, 6)
        return {
            "id": self.id,
            "key": self.key,
            "status": self.status,
            "priority": self.priority,
            "spec_summary": self.job.spec.describe(),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "queued_s": round(queued_end - self.submitted_mono, 6),
            "run_s": run_s,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "record": self.record if self.status in TERMINAL_STATUSES else None,
        }


@dataclass
class _SweepEntry:
    id: str
    job_ids: List[str]
    keys: List[str]
    pending: Set[str]
    submitted: float = field(default_factory=time.time)
    finished: Optional[float] = None
    # Monotonic twins of the wall timestamps above (interval math only).
    submitted_mono: float = field(default_factory=time.monotonic)
    finished_mono: Optional[float] = None


class JobQueue:
    """Priority scheduler + result store + journal for the service.

    Parameters
    ----------
    options:
        Default :class:`~repro.options.CompileOptions` applied to
        submissions that do not carry their own.
    store / cache_dir / use_cache:
        Result storage: an explicit :class:`ResultStore`, else a
        :class:`ResultCache` under ``cache_dir`` (default cache root),
        else — with ``use_cache=False`` — a process-local
        :class:`MemoryResultStore` (dedup and fetches still work, but
        nothing survives restarts).
    workers:
        Jobs compiling concurrently: the scheduler threads and the
        worker processes of the shared pool.  Default ``min(4, cpu)``.
    journal / journal_keep:
        The service journals terminal records under its run id
        (``journal=False`` disables); completed sweeps prune the
        journal directory down to the newest ``journal_keep`` files.
    """

    def __init__(
        self,
        options: Optional[CompileOptions] = None,
        store: Optional[ResultStore] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        workers: Optional[int] = None,
        journal: bool = True,
        journal_keep: int = 32,
        start: bool = True,
    ) -> None:
        self.options = options if options is not None else CompileOptions()
        if store is not None:
            self.store = store
        elif use_cache:
            self.store = ResultCache(cache_dir) if cache_dir else ResultCache()
        else:
            self.store = MemoryResultStore()
        self.workers = max(
            1, workers if workers is not None else min(4, os.cpu_count() or 1)
        )
        #: Every job compiles here; no process starts before the first.
        self._pool = WorkerPool(self.workers)
        self.journal_keep = max(0, journal_keep)
        self.run_id = new_run_id()
        #: Wall-clock start (display only; see :meth:`stats`).
        self.started_at = time.time()
        #: Monotonic start — the uptime reference, immune to NTP steps.
        self._started_mono = time.monotonic()
        root = getattr(self.store, "root", None)
        self._journal_root: Optional[pathlib.Path] = (
            pathlib.Path(root) if journal and root is not None else None
        )
        self._journal: Optional[SweepJournal] = (
            SweepJournal(self._journal_root, run_id=self.run_id)
            if self._journal_root is not None
            else None
        )
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._heap: List[tuple] = []
        self._tick = itertools.count()
        self._jobs: Dict[str, _JobEntry] = {}
        self._by_key: Dict[str, _JobEntry] = {}
        self._sweeps: Dict[str, _SweepEntry] = {}
        self._threads: List[threading.Thread] = []
        self._stopping = False
        #: Service-lifetime work accounting (see :meth:`stats`).
        self._counters = {
            "submitted": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "compiled": 0,
            "retried": 0,
            "cancelled": 0,
        }
        if start:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._threads or self._stopping:
                return
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-service-worker-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, cancel everything still queued, wait
        for running jobs to land, shut the worker pool down, close the
        journal.  A job still running after ``timeout`` (a hang without
        a ``job_timeout_s``) has its worker killed, so no process
        outlives the service."""
        with self._lock:
            self._stopping = True
            for entry in self._jobs.values():
                if entry.status == QUEUED:
                    self._finish(entry, CANCELLED, record=None)
            self._wakeup.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._pool.close(kill=any(t.is_alive() for t in self._threads))
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        spec: MacroSpec,
        options: Optional[CompileOptions] = None,
        priority: int = 0,
    ) -> Dict[str, object]:
        """Accept one spec; returns the job snapshot (possibly already
        terminal on a store hit, possibly an existing in-flight job on
        a hash collision — that is the dedup working)."""
        opts = options if options is not None else self.options
        job = opts.compile_job(spec)
        key = job.key()
        with self._lock:
            if self._stopping:
                raise ServiceError("service is shutting down")
            self._counters["submitted"] += 1
            existing = self._by_key.get(key)
            if existing is not None and existing.status in (QUEUED, RUNNING):
                existing.coalesced += 1
                self._counters["coalesced"] += 1
                if priority < existing.priority and existing.status == QUEUED:
                    # A more urgent duplicate promotes the shared job.
                    existing.priority = priority
                    heapq.heappush(
                        self._heap,
                        (priority, next(self._tick), existing.id),
                    )
                return existing.snapshot()
            cached = self.store.get(key)
            if cached is not None:
                entry = _JobEntry(
                    id=_new_id("job"),
                    key=key,
                    job=job,
                    options=opts,
                    priority=priority,
                    status=str(cached.get("status", "ok")),
                    record=dict(cached, cached=True, job_key=key),
                    cached=True,
                )
                entry.started = entry.finished = entry.submitted
                entry.started_mono = entry.finished_mono = (
                    entry.submitted_mono
                )
                entry.done.set()
                self._jobs[entry.id] = entry
                self._by_key[key] = entry
                self._counters["cache_hits"] += 1
                return entry.snapshot()
            entry = _JobEntry(
                id=_new_id("job"),
                key=key,
                job=job,
                options=opts,
                priority=priority,
            )
            self._jobs[entry.id] = entry
            self._by_key[key] = entry
            heapq.heappush(
                self._heap, (priority, next(self._tick), entry.id)
            )
            if self._journal is not None:
                self._journal.submit([key])
            self._wakeup.notify()
            return entry.snapshot()

    def submit_sweep(
        self,
        axes: Mapping[str, Sequence[str]],
        options: Optional[CompileOptions] = None,
        ppa: str = "balanced",
        priority: int = 0,
    ) -> Dict[str, object]:
        """Expand the CLI's range grammar server-side and submit every
        grid point; returns the sweep snapshot (id + per-point job ids
        and content hashes).  Duplicate points — within the sweep or
        against other clients' in-flight work — coalesce exactly like
        :meth:`submit` singles."""
        from ..batch.sweep import expand_grid, parse_axis, parse_format_sets

        def axis(name: str, default: List[str]) -> List[str]:
            value = axes.get(name, default)
            if isinstance(value, str):
                value = [value]
            return [str(v) for v in value]

        known = {"height", "width", "mcr", "formats", "frequency", "vdd"}
        unknown = sorted(set(axes) - known)
        if unknown:
            raise SpecificationError(
                f"unknown sweep axis(es) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        try:
            weights = PPA_PRESETS[ppa]
        except KeyError:
            raise SpecificationError(
                f"unknown ppa preset {ppa!r}; "
                f"known: {', '.join(sorted(PPA_PRESETS))}"
            ) from None
        specs = expand_grid(
            heights=parse_axis(axis("height", ["64"])),
            widths=parse_axis(axis("width", ["64"])),
            mcrs=parse_axis(axis("mcr", ["2"])),
            format_sets=parse_format_sets(axis("formats", ["INT4,INT8"])),
            frequencies=parse_axis(axis("frequency", ["800"]), integer=False),
            vdds=parse_axis(axis("vdd", ["0.9"]), integer=False),
            ppa=weights,
        )
        snapshots = [
            self.submit(spec, options=options, priority=priority)
            for spec in specs
        ]
        with self._lock:
            job_ids = [str(s["id"]) for s in snapshots]
            sweep = _SweepEntry(
                id=_new_id("sweep"),
                job_ids=job_ids,
                keys=[str(s["key"]) for s in snapshots],
                # Membership is judged against *current* statuses under
                # the lock — a point that landed between its submit and
                # this registration must not pin the sweep open forever.
                pending={
                    job_id
                    for job_id in job_ids
                    if self._jobs[job_id].status not in TERMINAL_STATUSES
                },
            )
            self._sweeps[sweep.id] = sweep
            if not sweep.pending:
                self._complete_sweep(sweep)
            return self._sweep_snapshot(sweep)

    # -- inspection ---------------------------------------------------------

    def job(self, job_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            entry = self._jobs.get(job_id)
            return None if entry is None else entry.snapshot()

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Block until the job is terminal; raises
        :class:`~repro.errors.ServiceError` on timeout/unknown id."""
        with self._lock:
            entry = self._jobs.get(job_id)
        if entry is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        if not entry.done.wait(timeout):
            raise ServiceError(
                f"job {job_id} not terminal after {timeout:g}s"
            )
        with self._lock:
            return entry.snapshot()

    def result(self, key: str) -> Optional[Dict[str, object]]:
        """Store lookup by content hash — never compiles."""
        return self.store.get(key)

    def sweep(self, sweep_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            sweep = self._sweeps.get(sweep_id)
            return None if sweep is None else self._sweep_snapshot(sweep)

    def stats(self) -> Dict[str, object]:
        """Queue depths, lifetime work counters and store occupancy —
        the body of ``GET /v1/stats``."""
        with self._lock:
            by_status: Dict[str, int] = {}
            for entry in self._jobs.values():
                by_status[entry.status] = by_status.get(entry.status, 0) + 1
            counters = dict(self._counters)
            sweeps = {
                "total": len(self._sweeps),
                "done": sum(
                    1 for s in self._sweeps.values() if s.finished is not None
                ),
            }
        return {
            "run_id": self.run_id,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "workers": self.workers,
            "jobs": by_status,
            "sweeps": sweeps,
            **counters,
            "store": self.store.occupancy(),
        }

    # -- cancellation -------------------------------------------------------

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a *queued* job.  Running jobs are not interrupted
        (their worker owns them until a terminal record lands) and
        terminal jobs are already history; both report
        ``cancelled=False`` with the current status."""
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None:
                raise ServiceError(f"unknown job id {job_id!r}")
            if entry.status != QUEUED:
                return {"cancelled": False, **entry.snapshot()}
            self._finish(entry, CANCELLED, record=None)
            self._counters["cancelled"] += 1
            return {"cancelled": True, **entry.snapshot()}

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                entry = self._pop_locked()
                if entry is None:
                    if self._stopping:
                        return
                    self._wakeup.wait(timeout=0.5)
                    continue
                entry.status = RUNNING
                entry.mark_started()
            record = self._execute(entry)
            with self._lock:
                if entry.status == RUNNING:
                    self._finish(
                        entry, str(record.get("status", "error")), record
                    )

    def _pop_locked(self) -> Optional[_JobEntry]:
        while self._heap:
            _priority, _tick, job_id = heapq.heappop(self._heap)
            entry = self._jobs.get(job_id)
            # Skip cancelled entries and stale heap duplicates left by
            # priority promotion.
            if entry is not None and entry.status == QUEUED:
                return entry
        return None

    def _execute(self, entry: _JobEntry) -> Dict[str, object]:
        """One job through a single-run engine on the service's pool and
        store.  The engine never raises for job failures (they
        are records); anything else is a service bug mapped onto an
        ``error`` record so the worker thread survives."""
        try:
            engine = BatchCompiler(
                pool=self._pool,
                store=self.store,
                options=entry.options,
                journal=False,
            )
            result = engine.run_jobs([entry.job])
            with self._lock:
                self._counters["compiled"] += result.stats.compiled
                self._counters["retried"] += result.stats.retried
            return result.records[0]
        except Exception as exc:  # pragma: no cover - defensive
            from ..compiler.syndcim import _failure_record

            return dict(
                _failure_record(
                    entry.job.spec,
                    "error",
                    f"service execution failed: "
                    f"{type(exc).__name__}: {exc}",
                ),
                elapsed_s=0.0,
            )

    def _finish(
        self,
        entry: _JobEntry,
        status: str,
        record: Optional[Dict[str, object]],
    ) -> None:
        """Caller holds the lock.  Lands a terminal status, journals
        it, wakes waiters and settles any sweeps the job belonged to."""
        entry.status = status
        entry.mark_finished()
        if record is not None:
            entry.record = dict(record, job_key=entry.key)
            if self._journal is not None:
                self._journal.done(entry.key, record)
        entry.done.set()
        for sweep in self._sweeps.values():
            if entry.id in sweep.pending:
                sweep.pending.discard(entry.id)
                if not sweep.pending:
                    self._complete_sweep(sweep)

    def _complete_sweep(self, sweep: _SweepEntry) -> None:
        """Caller holds the lock: stamp completion and prune old
        journals (keeping this service's own journal alive)."""
        sweep.finished = time.time()
        sweep.finished_mono = time.monotonic()
        if self._journal_root is not None and self.journal_keep:
            prune_journals(
                self._journal_root,
                keep=self.journal_keep,
                exclude=(self.run_id,),
            )

    def _sweep_snapshot(self, sweep: _SweepEntry) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for job_id in sweep.job_ids:
            entry = self._jobs.get(job_id)
            status = entry.status if entry is not None else "unknown"
            counts[status] = counts.get(status, 0) + 1
        return {
            "id": sweep.id,
            "points": len(sweep.job_ids),
            "jobs": list(sweep.job_ids),
            "keys": list(sweep.keys),
            "counts": counts,
            "done": sweep.finished is not None,
            "submitted": sweep.submitted,
            "finished": sweep.finished,
            "elapsed_s": round(
                (
                    sweep.finished_mono
                    if sweep.finished_mono is not None
                    else time.monotonic()
                )
                - sweep.submitted_mono,
                6,
            ),
        }
