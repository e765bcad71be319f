"""The batch compilation engine.

:class:`BatchCompiler` takes many jobs (full compiles of different
specs, or implement-only runs of explicit architectures), deduplicates
identical ones by content hash, satisfies what it can from the
persistent :class:`~repro.batch.cache.ResultCache`, and schedules the
remainder across a long-lived :class:`~repro.batch.pool.WorkerPool`.
Workers receive plain-dict payloads and return plain-dict records (see
:func:`repro.compiler.syndcim.execute_job`), so no live compiler
objects ever cross a process boundary.

Scheduling notes
----------------
* ``jobs=1`` (or a single pending job without a watchdog) runs inline
  in this process — no pool, easier debugging, identical results.
  Watchdog timeouts, retries and fault injection are pool features;
  inline mode trades them for debuggability.  An engine handed a
  shared ``pool`` (the compile service) always runs pooled.
* The engine's pool starts with the first pooled job and serves every
  later ``run_jobs``/``map`` call until :meth:`BatchCompiler.close`.
  Before it starts, the parent resolves the subcircuit library
  (persistent disk cache, falling back to one characterization); a
  pool initializer then warms every child from the same artifact, so
  no worker ever re-runs the characterization — under ``fork`` *and*
  ``spawn`` alike.
* Job failures are *data*: infeasible specs come back as
  ``status="infeasible"`` records (and are cached — they are
  deterministic), unexpected compiler errors as ``status="error"``
  (not cached).  A sweep never dies half way because one grid corner
  cannot meet timing.

Resilience (see :mod:`repro.batch.resilience` and
``docs/robustness.md``)
----------------------------------------------------------------------
* ``job_timeout_s`` arms a watchdog: jobs are dispatched in a sliding
  window (never more in flight than workers, so dispatch ≈ start),
  each future carries a deadline, and an overdue future gets its pool
  generation killed and recycled rather than hanging the sweep forever.
* Transient failures — a broken pool, a watchdog kill, a future that
  raised with the pool alive — are retried under a
  :class:`~repro.batch.resilience.RetryPolicy` with exponential
  backoff; only an exhausted budget yields terminal
  ``error``/``timeout`` records, annotated with ``attempts`` and
  ``retry_history``.
* Every run with a cache root keeps a write-ahead
  :class:`~repro.batch.resilience.SweepJournal`;
  ``BatchCompiler(resume=<run id>)`` restores finished records from it
  and executes only the remainder.
* ``$REPRO_FAULTS`` (see :mod:`repro.batch.faults`) deterministically
  crashes, hangs or corrupts on demand, so every path above is an
  ordinary test subject.
"""

from __future__ import annotations

import copy
import os
import pathlib
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..arch import MacroArchitecture
from ..errors import BatchError
from ..options import CompileOptions
from ..spec import MacroSpec
from ..verify.harness import DEFAULT_VECTORS
from .cache import ResultCache, ResultStore, default_cache_dir
from .faults import FaultPlan, active_plan
from .jobs import CompileJob, ImplementJob
from .pool import WorkerPool, _worker_initializer  # noqa: F401 (re-export)
from .resilience import PoolOutcome, RetryPolicy, SweepJournal, new_run_id

Job = Union[CompileJob, ImplementJob]
Record = Dict[str, object]
#: progress(done, total, record) — called after every job completion.
ProgressFn = Callable[[int, int, Record], None]


@dataclass
class BatchStats:
    """Work accounting for one batch run."""

    total: int = 0
    unique: int = 0
    cache_hits: int = 0
    compiled: int = 0
    infeasible: int = 0
    failed: int = 0
    #: Jobs whose record is a terminal watchdog timeout.
    timeouts: int = 0
    #: Unique jobs that needed at least one transient-failure retry.
    retried: int = 0
    #: Jobs restored from a previous run's write-ahead journal.
    resumed: int = 0
    elapsed_s: float = 0.0
    #: Journal identity of this run (``--resume`` takes it); ``None``
    #: when journaling was off.
    run_id: Optional[str] = None

    @property
    def deduplicated(self) -> int:
        return self.total - self.unique

    @property
    def cache_misses(self) -> int:
        return self.unique - self.cache_hits

    def cache_line(self) -> str:
        """The one-line summary every batch CLI run prints; ``compiled
        0`` is the proof that a repeated sweep ran entirely from cache,
        and the recovery clause is the proof of what the resilience
        layer had to absorb."""
        line = (
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses; "
            f"compiled {self.compiled}, folded {self.deduplicated} "
            f"duplicate jobs; elapsed {self.elapsed_s:.1f}s"
        )
        recovery = []
        if self.retried:
            recovery.append(f"retried {self.retried}")
        if self.resumed:
            recovery.append(f"resumed {self.resumed}")
        if self.timeouts:
            recovery.append(f"timeouts {self.timeouts}")
        if recovery:
            line += "; recovery: " + ", ".join(recovery)
        return line


@dataclass
class BatchResult:
    """Records in input-job order plus the run's accounting."""

    records: List[Record]
    stats: BatchStats = field(default_factory=BatchStats)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> List[Record]:
        return [r for r in self.records if r.get("status") == "ok"]

    def describe(self) -> str:
        statuses = [r.get("status") for r in self.records]
        lines = [
            f"batch of {self.stats.total} jobs: "
            f"{statuses.count('ok')} ok, "
            f"{statuses.count('infeasible')} infeasible, "
            f"{statuses.count('error')} failed, "
            f"{statuses.count('timeout')} timed out",
            self.stats.cache_line(),
        ]
        return "\n".join(lines)


class BatchCompiler:
    """Compile many design points with dedup, caching and parallelism.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` uses the CPU count, ``1`` runs
        inline.  Ignored when ``pool`` is given (its worker count
        applies).
    cache_dir / use_cache:
        Where the persistent result store lives (default
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); ``use_cache=False``
        disables both lookup and store.
    seed:
        Search-order seed forwarded to every compile job (part of the
        cache key).
    corners:
        Signoff-corner names forwarded to every job (part of the cache
        key); each worker then evaluates its design at every corner, so
        a corner sweep fans out over the same pool as the spec grid.
    verify / verify_vectors:
        Post-synthesis functional verification forwarded to every
        compile job (part of the cache key): each worker drives its
        implemented netlist with that many randomized + directed MAC
        stimuli against the golden model and the record carries the
        report — functional verification as a batch workload.
    job_timeout_s:
        Per-job watchdog deadline (pool mode only): an overdue worker
        is killed with its pool and the job retried; after the retry
        budget it records ``status="timeout"``.  ``None`` (default)
        disables the watchdog.
    retry:
        :class:`~repro.batch.resilience.RetryPolicy` for transient
        failures; the default (two attempts, no backoff) matches the
        engine's historical single-retry behaviour.
    resume:
        A previous run's id (``BatchStats.run_id``): finished records
        are restored from its write-ahead journal and only the
        remainder executes.  Raises
        :class:`~repro.errors.BatchError` for an unknown id.
    journal:
        Force journaling on/off; the default (``None``) journals
        whenever a cache root exists (``use_cache=True`` or an
        explicit ``cache_dir``).
    progress:
        Optional callback invoked after each job resolves.
    store:
        An explicit :class:`~repro.batch.cache.ResultStore` backend to
        consult and populate instead of constructing a
        :class:`~repro.batch.cache.ResultCache` from
        ``cache_dir``/``use_cache`` — how the compile service shares
        one store across many engine runs.  Journaling follows the
        store's filesystem ``root`` when it has one.
    options:
        A :class:`~repro.options.CompileOptions` bundle supplying
        ``seed``/``corners``/``verify``/``verify_vectors``/``vt``/
        ``job_timeout_s`` (and, via :meth:`~repro.options.
        CompileOptions.retry_policy`, ``retry``) in one validated
        object; the individual keyword arguments for those fields are
        ignored when ``options`` is given.
    pool:
        A :class:`~repro.batch.pool.WorkerPool` to run on, shared with
        other engines and closed by its owner — how the compile service
        runs every job on one pool.  Without one the engine starts its
        own on the first pooled job, reuses it across ``run_jobs`` and
        ``map`` calls, and shuts it down in :meth:`close` (or on leaving
        a ``with`` block).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        seed: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        corners: Optional[Sequence[str]] = None,
        verify: bool = False,
        verify_vectors: int = DEFAULT_VECTORS,
        vt: str = "svt",
        job_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        resume: Optional[str] = None,
        journal: Optional[bool] = None,
        store: Optional[ResultStore] = None,
        options: Optional[CompileOptions] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.options = options
        if options is not None:
            seed = options.seed
            corners = options.corners
            verify = options.verify
            verify_vectors = options.verify_vectors
            vt = options.vt
            job_timeout_s = options.job_timeout_s
            retry = options.retry_policy() if retry is None else retry
        if pool is not None:
            jobs = pool.workers
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        #: Where pooled jobs run; see the ``pool`` parameter.
        self.pool = pool if pool is not None else WorkerPool(self.jobs)
        self._owns_pool = pool is None
        if store is not None:
            self.cache: Optional[ResultStore] = store if use_cache else None
        elif use_cache:
            self.cache = ResultCache(cache_dir) if cache_dir else ResultCache()
        else:
            self.cache = None
        self.seed = seed
        self.corners = None if corners is None else tuple(corners)
        self.verify = verify
        self.verify_vectors = verify_vectors
        #: Threshold-flavor policy forwarded to every compile job.
        self.vt = vt
        self.progress = progress
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise BatchError("job_timeout_s must be positive")
        self.job_timeout_s = job_timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self._journal_root = self._resolve_journal_root(
            journal, cache_dir, use_cache
        )
        self._resume = resume
        if resume is not None and self._journal_root is None:
            raise BatchError(
                "resume requires a journal root: enable the cache or "
                "pass cache_dir"
            )
        #: The id this run journals under (and prints, so a killed
        #: sweep can come back as ``--resume <run_id>``).
        self.run_id: Optional[str] = (
            resume
            if resume is not None
            else (new_run_id() if self._journal_root is not None else None)
        )

    def close(self) -> None:
        """Shut down the engine's own pool, waiting for running jobs.  A
        pool passed in belongs to its owner and stays up."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "BatchCompiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _resolve_journal_root(
        self,
        journal: Optional[bool],
        cache_dir: Optional[os.PathLike],
        use_cache: bool,
    ) -> Optional[pathlib.Path]:
        if journal is False:
            return None
        if self.cache is not None:
            # Memory-backed stores have no filesystem root to journal
            # under; they fall through to cache_dir / explicit opt-in.
            root = getattr(self.cache, "root", None)
            if root is not None:
                return pathlib.Path(root)
        if cache_dir is not None:
            return pathlib.Path(cache_dir).expanduser()
        if journal is True:
            return default_cache_dir()
        # No cache root and journaling not requested: stay off rather
        # than surprise-writing under the user's home directory.
        return None

    # -- job construction ---------------------------------------------------

    def compile_specs(
        self,
        specs: Sequence[MacroSpec],
        implement: bool = True,
        input_sparsity: float = 0.0,
        weight_sparsity: float = 0.0,
    ) -> BatchResult:
        """Full compile of every spec (the sweep entry point)."""
        return self.run_jobs(
            [
                CompileJob(
                    spec=spec,
                    implement=implement,
                    input_sparsity=input_sparsity,
                    weight_sparsity=weight_sparsity,
                    seed=self.seed,
                    corners=self.corners,
                    verify=self.verify,
                    verify_vectors=self.verify_vectors,
                    vt=self.vt,
                )
                for spec in specs
            ]
        )

    def implement_archs(
        self,
        spec: MacroSpec,
        archs: Sequence[MacroArchitecture],
        input_sparsity: float = 0.0,
        weight_sparsity: float = 0.0,
    ) -> BatchResult:
        """Implementation-only jobs for explicit architectures (used by
        benchmarks that already ran the search and picked points)."""
        return self.run_jobs(
            [
                ImplementJob(
                    spec=spec,
                    arch=arch,
                    input_sparsity=input_sparsity,
                    weight_sparsity=weight_sparsity,
                    corners=self.corners,
                    verify=self.verify,
                    verify_vectors=self.verify_vectors,
                )
                for arch in archs
            ]
        )

    # -- execution ----------------------------------------------------------

    def run_jobs(self, jobs: Sequence[Job]) -> BatchResult:
        """Dedup, consult journal + cache, execute the rest (with
        watchdog/retry when pooled), reassemble."""
        from ..compiler.syndcim import (
            CACHEABLE_STATUSES,
            _failure_record,
            execute_job,
        )

        started = time.monotonic()
        stats = BatchStats(total=len(jobs), run_id=self.run_id)
        keys = [job.key() for job in jobs]
        by_key: Dict[str, Job] = {}
        for key, job in zip(keys, jobs):
            by_key.setdefault(key, job)
        stats.unique = len(by_key)

        journal: Optional[SweepJournal] = None
        resumed: Dict[str, Record] = {}
        if self._journal_root is not None:
            if self._resume is not None:
                resumed = SweepJournal.load(self._journal_root, self._resume)
            journal = SweepJournal(self._journal_root, run_id=self.run_id)

        resolved: Dict[str, Record] = {}
        pending: Dict[str, Job] = {}
        for key, job in by_key.items():
            if key in resumed:
                # Journal beats cache: it also holds the error/timeout
                # records the cache deliberately refuses to store.
                stats.resumed += 1
                resolved[key] = dict(
                    resumed[key], cached=False, resumed=True, job_key=key
                )
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                stats.cache_hits += 1
                resolved[key] = dict(cached, cached=True, job_key=key)
            else:
                pending[key] = job

        done = stats.cache_hits + stats.resumed

        #: Transient-failure bookkeeping, keyed by job key: attempts
        #: consumed so far, and one history entry per failed attempt.
        attempts: Dict[str, int] = {}
        history: Dict[str, List[Dict[str, object]]] = {}

        def finish(
            key: str,
            record: Record,
            compiled: bool = True,
            cacheable: Optional[Record] = None,
        ) -> None:
            """Account one terminal record.  ``cacheable`` is the pure
            (bookkeeping-free) record to persist, when it differs from
            ``record`` — cached entries must stay bit-identical to a
            fault-free run's output."""
            nonlocal done
            if compiled:
                stats.compiled += 1
            store = record if cacheable is None else cacheable
            if self.cache is not None and store.get("status") in CACHEABLE_STATUSES:
                self.cache.put(key, store)
            if journal is not None:
                journal.done(key, record)
            record = dict(record, cached=False, job_key=key)
            resolved[key] = record
            done += 1
            if self.progress is not None:
                self.progress(done, stats.unique, record)

        def finish_executed(key: str, record: Record) -> None:
            """A record that came back from an execution: annotate the
            retry bookkeeping (if any) without contaminating the
            cached copy."""
            past = history.get(key)
            if past:
                annotated = dict(
                    record,
                    attempts=attempts.get(key, 0) + 1,
                    retry_history=list(past),
                )
                finish(key, annotated, cacheable=record)
            else:
                finish(key, record)

        if self.progress is not None:
            for i, record in enumerate(resolved.values(), start=1):
                self.progress(i, stats.unique, record)

        try:
            if journal is not None:
                journal.begin(total=stats.total, unique=stats.unique)
                journal.submit(pending.keys())
            if pending:
                use_pool = not self._owns_pool or (
                    self.jobs > 1
                    and (len(pending) > 1 or self.job_timeout_s is not None)
                )
                if use_pool:
                    self._prewarm_corners(pending.values())
                    self._run_resilient(
                        pending,
                        finish,
                        finish_executed,
                        attempts,
                        history,
                        _failure_record,
                    )
                else:
                    for key, job in pending.items():
                        finish_executed(key, execute_job(job.payload()))
        finally:
            if journal is not None:
                journal.close()

        stats.retried = sum(1 for n in attempts.values() if n > 0)
        # Deep copies so duplicate input specs don't alias nested dicts,
        # and status tallies over the *returned* records (cache hits
        # included — finish() never sees them).
        records = [copy.deepcopy(resolved[key]) for key in keys]
        statuses = [r.get("status") for r in records]
        stats.infeasible = statuses.count("infeasible")
        stats.failed = statuses.count("error")
        stats.timeouts = statuses.count("timeout")
        stats.elapsed_s = time.monotonic() - started
        return BatchResult(records=records, stats=stats)

    def _run_resilient(
        self,
        pending: Dict[str, Job],
        finish: Callable[..., None],
        finish_executed: Callable[[str, Record], None],
        attempts: Dict[str, int],
        history: Dict[str, List[Dict[str, object]]],
        _failure_record: Callable[..., Record],
    ) -> None:
        """Pool passes until every pending job is terminal.

        Each pass runs :meth:`_run_pool`; its casualties — watchdog
        timeouts, single-future raises, pool-break victims — are
        *transient* (see :mod:`repro.batch.resilience`) and re-enter
        the next pass until :class:`RetryPolicy` says otherwise, at
        which point they become terminal ``timeout``/``error`` records
        carrying their full retry history.  Watchdog *collateral*
        (jobs killed alongside an overdue one, or never started) re-runs
        without being charged an attempt.
        """
        policy = self.retry
        plan = active_plan()
        remaining = dict(pending)
        while remaining:
            outcome = self._run_pool(
                remaining, finish_executed, attempts, plan
            )
            if outcome.broken and plan is not None:
                # The fault plan is deterministic on both sides of the
                # pool: the parent knows exactly which in-flight job
                # was scheduled to crash, so it alone is charged and
                # its pool-mates re-run free.  Without a plan (a real
                # OOM/segfault) the whole suspect set stays charged —
                # the parent genuinely cannot tell.
                culprits = {
                    key: reason
                    for key, reason in outcome.broken.items()
                    if plan.planned(key, attempts.get(key, 0) + 1) == "crash"
                }
                if culprits:
                    for key in outcome.broken:
                        if key not in culprits:
                            outcome.unfinished[key] = pending[key]
                    outcome.broken = culprits
            casualties: List[Tuple[str, str, str]] = []
            for key, reason in outcome.timed_out.items():
                casualties.append((key, "timeout", reason))
            for key, reason in outcome.raised.items():
                casualties.append((key, "error", f"worker died: {reason}"))
            for key, reason in outcome.broken.items():
                casualties.append((key, "error", f"worker died: {reason}"))
            if outcome.fatal is not None and not outcome.broken:
                # The pool broke before anything was in flight (e.g. a
                # dying initializer): no identifiable suspects, so
                # charge everything — the guard against retrying a
                # pool that can never start, forever.
                for key in outcome.unfinished:
                    casualties.append(
                        (key, "error", f"worker died: {outcome.fatal}")
                    )
            next_round: Dict[str, Job] = {}
            delay = 0.0
            for key, status, reason in casualties:
                n = attempts.get(key, 0) + 1
                attempts[key] = n
                fault = None if plan is None else plan.planned(key, n)
                entry: Dict[str, object] = {
                    "attempt": n,
                    "outcome": status,
                    "reason": reason,
                }
                if fault is not None:
                    entry["fault"] = fault
                history.setdefault(key, []).append(entry)
                if n < policy.max_attempts:
                    next_round[key] = pending[key]
                    delay = max(delay, policy.delay(n))
                else:
                    record = dict(
                        _failure_record(pending[key].spec, status, reason),
                        elapsed_s=0.0,
                        attempts=n,
                        retry_history=list(history[key]),
                    )
                    if fault is not None:
                        record["fault"] = fault
                    finish(key, record, compiled=False)
            if outcome.fatal is None or outcome.broken:
                # Uncharged survivors (never dispatched, or watchdog /
                # pool-break collateral) re-run without spending their
                # retry budget on somebody else's failure.
                for key, job in outcome.unfinished.items():
                    next_round.setdefault(key, job)
            remaining = next_round
            if remaining and delay > 0:
                time.sleep(delay)

    def _run_pool(
        self,
        jobs_map: Dict[str, Job],
        finish_executed: Callable[[str, Record], None],
        attempts: Dict[str, int],
        plan: Optional[FaultPlan],
    ) -> PoolOutcome:
        """One pass over ``jobs_map`` through :attr:`pool`.

        Jobs are dispatched in a sliding window (in-flight count never
        exceeds the worker count), so a future's submit time is its
        start time for watchdog purposes.  Three exits:

        * clean — every job finished (or individually raised);
        * watchdog — an overdue future was detected: its pool
          generation is killed and recycled, the overdue jobs land in
          ``timed_out``, everything else unfinished returns for an
          uncharged re-run;
        * pool break — a worker died: ``fatal`` is set, the jobs in
          flight at the break (the only possible culprits, at most one
          per worker) land in ``broken``, and the never-dispatched
          remainder returns for an uncharged re-run.

        A future that died because another caller sharing the pool
        killed its generation (:meth:`WorkerPool.killed`) is
        collateral: it stays in ``unfinished`` for an uncharged re-run
        and the pass carries on.

        If the caller's ``finish`` raises (e.g. the CLI aborting on a
        closed output pipe), this pass's futures are cancelled so the
        grid does not keep compiling into the void.
        """
        from ..compiler.syndcim import execute_job

        pool = self.pool
        outcome = PoolOutcome(unfinished=dict(jobs_map))
        window = min(self.jobs, len(jobs_map))
        deadline_s = self.job_timeout_s
        poll = (
            None
            if deadline_s is None
            else max(0.02, min(0.25, deadline_s / 20))
        )
        queue = list(jobs_map.items())
        next_i = 0
        #: future -> (job key, deadline, pool generation)
        in_flight: Dict[object, Tuple[str, Optional[float], int]] = {}

        def submit_window() -> None:
            nonlocal next_i
            while next_i < len(queue) and len(in_flight) < window:
                key, job = queue[next_i]
                next_i += 1
                payload = job.payload()
                if plan is not None:
                    # Ephemeral context (never part of the job key):
                    # lets workers compute the same fault draws as the
                    # parent.
                    payload["fault_ctx"] = {
                        "key": key,
                        "attempt": attempts.get(key, 0) + 1,
                    }
                try:
                    future, generation = pool.submit(execute_job, payload)
                except RuntimeError as exc:  # incl. BrokenProcessPool
                    outcome.fatal = f"{type(exc).__name__}: {exc}"
                    return
                in_flight[future] = (
                    key,
                    None
                    if deadline_s is None
                    else time.monotonic() + deadline_s,
                    generation,
                )

        try:
            submit_window()
            while in_flight and outcome.fatal is None:
                ready, _ = wait(
                    list(in_flight), timeout=poll, return_when=FIRST_COMPLETED
                )
                for future in ready:
                    key, _deadline, generation = in_flight.pop(future)
                    try:
                        record = future.result()
                    except Exception as exc:
                        reason = f"{type(exc).__name__}: {exc}"
                        if pool.killed(generation):
                            continue  # collateral: stays unfinished
                        outcome.unfinished.pop(key, None)
                        if isinstance(exc, BrokenProcessPool):
                            pool.recycle(generation)
                            outcome.fatal = reason
                            outcome.broken[key] = reason
                            break
                        # A single-future failure with the pool still
                        # alive (cancellation, an injected raise):
                        # transient — the caller decides whether to
                        # retry.
                        outcome.raised[key] = reason
                        continue
                    finish_executed(key, record)
                    outcome.unfinished.pop(key, None)
                if outcome.fatal is not None:
                    break
                if deadline_s is not None:
                    now = time.monotonic()
                    overdue = [
                        future
                        for future, (_key, deadline, _gen) in in_flight.items()
                        if deadline is not None and now >= deadline
                    ]
                    if overdue:
                        for future in overdue:
                            key, _deadline, generation = in_flight.pop(future)
                            outcome.timed_out[key] = (
                                "watchdog: exceeded job timeout "
                                f"{deadline_s:g}s"
                            )
                            outcome.unfinished.pop(key, None)
                            # Running futures cannot be cancelled: kill
                            # their generation; the next submit starts a
                            # fresh one.
                            pool.recycle(generation, watchdog=True)
                        break
                submit_window()
        except BaseException:
            for future in in_flight:
                future.cancel()
            raise
        if outcome.fatal is not None:
            # Everything still in flight shared the broken pool: they
            # are the suspect set the retry loop charges.
            for key, _deadline, _gen in in_flight.values():
                outcome.broken.setdefault(key, outcome.fatal)
                outcome.unfinished.pop(key, None)
        return outcome

    def map(self, fn: Callable, items: Iterable) -> List[object]:
        """Order-preserving parallel map over picklable ``fn``/``items``
        on this engine's pool; serial when ``jobs=1``."""
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return self.pool.map(fn, items)

    def publish_net_view(self, module, library=None) -> Optional[str]:
        """Publish one compiled netlist view's integer tables so pool
        workers hydrate it zero-copy instead of re-walking the module
        (see :mod:`repro.shm.netview`).  Call before the first pooled
        :meth:`run_jobs` / :meth:`map` with any flat module the workers
        will analyze — e.g. a macro the parent already implemented;
        workers already running build it locally.  Returns the
        segment name, or ``None`` when publishing was not possible."""
        from ..rtl.netview import net_view
        from ..shm.netview import publish_net_view as _publish
        from ..tech.stdcells import default_library

        view = net_view(module, library or default_library())
        name = _publish(view)
        if name is not None:
            self.pool.add_segment(name)
        return name

    def _prewarm_corners(self, jobs: Iterable[Job]) -> None:
        """Corner jobs also need the worst-corner SCL: resolve it once
        per job process in the parent (building + persisting on the
        first ever run) so every worker loads the corner artifact from
        disk.  Shares the compiler's resolution
        (:func:`repro.signoff.corners.worst_corner_scl`), so the
        prewarmed artifact is exactly the one workers will ask for.
        Failure is survivable (workers characterize lazily) but not
        silent: a one-per-process warning names the cause, so a
        misconfigured cache dir reads as a warning, not a mystery
        slowdown."""
        if not self.corners:
            return
        try:
            from ..signoff.corners import CornerSet, worst_corner_scl
            from ..tech.process import process_by_name

            corner_set = CornerSet.from_names(self.corners, name="prewarm")
            for name in {job.process_name for job in jobs}:
                worst_corner_scl(process_by_name(name), corner_set)
        except Exception as exc:
            global _PREWARM_WARNED
            if not _PREWARM_WARNED:
                _PREWARM_WARNED = True
                warnings.warn(
                    "repro: corner-SCL prewarm failed "
                    f"({type(exc).__name__}: {exc}); workers will "
                    "characterize lazily — expect a slow first job "
                    "per process",
                    RuntimeWarning,
                    stacklevel=2,
                )


#: Once-per-process latch for the corner-prewarm warning above.
_PREWARM_WARNED = False
