"""The service workload: designers sharing one compile service.

``python -m repro serve --port 0`` runs as a subprocess with a fresh
result store under the benchmark's work directory.  ``nproc``
:class:`~repro.service.client.ServiceClient` threads run a closed loop;
each new spec is requested three times:

1. by its designer, who polls the job until it is terminal (the
   latency sample, from submit to terminal reply);
2. by another designer while it is still in flight — a coalesce, which
   must hand back the same job;
3. by its designer again after it finished — a store read, which must
   return a byte-identical record without compiling.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from collections import defaultdict
from typing import Dict, List, Optional

import common
import host
import specs

#: Poll interval while waiting for a job; short next to the ~0.1-0.5 s
#: compiles so that polling adds little to the measured latency.
POLL_S = 0.02
#: The server's resident set grows with the requests it served (from
#: about 48 MB to a level of 140-190 MB that it reaches after some
#: eighty new specs), and the QoR geomeans depend on which specs were
#: served.  A time-bounded
#: pass serves more requests on a faster host, so both are read over
#: the first this many new specs (six cycles of the strata): the same
#: work in every run of a seed.  A timed pass hands out at least this
#: many specs, even after its time is up.
FIXED_POINTS = 96
#: A timed pass runs in epochs of this many new specs (one cycle of
#: the strata).  At each epoch's end every designer waits until all of
#: them have finished their jobs; the host's calibration kernel is then
#: timed while the server idles (timed beside its compiles it would
#: slow down with them, see host.py), and each job's latency is put in
#: reference seconds by the kernel samples around its epoch.
EPOCH_SPECS = len(specs.SERVICE_STRATA)
#: Kernel samples on each CPU at each epoch boundary (their median).
CALIBRATION_SAMPLES = 3
TERMINAL = ("ok", "infeasible", "error", "timeout", "cancelled")


class Server:
    """One ``repro serve`` subprocess with its own fresh store."""

    def __init__(self) -> None:
        self.store = common.WORK / "service" / uuid.uuid4().hex
        self.store.mkdir(parents=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(self.store)],
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.url: Optional[str] = None
        for line in self.proc.stdout:
            if line.startswith("serving on "):
                self.url = line.split()[-1]
                break
        if self.url is None:
            self.close()
            raise RuntimeError("compile service did not report its address")
        # Drain the rest of its output so the server never blocks on a
        # full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.url, timeout=60.0)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        from repro.errors import ServiceError

        client = self.client()
        deadline = time.monotonic() + timeout
        while True:
            try:
                if client.health().get("ok"):
                    return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def close(self) -> None:
        """Interrupt the server (a clean shutdown), kill it if it does
        not stop, wait until it has, and delete its store."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.store, ignore_errors=True)


def setup_probe() -> float:
    """Seconds from starting the service until ``/v1/health`` answers."""
    t0 = time.perf_counter()
    server = Server()
    try:
        server.wait_healthy()
        return time.perf_counter() - t0
    finally:
        server.close()


def _store_bytes(record: Dict[str, object]) -> str:
    """A record as stored: without the per-reply ``cached``/``job_key``
    annotations the queue adds."""
    return json.dumps(
        {k: v for k, v in record.items() if k not in ("cached", "job_key")},
        sort_keys=True,
    )


class _Run:
    """Shared state of one pass: the spec counter, hand-offs between
    designers and every measurement."""

    def __init__(
        self, seed: int, seconds: float, points: int, clients: int, timed_rtt: bool, server: Server,
    ) -> None:
        self.seed = seed
        self.server = server
        self.peak_rss_mb: Optional[float] = None
        self.points = points
        self.clients = clients
        self.timed_rtt = timed_rtt
        self.deadline = time.perf_counter() + seconds
        self.lock = threading.Condition()
        self.next_index = 0
        self.active = clients
        self.arrived = 0
        self.calibrate = not points
        self.epoch_end = EPOCH_SPECS if self.calibrate else float("inf")
        self.cpus = host.cpus()
        #: (wall time before, wall time after, kernel seconds) per
        #: epoch boundary, the pass's start and end included.
        self.marks: List[tuple] = []
        self.handoff: Dict[int, List[tuple]] = defaultdict(list)
        self.latencies: List[float] = []
        self.latency_index: List[int] = []
        self.read_latencies: List[float] = []
        self.queued: List[float] = []
        self.run: List[float] = []
        self.rtts: List[float] = []
        self.polls = 0
        self.coalesced = 0
        self.read_hits = 0
        self.qors: Dict[int, tuple] = {}
        self.book = common.RecordBook(implemented=True, verified=False)
        self.problems: List[str] = []
        self.errors: List[str] = []

    def _over(self) -> bool:
        if self.points:
            return self.next_index >= self.points
        return time.perf_counter() >= self.deadline and self.next_index >= FIXED_POINTS

    def mark(self) -> None:
        """Time the calibration kernel now (the server must be idle)."""
        t0 = time.perf_counter()
        kernel = statistics.median(
            host.sample_each_cpu(self.cpus) for _ in range(CALIBRATION_SAMPLES)
        )
        self.marks.append((t0, time.perf_counter(), kernel))

    def take(self) -> Optional[int]:
        """The next new spec's index, or ``None`` when the pass is over.
        At an epoch's end, wait for the other designers; the last to
        arrive times the kernel."""
        with self.lock:
            while True:
                if self._over():
                    self.active -= 1
                    self.lock.notify_all()
                    return None
                if self.next_index < self.epoch_end:
                    self.next_index += 1
                    return self.next_index - 1
                self.arrived += 1
                if self.arrived >= self.active:
                    self.mark()
                    self.epoch_end += EPOCH_SPECS
                    self.arrived = 0
                    self.lock.notify_all()
                    continue
                epoch_end = self.epoch_end
                self.lock.wait_for(
                    lambda: self.epoch_end != epoch_end or self.arrived >= self.active
                )
                if self.epoch_end == epoch_end:
                    # A designer left, so the rest may all be here now:
                    # arrive again.
                    self.arrived -= 1

    def ref_latencies(self) -> List[float]:
        """Each latency in reference seconds, from the kernel samples
        at the start and end of its epoch."""
        return [
            host.to_reference(
                latency, self.marks[i // EPOCH_SPECS][2], self.marks[i // EPOCH_SPECS + 1][2],
            )
            for latency, i in zip(self.latencies, self.latency_index)
        ]

    def ref_busy_s(self) -> float:
        """The pass's wall time less the kernel's, in reference seconds."""
        return sum(
            host.to_reference(after[0] - before[1], before[2], after[2])
            for before, after in zip(self.marks, self.marks[1:])
        )

    def coalesce(self, me: int, client) -> None:
        with self.lock:
            pending, self.handoff[me] = self.handoff[me], []
        for spec, job_id in pending:
            snap = client.submit(spec)
            with self.lock:
                if snap["id"] == job_id and snap["status"] not in TERMINAL:
                    self.coalesced += 1
                elif not (snap["status"] in TERMINAL and snap.get("cached")):
                    # A hand-off that lands after the job finished is a
                    # store hit, not a coalesce; anything else is wrong.
                    self.problems.append(f"coalesce of {job_id} got job {snap['id']}")

    def designer(self, me: int, client) -> None:
        peer = (me + 1) % self.clients
        while True:
            index = self.take()
            if index is None:
                break
            spec = specs.service_spec(self.seed, index)
            t0 = time.perf_counter()
            snap = client.submit(spec)
            with self.lock:
                self.handoff[peer].append((spec, snap["id"]))
            polls = 0
            while snap["status"] not in TERMINAL:
                self.coalesce(me, client)
                time.sleep(POLL_S)
                r0 = time.perf_counter()
                snap = client.job(snap["id"])
                if self.timed_rtt:
                    self.rtts.append(time.perf_counter() - r0)
                polls += 1
            latency = time.perf_counter() - t0
            self.coalesce(me, client)
            r0 = time.perf_counter()
            hit = client.submit(spec)
            read_latency = time.perf_counter() - r0
            with self.lock:
                self.latencies.append(latency)
                self.latency_index.append(index)
                self.read_latencies.append(read_latency)
                self.polls += polls
                self.queued.append(float(snap["queued_s"]))
                self.run.append(float(snap["run_s"] or 0.0))
                self.book.add(snap["key"], snap["record"])
                if index < FIXED_POINTS and snap["record"].get("status") == "ok":
                    self.qors[index] = common.implemented_qor(snap["record"])
                if len(self.latencies) == FIXED_POINTS:
                    self.peak_rss_mb = self.server.peak_rss_mb()
                if hit.get("cached") and hit["status"] in TERMINAL:
                    self.read_hits += 1
                    if _store_bytes(hit["record"]) != _store_bytes(snap["record"]):
                        self.problems.append(f"store hit for {snap['key'][:12]} differs from its compile")
                else:
                    self.problems.append(f"read of {snap['key'][:12]} was not a store hit")

    def guarded(self, me: int, client) -> None:
        try:
            self.designer(me, client)
        except Exception as exc:  # a dead designer must fail the run, not hang it
            with self.lock:
                self.errors.append(f"designer {me}: {type(exc).__name__}: {exc}")
                self.active -= 1
                self.lock.notify_all()


def service_pass(seed: int, seconds: float, points: int, timed_rtt: bool) -> Dict[str, object]:
    """One pass against a fresh server: closed loop until ``seconds``
    are up, or over the first ``points`` specs."""
    from repro import MacroSpec

    server = Server()
    try:
        server.wait_healthy()
        client = server.client()
        # Warm-up outside the timed phase: the server loads its SCL and
        # lazily imported modules on its first job.
        warm = client.submit(MacroSpec(height=8, width=8, mcr=1, mac_frequency_mhz=300.0))
        while warm["status"] not in TERMINAL:
            time.sleep(POLL_S)
            warm = client.job(warm["id"])
        before = client.stats()
        clients = common.nproc()
        run = _Run(seed, seconds, points, clients, timed_rtt, server)
        if run.calibrate:
            run.mark()
        threads = [
            threading.Thread(target=run.guarded, args=(i, server.client()), daemon=True)
            for i in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        wall = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            run.errors.append("a designer did not finish")
        if run.calibrate:
            run.mark()
        after = client.stats()
        peak_rss = run.peak_rss_mb or server.peak_rss_mb()
    finally:
        server.close()

    failed = len(run.errors) + len(run.problems) + run.book.failed
    problems = run.errors + run.problems + run.book.problems
    unique = len(run.book.digests)
    compiled = after["compiled"] - before["compiled"]
    if compiled != unique:
        failed += 1
        problems.append(f"compiled {compiled} jobs for {unique} distinct hashes")
    return {
        "points": len(run.latencies),
        "attempted": run.next_index,
        "wall_s": wall,
        "latencies": run.latencies,
        "ref_latencies": run.ref_latencies() if run.calibrate else [],
        "ref_busy_s": run.ref_busy_s() if run.calibrate else 0.0,
        "read_latencies": run.read_latencies,
        "queued": run.queued,
        "run": run.run,
        "rtts": run.rtts,
        "polls": run.polls,
        "coalesced": run.coalesced,
        "read_hits": run.read_hits,
        "compiled": compiled,
        "unique": unique,
        "failed": failed,
        "problems": problems,
        "qors": [run.qors[i] for i in sorted(run.qors)],
        "peak_rss_mb": peak_rss,
    }

