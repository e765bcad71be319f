"""Compile service end-to-end: CompileOptions canonicalization, the
ResultStore backends (budgeted LRU eviction, quarantine accounting),
the JobQueue scheduler (dedup, priorities, cancellation) and the live
HTTP API — including the acceptance criteria of the service PR: two
concurrent clients submitting the same sweep compile each content hash
exactly once, a cache-hit fetch is byte-identical to the engine's
record, and an injected worker crash lands as a terminal status
instead of a hung client.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

import pytest

from repro.batch.cache import (
    CACHE_SCHEMA_VERSION,
    MemoryResultStore,
    ResultCache,
)
from repro.batch.engine import BatchCompiler
from repro.batch.resilience import list_journals, prune_journals
from repro.errors import ServiceError, SpecificationError
from repro.options import (
    DEFAULT_VERIFY_VECTORS,
    PPA_PRESETS,
    CompileOptions,
)
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue
from repro.service.server import create_server
from repro.spec import INT4, MacroSpec


def fast_spec(**overrides) -> MacroSpec:
    """A spec whose search-only compile takes well under a second."""
    base = dict(
        height=8,
        width=8,
        mcr=1,
        input_formats=(INT4,),
        weight_formats=(INT4,),
        mac_frequency_mhz=400.0,
    )
    base.update(overrides)
    return MacroSpec(**base)


#: Search-only: the working options for every compute-bearing test.
FAST = CompileOptions(implement=False)


# -- CompileOptions: one canonical spelling ----------------------------------


class TestCompileOptions:
    def test_corner_spellings_converge(self):
        from repro.signoff.corners import CornerSet, parse_corners

        comma = CompileOptions(corners="SS,TT,FF")
        listed = CompileOptions(corners=["SS", "TT", "FF"])
        cs = CompileOptions(
            corners=CornerSet.from_names(("SS", "TT", "FF"), name="t")
        )
        assert comma == listed == cs
        assert comma.corners == ("SS", "TT", "FF")
        preset = CompileOptions(corners="signoff3")
        assert preset.corners == parse_corners("signoff3").names

    def test_equal_spellings_share_one_job_key(self):
        spec = fast_spec()
        a = CompileOptions(corners="SS,TT,FF", seed=7)
        b = CompileOptions(corners=("SS", "TT", "FF"), seed=7)
        assert a.compile_job(spec).key() == b.compile_job(spec).key()

    def test_execution_policy_is_not_part_of_the_key(self):
        spec = fast_spec()
        plain = CompileOptions()
        tuned = CompileOptions(job_timeout_s=5.0, retries=4)
        assert plain.compile_job(spec).key() == tuned.compile_job(spec).key()

    def test_rejects_bad_values(self):
        with pytest.raises(SpecificationError):
            CompileOptions(vt="turbo")
        with pytest.raises(SpecificationError):
            CompileOptions(verify_vectors=0)
        with pytest.raises(SpecificationError):
            CompileOptions(corners="SS,NOPE")
        with pytest.raises(SpecificationError):
            CompileOptions(job_timeout_s=-1.0)
        with pytest.raises(SpecificationError):
            CompileOptions(retries=-1)
        with pytest.raises(SpecificationError):
            CompileOptions(input_sparsity=1.5)

    def test_dict_roundtrip(self):
        options = CompileOptions(
            corners="typical", vt="auto", seed=3, verify=True,
            job_timeout_s=12.0, retries=2,
        )
        assert CompileOptions.from_dict(options.to_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecificationError, match="vectors_verify"):
            CompileOptions.from_dict({"vectors_verify": 9})

    def test_retry_policy_mapping(self):
        policy = CompileOptions(retries=2).retry_policy()
        assert policy.max_attempts == 3

    def test_validate_catches_unknown_process(self):
        with pytest.raises(Exception):
            CompileOptions(process="exotic3").validate()

    def test_cli_args_and_http_dict_spell_identically(self):
        """The CLI namespace and an HTTP options object for the same
        request must build byte-identical job keys."""
        from repro.cli import _options_from_args, build_parser

        args = build_parser().parse_args(
            ["sweep", "--corners", "SS,TT,FF", "--vt", "auto",
             "--seed", "5", "--no-implement"]
        )
        via_cli = _options_from_args(args)
        via_http = CompileOptions.from_dict(
            {"corners": ["SS", "TT", "FF"], "vt": "auto", "seed": 5,
             "implement": False}
        )
        spec = fast_spec()
        assert (
            via_cli.compile_job(spec).key()
            == via_http.compile_job(spec).key()
        )

    def test_ppa_presets_cover_cli_choices(self):
        assert set(PPA_PRESETS) == {
            "balanced", "energy", "area", "performance",
        }
        assert CompileOptions().verify_vectors == DEFAULT_VERIFY_VECTORS


# -- ResultStore backends -----------------------------------------------------


def _record(n: int, pad: int = 0) -> dict:
    return {"status": "ok", "n": n, "pad": "x" * pad}


def _put_sized(cache: ResultCache, key: str, n: int, size: int) -> None:
    cache.put(key, _record(n, pad=size))


def _keys(n: int):
    return [f"{i:02d}" + "ab" * 31 for i in range(n)]


class TestMemoryResultStore:
    def test_roundtrip_isolated_copies(self):
        store = MemoryResultStore()
        record = {"status": "ok", "nested": {"v": 1}}
        store.put("k", record)
        record["nested"]["v"] = 999
        got = store.get("k")
        assert got["nested"]["v"] == 1
        got["nested"]["v"] = 5
        assert store.get("k")["nested"]["v"] == 1
        assert "k" in store and "missing" not in store

    def test_lru_bound_evicts_oldest(self):
        store = MemoryResultStore(max_entries=2)
        store.put("a", _record(1))
        store.put("b", _record(2))
        assert store.get("a") is not None  # refresh a
        store.put("c", _record(3))  # evicts b
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.entry_count() == 2
        assert store.stats.evictions == 1


class TestResultCacheBudget:
    def test_eviction_is_lru_and_respects_hits(self, tmp_path):
        cache = ResultCache(tmp_path, budget_mb=0.01)  # 10 kB
        keys = _keys(3)
        for i, key in enumerate(keys):
            _put_sized(cache, key, i, size=3000)
            # Distinct mtimes so LRU order is unambiguous.
            os.utime(cache._path(key), (1000.0 + i, 1000.0 + i))
        assert cache.get(keys[0]) is not None  # bump the oldest
        _put_sized(cache, _keys(4)[3], 3, size=3000)  # now over budget
        cache.enforce_budget()
        # keys[1] was the least recently used → gone; the hit survived.
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert cache.stats.evictions >= 1
        occ = cache.occupancy()
        assert occ["bytes"] <= 10_000
        assert occ["evictions"] == cache.stats.evictions

    def test_quarantine_counted_never_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, budget_mb=0.005)  # 5 kB
        key = _keys(1)[0]
        _put_sized(cache, key, 0, size=1000)
        shard = cache._path(key).parent
        corrupt = shard / ".corrupt-deadbeef.json"
        corrupt.write_text("x" * 20_000)  # alone busts the budget
        with pytest.warns(RuntimeWarning, match="quarantined"):
            cache.enforce_budget()
        assert corrupt.exists(), "quarantine evidence must survive sweeps"
        assert cache.get(key) is None, "evictable record paid the price"
        occ = cache.occupancy()
        assert occ["quarantined"] == 1
        assert occ["quarantined_bytes"] == 20_000
        assert cache.stats.quarantine_kept == 1

    def test_env_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "7.5")
        assert ResultCache(tmp_path).budget_mb == 7.5
        monkeypatch.setenv("REPRO_CACHE_BUDGET_MB", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_BUDGET_MB"):
            assert ResultCache(tmp_path).budget_mb is None
        monkeypatch.delenv("REPRO_CACHE_BUDGET_MB")
        assert ResultCache(tmp_path).budget_mb is None

    def test_unbudgeted_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i, key in enumerate(_keys(5)):
            _put_sized(cache, key, i, size=5000)
        assert cache.enforce_budget() == 0
        assert cache.entry_count() == 5

    def test_recency_touch_failure_uses_fallback_map(
        self, tmp_path, monkeypatch
    ):
        """A hit whose mtime refresh fails (read-only store) must not
        look *oldest* to the LRU sweep: the failure is counted, warned
        once per cache, and the in-process recency fallback keeps the
        hot record out of the eviction queue for the session."""
        import warnings as warnings_mod

        cache = ResultCache(tmp_path, budget_mb=0.01)  # 10 kB
        keys = _keys(3)
        for i, key in enumerate(keys):
            _put_sized(cache, key, i, size=3000)
            os.utime(cache._path(key), (1000.0 + i, 1000.0 + i))

        def _refuse(path, *args, **kwargs):
            raise PermissionError("read-only result store")

        monkeypatch.setattr(os, "utime", _refuse)
        # keys[0] is the on-disk oldest; hit it with the touch broken.
        with pytest.warns(RuntimeWarning, match="recency"):
            assert cache.get(keys[0]) is not None
        assert cache.stats.recency_touch_failures == 1
        # Warn once per cache, like the quarantine path.
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert cache.get(keys[0]) is not None
        assert cache.stats.recency_touch_failures == 2
        _put_sized(cache, _keys(4)[3], 3, size=3000)  # now over budget
        cache.enforce_budget()
        # Without the fallback keys[0] (oldest mtime) would be evicted
        # first despite being the hottest record.
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None
        assert cache.occupancy()["recency_touch_failures"] >= 2

    def test_recency_fallback_cleared_when_touch_recovers(
        self, tmp_path, monkeypatch
    ):
        """Once the store is writable again, disk mtimes are
        authoritative and the stale fallback entry is dropped."""
        cache = ResultCache(tmp_path, budget_mb=0.01)
        key = _keys(1)[0]
        _put_sized(cache, key, 0, size=1000)
        real_utime = os.utime

        def _refuse(path, *args, **kwargs):
            raise PermissionError("transient")

        monkeypatch.setattr(os, "utime", _refuse)
        with pytest.warns(RuntimeWarning, match="recency"):
            cache.get(key)
        assert key in cache._recency_fallback
        monkeypatch.setattr(os, "utime", real_utime)
        cache.get(key)
        assert key not in cache._recency_fallback


# -- JobQueue scheduling ------------------------------------------------------


class TestJobQueue:
    def test_submit_compiles_and_resubmit_hits_store(self):
        with JobQueue(use_cache=False, workers=1) as q:
            snap = q.submit(fast_spec(), options=FAST)
            assert snap["status"] == "queued"
            final = q.wait(snap["id"], timeout=120)
            assert final["status"] == "ok"
            assert final["record"]["job_key"] == snap["key"]
            again = q.submit(fast_spec(), options=FAST)
            assert again["status"] == "ok" and again["cached"]
            stats = q.stats()
            assert stats["compiled"] == 1
            assert stats["cache_hits"] == 1

    def test_coalescing_attaches_to_inflight_job(self):
        q = JobQueue(use_cache=False, workers=1, start=False)
        try:
            first = q.submit(fast_spec(), options=FAST)
            second = q.submit(fast_spec(), options=FAST)
            assert second["id"] == first["id"]
            assert second["coalesced"] == 1
            q.start()
            final = q.wait(first["id"], timeout=120)
            assert final["status"] == "ok"
            stats = q.stats()
            assert stats["submitted"] == 2
            assert stats["coalesced"] == 1
            assert stats["compiled"] == 1
        finally:
            q.close()

    def test_durations_survive_wall_clock_steps(self, monkeypatch):
        """An NTP step moving the wall clock backwards mid-job must not
        produce negative durations: ``queued_s``/``run_s``/``uptime_s``
        are monotonic interval math, wall timestamps are display-only."""
        import repro.service.queue as qmod

        q = JobQueue(use_cache=False, start=False)
        try:
            snap = q.submit(fast_spec(), options=FAST)
            assert snap["queued_s"] >= 0 and snap["run_s"] is None
            entry = q._jobs[snap["id"]]
            entry.mark_started()
            # NTP steps the wall clock back an hour mid-job.
            real_time = time.time
            monkeypatch.setattr(
                qmod.time, "time", lambda: real_time() - 3600.0
            )
            with q._lock:
                q._finish(entry, "ok", {"status": "ok"})
            final = q.job(snap["id"])
            # The skew is visible in the display metadata...
            assert final["finished"] < final["submitted"]
            # ...but every derived interval stays sane.
            assert final["run_s"] is not None and final["run_s"] >= 0
            assert final["queued_s"] >= 0
            assert q.stats()["uptime_s"] >= 0
        finally:
            q.close()

    def test_cached_hit_snapshot_reports_zero_durations(self):
        store = MemoryResultStore()
        key = FAST.compile_job(fast_spec()).key()
        store.put(key, {"status": "ok"})
        q = JobQueue(store=store, start=False)
        try:
            snap = q.submit(fast_spec(), options=FAST)
            assert snap["cached"] and snap["status"] == "ok"
            assert snap["queued_s"] == 0.0 and snap["run_s"] == 0.0
        finally:
            q.close()

    def test_priority_orders_the_heap(self):
        q = JobQueue(use_cache=False, start=False)
        try:
            low = q.submit(fast_spec(height=16), options=FAST, priority=5)
            high = q.submit(fast_spec(width=16), options=FAST, priority=-5)
            mid = q.submit(fast_spec(mcr=2), options=FAST, priority=0)
            with q._lock:
                order = [q._pop_locked().id for _ in range(3)]
            assert order == [high["id"], mid["id"], low["id"]]
        finally:
            q.close()

    def test_cancel_queued_only(self):
        q = JobQueue(use_cache=False, start=False)
        try:
            snap = q.submit(fast_spec(), options=FAST)
            outcome = q.cancel(snap["id"])
            assert outcome["cancelled"] and outcome["status"] == "cancelled"
            again = q.cancel(snap["id"])  # already terminal
            assert not again["cancelled"]
            with pytest.raises(ServiceError, match="unknown job id"):
                q.cancel("job-nope")
            assert q.stats()["cancelled"] == 1
        finally:
            q.close()

    def test_close_cancels_queued_and_refuses_new_work(self):
        q = JobQueue(use_cache=False, start=False)
        snap = q.submit(fast_spec(), options=FAST)
        q.close()
        assert q.job(snap["id"])["status"] == "cancelled"
        with pytest.raises(ServiceError, match="shutting down"):
            q.submit(fast_spec(), options=FAST)


# -- live HTTP API ------------------------------------------------------------


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One live server on an ephemeral port for the whole module."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    queue = JobQueue(cache_dir=cache_dir, workers=2)
    server = create_server(queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.base_url)
    yield {"client": client, "queue": queue, "cache_dir": cache_dir,
           "base_url": server.base_url}
    server.shutdown()
    server.server_close()
    queue.close()


SPEC_PAYLOAD = {
    "height": 8, "width": 8, "mcr": 1,
    "mac_frequency_mhz": 400.0, "formats": ["INT4"],
}


class TestServiceHTTP:
    def test_health_and_stats(self, service):
        health = service["client"].health()
        assert health["ok"] and health["run_id"]
        stats = service["client"].stats()
        assert stats["workers"] == 2
        assert "store" in stats

    def test_submit_poll_fetch(self, service):
        client = service["client"]
        snap = client.submit(SPEC_PAYLOAD, options=FAST)
        final = client.wait(snap["id"], timeout=300)
        assert final["status"] == "ok"
        assert final["record"]["status"] == "ok"
        fetched = client.result(snap["key"])
        assert fetched is not None and fetched["status"] == "ok"
        assert client.result("deadbeef" * 8) is None

    def test_spec_accepts_macrospec_objects(self, service):
        snap = service["client"].submit(fast_spec(), options=FAST)
        assert snap["key"] == FAST.compile_job(fast_spec()).key()

    def test_unknown_ids_are_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service["client"].job("job-nope")
        with pytest.raises(ServiceError, match="404"):
            service["client"].sweep("sweep-nope")

    def test_malformed_requests_are_400(self, service):
        import urllib.error
        import urllib.request

        url = service["base_url"] + "/v1/jobs"
        for body in (b"{notjson", b'{"no_spec": 1}',
                     b'{"spec": {"height": "tall"}}'):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    urllib.request.Request(url, data=body, method="POST")
                )
            assert err.value.code == 400
            assert "error" in json.loads(err.value.read())

    def test_unknown_option_is_400_with_message(self, service):
        with pytest.raises(ServiceError, match="vektors"):
            service["client"].submit(
                SPEC_PAYLOAD, options={"vektors": 12}
            )

    def test_cancel_terminal_job_reports_lost_race(self, service):
        client = service["client"]
        snap = client.submit(SPEC_PAYLOAD, options=FAST)
        client.wait(snap["id"], timeout=300)
        outcome = client.cancel(snap["id"])
        assert outcome["cancelled"] is False

    def test_sweep_fans_out_and_completes(self, service):
        client = service["client"]
        sweep = client.submit_sweep(
            {"height": ["8"], "width": ["8", "16"], "mcr": ["1"],
             "frequency": ["400"], "formats": ["INT4"]},
            options=FAST,
        )
        assert sweep["points"] == 2
        done = client.wait_sweep(sweep["id"], timeout=600)
        assert done["done"] and done["counts"] == {"ok": 2}

    def test_sweep_rejects_unknown_axis_and_ppa(self, service):
        with pytest.raises(ServiceError, match="altitude"):
            service["client"].submit_sweep({"altitude": ["3"]})
        with pytest.raises(ServiceError, match="ppa"):
            service["client"].submit_sweep(
                {"height": ["8"]}, ppa="cheapest"
            )


# -- PR acceptance criteria ---------------------------------------------------


SWEEP_16 = {
    "height": ["8", "16"],
    "width": ["8", "16"],
    "mcr": ["1"],
    "formats": ["INT4"],
    "frequency": ["400", "500"],
    "vdd": ["0.8", "0.9"],
}


class TestAcceptance:
    def test_concurrent_clients_compile_each_hash_once(self, tmp_path):
        """Two clients race the same 16-point sweep; the service must
        compile each content hash exactly once."""
        queue = JobQueue(cache_dir=tmp_path, workers=4)
        server = create_server(queue)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            results = [None, None]

            def one_client(slot: int) -> None:
                client = ServiceClient(server.base_url)
                sweep = client.submit_sweep(SWEEP_16, options=FAST)
                results[slot] = client.wait_sweep(sweep["id"], timeout=600)

            threads = [
                threading.Thread(target=one_client, args=(i,))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            for done in results:
                assert done is not None and done["done"]
                assert done["counts"] == {"ok": 16}, done["counts"]
            # Both clients saw the same 16 content hashes…
            assert set(results[0]["keys"]) == set(results[1]["keys"])
            assert len(set(results[0]["keys"])) == 16
            # …and the service compiled each exactly once.
            stats = queue.stats()
            assert stats["compiled"] == 16, stats
            assert stats["store"]["entries"] == 16
        finally:
            server.shutdown()
            server.server_close()
            queue.close()

    def test_cached_result_is_byte_identical_to_engine_record(
        self, tmp_path
    ):
        """GET /v1/results/<hash> must return exactly what a direct
        BatchCompiler stores for the same job — same store, same
        bytes."""
        spec = fast_spec(height=16, width=8)
        with JobQueue(cache_dir=tmp_path, workers=1) as q:
            server = create_server(q)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                client = ServiceClient(server.base_url)
                snap = client.submit(spec, options=FAST)
                client.wait(snap["id"], timeout=300)
                via_http = client.result(snap["key"])
            finally:
                server.shutdown()
                server.server_close()

        engine = BatchCompiler(
            jobs=1, cache_dir=tmp_path, options=FAST, journal=False
        )
        result = engine.run_jobs([FAST.compile_job(spec)])
        direct = result.records[0]
        assert direct["cached"], "direct run must hit the service's entry"
        stripped = {
            k: v for k, v in direct.items() if k not in ("cached", "job_key")
        }
        assert (
            json.dumps(stripped, sort_keys=True)
            == json.dumps(via_http, sort_keys=True)
        )


# -- chaos: a crashed worker is a status, not an outage -----------------------


@contextlib.contextmanager
def _live_server(queue: JobQueue):
    """Serve ``queue`` over HTTP for the block; yields a client."""
    server = create_server(queue)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.base_url)
    finally:
        server.shutdown()
        server.server_close()
        queue.close()


class TestChaos:
    def test_crashed_worker_lands_terminal_error_and_service_survives(
        self, tmp_path, monkeypatch
    ):
        """With 100% crash injection a job's worker process dies
        (os._exit in the pool); the client must see a terminal
        ``error`` record — never a hung poll — and the service must
        keep serving clean jobs afterwards."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
        monkeypatch.setenv("REPRO_FAULT_SEED", "0")
        # The watchdog-armed path; retries=0 keeps it to one attempt.
        chaotic = FAST.replace(job_timeout_s=120.0, retries=0)
        with _live_server(JobQueue(cache_dir=tmp_path, workers=1)) as client:
            snap = client.submit(SPEC_PAYLOAD, options=chaotic)
            final = client.wait(snap["id"], timeout=300)
            assert final["status"] == "error", final
            assert final["record"]["status"] == "error"
            # Failures are never cached: the hash stays absent.
            assert client.result(snap["key"]) is None
            # The server is still alive and compiles clean work.
            monkeypatch.delenv("REPRO_FAULTS")
            assert client.health()["ok"]
            clean = client.submit(SPEC_PAYLOAD, options=FAST)
            assert client.wait(clean["id"], timeout=300)["status"] == "ok"

    def test_crash_without_job_timeout_is_an_error_record(
        self, tmp_path, monkeypatch
    ):
        """No watchdog: the compile still runs in a pool worker, so a
        worker that dies on every attempt ends as an ``error`` record
        after the retry budget, and the server compiles on."""
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
        monkeypatch.setenv("REPRO_FAULT_SEED", "0")
        assert FAST.job_timeout_s is None
        with _live_server(JobQueue(cache_dir=tmp_path, workers=2)) as client:
            snap = client.submit(SPEC_PAYLOAD, options=FAST)
            final = client.wait(snap["id"], timeout=300)
            assert final["status"] == "error", final
            assert "worker died" in final["record"]["error"]
            assert final["record"]["attempts"] == FAST.retries + 1
            monkeypatch.delenv("REPRO_FAULTS")
            clean = client.submit(SPEC_PAYLOAD, options=FAST)
            assert client.wait(clean["id"], timeout=300)["status"] == "ok"

    def test_watchdog_kill_spares_the_job_beside_it(
        self, tmp_path, monkeypatch
    ):
        """Two jobs share a two-worker pool and both hang on their
        first attempt.  The one with a deadline times out, which kills
        the pool under the other; that one re-runs without being
        charged an attempt, so its record has no retry history."""
        hang_s = 3.0
        monkeypatch.setenv("REPRO_FAULTS", "hang:1.0:first")
        monkeypatch.setenv("REPRO_FAULT_SEED", "0")
        monkeypatch.setenv("REPRO_FAULT_HANG_S", str(hang_s))
        queue = JobQueue(cache_dir=tmp_path, workers=2)
        with _live_server(queue) as client:
            beside = client.submit(fast_spec(width=16), options=FAST)
            overdue = client.submit(
                fast_spec(), options=FAST.replace(job_timeout_s=1.5)
            )
            timed = client.wait(overdue["id"], timeout=300)
            spared = client.wait(beside["id"], timeout=300)
            assert queue._pool.generation >= 1, "the pool was never killed"
        assert timed["status"] == "ok"
        (entry,) = timed["record"]["retry_history"]
        assert entry["outcome"] == "timeout"
        assert spared["status"] == "ok"
        assert "retry_history" not in spared["record"]
        assert "attempts" not in spared["record"]
        # It was in flight when the pool died and ran again from the
        # start: longer than one hang.
        assert spared["run_s"] > hang_s + 0.5
        assert queue.stats()["retried"] == 1

    def test_close_kills_a_hang_without_job_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang:1.0")
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "600")
        queue = JobQueue(use_cache=False, workers=1)
        snap = queue.submit(fast_spec(), options=FAST)
        deadline = time.monotonic() + 60
        while not queue._pool.worker_pids():
            assert time.monotonic() < deadline, "the job never started"
            time.sleep(0.01)
        (pid,) = queue._pool.worker_pids()
        assert queue.job(snap["id"])["status"] == "running"
        started = time.monotonic()
        queue.close(timeout=0.5)
        assert time.monotonic() - started < 30
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_pool_starts_with_the_first_job_and_close_reaps_it(self):
        queue = JobQueue(use_cache=False, workers=2)
        try:
            assert queue._pool.worker_pids() == []
            snap = queue.submit(fast_spec(), options=FAST)
            assert queue.wait(snap["id"], timeout=120)["status"] == "ok"
            pids = queue._pool.worker_pids()
            assert len(pids) == 2
        finally:
            queue.close()
        assert queue._pool.worker_pids() == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# -- journals: service pruning and the CLI ------------------------------------


def _make_journal(root, stem: str, age_s: float) -> None:
    directory = root / "journal"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{stem}.jsonl"
    path.write_text('{"event": "begin"}\n')
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))


class TestJournals:
    def test_list_newest_first(self, tmp_path):
        for i in range(3):
            _make_journal(tmp_path, f"run-{i}", age_s=100 * (3 - i))
        assert [p.stem for p in list_journals(tmp_path)] == [
            "run-2", "run-1", "run-0",
        ]

    def test_prune_requires_explicit_policy(self, tmp_path):
        _make_journal(tmp_path, "run-a", age_s=10)
        assert prune_journals(tmp_path) == []
        assert len(list_journals(tmp_path)) == 1

    def test_prune_keep_and_age_and_exclude(self, tmp_path):
        for i in range(4):
            _make_journal(tmp_path, f"run-{i}", age_s=1000 * (4 - i))
        removed = prune_journals(tmp_path, keep=2, exclude=("run-0",))
        # Newest two (run-3, run-2) kept by index, run-0 by exclusion.
        assert [p.stem for p in removed] == ["run-1"]
        removed = prune_journals(tmp_path, older_than_s=2500.0)
        assert {p.stem for p in removed} == {"run-0"}
        survivors = {p.stem for p in list_journals(tmp_path)}
        assert survivors == {"run-3", "run-2"}

    def test_service_prunes_after_sweep_but_keeps_own_journal(
        self, tmp_path
    ):
        for i in range(5):
            _make_journal(tmp_path, f"old-{i}", age_s=5000 + i)
        with JobQueue(
            cache_dir=tmp_path, workers=1, journal_keep=2
        ) as q:
            sweep = q.submit_sweep(
                {"height": ["8"], "width": ["8"], "mcr": ["1"],
                 "formats": ["INT4"], "frequency": ["400"]},
                options=FAST,
            )
            deadline = time.monotonic() + 120
            while not q.sweep(sweep["id"])["done"]:
                assert time.monotonic() < deadline
                time.sleep(0.1)
            survivors = {p.stem for p in list_journals(tmp_path)}
            assert q.run_id in survivors, "live journal must survive"
            assert len(survivors - {q.run_id}) <= 2

    def test_journal_cli_list_and_prune(self, tmp_path, capsys):
        from repro.cli import main

        for i in range(3):
            _make_journal(tmp_path, f"run-{i}", age_s=100 * (3 - i))
        assert main(["journal", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 journal(s)" in out and "run-2" in out
        assert main(
            ["journal", "--cache-dir", str(tmp_path), "--prune"]
        ) == 1, "prune without a policy must refuse"
        assert main(
            ["journal", "--cache-dir", str(tmp_path), "--prune",
             "--keep", "1"]
        ) == 0
        assert [p.stem for p in list_journals(tmp_path)] == ["run-2"]


# -- blessed surface ----------------------------------------------------------


class TestStableSurface:
    def test_blessed_names_import_from_the_package_root(self):
        import repro

        for name in (
            "MacroSpec", "SynDCIM", "BatchCompiler", "CompileOptions",
            "ImplementSession", "verify_macro", "multi_corner_signoff",
            "ServiceClient", "ServiceError",
        ):
            assert getattr(repro, name) is not None
        with pytest.raises(AttributeError):
            repro.NotAThing

    def test_service_exports_are_lazy(self):
        import repro.service as service

        assert service.__all__ == [
            "JobQueue", "ServiceClient", "ServiceServer", "create_server",
        ]
        assert service.JobQueue is JobQueue

    def test_cache_schema_unchanged_by_this_layer(self):
        # The service shares cache entries with local runs only while
        # both speak the same schema version.
        assert CACHE_SCHEMA_VERSION == 5
