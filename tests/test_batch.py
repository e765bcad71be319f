"""Batch subsystem: hashing, sweep grammar, cache, engine, CLI.

The equivalence test at the bottom is the contract the whole subsystem
rests on: a batch run over N specs — deduplicated, pooled, cached —
must produce exactly the records that N sequential
``SynDCIM().compile()`` calls would.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.arch import MacroArchitecture
from repro.batch.cache import ResultCache
from repro.batch.engine import BatchCompiler, BatchResult, BatchStats
from repro.batch.jobs import CompileJob, ImplementJob
from repro.batch.sweep import (
    expand_grid,
    grid_summary,
    parse_axis,
    parse_format_sets,
    parse_range,
)
from repro.cli import main as cli_main
from repro.errors import SpecificationError
from repro.spec import FP8, INT4, INT8, MacroSpec, PPAWeights

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _small_spec(**overrides) -> MacroSpec:
    base = dict(
        height=8,
        width=8,
        mcr=2,
        input_formats=(INT4,),
        weight_formats=(INT4,),
        mac_frequency_mhz=400.0,
    )
    base.update(overrides)
    return MacroSpec(**base)


# -- serialization and hashing ---------------------------------------------


class TestSpecSerialization:
    def test_roundtrip(self):
        spec = _small_spec(
            input_formats=(INT4, INT8, FP8),
            weight_formats=(INT8,),
            ppa=PPAWeights(power=3.0),
            vdd=1.1,
        )
        assert MacroSpec.from_dict(spec.to_dict()) == spec

    def test_roundtrip_through_json(self):
        spec = _small_spec()
        blob = json.dumps(spec.to_dict())
        assert MacroSpec.from_dict(json.loads(blob)) == spec

    def test_equal_specs_equal_hashes(self):
        assert _small_spec().content_hash() == _small_spec().content_hash()

    def test_any_field_changes_hash(self):
        base = _small_spec()
        for changed in (
            base.replace(height=16),
            base.replace(mac_frequency_mhz=500.0),
            base.replace(vdd=1.0),
            base.replace(ppa=PPAWeights(area=2.0)),
            base.replace(weight_formats=(INT8,)),
        ):
            assert changed.content_hash() != base.content_hash()

    def test_hash_stable_across_processes(self):
        """The cache key must survive PYTHONHASHSEED randomization."""
        code = (
            "from repro.spec import MacroSpec; "
            "print(MacroSpec(height=8, width=8).content_hash())"
        )
        digests = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = (
                str(REPO_ROOT / "src")
                + os.pathsep
                + env.get("PYTHONPATH", "")
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert digests == {MacroSpec(height=8, width=8).content_hash()}

    def test_arch_roundtrip(self):
        arch = MacroArchitecture(
            memcell="DCIM8T", column_split=2, ofu_csel=True
        )
        assert MacroArchitecture.from_dict(arch.to_dict()) == arch


class TestJobKeys:
    def test_same_job_same_key(self):
        a = CompileJob(spec=_small_spec())
        b = CompileJob(spec=_small_spec())
        assert a.key() == b.key()

    def test_options_change_key(self):
        spec = _small_spec()
        base = CompileJob(spec=spec)
        assert CompileJob(spec=spec, implement=False).key() != base.key()
        assert CompileJob(spec=spec, seed=7).key() != base.key()
        assert (
            CompileJob(spec=spec, input_sparsity=0.5).key() != base.key()
        )

    def test_process_name_in_key_and_payload(self):
        """The process must reach the worker, not just the hash —
        key-only coverage would cache default-node numbers under
        another process's key."""
        spec = _small_spec()
        a = CompileJob(spec=spec)
        b = CompileJob(spec=spec, process_name="other40")
        assert a.key() != b.key()
        assert a.payload()["process"] != b.payload()["process"]

    def test_unregistered_process_is_an_error_record(self):
        from repro.compiler.syndcim import execute_job

        record = execute_job(
            CompileJob(
                spec=_small_spec(), implement=False, process_name="bogus"
            ).payload()
        )
        assert record["status"] == "error"
        assert "bogus" in record["error"]

    def test_implement_job_keyed_by_arch(self):
        spec = _small_spec()
        a = ImplementJob(spec=spec, arch=MacroArchitecture())
        b = ImplementJob(
            spec=spec, arch=MacroArchitecture(driver_strength=8)
        )
        assert a.key() != b.key()
        assert a.key() != CompileJob(spec=spec).key()


# -- sweep grammar ----------------------------------------------------------


class TestSweepGrammar:
    def test_single_value(self):
        assert parse_range("64") == [64]

    def test_geometric(self):
        assert parse_range("32:256:x2") == [32, 64, 128, 256]

    def test_geometric_inexact_stop(self):
        assert parse_range("32:200:x2") == [32, 64, 128]

    def test_arithmetic(self):
        assert parse_range("400:1000:+200", integer=False) == [
            400.0,
            600.0,
            800.0,
            1000.0,
        ]

    def test_arithmetic_descending(self):
        assert parse_range("12:4:+-4") == [12, 8, 4]

    def test_float_axis(self):
        assert parse_range("0.6:0.9:+0.1", integer=False) == pytest.approx(
            [0.6, 0.7, 0.8, 0.9]
        )

    def test_float_axis_no_drift(self):
        """Values must equal hand-typed literals exactly (they feed the
        cache key), not accumulate binary floating-point error."""
        assert parse_range("0.6:1.2:+0.1", integer=False) == [
            0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
        ]

    @pytest.mark.parametrize(
        "token",
        [
            "",
            "a",
            "32:64",
            "32:64:*2",
            "32:64:x1",
            "32:64:+0",
            "64:32:+8",
            "-32:64:x2",
            "1:100000000:+1",
        ],
    )
    def test_rejects_malformed(self, token):
        with pytest.raises(SpecificationError):
            parse_range(token)

    def test_axis_deduplicates(self):
        assert parse_axis(["32", "32:64:x2"]) == [32, 64]

    def test_format_sets(self):
        sets = parse_format_sets(["INT4,INT8", "FP8"])
        assert [tuple(f.name for f in s) for s in sets] == [
            ("INT4", "INT8"),
            ("FP8",),
        ]
        with pytest.raises(SpecificationError):
            parse_format_sets([","])

    def test_expand_grid_order_and_size(self):
        specs = expand_grid(
            heights=[32, 64],
            widths=[64],
            mcrs=[2],
            format_sets=parse_format_sets(["INT4"]),
            frequencies=[400.0, 800.0],
            vdds=[0.9],
        )
        assert len(specs) == 4
        assert [(s.height, s.mac_frequency_mhz) for s in specs] == [
            (32, 400.0),
            (32, 800.0),
            (64, 400.0),
            (64, 800.0),
        ]
        assert "4-point grid" in grid_summary(specs)

    def test_expand_grid_rejects_empty_axis(self):
        with pytest.raises(SpecificationError):
            expand_grid([], [64], [2], parse_format_sets(["INT4"]), [800.0], [0.9])

    def test_expand_grid_invalid_spec_propagates(self):
        with pytest.raises(SpecificationError):
            expand_grid(
                [48], [64], [2], parse_format_sets(["INT4"]), [800.0], [0.9]
            )


# -- result cache -----------------------------------------------------------


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        record = {"status": "ok", "power_mw": 1.5}
        cache.put("ab" * 32, record)
        assert "ab" * 32 in cache
        assert cache.get("ab" * 32) == record
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"v": 1})
        cache.put("ab" * 32, {"v": 2})
        assert cache.get("aa" * 32) == {"v": 1}
        assert cache.get("ab" * 32) == {"v": 2}
        assert cache.entry_count() == 2

    def test_corrupt_entry_reads_as_miss(self, tmp_path, monkeypatch):
        import repro.batch.cache as cache_mod

        monkeypatch.setattr(cache_mod, "_CORRUPT_KEYS", set())
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"v": 1})
        path = cache._path(key)
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(key) is None
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    @pytest.mark.parametrize("blob", ["[]", '"x"', "3", '{"record": [1]}'])
    def test_wrong_shaped_json_reads_as_miss(self, tmp_path, blob, monkeypatch):
        import repro.batch.cache as cache_mod

        # Corruption warns once per key and process: start each case
        # with a clean slate so every one of them warns.
        monkeypatch.setattr(cache_mod, "_CORRUPT_KEYS", set())
        cache = ResultCache(tmp_path)
        key = "ce" * 32
        cache.put(key, {"v": 1})
        cache._path(key).write_text(blob)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(key) is None

    def test_disabled_cache_stores_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        cache.put("ef" * 32, {"v": 1})
        assert cache.get("ef" * 32) is None
        assert cache.entry_count() == 0

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put("12" * 32, {"v": 3})
        assert ResultCache(tmp_path).get("12" * 32) == {"v": 3}

    def test_unwritable_store_degrades_to_not_cached(self, tmp_path):
        """A store failure must never raise — the record it was trying
        to persist is the product of real compute upstream."""
        blocker = tmp_path / "blocker"
        blocker.write_text("I am a file, not a directory")
        cache = ResultCache(blocker)
        cache.put("34" * 32, {"v": 1})  # mkdir under a file fails
        assert cache.stats.stores == 0
        assert cache.get("34" * 32) is None


# -- batch engine -----------------------------------------------------------


def _exit_worker(payload):
    """Top-level (so the pool can pickle it): simulates a worker killed
    mid-job — os._exit skips all exception handling, like an OOM kill."""
    os._exit(13)


def _strip_markers(record: dict) -> dict:
    return {
        k: v for k, v in record.items() if k not in ("cached", "job_key")
    }


class TestBatchEngine:
    def test_batch_equals_sequential_compiles(self, tmp_path, scl):
        """A 4-spec batch (pooled, jobs=2) must reproduce 4 sequential
        SynDCIM().compile() runs record-for-record."""
        from repro.compiler.syndcim import SynDCIM, result_to_record

        specs = [
            _small_spec(mac_frequency_mhz=300.0),
            _small_spec(mac_frequency_mhz=400.0),
            _small_spec(height=16, mcr=1),
            _small_spec(width=16),
        ]
        engine = BatchCompiler(jobs=2, cache_dir=tmp_path)
        batch = engine.compile_specs(specs, implement=True)
        assert len(batch) == 4
        assert [r["status"] for r in batch] == ["ok"] * 4

        compiler = SynDCIM(scl=scl)
        for spec, record in zip(specs, batch.records):
            expected = result_to_record(compiler.compile(spec))
            got = _strip_markers(record)
            got.pop("elapsed_s")
            assert got == expected

    def test_second_run_is_all_cache_hits(self, tmp_path):
        specs = [
            _small_spec(mac_frequency_mhz=300.0),
            _small_spec(mac_frequency_mhz=400.0),
        ]
        first = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert first.stats.compiled == 2
        second = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert second.stats.compiled == 0
        assert second.stats.cache_hits == 2
        assert "compiled 0" in second.stats.cache_line()
        assert all(r["cached"] for r in second.records)
        for a, b in zip(first.records, second.records):
            assert _strip_markers(a) == _strip_markers(b)

    def test_duplicate_specs_folded(self, tmp_path):
        spec = _small_spec()
        batch = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            [spec, spec, spec], implement=False
        )
        assert batch.stats.total == 3
        assert batch.stats.unique == 1
        assert batch.stats.deduplicated == 2
        assert batch.stats.compiled == 1
        assert len(batch.records) == 3
        assert (
            batch.records[0]["selected"] == batch.records[2]["selected"]
        )
        # Equal but not aliased: mutating one record must not corrupt
        # its duplicates.
        batch.records[0]["selected"]["power_mw"] = -1.0
        assert batch.records[2]["selected"]["power_mw"] != -1.0

    def test_infeasible_spec_is_a_record_not_a_crash(self, tmp_path):
        specs = [
            _small_spec(),
            _small_spec(height=256, width=64, mac_frequency_mhz=5000.0),
        ]
        batch = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert [r["status"] for r in batch] == ["ok", "infeasible"]
        assert batch.records[1]["selected"] is None
        assert "infeasible" in batch.describe()
        # Infeasibility is deterministic, so it caches too — and the
        # stats must still count it when it arrives as a cache hit.
        again = BatchCompiler(jobs=1, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert again.stats.compiled == 0
        assert again.stats.infeasible == 1

    def test_progress_callback_sees_every_job(self, tmp_path):
        seen = []
        engine = BatchCompiler(
            jobs=1,
            cache_dir=tmp_path,
            progress=lambda done, total, rec: seen.append((done, total)),
        )
        engine.compile_specs(
            [_small_spec(), _small_spec(height=16)], implement=False
        )
        assert seen == [(1, 2), (2, 2)]

    def test_no_cache_mode(self, tmp_path):
        engine = BatchCompiler(jobs=1, use_cache=False)
        batch = engine.compile_specs([_small_spec()], implement=False)
        assert batch.stats.compiled == 1
        assert engine.cache is None

    def test_worker_death_becomes_error_record(self, tmp_path, monkeypatch):
        """A worker killed outright (OOM/segfault) must surface as an
        error record, not abort the batch with BrokenProcessPool."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fork-only: relies on children inheriting the patch")
        import repro.compiler.syndcim as syndcim_mod

        monkeypatch.setattr(syndcim_mod, "execute_job", _exit_worker)
        specs = [_small_spec(), _small_spec(height=16)]
        batch = BatchCompiler(jobs=2, cache_dir=tmp_path).compile_specs(
            specs, implement=False
        )
        assert [r["status"] for r in batch] == ["error", "error"]
        assert all("worker died" in r["error"] for r in batch)
        assert batch.stats.failed == 2

    def test_map_preserves_order(self):
        engine = BatchCompiler(jobs=2, use_cache=False)
        assert engine.map(abs, [-3, 2, -1]) == [3, 2, 1]

    def test_run_jobs_calls_reuse_one_pool(self):
        with BatchCompiler(jobs=2, use_cache=False) as engine:
            assert engine.pool.worker_pids() == [], "pool starts lazily"
            first = engine.compile_specs(
                [_small_spec(), _small_spec(height=16)], implement=False
            )
            pids = engine.pool.worker_pids()
            second = engine.compile_specs(
                [_small_spec(width=16), _small_spec(height=16, width=16)],
                implement=False,
            )
            assert len(pids) == 2
            assert engine.pool.worker_pids() == pids
            assert engine.pool.generation == 0
        assert [r["status"] for r in first.records + second.records] == [
            "ok"
        ] * 4

    def test_close_leaves_no_live_children(self):
        engine = BatchCompiler(jobs=2, use_cache=False)
        assert engine.map(abs, [-1, -2, -3]) == [1, 2, 3]
        pids = engine.pool.worker_pids()
        assert pids
        engine.close()
        assert engine.pool.worker_pids() == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A parent that dies without closing its pool (SIGKILL, a
        server stopped by SIGTERM) must not leave orphaned workers."""
        pid_file = tmp_path / "worker.pid"
        script = (
            "import os, pathlib, sys\n"
            "from repro.batch.pool import WorkerPool\n"
            "pool = WorkerPool(1)\n"
            "future, _generation = pool.submit(os.getpid)\n"
            "pathlib.Path(sys.argv[1]).write_text(str(future.result()))\n"
            "os._exit(0)\n"
        )
        # No pipes: an orphan holding one would block this call.
        child = subprocess.run(
            [sys.executable, "-c", script, str(pid_file)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert child.returncode == 0
        worker = int(pid_file.read_text())

        def running(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"

        deadline = time.monotonic() + 30
        while running(worker):
            assert time.monotonic() < deadline, "orphaned worker lives on"
            time.sleep(0.1)

    def test_shared_pool_outlives_its_engines(self):
        """An engine handed a pool runs every job on it — even a
        single one without a watchdog — and leaves it up on close."""
        from repro.batch.pool import WorkerPool

        with WorkerPool(2) as pool:
            for spec in (_small_spec(), _small_spec(height=16)):
                with BatchCompiler(pool=pool, use_cache=False) as engine:
                    assert engine.jobs == 2
                    batch = engine.compile_specs([spec], implement=False)
                    assert batch.records[0]["status"] == "ok"
                assert len(pool.worker_pids()) == 2
            pids = pool.worker_pids()
        assert pool.worker_pids() == []
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_seed_in_cache_key_and_determinism(self, tmp_path, scl):
        """Seeded searches are reproducible and keyed separately."""
        from repro.search.algorithm import MSOSearcher

        spec = _small_spec()
        a = MSOSearcher(scl, seed=11).search(spec)
        b = MSOSearcher(scl, seed=11).search(spec)
        assert [e.describe() for e in a.frontier] == [
            e.describe() for e in b.frontier
        ]
        unseeded = MSOSearcher(scl).search(spec)
        assert {e.arch.knob_summary() for e in a.frontier} == {
            e.arch.knob_summary() for e in unseeded.frontier
        }

    def test_compile_cached_single_spec(self, tmp_path):
        from repro.compiler.syndcim import SynDCIM

        cache = ResultCache(tmp_path)
        first = SynDCIM().compile_cached(
            _small_spec(), cache=cache, implement_design=False
        )
        assert first["status"] == "ok"
        assert cache.stats.stores == 1
        second = SynDCIM().compile_cached(
            _small_spec(), cache=cache, implement_design=False
        )
        assert second == first
        assert cache.stats.hits == 1

    def test_compile_cached_bypasses_unregistered_process(self, tmp_path):
        """A process that isn't the registered node of its name — by
        name or by parameters — must never share cache entries with it
        (a hit would hand back the wrong node's numbers)."""
        from repro.compiler.syndcim import SynDCIM
        from repro.tech.process import Process

        cache = ResultCache(tmp_path)
        spec = _small_spec()
        SynDCIM().compile_cached(spec, cache=cache, implement_design=False)
        assert cache.stats.stores == 1
        # Different name: not registered → bypass.
        alt = SynDCIM(process=Process(name="alt40"))
        alt.compile_cached(spec, cache=cache, implement_design=False)
        # Default name but altered parameters: also bypass.
        tweaked = SynDCIM(process=Process(alpha=2.0))
        tweaked.compile_cached(spec, cache=cache, implement_design=False)
        assert cache.stats.stores == 1
        assert cache.stats.hits == 0

    def test_compile_cached_bypasses_cache_for_custom_toolchain(
        self, tmp_path
    ):
        """A custom cell library has no fingerprint in the cache key,
        so it must never read or write shared entries."""
        from repro.compiler.syndcim import SynDCIM
        from repro.tech.stdcells import StdCellLibrary

        cache = ResultCache(tmp_path)
        spec = _small_spec()
        default_rec = SynDCIM().compile_cached(
            spec, cache=cache, implement_design=False
        )
        assert cache.stats.stores == 1
        custom = SynDCIM(library=StdCellLibrary())
        custom_rec = custom.compile_cached(
            spec, cache=cache, implement_design=False
        )
        assert custom_rec["status"] == "ok"
        assert cache.stats.hits == 0  # neither read nor wrote
        assert cache.stats.stores == 1
        assert default_rec["selected"] == custom_rec["selected"]

    def test_compile_cached_custom_scl_probe_does_not_build(
        self, tmp_path, scl
    ):
        """Deciding that a custom SCL bypasses the cache must not build
        the multi-second default SCL as a side effect; an SCL obtained
        from default_scl() keeps full cache eligibility."""
        from repro.compiler.syndcim import SynDCIM
        from repro.scl.library import _CACHE, cached_default_scl
        from repro.tech.process import Process

        alt = Process(name="probe40")
        assert cached_default_scl(alt) is None
        compiler = SynDCIM(scl=scl, process=alt)
        # scl fixture is the generic40 default, not probe40's → bypass.
        record = compiler.compile_cached(
            _small_spec(), cache=ResultCache(tmp_path), implement_design=False
        )
        assert record["status"] == "ok"
        assert "probe40" not in _CACHE  # probe alone did not build it

        shared = SynDCIM(scl=scl)  # generic40 default: cache-eligible
        cache = ResultCache(tmp_path / "shared")
        shared.compile_cached(
            _small_spec(), cache=cache, implement_design=False
        )
        assert cache.stats.stores == 1

    def test_execute_job_turns_any_crash_into_error_record(self):
        """A worker bug must become a status='error' record, never an
        exception that aborts the pool and discards the sweep."""
        from repro.compiler.syndcim import execute_job

        record = execute_job(
            {"type": "bogus", "spec": _small_spec().to_dict()}
        )
        assert record["status"] == "error"
        assert "ValueError" in record["error"]


# -- summarize --------------------------------------------------------------


class TestSummarize:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("cache")
        specs = [
            _small_spec(mac_frequency_mhz=300.0),
            _small_spec(height=16, mac_frequency_mhz=300.0),
            _small_spec(height=256, width=64, mac_frequency_mhz=5000.0),
        ]
        return BatchCompiler(jobs=1, cache_dir=cache_dir).compile_specs(
            specs, implement=False
        ).records

    def test_summarize_sections(self, records):
        from repro.batch.summarize import summarize

        text = summarize(records)
        assert "2 ok, 1 infeasible" in text
        assert "Pareto frontier" in text
        assert "array-size scaling" in text

    def test_jsonl_roundtrip(self, records, tmp_path):
        from repro.batch.summarize import load_records, summarize

        path = tmp_path / "r.jsonl"
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        loaded = load_records(path)
        assert summarize(loaded) == summarize(records)

    def test_load_rejects_garbage(self, tmp_path):
        from repro.batch.summarize import load_records

        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError):
            load_records(path)


# -- CLI --------------------------------------------------------------------


class TestBatchCLI:
    def test_sweep_then_cached_sweep(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--height", "8:16:x2",
            "--width", "8",
            "--formats", "INT4",
            "--frequency", "300",
            "--no-implement",
            "--no-summary",
            "-j", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "out.jsonl"),
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "2-point grid" in out
        assert "compiled 2" in out
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["status"] == "ok"

        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 2 hits, 0 misses; compiled 0" in out
        assert "cached" in out

    def test_sweep_stdout_output_and_summary(self, tmp_path, capsys):
        """--output - pipes pure JSONL to stdout, chatter to stderr."""
        rc = cli_main(
            [
                "sweep",
                "--height", "8",
                "--width", "8",
                "--formats", "INT4",
                "--frequency", "300",
                "--no-implement",
                "-j", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", "-",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        lines = [ln for ln in captured.out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"
        assert "Pareto frontier across the sweep" in captured.err
        assert "cache:" in captured.err

    def test_sweep_bad_range_errors(self, tmp_path, capsys):
        rc = cli_main(
            ["sweep", "--height", "8:16", "--no-implement", "-j", "1",
             "--cache-dir", str(tmp_path), "--output", "-"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_duplicate_specs_one_jsonl_line_each(
        self, tmp_path, capsys
    ):
        """Folded duplicate jobs still yield one JSONL line per
        requested point (streaming writes uniques; copies appended)."""
        specs_file = tmp_path / "specs.jsonl"
        blob = json.dumps(_small_spec().to_dict())
        specs_file.write_text(blob + "\n" + blob + "\n")
        out_file = tmp_path / "out.jsonl"
        rc = cli_main(
            [
                "batch",
                "--specs", str(specs_file),
                "--no-implement",
                "--no-summary",
                "-j", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(out_file),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["selected"] == (
            json.loads(lines[1])["selected"]
        )

    def test_batch_command_reads_spec_file(self, tmp_path, capsys):
        specs_file = tmp_path / "specs.jsonl"
        with open(specs_file, "w") as fh:
            fh.write(json.dumps(_small_spec().to_dict()) + "\n")
        rc = cli_main(
            [
                "batch",
                "--specs", str(specs_file),
                "--no-implement",
                "--no-summary",
                "-j", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 specs" in out
        assert (tmp_path / "out.jsonl").exists()

    def test_batch_missing_file_errors(self, capsys):
        rc = cli_main(["batch", "--specs", "/nonexistent.jsonl"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", ['{"h": 64}', "64", '{"height": 48, "width": 8}']
    )
    def test_batch_malformed_spec_entry_clean_error(
        self, tmp_path, capsys, entry
    ):
        specs_file = tmp_path / "specs.jsonl"
        specs_file.write_text(entry + "\n")
        rc = cli_main(["batch", "--specs", str(specs_file)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "entry 1" in err or "height" in err


# -- recovery accounting (resilience counters in the CLI cache line) ---------


class TestRecoveryStats:
    def test_cache_line_quiet_when_nothing_recovered(self):
        stats = BatchStats(total=4, unique=4, compiled=4)
        assert "recovery" not in stats.cache_line()

    def test_cache_line_reports_recovery_counters(self):
        stats = BatchStats(
            total=20,
            unique=20,
            compiled=8,
            retried=3,
            resumed=12,
            timeouts=1,
        )
        line = stats.cache_line()
        assert "recovery: retried 3, resumed 12, timeouts 1" in line

    def test_cache_line_reports_partial_recovery(self):
        line = BatchStats(total=2, unique=2, retried=2).cache_line()
        assert line.endswith("recovery: retried 2")
        assert "resumed" not in line
        assert "timeouts" not in line

    def test_describe_counts_timeouts(self):
        result = BatchResult(
            records=[
                {"status": "ok"},
                {"status": "timeout"},
                {"status": "error"},
            ],
            stats=BatchStats(total=3, unique=3),
        )
        assert "1 ok, 0 infeasible, 1 failed, 1 timed out" in result.describe()
