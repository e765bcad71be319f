"""Benchmark-suite fixtures and the results sink.

Every bench regenerates one table or figure of the paper; the rendered
text lands in ``benchmarks/results/<name>.txt`` (and on stdout with
``-s``) so EXPERIMENTS.md can quote it.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def batch_engine():
    """Opt-in batch engine for the multi-point benches.

    ``REPRO_BENCH_JOBS=N`` (N >= 2) makes the Fig. 8 frontier
    implementations and the Fig. 9 variation sweep run through
    :class:`repro.batch.BatchCompiler`'s process pool; unset (the
    default, and what CI uses) they run serially in-process so bench
    timings stay comparable.  The engine's disk cache stays off — the
    benches must measure real compilations.
    """
    raw = os.environ.get("REPRO_BENCH_JOBS", "")
    try:
        jobs = int(raw.strip() or 0)
    except ValueError:
        import warnings

        warnings.warn(
            f"REPRO_BENCH_JOBS={raw!r} is not an integer; running serially"
        )
        yield None
        return
    if jobs < 2:
        yield None
        return
    from repro.batch import BatchCompiler

    with BatchCompiler(jobs=jobs, use_cache=False) as engine:
        yield engine


@pytest.fixture(scope="session")
def scl():
    from repro.scl.library import default_scl

    return default_scl()


@pytest.fixture(scope="session")
def library():
    from repro.tech.stdcells import default_library

    return default_library()


@pytest.fixture(scope="session")
def process():
    from repro.tech.process import GENERIC_40NM

    return GENERIC_40NM


@pytest.fixture(scope="session")
def paper_spec():
    """Fig. 8 spec: H=W=64, MCR=2, INT4/8 + FP4/8, 800 MHz @ 0.9 V."""
    from repro.spec import FP4, FP8, INT4, INT8, MacroSpec

    return MacroSpec(
        height=64,
        width=64,
        mcr=2,
        input_formats=(INT4, INT8, FP4, FP8),
        weight_formats=(INT4, INT8, FP4, FP8),
        mac_frequency_mhz=800.0,
    )


@pytest.fixture(scope="session")
def testchip_implementation(scl):
    """The silicon-validation macro (Section IV.B): 64x64, MCR=2,
    INT1/2/4/8 + FP4/8 — compiled once, shared by Figs. 9/10 and
    Table II."""
    from repro import SynDCIM
    from repro.spec import FP4, FP8, INT1, INT2, INT4, INT8, MacroSpec

    spec = MacroSpec(
        height=64,
        width=64,
        mcr=2,
        input_formats=(INT1, INT2, INT4, INT8, FP4, FP8),
        weight_formats=(INT1, INT2, INT4, INT8, FP4, FP8),
        mac_frequency_mhz=800.0,
    )
    compiler = SynDCIM(scl=scl)
    result = compiler.compile(
        spec, input_sparsity=0.875, weight_sparsity=0.5
    )
    assert result.implementation is not None
    return result


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return _save
