"""Wide verification passes against the round-by-round oracle, weight
net resolution on physical netlists, and what the stage's clock covers.

``verify_macro`` packs consecutive stimulus rounds into one simulation
pass of up to ``PASS_LANES`` lanes.  Its report — counts, mismatch
records and all — must equal the one-round-per-pass loop kept in
``tests/reference/verify_rounds.py``, so the schedule is checked on
fault-injected netlists where mismatches actually occur.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.arch import MacroArchitecture
from repro.compiler.flow import ImplementSession
from repro.errors import SimulationError
from repro.rtl.gen.macro import generate_macro
from repro.rtl.ir import Module
from repro.spec import FP4, INT2, INT4, MacroSpec
from repro.verify import harness
from repro.verify.harness import PASS_LANES, verify_macro
from repro.verify.testbench import VecMacroTestbench

from reference.verify_rounds import verify_macro_rounds

ARCH = MacroArchitecture()

INT_SET = (INT2, INT4)
FP_SET = (INT4, FP4)


def _spec(mcr: int, formats) -> MacroSpec:
    return MacroSpec(
        height=8, width=8, mcr=mcr, input_formats=formats,
        weight_formats=formats, mac_frequency_mhz=400.0,
    )


def _stuck_at_zero(flat: Module) -> Module:
    """Tie one full adder's sum to 0: a fault that shows on some
    vectors, weights and columns but not all."""
    victim = next(
        i for i in flat.instances if i.ref == "FA_X1" and "S" in i.conn
    )
    stuck = victim.conn["S"]
    victim.conn["S"] = flat.add_net("mut_dangling")
    flat.add_instance("mut_tie", "TIE0", {"Y": stuck})
    return flat


def _digital(spec):
    module, shape = generate_macro(spec, ARCH)
    return _stuck_at_zero(module.flatten()), shape


def _physical(spec):
    flat, shape, _ = ImplementSession(spec).netlist(ARCH)
    return _stuck_at_zero(flat), shape


#: (mcr, formats, vectors, batch, netlist kind).  Together: MCR 1, 2
#: and 4; INT and FP format sets; vectors not a multiple of batch;
#: batches that are not a multiple of 64 (rounds straddle words);
#: several passes (vectors > PASS_LANES); a round wider than a pass.
CASES = [
    (1, INT_SET, 1000, 96, "digital"),
    (2, INT_SET, 5000, None, "digital"),
    (4, FP_SET, 1300, 100, "digital"),
    (2, (FP4,), 4500, 4100, "digital"),
    (1, FP_SET, 9000, 1000, "digital"),
    (2, FP_SET, 700, 50, "physical"),
    (4, INT_SET, 4200, 1024, "physical"),
]


@pytest.mark.parametrize(
    "mcr,formats,vectors,batch,kind", CASES,
    ids=[f"mcr{c[0]}-{'+'.join(f.name for f in c[1])}-v{c[2]}-b{c[3]}-{c[4]}"
         for c in CASES],
)
def test_wide_passes_match_round_oracle(mcr, formats, vectors, batch, kind):
    spec = _spec(mcr, formats)
    build = _digital if kind == "digital" else _physical
    kwargs = dict(vectors=vectors, seed=7, batch=batch, max_records=64)
    flat, shape = build(spec)
    got = verify_macro(spec, ARCH, netlist=flat, shape=shape, **kwargs)
    flat, shape = build(spec)
    want = verify_macro_rounds(
        spec, ARCH, netlist=flat, shape=shape, **kwargs
    )
    assert want.mismatch_count > 0, "the fault must show"
    assert got.vectors_run == want.vectors_run == vectors
    assert got.batch == want.batch
    assert got.mismatch_count == want.mismatch_count
    assert got.mismatches == want.mismatches
    got_d, want_d = got.to_dict(), want.to_dict()
    for key in ("elapsed_s", "vectors_per_s"):
        got_d.pop(key)
        want_d.pop(key)
    assert got_d == want_d


def test_several_passes_really_run(monkeypatch):
    """vectors > PASS_LANES needs more than one run_mac, each at most
    PASS_LANES lanes wide."""
    widths = []
    original = VecMacroTestbench.run_mac

    def spy(self, xs, bank=0):
        widths.append(len(xs))
        return original(self, xs, bank)

    monkeypatch.setattr(VecMacroTestbench, "run_mac", spy)
    spec = _spec(2, INT_SET)
    report = verify_macro(spec, ARCH, vectors=PASS_LANES + 904, seed=3)
    assert report.passed
    assert widths == [PASS_LANES, 904]


class TestWeightNetResolution:
    def _renamed(self, spec, break_wl=False):
        """The physical netlist with every bitcell renamed (so the
        cell_r<row>_c<col> names are gone); optionally one bitcell's
        word line moved to an unindexed net."""
        flat, shape, _ = ImplementSession(spec).netlist(ARCH)
        out = Module(flat.name)
        for port in flat.ports.values():
            out.add_port(port.name, port.direction)
        for net in flat.nets:
            out.add_net(net)
        out.add_net("wl_loose")
        broken = False
        for k, inst in enumerate(flat.instances):
            name, conn = inst.name, dict(inst.conn)
            if "RD" in conn:
                name = f"bitcell_{k}"
                if break_wl and not broken:
                    conn["WL"] = "wl_loose"
                    broken = name
            out.add_instance(name, inst.ref, conn)
        return flat, out, shape, broken

    def test_renamed_bitcells_resolve_through_wl_bl(self):
        spec = _spec(2, FP_SET)
        original, renamed, shape, _ = self._renamed(spec)
        want = VecMacroTestbench(
            spec, ARCH, batch=8, netlist=original, shape=shape
        )._wb_ids
        got = VecMacroTestbench(
            spec, ARCH, batch=8, netlist=renamed, shape=shape
        )._wb_ids
        assert (got == want).all()
        report = verify_macro(
            spec, ARCH, netlist=renamed, shape=shape, vectors=256, seed=2
        )
        assert report.passed, report.describe()

    def test_bitcell_with_neither_raises(self):
        spec = _spec(1, INT_SET)
        _, renamed, shape, broken = self._renamed(spec, break_wl=True)
        with pytest.raises(
            SimulationError, match=f"memory cell {broken} cannot be mapped"
        ):
            VecMacroTestbench(
                spec, ARCH, batch=8, netlist=renamed, shape=shape
            )


class TestStageClock:
    def test_elapsed_includes_testbench_build(self, monkeypatch):
        """The report's clock starts before the testbench (and its
        simulator) is built, so vectors_per_s prices the whole stage."""
        delay = 0.2

        class SlowBuild(VecMacroTestbench):
            def __init__(self, *args, **kwargs):
                time.sleep(delay)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "VecMacroTestbench", SlowBuild)
        report = verify_macro(_spec(1, INT_SET), ARCH, vectors=64, seed=1)
        assert report.elapsed_s >= delay
        assert report.vectors_per_s <= 64 / delay

    def test_final_verify_runs_with_gc_paused(self, monkeypatch):
        import repro.compiler.flow as flow

        seen = []
        original = flow.verify_macro

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(flow, "verify_macro", spy)
        spec = _spec(1, INT_SET)
        session = ImplementSession(spec)
        impl = session.implement(ARCH)
        assert gc.isenabled()
        report = session.verify_implementation(impl, vectors=64)
        assert report.passed
        assert seen == [False]
        assert gc.isenabled()
