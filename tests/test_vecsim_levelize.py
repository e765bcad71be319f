"""VecSim's numpy levelization against the Kahn oracle, its error
paths, and a property test over random flat netlists.

The levelization contract: every combinational cell sits at the level
the per-instance Kahn walk (``tests/reference/levelize.py``) assigns,
and the (level, cell type) groups hold the same instances.  The
property test then checks the simulated values themselves: on random
flat netlists drawn from library cells, every net of every lane equals
the scalar :class:`~repro.sim.gatesim.GateSimulator` under random
stimulus and clocks.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import MacroArchitecture
from repro.compiler.flow import ImplementSession
from repro.errors import SimulationError
from repro.rtl.gen.addertree import generate_adder_tree
from repro.rtl.gen.controller import generate_controller
from repro.rtl.gen.macro import generate_macro
from repro.rtl.gen.ofu import OFUConfig, generate_ofu
from repro.rtl.gen.shiftadder import generate_shift_adder
from repro.rtl.ir import Module
from repro.rtl.netview import net_view
from repro.sim.gatesim import GateSimulator
from repro.sim.vecsim import VecSim
from repro.spec import FP4, INT4, MacroSpec
from repro.tech.stdcells import default_library

from reference.levelize import kahn_levels

LIB = default_library()


def _vecsim_levels(vec: VecSim):
    """(net level by external id, group sizes by (level, cell)) as the
    compiled schedule sees them: a net driven from a level-L group sits
    at level L + 1."""
    ext_of_row = np.full(vec._n_rows, -1, dtype=np.int64)
    ext_of_row[vec._int[: vec._n_ext]] = np.arange(vec._n_ext)
    net_level = {}
    sizes = Counter()
    for level, groups in enumerate(vec._levels):
        for g in groups:
            rows = ext_of_row[g.out_base : g.out_base + g.rows]
            for ext in rows[rows >= 0].tolist():
                net_level[ext] = level + 1
            sizes[(level, g.cell.name)] += g.inst
    return net_level, sizes


def _oracle_levels(module):
    view = net_view(module, LIB)
    inst_level = kahn_levels(view)
    net_level = {}
    sizes = Counter()
    for idx, level in inst_level.items():
        sizes[(level, view.cells[idx].name)] += 1
        for ext in view.out_ids[idx]:
            if ext >= 0:
                net_level.setdefault(ext, level + 1)
    return net_level, sizes


_SPEC = MacroSpec(
    height=8, width=8, mcr=2, input_formats=(INT4, FP4),
    weight_formats=(INT4, FP4), mac_frequency_mhz=400.0,
)

#: Every generated module kind, digital and physical macros included.
_MODULES = {
    "tree_rca": lambda: generate_adder_tree(16, "rca")[0],
    "tree_cmp42": lambda: generate_adder_tree(16, "cmp42")[0],
    "ofu": lambda: generate_ofu(
        OFUConfig(columns=4, input_width=6, input_register=True)
    ),
    "shift_adder": lambda: generate_shift_adder(8, 4),
    "controller": lambda: generate_controller(2, 4, 8, sub_pattern=[1, 0]),
    "macro_digital": lambda: generate_macro(
        _SPEC, MacroArchitecture()
    )[0].flatten(),
    "macro_physical": lambda: ImplementSession(_SPEC).netlist(
        MacroArchitecture()
    )[0],
}


class TestLevelizationMatchesKahn:
    @pytest.mark.parametrize("name", sorted(_MODULES))
    def test_levels_and_groups(self, name):
        module = _MODULES[name]()
        vec = VecSim(module, LIB, batch=8)
        want_nets, want_sizes = _oracle_levels(module)
        got_nets, got_sizes = _vecsim_levels(vec)
        assert got_nets == want_nets, name
        assert got_sizes == want_sizes, name
        assert vec.n_levels == 1 + max(
            (lv for lv, _ in want_sizes), default=-1
        )


class TestErrorPaths:
    def test_multiple_combinational_drivers(self):
        m = Module("fight")
        m.add_port("a", "input")
        m.add_port("y", "output")
        m.add_instance("i1", "INV_X1", {"A": "a", "Y": "y"})
        m.add_instance("i2", "BUF_X2", {"A": "a", "Y": "y"})
        with pytest.raises(
            SimulationError, match="net y has multiple combinational drivers"
        ):
            VecSim(m, LIB, batch=4)

    def test_one_cell_driving_a_net_twice(self):
        m = Module("self_fight")
        for p in ("a", "b"):
            m.add_port(p, "input")
        m.add_net("n")
        m.add_instance("ha", "HA_X1", {"A": "a", "B": "b", "S": "n",
                                       "CO": "n"})
        with pytest.raises(SimulationError, match="multiple combinational"):
            VecSim(m, LIB, batch=4)

    def test_cycle_matches_oracle_message(self):
        m = Module("loop")
        m.add_port("y", "output")
        m.add_net("a")
        m.add_net("b")
        m.add_instance("i1", "INV_X1", {"A": "a", "Y": "b"})
        m.add_instance("i2", "INV_X1", {"A": "b", "Y": "a"})
        m.add_instance("i3", "BUF_X2", {"A": "a", "Y": "y"})
        with pytest.raises(SimulationError) as oracle:
            kahn_levels(net_view(m, LIB))
        with pytest.raises(SimulationError) as got:
            VecSim(m, LIB, batch=4)
        assert str(got.value) == str(oracle.value)

    def test_missing_q_names_first_flop(self):
        m = Module("noq")
        m.add_port("d", "input")
        m.add_port("q", "output")
        m.add_instance("ok", "DFF_X1", {"D": "d", "Q": "q"})
        m.add_instance("bad1", "LATCH_X1", {"D": "d"})
        m.add_instance("bad2", "DFF_X1", {"D": "d"})
        with pytest.raises(SimulationError) as oracle:
            kahn_levels(net_view(m, LIB))
        with pytest.raises(SimulationError) as got:
            VecSim(m, LIB, batch=4)
        assert str(got.value) == str(oracle.value)
        assert "bad1 (LATCH_X1)" in str(got.value)


# ---------------------------------------------------------------------------
# Property: random flat netlists, VecSim lanes == GateSimulator.
# ---------------------------------------------------------------------------

#: Combinational cells (every input pin connected: the scalar simulator
#: evaluates cells only with all inputs present), the multi-output
#: adders, sequential and memory cells.
_GATES = ("INV_X1", "BUF_X2", "NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1",
          "XOR2_X1", "XNOR2_X1", "AOI22_X1", "OAI22_X1", "MUX2_X1",
          "TIE0", "TIE1")
_ADDERS = ("HA_X1", "FA_X1", "CMP42_X1")
_SEQ = ("DFF_X1", "LATCH_X1")
_MEM = ("DCIM6T", "SRAM6T")


@st.composite
def _netlists(draw):
    """A flat module: combinational cells read earlier nets only (so
    the fabric is acyclic), flops may close loops through D, memory
    read nets are testbench-driven roots.  Output pins other than Q
    may be left unconnected; D, CK and the bitcell WL/BL may be too."""
    n_in = draw(st.integers(1, 4))
    inputs = [f"in{i}" for i in range(n_in)]
    nets = list(inputs)
    cells = []
    for c in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from((_GATES, _GATES, _ADDERS, _SEQ, _MEM)))
        ref = draw(st.sampled_from(kind))
        cell = LIB.cell(ref)
        conn = {}
        for pin in cell.input_caps_ff:
            if cell.is_sequential and pin == "D":
                continue  # chosen below, over every net
            optional = cell.is_sequential or cell.is_memory
            if optional and draw(st.booleans()):
                continue
            conn[pin] = nets[draw(st.integers(0, len(nets) - 1))]
        new = []
        for pin in cell.outputs:
            if pin == "Q" or draw(st.integers(0, 3)) > 0:
                conn[pin] = f"n{c}_{pin}"
                new.append(conn[pin])
        cells.append((ref, conn))
        nets.extend(new)
    for ref, conn in cells:
        if LIB.cell(ref).is_sequential and draw(st.booleans()):
            conn["D"] = nets[draw(st.integers(0, len(nets) - 1))]
    m = Module("rand")
    for net in inputs:
        m.add_port(net, "input")
    for net in nets[n_in:]:
        m.add_net(net)
    for c, (ref, conn) in enumerate(cells):
        m.add_instance(f"u{c}", ref, conn)
    rd_nets = [conn["RD"] for _, conn in cells if "RD" in conn]
    return m, inputs, rd_nets


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=_netlists(),
    batch=st.sampled_from([1, 3, 64, 67]),
    reset=st.sampled_from([0, 1]),
    steps=st.lists(st.booleans(), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_netlists_match_gatesim(case, batch, reset, steps, seed):
    module, inputs, rd_nets = case
    rng = np.random.default_rng(seed)
    vec = VecSim(module, LIB, batch)
    lanes = sorted({0, batch // 2, batch - 1})
    scalars = {lane: GateSimulator(module, LIB) for lane in lanes}
    # A flop without D holds its reset value through every clock.
    vec.reset_state(reset)
    for sim in scalars.values():
        sim.reset_state(reset)
    rd_ids = np.asarray([vec.net_id(n) for n in rd_nets], dtype=np.int64)
    view = vec._view
    for clock in steps:
        stim = rng.integers(0, 2, size=(len(inputs), batch))
        for i, net in enumerate(inputs):
            vec.set_input(net, stim[i])
            for lane, sim in scalars.items():
                sim.set_input(net, int(stim[i, lane]))
        if rd_nets:
            rd = rng.integers(0, 2, size=(len(rd_nets), batch))
            vec.drive_nets(rd_ids, rd)
            for lane, sim in scalars.items():
                for k, net in enumerate(rd_nets):
                    sim.force(net, int(rd[k, lane]))
        if clock:
            vec.clock()
        else:
            vec.evaluate()
        for sim in scalars.values():
            sim.clock() if clock else sim.evaluate()
        snap = vec.lanes_snapshot()
        for lane, sim in scalars.items():
            for net, nid in view.net_id.items():
                assert int(snap[nid, lane]) == sim.values[net], (
                    f"net {net} lane {lane} after "
                    f"{'clock' if clock else 'evaluate'}"
                )
