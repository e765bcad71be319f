"""Vectorized full-macro testbench.

:class:`VecMacroTestbench` drives one generated DCIM macro netlist —
digital (weight-complement ports) or physical (bitcell array folded in,
read nets internal) — over a **batch** of input vectors per pass, using
:class:`repro.sim.vecsim.VecSim`.  It is the vectorized twin of the
scalar ``tests/macro_tb.MacroTestbench`` and follows the same cycle
protocol: weights loaded through the behavioural model's bit packing,
serial MSB-first input feed, ``neg``/``clear`` asserted on the cycle
the first tree count reaches the shift-adder, outputs decoded after
``latency_cycles`` edges.

Weight-net resolution:

* a *digital* macro exposes ``wb[...]`` input ports — driven directly;
* a *physical* macro (from the implementation flow) buries those nets
  behind the bitcell array.  The testbench recovers them structurally:
  the bitcells come from the NetView's memory-cell groups, each named
  ``cell_r<row>_c<col>`` by the array generator, or else placed by its
  ``WL``/``BL`` connections to the top-level ``wl[row]``/``bl[col]``
  ports — and its ``RD`` net is the weight-complement net to drive.
  This survives synthesis passes because they never rewire the array.

Weights live in a packed per-net word image, one bit per lane, that
:meth:`VecMacroTestbench.run_mac` drives in one write; a load may
target a lane range, so one pass can carry several weight sets.
"""

from __future__ import annotations

import re
import time
from typing import Optional, Tuple, Union

import numpy as np

from ..arch import MacroArchitecture
from ..errors import SimulationError
from ..rtl.gen.macro import MacroShape, generate_macro, macro_shape
from ..rtl.netview import net_view
from ..sim.formats import int_range
from ..sim.functional import DCIMMacroModel
from ..sim.vecsim import VecSim
from ..spec import DataFormat, MacroSpec
from ..tech.stdcells import StdCellLibrary, default_library

#: A bank choice: one bank for every lane, or one bank per lane.
BankSelect = Union[int, np.ndarray]

_PORT_INDEX = re.compile(r"\[(\d+)\]$")
_CELL_NAME = re.compile(r"cell_r(\d+)_c(\d+)$")
_ALL = (1 << 64) - 1
_ONES = np.uint64(_ALL)


def _pin_column(group, pin: str) -> np.ndarray:
    """Net ids on one pin of every instance of a view group (-1 where
    the cell has no such pin or it is unconnected)."""
    cell = group.cell
    pins = tuple(cell.input_caps_ff)
    if pin in pins:
        return group.in_ids[:, pins.index(pin)]
    if pin in cell.outputs:
        return group.out_ids[:, cell.outputs.index(pin)]
    return np.full(len(group), -1, dtype=np.int64)


def _port_index(net: Optional[str]) -> Optional[int]:
    if net is None:
        return None
    m = _PORT_INDEX.search(net)
    return int(m.group(1)) if m else None


class VecMacroTestbench:
    """Drive a macro netlist batch-parallel against the golden model."""

    def __init__(
        self,
        spec: MacroSpec,
        arch: Optional[MacroArchitecture] = None,
        batch: int = 1024,
        netlist=None,
        shape: Optional[MacroShape] = None,
        library: Optional[StdCellLibrary] = None,
    ) -> None:
        self.spec = spec
        self.arch = arch or MacroArchitecture()
        self.arch.validate_against(spec)
        self.library = library or default_library()
        if netlist is None:
            module, shape = generate_macro(spec, self.arch)
            netlist = module.flatten()
        elif shape is None:
            shape = macro_shape(spec, self.arch)
        self.netlist = netlist
        self.shape = shape
        self.sim = VecSim(netlist, self.library, batch)
        self.model = DCIMMacroModel(spec, self.arch)
        # Cycles until the first serial bit's tree count reaches the S&A.
        self.lpre = (
            1
            + (1 if self.arch.reg_after_tree else 0)
            + (1 if self.arch.column_split > 1 else 0)
        )
        self._wb_ids = self._resolve_weight_nets()
        mcr = spec.mcr
        #: Weight image: the packed lane words of every weight net, in
        #: wb flat-index order; :meth:`run_mac` drives it when pending.
        self._wb_words = np.zeros(
            (len(self._wb_ids), self.sim.words), dtype=np.uint64
        )
        self._wb_pending = False
        flat = np.arange(len(self._wb_ids)).reshape(
            spec.height * mcr, spec.width
        )
        #: Image rows of each bank, in the model's (row, column) order.
        self._bank_rows = [flat[b::mcr].reshape(-1) for b in range(mcr)]
        self._x_ids = np.asarray(
            [self.sim.net_id(f"x[{r}]") for r in range(spec.height)],
            dtype=np.int64,
        )
        width = shape.ofu_output_width
        self._y_ids = [
            np.asarray(
                [
                    self.sim.net_id(f"y[{g * width + i}]")
                    for i in range(width)
                ],
                dtype=np.int64,
            )
            for g in range(shape.n_groups)
        ]

    def _resolve_weight_nets(self) -> np.ndarray:
        """Net ids of the weight-complement nets, indexed by the wb
        flat index ``(row * mcr + bank) * width + col``."""
        spec = self.spec
        total = spec.height * spec.mcr * spec.width
        if "wb[0]" in self.netlist.ports:
            return np.asarray(
                [self.sim.net_id(f"wb[{i}]") for i in range(total)],
                dtype=np.int64,
            )
        # The bitcells and their pin nets come straight from the view's
        # memory-cell groups, taken in netlist order.
        view = net_view(self.netlist, self.library)
        bitcells = []
        for group in view.groups:
            if group.cell.is_memory:
                bitcells.extend(zip(
                    group.inst_idx.tolist(),
                    _pin_column(group, "WL").tolist(),
                    _pin_column(group, "BL").tolist(),
                    _pin_column(group, "RD").tolist(),
                ))
        bitcells.sort()
        names = view.net_names
        ids = np.full(total, -1, dtype=np.int64)
        for inst_i, wl, bl, rd in bitcells:
            inst_name = self.netlist.instances[inst_i].name
            # Primary: the array generator names every bitcell
            # cell_r<physrow>_c<col>; synthesis passes never rename
            # instances.  Fallback: the WL/BL port indices — valid
            # unless a repeater pass rewired the word line.
            m = _CELL_NAME.search(inst_name)
            if m:
                row, col = int(m[1]), int(m[2])
            else:
                row = _port_index(names[wl] if wl >= 0 else None)
                col = _port_index(names[bl] if bl >= 0 else None)
            if row is None or col is None or rd < 0:
                raise SimulationError(
                    f"memory cell {inst_name} cannot be mapped to a "
                    "(row, column); cannot drive weight nets"
                )
            ids[row * spec.width + col] = rd
        if (ids < 0).any():
            raise SimulationError(
                "netlist has no wb ports and its bitcell array does not "
                "cover every (row, column); cannot drive weights"
            )
        return ids

    # -- weight loading ------------------------------------------------------

    def load_weights(
        self,
        bank: int,
        weights: np.ndarray,
        fmt: DataFormat,
        lanes: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Load one bank through the model's packing, then mirror the
        stored bits onto the netlist's weight-complement nets.

        ``lanes=(lo, hi)`` applies the bank to lanes ``lo..hi-1`` only;
        every other lane keeps the weights it had, so consecutive
        stimulus rounds with different weights share one wide
        :meth:`run_mac`.  The bits land as packed per-net words under
        the range's lane mask in the testbench's weight image, which
        the next :meth:`run_mac` drives in one write.
        """
        if fmt.is_float:
            self.model.set_weights_fp(
                bank, [list(row) for row in np.asarray(weights)], fmt
            )
        else:
            self.model.set_weights_int(
                bank, np.asarray(weights, dtype=np.int64), fmt
            )
        lo, hi = (0, self.sim.batch) if lanes is None else lanes
        if not 0 <= lo < hi <= self.sim.batch:
            raise SimulationError(
                f"lanes {lanes} outside the batch of {self.sim.batch}"
            )
        w0, w1 = lo // 64, (hi + 63) // 64
        mask = np.full(w1 - w0, _ONES, dtype=np.uint64)
        mask[0] &= np.uint64(_ALL ^ ((1 << (lo % 64)) - 1))
        mask[-1] &= np.uint64((1 << ((hi - 1) % 64 + 1)) - 1)
        complement = 1 - self.model.weight_bits(bank).reshape(-1, 1)
        rows = self._bank_rows[bank]
        block = self._wb_words[rows, w0:w1]
        block &= ~mask
        block |= complement.astype(np.uint64) * mask
        self._wb_words[rows, w0:w1] = block
        self._wb_pending = True

    def select_bank(self, bank: BankSelect) -> None:
        """Drive the MCR select — a scalar for every lane, or one bank
        per lane (lanes beyond the given array read bank 0)."""
        mcr = self.spec.mcr
        n_sel = mcr.bit_length() - 1 if mcr > 1 else 0
        banks = np.asarray(bank)
        if banks.ndim == 0:
            for i in range(n_sel):
                self.sim.set_input(f"sel[{i}]", (int(banks) >> i) & 1)
            return
        full = np.zeros(self.sim.batch, dtype=np.int64)
        full[: len(banks)] = banks
        for i in range(n_sel):
            self.sim.set_input(f"sel[{i}]", (full >> i) & 1)

    # -- MAC runs ------------------------------------------------------------

    def run_mac(self, xs: np.ndarray, bank: BankSelect = 0) -> np.ndarray:
        """Feed up to ``batch`` input vectors and return the fused
        outputs, shape (len(xs), n_groups) int64."""
        spec, sim, shape = self.spec, self.sim, self.shape
        xs = np.asarray(xs, dtype=np.int64)
        n = xs.shape[0]
        if xs.ndim != 2 or xs.shape[1] != spec.height or n > sim.batch:
            raise SimulationError(
                f"expected (<= {sim.batch}, {spec.height}) inputs, "
                f"got {xs.shape}"
            )
        if n < sim.batch:
            xs = np.vstack(
                [xs, np.zeros((sim.batch - n, spec.height), dtype=np.int64)]
            )
        k = spec.input_width
        # (height, batch) two's-complement inputs; each serial cycle
        # shifts out one bit row, MSB first.
        xs_t = np.ascontiguousarray(xs.T)
        if self._wb_pending:
            sim.drive_net_words(self._wb_ids, self._wb_words)
            self._wb_pending = False
        self.select_bank(bank)
        for i, s in enumerate(self.model.sub_controls()):
            sim.set_input(f"sub[{i}]", s)
        sim.reset_state()
        zeros = np.zeros((spec.height, sim.batch), dtype=np.uint8)
        for cyc in range(shape.latency_cycles):
            if cyc < k:
                rows = ((xs_t >> (k - 1 - cyc)) & 1).astype(np.uint8)
            else:
                rows = zeros
            sim.drive_nets(self._x_ids, rows)
            ctrl = 1 if cyc == self.lpre else 0
            sim.set_input("neg", ctrl)
            sim.set_input("clear", ctrl)
            sim.clock()
        out = np.stack(
            [sim.bus_ids_int(ids) for ids in self._y_ids], axis=1
        )
        return out[:n]

    def expected(self, xs: np.ndarray, bank: BankSelect = 0) -> np.ndarray:
        """Golden dot products, shape (len(xs), n_groups) int64."""
        xs = np.asarray(xs, dtype=np.int64)
        banks = np.asarray(bank)
        if banks.ndim == 0:
            return xs @ self.model.group_weights(int(banks))
        w = np.stack(
            [self.model.group_weights(b) for b in range(self.spec.mcr)]
        )
        return np.einsum("nh,nhg->ng", xs, w[banks])

    # -- scalar reference ----------------------------------------------------

    def scalar_mac_rate(
        self, vectors: int = 2, bank: int = 0, seed: int = 0
    ) -> float:
        """MAC vectors/second of the pinned scalar ``GateSimulator``
        driving this netlist with the *same* cycle protocol — the
        reference denominator for the vecsim speedup metric (a single
        definition here keeps the protocol from drifting between the
        batch engine, the perf harness and the smoke tests).

        Weights must already be loaded (:meth:`load_weights`); the
        scalar simulator gets the same bits via per-net forces.
        """
        from ..sim.gatesim import GateSimulator

        spec, shape = self.spec, self.shape
        sim = GateSimulator(self.netlist, self.library)
        names = self.sim._view.net_names
        bits = self.model.weight_bits(bank)
        bank_ids = self._wb_ids.reshape(
            spec.height * spec.mcr, spec.width
        )[bank :: spec.mcr]
        for r in range(spec.height):
            for c in range(spec.width):
                sim.force(
                    names[int(bank_ids[r, c])], 1 - int(bits[r, c])
                )
        n_sel = spec.mcr.bit_length() - 1 if spec.mcr > 1 else 0
        for i in range(n_sel):
            sim.set_input(f"sel[{i}]", (bank >> i) & 1)
        for i, s in enumerate(self.model.sub_controls()):
            sim.set_input(f"sub[{i}]", s)
        k = spec.input_width
        lo, hi = int_range(k)
        rng = np.random.default_rng(seed)
        xs = rng.integers(lo, hi + 1, size=(vectors, spec.height))
        t0 = time.perf_counter()
        for v in range(vectors):
            sim.reset_state()
            for cyc in range(shape.latency_cycles):
                for r in range(spec.height):
                    bit = (
                        (int(xs[v, r]) >> (k - 1 - cyc)) & 1
                        if cyc < k
                        else 0
                    )
                    sim.set_input(f"x[{r}]", bit)
                ctrl = 1 if cyc == self.lpre else 0
                sim.set_input("neg", ctrl)
                sim.set_input("clear", ctrl)
                sim.clock()
        return vectors / (time.perf_counter() - t0)
