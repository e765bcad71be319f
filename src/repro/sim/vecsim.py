"""Vectorized batch gate-level simulator.

:class:`VecSim` evaluates **B stimulus vectors simultaneously** over one
flat netlist, packing the batch as bit-parallel uint64 words (lane *b*
of a net lives in bit ``b % 64`` of word ``b // 64``).  Every cell's
logic function is expressed as a handful of bitwise numpy operations
over whole instance groups, so one evaluation pass costs a few hundred
vectorized kernel calls instead of one Python dict-walk per cell per
vector — the same NetView-index treatment the STA/activity/power
kernels received, applied to simulation.

Semantics mirror :class:`repro.sim.gatesim.GateSimulator` (the pinned
scalar reference) bit for bit:

* combinational cells get the same topological levels as the scalar
  reference's Kahn walk (cycle ⇒ :class:`SimulationError`);
* sequential cells get master-slave semantics on :meth:`clock` (all D
  sampled, then all Q updated); a sequential cell without a ``Q``
  connection raises loudly;
* memory-cell read nets are resolved roots, driven by the testbench;
* nets can be *forced* (per-lane values override any driver).

The compile step works on the NetView's stacked per-cell-type pin
tables (:class:`~repro.rtl.netview.CellGroup`), never on single
instances: levelization is a sequence of numpy frontier passes (a
cell's level is the first pass in which every input net is resolved,
which is its longest path from the roots), then instances are grouped
by (level, cell type), their pin tables stacked into integer gather
matrices, and the **value rows renumbered** so each group's output
pins occupy contiguous blocks:
kernels write straight into the value array through ``out=`` views and
the scatter pass disappears entirely.  Cells whose scalar logic
function is one of the library's known functions get a hand-written
allocation-free bitwise kernel; any other function falls back to an
automatically derived sum-of-minterms kernel over its truth table, so
custom cells simulate correctly without registration.

The value array is stored **tile-major**: shape ``(n_tiles, rows,
tile_words)``, so one word-tile of every net is a single contiguous
matrix.  Wide batches evaluate tile by tile (``tile_words`` words — 64
by default, 4096 lanes — per block) with every gather and kernel write
operating on contiguous memory; the per-level working set stays inside
the fast cache levels as the batch grows instead of sliding down the
memory hierarchy, which is what lets verification throughput scale
with batch width.

Evaluation is lazy *and* change-driven.  Stimulus writes compare
against the stored words and mark only genuinely changed nets dirty;
propagation plans one boolean pass over the levelized groups and
evaluates exactly the groups that can see a dirty input (plus any group
whose output rows were overwritten from outside), so a drain cycle that
re-drives constant zeros costs almost nothing while remaining
observationally identical to a full pass.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..rtl.netview import net_view
from ..tech import stdcells as _std
from ..tech.stdcells import Cell, StdCellLibrary

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Default word-tile width for the propagate loop: 64 words = 4096
#: lanes per block keeps each level's gather sources and output block
#: cache-resident on wide batches.
_DEFAULT_TILE_WORDS = 64

BatchValue = Union[int, Sequence[int], np.ndarray]


# ---------------------------------------------------------------------------
# Bitwise kernels.
#
# A kernel takes the gathered input tensor ``inp`` of shape
# (instances, pins, W) — pins in the cell's ``input_caps_ff`` order —
# plus ``outs``, a tuple of (instances, W) uint64 views (one per output
# pin, in the cell's ``outputs`` order) that it must write in place,
# and ``tmp``, a (2, instances, W) scratch array it may clobber.  The
# out= style keeps the hot loop allocation-free past the gather itself:
# every temporary lives in preallocated scratch and results land
# directly in the value rows.
# ---------------------------------------------------------------------------


def _k_inv(i, o, t):
    np.invert(i[:, 0], out=o[0])


def _k_buf(i, o, t):
    np.copyto(o[0], i[:, 0])


def _k_nand2(i, o, t):
    y = o[0]
    np.bitwise_and(i[:, 0], i[:, 1], out=y)
    np.invert(y, out=y)


def _k_nor2(i, o, t):
    y = o[0]
    np.bitwise_or(i[:, 0], i[:, 1], out=y)
    np.invert(y, out=y)


def _k_and2(i, o, t):
    np.bitwise_and(i[:, 0], i[:, 1], out=o[0])


def _k_or2(i, o, t):
    np.bitwise_or(i[:, 0], i[:, 1], out=o[0])


def _k_xor2(i, o, t):
    np.bitwise_xor(i[:, 0], i[:, 1], out=o[0])


def _k_xnor2(i, o, t):
    y = o[0]
    np.bitwise_xor(i[:, 0], i[:, 1], out=y)
    np.invert(y, out=y)


def _k_aoi22(i, o, t):
    y, t0 = o[0], t[0]
    np.bitwise_and(i[:, 0], i[:, 1], out=y)
    np.bitwise_and(i[:, 2], i[:, 3], out=t0)
    np.bitwise_or(y, t0, out=y)
    np.invert(y, out=y)


def _k_oai22(i, o, t):
    y, t0 = o[0], t[0]
    np.bitwise_or(i[:, 0], i[:, 1], out=y)
    np.bitwise_or(i[:, 2], i[:, 3], out=t0)
    np.bitwise_and(y, t0, out=y)
    np.invert(y, out=y)


def _k_mux2(i, o, t):
    # y = d0 ^ (s & (d0 ^ d1)) ≡ s ? d1 : d0, with zero temporaries.
    d0, d1, s = i[:, 0], i[:, 1], i[:, 2]
    y = o[0]
    np.bitwise_xor(d0, d1, out=y)
    np.bitwise_and(y, s, out=y)
    np.bitwise_xor(y, d0, out=y)


def _k_ha(i, o, t):
    a, b = i[:, 0], i[:, 1]
    np.bitwise_xor(a, b, out=o[0])
    np.bitwise_and(a, b, out=o[1])


def _k_fa(i, o, t):
    a, b, ci = i[:, 0], i[:, 1], i[:, 2]
    s, co, t0 = o[0], o[1], t[0]
    np.bitwise_xor(a, b, out=t0)
    np.bitwise_and(ci, t0, out=co)
    np.bitwise_xor(t0, ci, out=s)
    np.bitwise_and(a, b, out=t0)
    np.bitwise_or(co, t0, out=co)


def _k_cmp42(i, o, t):
    a, b, c, d, ci = i[:, 0], i[:, 1], i[:, 2], i[:, 3], i[:, 4]
    s, cy, co = o
    t0, t1 = t[0], t[1]
    # co = majority(a, b, c) = (a&b) | (c & (a|b))
    np.bitwise_and(a, b, out=co)
    np.bitwise_or(a, b, out=t0)
    np.bitwise_and(t0, c, out=t0)
    np.bitwise_or(co, t0, out=co)
    # s3 = a^b^c; cy = (s3&d) | (ci & (s3^d)); s = s3^d^ci
    np.bitwise_xor(a, b, out=t0)
    np.bitwise_xor(t0, c, out=t0)
    np.bitwise_and(t0, d, out=cy)
    np.bitwise_xor(t0, d, out=t1)
    np.bitwise_and(ci, t1, out=t0)
    np.bitwise_or(cy, t0, out=cy)
    np.bitwise_xor(t1, ci, out=s)


def _k_tie0(i, o, t):
    o[0].fill(0)


def _k_tie1(i, o, t):
    o[0].fill(_ONES)


#: Known scalar logic functions → (expected input-pin order, expected
#: output order, kernel).  The pin orders guard against a custom cell
#: reusing a library function with reordered pins — any mismatch falls
#: back to the derived truth-table kernel.
_SPECIALIZED = {
    _std._inv: (("A",), ("Y",), _k_inv),
    _std._buf: (("A",), ("Y",), _k_buf),
    _std._nand2: (("A", "B"), ("Y",), _k_nand2),
    _std._nor2: (("A", "B"), ("Y",), _k_nor2),
    _std._and2: (("A", "B"), ("Y",), _k_and2),
    _std._or2: (("A", "B"), ("Y",), _k_or2),
    _std._xor2: (("A", "B"), ("Y",), _k_xor2),
    _std._xnor2: (("A", "B"), ("Y",), _k_xnor2),
    _std._aoi22: (("A", "B", "C", "D"), ("Y",), _k_aoi22),
    _std._oai22: (("A", "B", "C", "D"), ("Y",), _k_oai22),
    _std._mux2: (("D0", "D1", "S"), ("Y",), _k_mux2),
    _std._ha: (("A", "B"), ("S", "CO"), _k_ha),
    _std._fa: (("A", "B", "CI"), ("S", "CO"), _k_fa),
    _std._cmp42: (("A", "B", "C", "D", "CI"), ("S", "CY", "CO"), _k_cmp42),
    _std._tie0: ((), ("Y",), _k_tie0),
    _std._tie1: ((), ("Y",), _k_tie1),
}


def _truth_table_kernel(cell: Cell):
    """Sum-of-minterms kernel derived from the cell's scalar function.

    Enumerates the 2^k input assignments once at compile time; the
    kernel is then pure bitwise numpy over the caller's scratch rows.
    Handles any combinational cell with a logic function, at worst 2^k
    AND/OR terms per output.
    """
    pins = tuple(cell.input_caps_ff)
    k = len(pins)
    minterms: List[List[Tuple[int, ...]]] = [[] for _ in cell.outputs]
    for assignment in product((0, 1), repeat=k):
        outs = cell.evaluate(dict(zip(pins, assignment)))
        for oi, opin in enumerate(cell.outputs):
            if outs.get(opin, 0):
                minterms[oi].append(assignment)

    def kernel(inp, outs, tmp):
        term, scratch = tmp[0], tmp[1]
        for oi, terms in enumerate(minterms):
            acc = outs[oi]
            acc.fill(0)
            for assignment in terms:
                if not assignment:  # zero-input cell, constant-1 output
                    acc.fill(_ONES)
                    continue
                for pin_i, bit in enumerate(assignment):
                    col = inp[:, pin_i]
                    if pin_i == 0:
                        if bit:
                            np.copyto(term, col)
                        else:
                            np.invert(col, out=term)
                    elif bit:
                        np.bitwise_and(term, col, out=term)
                    else:
                        np.invert(col, out=scratch)
                        np.bitwise_and(term, scratch, out=term)
                np.bitwise_or(acc, term, out=acc)

    return kernel


def _kernel_for(cell: Cell):
    entry = _SPECIALIZED.get(cell.function)
    if entry is not None:
        pins, outs, kernel = entry
        if tuple(cell.input_caps_ff) == pins and cell.outputs == outs:
            return kernel
    if cell.function is None:
        raise SimulationError(f"{cell.name} has no logic function")
    return _truth_table_kernel(cell)


class _Group:
    """One compiled (level, cell-type) instance group.

    Inputs gather through the ``gather`` index matrix (internal value
    rows, one row of pin indices per instance); output pin ``j`` owns
    the contiguous row block ``[out_base + j*inst, out_base +
    (j+1)*inst)``, which is what lets kernels write results in place
    with no scatter pass.
    """

    __slots__ = (
        "cell", "kernel", "gather", "pins", "inst", "n_out", "out_base",
        "rows", "index",
    )

    def __init__(self, cell: Cell, kernel, gather: np.ndarray,
                 out_base: int, index: int) -> None:
        self.cell = cell
        self.kernel = kernel
        self.inst, self.pins = gather.shape
        self.gather = np.ascontiguousarray(gather)
        self.out_base = out_base
        self.n_out = n_out = len(cell.outputs)
        self.rows = self.inst * n_out
        self.index = index


# ---------------------------------------------------------------------------
# Batch packing helpers.
# ---------------------------------------------------------------------------


def pack_lanes(bits: np.ndarray, words: int) -> np.ndarray:
    """Pack 0/1 lane values into uint64 words, lane ``b`` → bit ``b%64``
    of word ``b//64``.  ``bits`` is (..., B); returns (..., words).
    Tail bits past B are always zero."""
    arr = np.ascontiguousarray(bits, dtype=np.uint8)
    packed = np.packbits(arr, axis=-1, bitorder="little")
    out = np.zeros(arr.shape[:-1] + (words * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8")


def unpack_lanes(words_arr: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: (..., W) words → (..., batch) bits."""
    as_bytes = np.ascontiguousarray(words_arr).astype("<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :batch]


class VecSim:
    """Simulate one flat module over a batch of stimulus vectors.

    Parameters
    ----------
    module:
        A *flat* module (hierarchical instances raise).
    library:
        Cell library supplying logic functions.
    batch:
        Number of simultaneous stimulus lanes ``B``.
    tile_words:
        Word-tile width of the propagate loop (default 64 words = 4096
        lanes per block); wide batches evaluate tile by tile over the
        tile-major value array so the per-level working set stays
        cache-resident.  Results are bit-identical for every tile
        width.

    Lane-indexed arguments accept either a scalar (broadcast to every
    lane) or a length-``B`` sequence of 0/1 values.
    """

    def __init__(
        self,
        module,
        library: StdCellLibrary,
        batch: int = 64,
        tile_words: Optional[int] = None,
    ) -> None:
        if batch < 1:
            raise SimulationError(f"batch must be positive, got {batch}")
        if tile_words is not None and tile_words < 1:
            raise SimulationError(
                f"tile_words must be positive, got {tile_words}"
            )
        self.module = module
        self.library = library
        self.batch = int(batch)
        self.words = (self.batch + 63) // 64
        self._tile = min(
            self.words, tile_words if tile_words else _DEFAULT_TILE_WORDS
        )
        self._n_tiles = -(-self.words // self._tile)
        #: Padded word count: every full-width array spans whole tiles
        #: (pad words stay zero) so the tile-major value cube and the
        #: flat (rows, words) bookkeeping views stay interchangeable.
        self._wpad = self._n_tiles * self._tile
        tail_bits = self.batch - 64 * (self.words - 1)
        self._tail_mask = (
            _ONES if tail_bits == 64 else np.uint64((1 << tail_bits) - 1)
        )
        view = net_view(module, library)
        self._view = view
        self._nid = view.net_id
        self._n_ext = view.n_nets
        self._forced: Dict[int, np.ndarray] = {}
        self._forced_ids = np.empty(0, dtype=np.int64)
        self._forced_vals = np.empty((0, self._wpad), dtype=np.uint64)
        self._forced_mid_ids = np.empty(0, dtype=np.int64)
        self._forced_mid_vals = np.empty((0, self._wpad), dtype=np.uint64)
        self._forced_stale = False
        self._compile()
        # Tile-major value cube: tile t of every row is the contiguous
        # matrix self._values[t], which is what the propagate loop,
        # gathers and kernels operate on.
        self._values = np.zeros(
            (self._n_tiles, self._n_rows, self._tile), dtype=np.uint64
        )
        self._dirty_rows = np.zeros(self._n_rows, dtype=bool)
        #: Group indices that must re-evaluate next pass regardless of
        #: input dirtiness (their output rows were overwritten from
        #: outside — a released force, a write to a driven net).
        self._pending_groups: set = set()
        self._all_dirty = True
        self._dirty = True
        max_inst = max((g.inst for g in self._groups), default=1)
        self._sbuf = np.empty((2, max_inst, self._tile), dtype=np.uint64)

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> None:
        view = self._view
        module = self.module
        n_ext = self._n_ext
        comb_groups = []
        seq_groups = []
        mem_groups = []
        for group in view.groups:
            cell = group.cell
            if cell.is_sequential:
                seq_groups.append(group)
            elif cell.is_memory:
                mem_groups.append(group)
            else:
                comb_groups.append(group)
        # Roots of the levelization, as a mask over external net ids
        # plus one always-resolved sentinel (n_ext) that stands in for
        # unconnected pins.
        resolved = np.zeros(n_ext + 1, dtype=bool)
        resolved[n_ext] = True
        resolved[[self._nid[p] for p in module.input_ports]] = True
        for group in mem_groups:
            outs = group.out_ids.ravel()
            resolved[outs[outs >= 0]] = True

        # Sequential pin tables in instance order: D may be absent
        # (state holds), Q must exist.
        seq_inst, d_cols, q_cols = [], [], []
        no_q = []
        for group in seq_groups:
            cell = group.cell
            n = len(group)
            if "Q" in cell.outputs:
                q = group.out_ids[:, cell.outputs.index("Q")]
            else:
                q = np.full(n, -1, dtype=np.int64)
            pins = tuple(cell.input_caps_ff)
            if "D" in pins:
                d = group.in_ids[:, pins.index("D")]
            else:
                d = np.full(n, -1, dtype=np.int64)
            no_q.append(group.inst_idx[q < 0])
            seq_inst.append(group.inst_idx)
            d_cols.append(d)
            q_cols.append(q)
        bad = np.concatenate(no_q) if no_q else np.empty(0, np.int64)
        if bad.size:
            inst = module.instances[int(bad.min())]
            raise SimulationError(
                f"{module.name}: sequential cell {inst.name} "
                f"({view.cells[int(bad.min())].name}) has no Q connection "
                "— its state would be invisible to the fabric"
            )
        if seq_inst:
            order = np.argsort(np.concatenate(seq_inst), kind="stable")
            d_ext = np.concatenate(d_cols)[order]
            q_ext = np.concatenate(q_cols)[order]
        else:
            d_ext = q_ext = np.empty(0, dtype=np.int64)
        #: Nets whose value is testbench-owned (never written by the
        #: fabric): input ports and memory read nets that no Q drives.
        free_ext = resolved[:n_ext].copy()
        free_ext[q_ext] = False
        resolved[q_ext] = True
        self._d_hold = d_ext < 0
        self._state = np.zeros((len(q_ext), self._wpad), dtype=np.uint64)

        # Combinational pin tables, stacked and padded: unconnected
        # pins (and padding) read the sentinel, so "every input
        # resolved" is one row-wise all().
        n_comb = sum(len(g) for g in comb_groups)
        p_max = max((g.in_ids.shape[1] for g in comb_groups), default=0)
        o_max = max((g.out_ids.shape[1] for g in comb_groups), default=0)
        in_mat = np.full((n_comb, p_max), n_ext, dtype=np.int64)
        out_mat = np.full((n_comb, o_max), -1, dtype=np.int64)
        inst_idx = np.empty(n_comb, dtype=np.int64)
        # Groups in cell-name order, so a group's index sorts like its
        # cell name.
        comb_groups.sort(key=lambda g: g.cell.name)
        group_of = np.empty(n_comb, dtype=np.int64)
        at = 0
        for k, group in enumerate(comb_groups):
            n = len(group)
            rows = slice(at, at + n)
            p = group.in_ids.shape[1]
            o = group.out_ids.shape[1]
            in_mat[rows, :p] = np.where(group.in_ids >= 0, group.in_ids, n_ext)
            out_mat[rows, :o] = group.out_ids
            inst_idx[rows] = group.inst_idx
            group_of[rows] = k
            at += n

        # Levelization by frontier passes: a cell's level is the first
        # pass in which all of its inputs are resolved, and its outputs
        # resolve for the next pass — the longest path from the roots,
        # the same level a Kahn walk assigns.
        ready = resolved
        out_ready = np.where(out_mat >= 0, out_mat, n_ext)
        level = np.full(n_comb, -1, dtype=np.int64)
        pending = np.arange(n_comb)
        lv = 0
        while pending.size:
            ok = ready[in_mat[pending]].all(axis=1)
            if not ok.any():
                break
            now = pending[ok]
            level[now] = lv
            ready[out_ready[now]] = True
            pending = pending[~ok]
            lv += 1
        if pending.size:
            raise SimulationError(
                f"levelization failed: {n_comb - pending.size} of "
                f"{n_comb} combinational cells ordered (cycle?)"
            )

        # Group by (level, cell name), instances in netlist order.
        order = np.lexsort((inst_idx, group_of, level))
        key_level = level[order]
        key_group = group_of[order]
        cut = np.flatnonzero(
            (np.diff(key_level) != 0) | (np.diff(key_group) != 0)
        ) + 1
        bounds = np.concatenate(([0], cut, [n_comb])) if n_comb else []

        # Internal row renumbering: each group's output pin j gets a
        # contiguous row block (unconnected outputs get private trash
        # slots inside the block), so kernels write value rows directly
        # and no scatter pass exists.  Roots — ports, Q nets, memory
        # read nets, undriven nets — take the rows after all blocks,
        # and one shared constant-zero row (for unconnected input pins)
        # closes the table.
        kernels: Dict[str, object] = {}
        # (level, cell, kernel, gather_ext, out_base)
        specs: List[tuple] = []
        out_blocks: List[np.ndarray] = []
        next_row = 0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            members = order[lo:hi]
            cell = comb_groups[int(key_group[lo])].cell
            kernel = kernels.get(cell.name)
            if kernel is None:
                kernel = kernels[cell.name] = _kernel_for(cell)
            n_out = len(cell.outputs)
            gather_ext = in_mat[members, : len(cell.input_caps_ff)]
            # Pin-major block: row out_base + j*inst + i.
            out_blocks.append(out_mat[members, :n_out].T.ravel())
            specs.append((int(key_level[lo]), cell, kernel, gather_ext,
                          next_row))
            next_row += len(members) * n_out
        occ = (
            np.concatenate(out_blocks) if out_blocks
            else np.empty(0, dtype=np.int64)
        )
        occ_rows = np.flatnonzero(occ >= 0)
        occ = occ[occ_rows]
        _, first = np.unique(occ, return_index=True)
        if first.size != occ.size:
            # Report the conflict the row order meets first.
            dup = np.ones(occ.size, dtype=bool)
            dup[first] = False
            ext = int(occ[np.flatnonzero(dup)[0]])
            raise SimulationError(
                f"net {view.net_names[ext]} has multiple "
                "combinational drivers"
            )
        int_id = np.full(n_ext + 1, -1, dtype=np.int64)
        int_id[occ] = occ_rows
        roots = np.flatnonzero(int_id[:n_ext] < 0)
        int_id[roots] = next_row + np.arange(roots.size)
        next_row += roots.size
        self._zero_int = next_row
        int_id[n_ext] = next_row
        next_row += 1
        self._n_rows = next_row
        self._int = int_id

        groups: List[_Group] = []
        levels: List[List[_Group]] = [[] for _ in range(lv)]
        for level_i, cell, kernel, gather_ext, out_base in specs:
            group = _Group(
                cell, kernel, int_id[gather_ext], out_base, len(groups)
            )
            groups.append(group)
            levels[level_i].append(group)
        self._groups = groups
        self._levels = levels
        #: Internal row → index of the group that drives it (-1 for
        #: roots); lets writes to fabric-driven rows schedule the
        #: honest recomputation that restores the driver's value.
        driver_group = np.full(self._n_rows, -1, dtype=np.int64)
        for g in groups:
            driver_group[g.out_base : g.out_base + g.rows] = g.index
        self._driver_group = driver_group

        self._d_int = int_id[np.where(d_ext >= 0, d_ext, n_ext)]
        self._q_ids = int_id[q_ext]
        self._q_id_set = frozenset(int(q) for q in self._q_ids)
        #: Testbench-owned rows as a boolean mask, so the bulk drive
        #: path validates whole id arrays at once.
        self._free_mask = np.zeros(self._n_rows, dtype=bool)
        self._free_mask[int_id[np.flatnonzero(free_ext)]] = True

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    # -- value-cube access ---------------------------------------------------

    def _read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Full-width words of the given rows, shape (k, wpad) copy."""
        return (
            self._values[:, rows, :]
            .transpose(1, 0, 2)
            .reshape(len(rows), self._wpad)
        )

    def _assign_rows(self, rows: np.ndarray, words2d: np.ndarray) -> None:
        """Write (k, wpad) full-width words into the given rows."""
        self._values[:, rows, :] = words2d.reshape(
            -1, self._n_tiles, self._tile
        ).swapaxes(0, 1)

    # -- stimulus ------------------------------------------------------------

    def _pack(self, value: BatchValue) -> np.ndarray:
        """Canonical padded word form of a stimulus: bits past the
        batch (the last word's tail and any pad words) are always zero,
        so change detection never trips on unused high bits."""
        if isinstance(value, (int, np.integer, bool)):
            word = _ONES if value else np.uint64(0)
            out = np.full(self._wpad, word, dtype=np.uint64)
            out[self.words - 1] &= self._tail_mask
            out[self.words :] = 0
            return out
        bits = np.asarray(value)
        if bits.shape != (self.batch,):
            raise SimulationError(
                f"expected a scalar or {self.batch} lane values, "
                f"got shape {bits.shape}"
            )
        return pack_lanes(bits != 0, self._wpad)

    def net_id(self, net: str) -> int:
        try:
            return self._nid[net]
        except KeyError:
            raise SimulationError(f"unknown net {net}") from None

    def _row(self, net: str) -> int:
        return int(self._int[self.net_id(net)])

    def _mark_row_dirty(self, row: int) -> None:
        """One net's stored words changed: flag it for the planner and,
        if the row belongs to a fabric driver's block, schedule that
        group so the fabric honestly recomputes (matching the scalar
        semantics where every pass overwrites driven nets)."""
        self._dirty_rows[row] = True
        g = self._driver_group[row]
        if g >= 0:
            self._pending_groups.add(int(g))
        self._dirty = True

    def _write_rows(self, rows: np.ndarray, words2d: np.ndarray) -> None:
        """Compare-and-write a block of value rows, marking only the
        rows whose stored words actually changed."""
        changed = np.any(self._read_rows(rows) != words2d, axis=1)
        if not changed.any():
            return
        rows_c = rows[changed]
        self._assign_rows(rows_c, words2d[changed])
        self._dirty_rows[rows_c] = True
        driven = self._driver_group[rows_c]
        driven = driven[driven >= 0]
        if driven.size:
            self._pending_groups.update(int(g) for g in driven)
        self._dirty = True

    def set_input(self, net: str, value: BatchValue) -> None:
        """Drive a port with a scalar (broadcast) or per-lane values."""
        if net not in self.module.ports:
            raise SimulationError(f"{net} is not a port")
        row = int(self._int[self._nid[net]])
        packed = self._pack(value)
        current = self._values[:, row, :].reshape(self._wpad)
        if not np.array_equal(current, packed):
            self._values[:, row, :] = packed.reshape(
                self._n_tiles, self._tile
            )
            self._mark_row_dirty(row)

    def set_bus(self, base: str, value_bits: Sequence[BatchValue]) -> None:
        for i, bit in enumerate(value_bits):
            self.set_input(f"{base}[{i}]", bit)

    def set_bus_int(
        self, base: str, values: BatchValue, width: int
    ) -> None:
        """Drive ``base[0..width-1]`` with per-lane two's-complement
        integers (scalar broadcast accepted)."""
        vals = np.asarray(values, dtype=np.int64)
        if vals.ndim == 0:
            vals = np.full(self.batch, int(vals), dtype=np.int64)
        if vals.shape != (self.batch,):
            raise SimulationError(
                f"expected a scalar or {self.batch} values, got "
                f"shape {vals.shape}"
            )
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if vals.min() < lo or vals.max() > hi:
            raise SimulationError(f"values exceed INT{width} range")
        bits = (vals[None, :] >> np.arange(width)[:, None]) & 1
        ids = np.asarray(
            [self.net_id(f"{base}[{i}]") for i in range(width)],
            dtype=np.int64,
        )
        for i in range(width):
            if f"{base}[{i}]" not in self.module.ports:
                raise SimulationError(f"{base}[{i}] is not a port")
        self._write_rows(
            self._int[ids], pack_lanes(bits.astype(np.uint8), self._wpad)
        )

    def _free_rows(self, net_ids: np.ndarray) -> np.ndarray:
        """Value rows of testbench-owned nets; a fabric-driven id
        raises."""
        ids = np.asarray(net_ids, dtype=np.int64)
        rows = self._int[ids]
        ok = self._free_mask[rows]
        if not ok.all():
            bad = int(ids[~ok][0])
            raise SimulationError(
                f"net {self._view.net_names[bad]} is fabric-driven; "
                "use force() to override a driver"
            )
        return rows

    def drive_nets(
        self, net_ids: np.ndarray, bits: np.ndarray
    ) -> None:
        """Bulk-drive *free* nets (ports or memory read nets) by id.

        ``bits`` is (len(net_ids),) scalar-per-net (broadcast across
        lanes) or (len(net_ids), batch) per-lane.  Re-driving unchanged
        values (a drain cycle's zeros, a repeated weight image) marks
        nothing dirty and costs one comparison.
        """
        rows = self._free_rows(net_ids)
        bits = np.asarray(bits)
        if bits.shape == (len(rows),):
            words2d = np.where(
                bits.astype(bool)[:, None], _ONES, np.uint64(0)
            ).astype(np.uint64)
            words2d = np.repeat(words2d, self._wpad, axis=1)
            words2d[:, self.words - 1] &= self._tail_mask
            words2d[:, self.words :] = 0
        elif bits.shape == (len(rows), self.batch):
            words2d = pack_lanes(bits != 0, self._wpad)
        else:
            raise SimulationError(
                f"bits shape {bits.shape} matches neither (n,) nor "
                f"(n, {self.batch})"
            )
        self._write_rows(rows, words2d)

    def drive_net_words(
        self, net_ids: np.ndarray, words: np.ndarray
    ) -> None:
        """Bulk-drive free nets with packed lane words, shape
        (len(net_ids), words) uint64 in the :func:`pack_lanes` layout
        — the hot path for loading thousands of weight nets whose lanes
        carry different stimulus rounds.  Bits past the batch are
        cleared."""
        rows = self._free_rows(net_ids)
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (len(rows), self.words):
            raise SimulationError(
                f"words shape {words.shape} is not "
                f"({len(rows)}, {self.words})"
            )
        words2d = np.zeros((len(rows), self._wpad), dtype=np.uint64)
        words2d[:, : self.words] = words
        words2d[:, self.words - 1] &= self._tail_mask
        self._write_rows(rows, words2d)

    def force(self, net: str, value: BatchValue) -> None:
        """Pin a net to per-lane values (overrides any driver)."""
        row = self._row(net)
        self._forced[row] = self._pack(value)
        self._forced_stale = True
        self._dirty_rows[row] = True
        self._dirty = True

    def release(self, net: str) -> None:
        row = self._row(net)
        if self._forced.pop(row, None) is not None:
            self._forced_stale = True
            # The fabric value must be recomputed over the stale forced
            # words; free nets simply keep the last forced value, as
            # the scalar reference does.
            self._mark_row_dirty(row)

    def reset_state(self, value: int = 0) -> None:
        if not len(self._state):
            return
        word = _ONES if value else np.uint64(0)
        new = np.full_like(self._state, word)
        new[:, self.words - 1] &= self._tail_mask
        new[:, self.words :] = 0
        changed = np.any(new != self._state, axis=1)
        if changed.any():
            self._state[changed] = new[changed]
            self._dirty_rows[self._q_ids[changed]] = True
            self._dirty = True

    # -- evaluation ----------------------------------------------------------

    def _refresh_forced(self) -> None:
        ids = sorted(self._forced)
        self._forced_ids = np.asarray(ids, dtype=np.int64)
        self._forced_vals = (
            np.stack([self._forced[i] for i in ids])
            if ids
            else np.empty((0, self._wpad), dtype=np.uint64)
        )
        mid = [i for i in ids if i not in self._q_id_set]
        self._forced_mid_ids = np.asarray(mid, dtype=np.int64)
        self._forced_mid_vals = (
            np.stack([self._forced[i] for i in mid])
            if mid
            else np.empty((0, self._wpad), dtype=np.uint64)
        )
        self._forced_stale = False

    def evaluate(self) -> None:
        """Propagate combinational logic from current inputs/state."""
        self._propagate()

    def _ensure(self) -> None:
        if self._dirty:
            self._propagate()

    def _plan(self) -> List[List[_Group]]:
        """Decide which groups must evaluate this pass.

        A group runs when any of its gathered source rows is dirty, or
        when its output rows were externally overwritten (pending).
        Runs cascade level by level: an evaluated group marks its
        output block dirty so downstream groups see the change.  The
        pass is pure boolean work over precomputed index arrays —
        microseconds against the kernels it saves."""
        if self._all_dirty:
            return self._levels
        dirty = self._dirty_rows
        pending = self._pending_groups
        plan: List[List[_Group]] = []
        for groups in self._levels:
            run = [
                g
                for g in groups
                if g.index in pending or dirty[g.gather].any()
            ]
            for g in run:
                dirty[g.out_base : g.out_base + g.rows] = True
            plan.append(run)
        return plan

    def _propagate(self) -> None:
        if self._forced_stale:
            self._refresh_forced()
        v = self._values
        forced = self._forced_ids.size > 0
        # Mirror the scalar order: forced values land first, then the
        # sequential state overwrites (a forced Q reads as state during
        # propagation), then each level runs with forced nets
        # re-asserted so consumers always read the forced value, and a
        # final pass makes the forced values observable.
        if forced:
            self._assign_rows(self._forced_ids, self._forced_vals)
        if len(self._state):
            self._assign_rows(self._q_ids, self._state)
        mid_ids = self._forced_mid_ids
        mid = mid_ids.size > 0
        plan = self._plan()
        tile = self._tile
        for t in range(self._n_tiles):
            vt = v[t]
            sbuf = self._sbuf
            for run in plan:
                for g in run:
                    inst = g.inst
                    inp = vt[g.gather] if g.pins else None
                    base = g.out_base
                    outs = tuple(
                        vt[base + j * inst : base + (j + 1) * inst]
                        for j in range(g.n_out)
                    )
                    g.kernel(inp, outs, sbuf[:, :inst])
                if mid:
                    vt[mid_ids] = self._forced_mid_vals[
                        :, t * tile : (t + 1) * tile
                    ]
        if forced:
            self._assign_rows(self._forced_ids, self._forced_vals)
        v[:, self._zero_int, :] = 0
        self._dirty_rows[:] = False
        self._pending_groups.clear()
        self._all_dirty = False
        self._dirty = False

    def clock(self) -> None:
        """One rising edge: sample every D, then update every Q.

        The post-edge propagation is deferred until the next
        observation or clock (identical results, half the passes); a Q
        whose sampled D equals its held state marks nothing dirty, so
        quiescent registers cost nothing downstream."""
        self._ensure()
        if len(self._state):
            sampled = self._read_rows(self._d_int)
            hold = self._d_hold
            if hold.any():
                sampled[hold] = self._state[hold]
            changed = np.any(sampled != self._state, axis=1)
            if changed.any():
                self._state = sampled
                self._dirty_rows[self._q_ids[changed]] = True
                self._dirty = True

    # -- observation ---------------------------------------------------------

    def net(self, net: str) -> np.ndarray:
        """Per-lane values of one net, shape (batch,) uint8."""
        self._ensure()
        words = self._values[:, self._row(net), :].reshape(self._wpad)
        return unpack_lanes(words, self.batch)

    def bus(self, base: str, width: int) -> np.ndarray:
        """Per-lane bus bits, shape (batch, width), LSB first."""
        self._ensure()
        rows = self._int[
            np.asarray(
                [self.net_id(f"{base}[{i}]") for i in range(width)],
                dtype=np.int64,
            )
        ]
        return unpack_lanes(self._read_rows(rows), self.batch).T

    def bus_int(self, base: str, width: int) -> np.ndarray:
        """Per-lane two's-complement bus values, shape (batch,) int64."""
        bits = self.bus(base, width).astype(np.int64)
        weights = (1 << np.arange(width, dtype=np.int64)).copy()
        weights[-1] = -weights[-1]
        return bits @ weights

    def bus_ids_int(self, ids: np.ndarray) -> np.ndarray:
        """Two's-complement decode over precomputed net ids (LSB first);
        the bulk-observation twin of :meth:`bus_int`."""
        self._ensure()
        rows = self._int[np.asarray(ids, dtype=np.int64)]
        bits = unpack_lanes(self._read_rows(rows), self.batch).T.astype(
            np.int64
        )
        width = rows.shape[0]
        weights = (1 << np.arange(width, dtype=np.int64)).copy()
        weights[-1] = -weights[-1]
        return bits @ weights

    def lanes_snapshot(self) -> np.ndarray:
        """Every net's per-lane value, shape (n_nets, batch) uint8,
        rows in NetView net-id order — the differential-test view."""
        self._ensure()
        return unpack_lanes(
            self._read_rows(self._int[: self._n_ext]), self.batch
        )
