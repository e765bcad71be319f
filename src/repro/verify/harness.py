"""The batch verification harness: netlist vs golden model at scale.

:func:`verify_macro` runs N MAC cycles of a compiled netlist through
the vectorized testbench and checks every output column of every cycle
against :class:`~repro.sim.functional.DCIMMacroModel`.

Coverage scheduling exploits the batch dimension: within every round,
lanes are striped across the spec's *input formats* and across the MCR
*banks* (per-lane bank select), and both stripes rotate per round — a
round with more than ``n_in * mcr`` lanes covers every (input format,
bank) pair by itself, and smaller budgets still cycle through
everything over successive rounds.  The *weight format* — which owns
the shared weight arrays — cycles across rounds, and the default batch
size is chosen so every weight format gets at least one round.  Each input format's first
lanes lead with its directed corner stimuli (sign, overflow, zero and
FP-alignment extremes), the first rounds of each weight format with
directed weight patterns per bank; the rest are seeded random, so any
failure reproduces from ``(seed, vectors, batch)`` alone.

Rounds fix the stimulus, not the simulated width: consecutive rounds
share one simulation pass of up to :data:`PASS_LANES` lanes, each
round's weights loaded into its own lanes as packed per-net words.
The report is the one a round-per-pass loop gives, mismatch for
mismatch; wide passes just pay the simulator's per-group overhead four
times less often at the default 1024-vector rounds.

The result is a structured :class:`VerificationReport`: vectors run,
mismatches (first-failing MAC cycle and output column, expected vs
observed), and throughput over the whole stage, testbench build
included — the number the perf harness tracks as
``vecsim_vectors_per_s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..arch import MacroArchitecture
from ..errors import SimulationError
from ..rtl.gen.macro import MacroShape
from ..spec import MacroSpec
from ..tech.stdcells import StdCellLibrary
from .stimuli import (
    directed_input_vectors,
    directed_weight_matrices,
    random_input_vectors,
    random_weight_matrix,
)
from .testbench import VecMacroTestbench

#: Default stimulus count: the acceptance bar for one compiled macro.
DEFAULT_VECTORS = 4096

#: Widest simulation pass: consecutive stimulus rounds share one
#: :meth:`~repro.verify.testbench.VecMacroTestbench.run_mac` of up to
#: this many lanes (one 64-word tile of the simulator's value cube).
PASS_LANES = 4096


@dataclass(frozen=True)
class Mismatch:
    """One failing (MAC cycle, output column) observation."""

    cycle: int  #: global MAC-cycle index (0-based vector number)
    column: int  #: output group column
    expected: int
    observed: int
    input_format: str
    weight_format: str
    bank: int

    def describe(self) -> str:
        return (
            f"cycle {self.cycle} column {self.column}: expected "
            f"{self.expected}, got {self.observed} "
            f"({self.input_format} x {self.weight_format}, "
            f"bank {self.bank})"
        )


@dataclass
class VerificationReport:
    """Outcome of one :func:`verify_macro` run."""

    spec_summary: str
    vectors_run: int
    mismatch_count: int
    batch: int
    seed: int
    elapsed_s: float
    vectors_per_s: float
    #: First ``max_records`` mismatches in cycle order; ``mismatch_count``
    #: is the uncapped total.
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0

    @property
    def first_failure(self) -> Optional[Mismatch]:
        return self.mismatches[0] if self.mismatches else None

    def to_dict(self) -> Dict[str, object]:
        first = self.first_failure
        return {
            "passed": self.passed,
            "vectors_run": self.vectors_run,
            "mismatch_count": self.mismatch_count,
            "batch": self.batch,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed_s, 4),
            "vectors_per_s": round(self.vectors_per_s, 1),
            "first_failure": (
                None
                if first is None
                else {"cycle": first.cycle, "column": first.column}
            ),
        }

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"verification {verdict}: {self.vectors_run} vectors on "
            f"{self.spec_summary} ({self.vectors_per_s:.0f} vectors/s, "
            f"seed {self.seed})"
        ]
        if not self.passed:
            lines.append(
                f"  {self.mismatch_count} mismatching "
                f"(cycle, column) observations; first failures:"
            )
            for mm in self.mismatches[:5]:
                lines.append(f"    {mm.describe()}")
        return "\n".join(lines)


def verify_macro(
    spec: MacroSpec,
    arch: Optional[MacroArchitecture] = None,
    netlist=None,
    shape: Optional[MacroShape] = None,
    library: Optional[StdCellLibrary] = None,
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
    batch: Optional[int] = None,
    max_records: int = 16,
) -> VerificationReport:
    """Verify a macro netlist against the golden model.

    Parameters
    ----------
    netlist:
        A flat macro netlist — digital or physical (see
        :class:`~repro.verify.testbench.VecMacroTestbench`).  ``None``
        generates the digital macro for ``(spec, arch)``.
    vectors:
        Total MAC cycles to run (directed corners first, then seeded
        random).
    batch:
        Vectors per stimulus round: each round loads fresh weights
        into every bank under one weight format and rotates the lane
        stripes.  The default caps at 1024 and shrinks so every weight
        format owns at least one round (input formats and banks are
        striped across the lanes of *every* round, so they need no
        extra rounds).  The round size fixes the stimulus and the
        report, not the simulated width: consecutive rounds share one
        simulation pass of up to :data:`PASS_LANES` lanes.
    """
    t0 = time.perf_counter()
    arch = arch or MacroArchitecture()
    if vectors < 1:
        raise SimulationError(f"vectors must be positive, got {vectors}")
    in_fmts = list(spec.input_formats)
    w_fmts = list(spec.weight_formats)
    n_in, n_w = len(in_fmts), len(w_fmts)
    if batch is None:
        batch = max(1, min(1024, vectors, -(-vectors // n_w)))
    rounds_per_pass = max(1, PASS_LANES // batch)
    tb = VecMacroTestbench(
        spec, arch, batch=min(vectors, rounds_per_pass * batch),
        netlist=netlist, shape=shape, library=library,
    )
    rng = np.random.default_rng(seed)
    height, groups = spec.height, tb.model.n_groups
    directed_w = {
        fmt.name: directed_weight_matrices(height, groups, fmt)
        for fmt in w_fmts
    }

    mismatches: List[Mismatch] = []
    mismatch_count = 0
    offset = 0
    round_i = 0
    #: Formats whose directed input corners have already led a round —
    #: with batches smaller than n_in, a format's first lanes may only
    #: appear in a later round.
    corners_done = [False] * n_in
    while offset < vectors:
        # One simulation pass: the stimulus of up to rounds_per_pass
        # consecutive rounds, drawn in round order, each round's
        # weights loaded into its own lanes.
        pass_offset = offset
        xs_parts, bank_parts, fmt_parts, w_parts, exp_parts = (
            [], [], [], [], []
        )
        for _ in range(rounds_per_pass):
            if offset >= vectors:
                break
            n = min(batch, vectors - offset)
            lanes = (offset - pass_offset, offset - pass_offset + n)
            w_fi = round_i % n_w
            w_fmt = w_fmts[w_fi]

            # Every bank gets fresh weights each round: directed
            # patterns first (spread over (round, bank) so each bank
            # sees them), then seeded random draws.
            patterns = directed_w[w_fmt.name]
            for bank in range(spec.mcr):
                pat = (round_i // n_w) * spec.mcr + bank
                if pat < len(patterns):
                    weights = patterns[pat]
                else:
                    weights = random_weight_matrix(
                        rng, height, groups, w_fmt
                    )
                tb.load_weights(bank, weights, w_fmt, lanes=lanes)

            # Stripe lanes across input formats and (independently)
            # across banks.  Both stripes rotate per round, so even a
            # batch smaller than the format/bank count cycles through
            # everything over successive rounds; a round with more
            # than n_in * mcr lanes covers every (input format, bank)
            # pair by itself.
            lane = np.arange(n)
            fmt_idx = (lane + round_i) % n_in
            banks = ((lane // n_in) + round_i) % spec.mcr
            xs = np.zeros((n, height), dtype=np.int64)
            for fi, in_fmt in enumerate(in_fmts):
                picked = np.nonzero(fmt_idx == fi)[0]
                if not len(picked):
                    continue
                draws = random_input_vectors(
                    rng, height, in_fmt, len(picked)
                )
                if not corners_done[fi]:
                    corners = directed_input_vectors(height, in_fmt)
                    take = min(len(corners), len(picked))
                    draws[:take] = corners[:take]
                    corners_done[fi] = True
                xs[picked] = draws

            xs_parts.append(xs)
            bank_parts.append(banks)
            fmt_parts.append(fmt_idx)
            w_parts.append(np.full(n, w_fi))
            exp_parts.append(tb.expected(xs, banks))
            offset += n
            round_i += 1

        banks = np.concatenate(bank_parts)
        observed = tb.run_mac(np.concatenate(xs_parts), banks)
        expected = np.concatenate(exp_parts)
        bad = observed != expected
        if bad.any():
            mismatch_count += int(bad.sum())
            fmt_idx = np.concatenate(fmt_parts)
            w_idx = np.concatenate(w_parts)
            lanes_bad, cols = np.nonzero(bad)
            for lane, col in zip(lanes_bad, cols):
                if len(mismatches) >= max_records:
                    break
                mismatches.append(
                    Mismatch(
                        cycle=pass_offset + int(lane),
                        column=int(col),
                        expected=int(expected[lane, col]),
                        observed=int(observed[lane, col]),
                        input_format=in_fmts[int(fmt_idx[lane])].name,
                        weight_format=w_fmts[int(w_idx[lane])].name,
                        bank=int(banks[lane]),
                    )
                )
    elapsed = time.perf_counter() - t0

    return VerificationReport(
        spec_summary=spec.describe(),
        vectors_run=offset,
        mismatch_count=mismatch_count,
        batch=batch,
        seed=seed,
        elapsed_s=elapsed,
        vectors_per_s=offset / elapsed if elapsed > 0 else float("inf"),
        mismatches=mismatches,
    )
