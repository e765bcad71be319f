"""Round-by-round verification loop — the oracle for
:func:`repro.verify.harness.verify_macro`'s wide passes.

One simulation per stimulus round, ``batch`` lanes wide, weights
loaded into every lane: the schedule ``verify_macro`` must reproduce
report for report (same RNG draw order, same rounds, same mismatch
records) while packing consecutive rounds into one pass.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.arch import MacroArchitecture
from repro.errors import SimulationError
from repro.verify.harness import DEFAULT_VECTORS, Mismatch, VerificationReport
from repro.verify.stimuli import (
    directed_input_vectors,
    directed_weight_matrices,
    random_input_vectors,
    random_weight_matrix,
)
from repro.verify.testbench import VecMacroTestbench


def verify_macro_rounds(
    spec,
    arch: Optional[MacroArchitecture] = None,
    netlist=None,
    shape=None,
    library=None,
    vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
    batch: Optional[int] = None,
    max_records: int = 16,
) -> VerificationReport:
    """Same signature and report as ``verify_macro``; the timing
    fields read 0."""
    arch = arch or MacroArchitecture()
    if vectors < 1:
        raise SimulationError(f"vectors must be positive, got {vectors}")
    in_fmts = list(spec.input_formats)
    w_fmts = list(spec.weight_formats)
    n_in, n_w = len(in_fmts), len(w_fmts)
    if batch is None:
        batch = max(1, min(1024, vectors, -(-vectors // n_w)))
    tb = VecMacroTestbench(
        spec, arch, batch=batch, netlist=netlist, shape=shape,
        library=library,
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
    corners_done = [False] * n_in
    while offset < vectors:
        n = min(batch, vectors - offset)
        w_fmt = w_fmts[round_i % n_w]
        patterns = directed_w[w_fmt.name]
        for bank in range(spec.mcr):
            pat = (round_i // n_w) * spec.mcr + bank
            if pat < len(patterns):
                weights = patterns[pat]
            else:
                weights = random_weight_matrix(rng, height, groups, w_fmt)
            tb.load_weights(bank, weights, w_fmt)

        lane = np.arange(n)
        fmt_idx = (lane + round_i) % n_in
        banks = ((lane // n_in) + round_i) % spec.mcr
        xs = np.zeros((n, height), dtype=np.int64)
        for fi, in_fmt in enumerate(in_fmts):
            lanes = np.nonzero(fmt_idx == fi)[0]
            if not len(lanes):
                continue
            draws = random_input_vectors(rng, height, in_fmt, len(lanes))
            if not corners_done[fi]:
                corners = directed_input_vectors(height, in_fmt)
                take = min(len(corners), len(lanes))
                draws[:take] = corners[:take]
                corners_done[fi] = True
            xs[lanes] = draws

        observed = tb.run_mac(xs, banks)
        expected = tb.expected(xs, banks)
        bad = observed != expected
        if bad.any():
            mismatch_count += int(bad.sum())
            lanes, cols = np.nonzero(bad)
            for lane, col in zip(lanes, cols):
                if len(mismatches) >= max_records:
                    break
                mismatches.append(
                    Mismatch(
                        cycle=offset + int(lane),
                        column=int(col),
                        expected=int(expected[lane, col]),
                        observed=int(observed[lane, col]),
                        input_format=in_fmts[int(fmt_idx[lane])].name,
                        weight_format=w_fmt.name,
                        bank=int(banks[lane]),
                    )
                )
        offset += n
        round_i += 1

    return VerificationReport(
        spec_summary=spec.describe(),
        vectors_run=offset,
        mismatch_count=mismatch_count,
        batch=batch,
        seed=seed,
        elapsed_s=0.0,
        vectors_per_s=0.0,
        mismatches=mismatches,
    )
