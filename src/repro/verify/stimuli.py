"""Stimulus generation for netlist-vs-golden verification.

Two stimulus families per :class:`~repro.spec.DataFormat`:

* **directed corners** — deterministic patterns that hit the datapath's
  known failure edges: all-zero (clear path), format maxima/minima
  (sign-cycle subtraction, accumulator headroom), alternating extremes
  (worst-case tree counts and OFU carries), one-hot extremes (single-row
  sensitization).  For FP formats the corners are built from extreme
  field patterns — max exponent spread (alignment shifts small operands
  to zero), all-subnormal groups, saturated mantissas with mixed signs —
  and pushed through the behavioural alignment twin so the vectors are
  exactly what the RTL's alignment unit would feed the serial datapath.
* **seeded random** — uniform draws over the format's representable
  range from a caller-owned :class:`numpy.random.Generator`, so every
  failure reproduces from the seed.

All input vectors are returned as *integers in the serial domain* (for
FP, aligned significands): that is the contract of the macro's ``x``
port, and the domain in which ``mac_ideal`` is exact.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..sim.formats import FPFields, align_group, int_range
from ..spec import DataFormat


def serial_range(fmt: DataFormat) -> Tuple[int, int]:
    """Inclusive (lo, hi) of the values a format occupies on the serial
    input bus: the two's-complement range for integers, the aligned
    signed-significand range for floats."""
    if fmt.is_float:
        hi = (1 << (fmt.mantissa + 1)) - 1  # hidden bit + full mantissa
        return -hi, hi
    return int_range(fmt.bits)


def _fp_corner_fields(fmt: DataFormat) -> List[List[FPFields]]:
    """Groups of FP operands hitting alignment extremes."""
    e_max = (1 << fmt.exponent) - 1
    m_max = (1 << fmt.mantissa) - 1

    def f(sign: int, e: int, m: int) -> FPFields:
        return FPFields(sign=sign, exponent=e, mantissa=m, fmt=fmt)

    return [
        [f(0, e_max, m_max), f(0, 1, 1)],  # max exponent spread
        [f(0, 0, 1), f(1, 0, m_max)],  # all-subnormal group
        [f(0, e_max, m_max), f(1, e_max, m_max)],  # saturated, mixed sign
        [f(0, e_max, 0), f(0, 0, 0)],  # power of two vs zero
        [f(1, e_max // 2 + 1, m_max), f(0, 1, 0)],  # mid exponent vs min
    ]


def directed_input_vectors(height: int, fmt: DataFormat) -> np.ndarray:
    """Deterministic corner vectors, shape (n, height) int64."""
    lo, hi = serial_range(fmt)
    rows: List[np.ndarray] = [
        np.zeros(height, dtype=np.int64),
        np.full(height, hi, dtype=np.int64),
        np.full(height, lo, dtype=np.int64),
        np.where(np.arange(height) % 2 == 0, lo, hi).astype(np.int64),
        np.where(np.arange(height) % 2 == 0, hi, lo).astype(np.int64),
        np.full(height, -1, dtype=np.int64),
        np.full(height, 1, dtype=np.int64),
    ]
    one_hot_hi = np.zeros(height, dtype=np.int64)
    one_hot_hi[0] = hi
    one_hot_lo = np.zeros(height, dtype=np.int64)
    one_hot_lo[-1] = lo
    rows += [one_hot_hi, one_hot_lo]
    if fmt.is_float:
        for group in _fp_corner_fields(fmt):
            fields = [group[i % len(group)] for i in range(height)]
            aligned, _emax = align_group(fields)
            rows.append(np.asarray(aligned, dtype=np.int64))
    return np.stack(rows)


def random_input_vectors(
    rng: np.random.Generator, height: int, fmt: DataFormat, n: int
) -> np.ndarray:
    """Seeded random vectors, shape (n, height) int64.

    For FP formats the draws are random *field patterns* pushed through
    group alignment — the distribution the alignment unit actually
    produces — rather than uniform integers.
    """
    if not fmt.is_float:
        lo, hi = int_range(fmt.bits)
        return rng.integers(lo, hi + 1, size=(n, height), dtype=np.int64)
    signs = rng.integers(0, 2, size=(n, height))
    exps = rng.integers(0, 1 << fmt.exponent, size=(n, height))
    mants = rng.integers(0, 1 << fmt.mantissa, size=(n, height))
    # Vectorized twin of FPFields.signed_significand + align_group
    # (equivalence pinned by the test suite): hidden-bit significand,
    # arithmetic right shift by the exponent deficit within each
    # vector's group, subnormals scaling like exponent 1.
    hidden = (exps > 0).astype(np.int64)
    mag = (hidden << fmt.mantissa) | mants
    signed = np.where(signs == 1, -mag, mag)
    eff = np.maximum(exps, 1)
    emax = eff.max(axis=1, keepdims=True)
    return signed >> (emax - eff)


def directed_weight_matrices(
    height: int, groups: int, fmt: DataFormat
) -> List[np.ndarray]:
    """Deterministic corner weight matrices, each (height, groups).

    Integer formats return int64 matrices for
    :meth:`~repro.sim.functional.DCIMMacroModel.set_weights_int`; FP
    formats return float64 matrices for :meth:`set_weights_fp`.
    """
    if fmt.is_float:
        e_max = (1 << fmt.exponent) - 1
        m_max = (1 << fmt.mantissa) - 1
        big = FPFields(0, e_max, m_max, fmt).to_float()
        tiny = FPFields(0, 0, 1, fmt).to_float()
        checker = np.where(
            (np.arange(height)[:, None] + np.arange(groups)) % 2 == 0,
            big,
            -big,
        )
        return [
            np.zeros((height, groups)),
            np.full((height, groups), big),
            np.full((height, groups), -big),
            checker.astype(np.float64),
            np.broadcast_to(
                np.where(np.arange(height)[:, None] % 2 == 0, big, tiny),
                (height, groups),
            ).astype(np.float64),
        ]
    lo, hi = int_range(fmt.bits)
    checker = np.where(
        (np.arange(height)[:, None] + np.arange(groups)) % 2 == 0, hi, lo
    )
    return [
        np.zeros((height, groups), dtype=np.int64),
        np.full((height, groups), hi, dtype=np.int64),
        np.full((height, groups), lo, dtype=np.int64),
        checker.astype(np.int64),
        np.full((height, groups), -1, dtype=np.int64),
    ]


def random_weight_matrix(
    rng: np.random.Generator, height: int, groups: int, fmt: DataFormat
) -> np.ndarray:
    """One seeded random weight matrix in the format's range."""
    if fmt.is_float:
        e_max = (1 << fmt.exponent) - 1
        m_max = (1 << fmt.mantissa) - 1
        big = FPFields(0, e_max, m_max, fmt).to_float()
        return rng.uniform(-big, big, size=(height, groups))
    lo, hi = int_range(fmt.bits)
    return rng.integers(lo, hi + 1, size=(height, groups), dtype=np.int64)
