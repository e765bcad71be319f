"""Seeded, stratified workload inputs.

The compile and service workloads cycle through a fixed list of
*strata* — one cell of the design space each (array shape, MCR, format
family, option class and a centre frequency).  The seed draws one
concrete spec per stratum and cycle: a frequency within +-1 % of the
centre and, for the service, a format set from the stratum's family
(sets of one family share their widest operand, so they build the same
datapath).  A compile stratum's set is fixed by its place in the list:
verification checks every format of the set, so the set moves a
verified compile's time (a seeded set moved the median compile time by
13 % between two seeds).  So the seed changes which specs are drawn
(each draw has its own content hash) but never the mix of shapes,
classes and frequency bands, and the work per cycle stays the same
from seed to seed.

A sweep batch is a stratified draw too: every shape cell of the legal
space, with frequencies spread over the whole 200-1200 MHz range.

Why so narrow a frequency band for the strata: the escalation loop
makes compile time a step function of the target frequency (a 16x128
INT macro takes 0.8 s with one implement attempt at 400 MHz and 2.3 s
with three at 450 MHz), so a wide frequency draw would move a whole
run's throughput by the luck of one spec.

Two defects of the program shape the implemented strata, and both are
reported in CHANGES.md:

* an MCR of 3 passes the search but synthesis rejects it
  ("mcr must be a power of two"), so implemented strata use MCR 1, 2
  and 4; the search-only sweep draws MCR 3 as well;
* functional verification raises "weight matrix shape mismatch" for FP
  weight formats at MCR 4, so the verified compile workload pairs FP
  families only with MCR 1 and 2.

These are gaps in the inputs, not in the checks: once either defect is
fixed, MCR 3 strata and FP strata at MCR 4 must go back into
``COMPILE_STRATA`` (and MCR 3 into ``SERVICE_STRATA``), so that the fix
shows in the benchmark.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Sequence, Tuple

from repro import CompileOptions, MacroSpec, parse_format

#: Format families.  All sets of one family have the same widest input
#: and weight operand, so the drawn set changes the spec's hash and the
#: verification golden model, not the datapath the compiler builds.
FORMAT_FAMILIES: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "int": (("INT4", "INT8"), ("INT8",), ("INT2", "INT4", "INT8")),
    "fp": (("INT8", "FP8"), ("INT4", "INT8", "FP8"), ("FP8", "INT8")),
}

#: Option classes of the compile workload.
OPTION_CLASSES: Dict[str, CompileOptions] = {
    "plain": CompileOptions(verify=True),
    "signoff3": CompileOptions(verify=True, corners="signoff3"),
    "vt_auto": CompileOptions(verify=True, vt="auto"),
}

#: (height, width, mcr, format family, option class, centre MHz).
#: A quarter use signoff3 corners and a quarter vt=auto; half are
#: INT-only and half INT+FP; sides reach 16 and 128 in both
#: directions, at most 2048 bit cells, so one designer finishes about
#: fifty compiles in 30 s.  Every centre sits where the implement
#: attempt count does not change within +-1 % for any format set of
#: the family.  Compile times form a continuum (about 0.15-1.05 s on a
#: 2-CPU host), so the median latency does not jump between clusters.
#: Listed in run order: a cheap stratum, then a dear one, pairing the
#: cheapest with the dearest, so that every prefix of a cycle is within
#: about one compile of its share of the work; a timed phase that ends
#: mid-cycle then measures about the same mix as whole cycles.
COMPILE_STRATA: Tuple[Tuple[int, int, int, str, str, float], ...] = (
    (16, 16, 1, "int", "plain", 980.0),
    (128, 16, 4, "int", "plain", 550.0),
    (32, 16, 2, "int", "signoff3", 420.0),
    (64, 32, 1, "fp", "vt_auto", 440.0),
    (16, 32, 2, "int", "vt_auto", 420.0),
    (16, 128, 1, "fp", "plain", 420.0),
    (32, 32, 1, "fp", "plain", 880.0),
    (64, 16, 1, "int", "signoff3", 650.0),
    (32, 16, 1, "int", "vt_auto", 450.0),
    (64, 16, 2, "fp", "signoff3", 560.0),
    (16, 16, 4, "int", "signoff3", 500.0),
    (16, 64, 2, "fp", "plain", 425.0),
    (32, 32, 4, "int", "plain", 500.0),
    (32, 16, 2, "fp", "plain", 650.0),
    (128, 16, 1, "fp", "plain", 450.0),
    (16, 32, 1, "fp", "vt_auto", 600.0),
)

#: Service strata: small implemented macros (8-32 a side, at most 256
#: bit cells, default options, no verification).  Two designers then
#: finish well over a hundred requests per run — enough samples for a
#: p90 with ten beyond it — and the service's own queue, HTTP and store
#: work is a visible share of each request.
SERVICE_STRATA: Tuple[Tuple[int, int, int, str, float], ...] = (
    (16, 16, 1, "int", 450.0),
    (8, 32, 1, "fp", 850.0),
    (16, 8, 4, "int", 650.0),
    (8, 8, 1, "fp", 900.0),
    (16, 16, 2, "int", 650.0),
    (32, 8, 2, "fp", 450.0),
    (8, 16, 1, "int", 850.0),
    (16, 8, 1, "fp", 450.0),
    (8, 8, 4, "int", 650.0),
    (16, 16, 1, "fp", 850.0),
    (8, 16, 2, "int", 450.0),
    (32, 8, 1, "int", 850.0),
    (16, 8, 2, "fp", 650.0),
    (8, 32, 2, "int", 450.0),
    (8, 8, 2, "fp", 650.0),
    (16, 16, 4, "int", 850.0),
)

#: Points per sweep batch (5 x 5 x 4 shape cells, four points each),
#: and how many of them repeat an earlier point of the same batch or of
#: the run's first batch.
SWEEP_BATCH = 400
SWEEP_DUPLICATES = 8
SWEEP_REPEATS = 8

SWEEP_SIDES = (8, 16, 32, 64, 128)
SWEEP_MCRS = (1, 2, 3, 4)
#: The sweep's QoR covers the distinct points of a run's first this
#: many batches, which a timed pass always finishes (it runs on after
#: its time is up if need be), so a slow host reports the QoR of the
#: same points as a fast one.  Frequencies are stratified over as many
#: consecutive batches.
SWEEP_QOR_BATCHES = 8


def _rng(seed: int, stream: str, index: int) -> random.Random:
    """An independent generator per (seed, stream, index), so adding a
    draw to one stream never shifts another."""
    return random.Random(f"{seed}:{stream}:{index}")


def _formats(names: Sequence[str]):
    return tuple(parse_format(n) for n in names)


def _spec(h: int, w: int, mcr: int, names: Sequence[str], mhz: float) -> MacroSpec:
    fmts = _formats(names)
    return MacroSpec(
        height=h,
        width=w,
        mcr=mcr,
        input_formats=fmts,
        weight_formats=fmts,
        mac_frequency_mhz=mhz,
        update_frequency_mhz=mhz,
    )


def _jittered(rng: random.Random, family: str, centre: float) -> Tuple[Tuple[str, ...], float]:
    names = rng.choice(FORMAT_FAMILIES[family])
    mhz = round(centre * (1.0 + rng.uniform(-0.01, 0.01)), 1)
    return names, mhz


def compile_plan(seed: int) -> List[Tuple[MacroSpec, str]]:
    """One cycle of the compile workload: (spec, option class) per
    stratum.  The timed phase cycles through it, so every spec repeats
    and repeats can be compared."""
    plan = []
    for i, (h, w, mcr, family, klass, centre) in enumerate(COMPILE_STRATA):
        sets = FORMAT_FAMILIES[family]
        mhz = round(centre * (1.0 + _rng(seed, "compile", i).uniform(-0.01, 0.01)), 1)
        plan.append((_spec(h, w, mcr, sets[i % len(sets)], mhz), klass))
    return plan


def service_spec(seed: int, index: int) -> MacroSpec:
    """The ``index``-th new spec a service run submits; stratum
    ``index mod len(SERVICE_STRATA)`` with its own draw, so every
    index is a distinct content hash."""
    h, w, mcr, family, centre = SERVICE_STRATA[index % len(SERVICE_STRATA)]
    names, mhz = _jittered(_rng(seed, "service", index), family, centre)
    return _spec(h, w, mcr, names, mhz)


@functools.lru_cache(maxsize=4)
def _sweep_bands(seed: int) -> List[List[int]]:
    """Per (cell, quarter) of the sweep, a seeded order of the
    ``SWEEP_QOR_BATCHES`` equal bands of the quarter: batch ``b`` draws
    that point's frequency from band ``order[b % SWEEP_QOR_BATCHES]``,
    so every run of consecutive batches of that length covers each
    quarter evenly."""
    rng = _rng(seed, "sweep-bands", 0)
    orders = []
    for _ in range(len(SWEEP_SIDES) ** 2 * len(SWEEP_MCRS) * 4):
        order = list(range(SWEEP_QOR_BATCHES))
        rng.shuffle(order)
        orders.append(order)
    return orders


def sweep_batch(seed: int, index: int) -> List[MacroSpec]:
    """The ``index``-th 400-point batch, a stratified draw over the
    legal space: each (height, width, MCR) cell of 8-128 a side and
    MCR 1-4 gets four points, one per quarter of 200-1200 MHz (within
    the quarter, from a band that no other of ``SWEEP_QOR_BATCHES``
    consecutive batches uses for that point), two with an INT and two
    with an FP format set.  Infeasible points stay in.
    Sixteen points are then replaced by duplicates of the batch's own
    points (so dedup runs) and, from the second batch on, by repeats of
    the first batch's (so records are compared across engine runs)."""
    rng = _rng(seed, "sweep", index)
    bands = _sweep_bands(seed)
    # Each family's sets are taken in turn from a seeded start, so every
    # batch holds each set equally often; with the stratified bands this
    # makes the sweep's QoR geomeans move less with the seed (their
    # spread over eight seeds fell from about 0.01 to 0.0025).
    turn = {family: rng.randrange(len(sets)) for family, sets in FORMAT_FAMILIES.items()}
    points = []
    cell = 0
    for h in SWEEP_SIDES:
        for w in SWEEP_SIDES:
            for mcr in SWEEP_MCRS:
                families = ["int", "int", "fp", "fp"]
                rng.shuffle(families)
                for quarter, family in enumerate(families):
                    band = bands[4 * cell + quarter][index % SWEEP_QOR_BATCHES]
                    u = (band + rng.random()) / SWEEP_QOR_BATCHES
                    mhz = round(200.0 + 250.0 * (quarter + u), 1)
                    sets = FORMAT_FAMILIES[family]
                    names = sets[turn[family] % len(sets)]
                    turn[family] += 1
                    points.append(_spec(h, w, mcr, names, mhz))
                cell += 1
    rng.shuffle(points)
    fresh = points[: SWEEP_BATCH - SWEEP_DUPLICATES - SWEEP_REPEATS]
    duplicates = [rng.choice(fresh) for _ in range(SWEEP_DUPLICATES)]
    if index:
        repeats = sweep_batch(seed, 0)[:SWEEP_REPEATS]
    else:
        repeats = points[len(fresh):len(fresh) + SWEEP_REPEATS]
    batch = fresh + duplicates + repeats
    rng.shuffle(batch)
    return batch
