"""Batch compilation: many specs, one engine, a persistent cache.

The paper's headline is *multi-spec-oriented* compilation — one
compiler serving many (height, width, MCR, format, frequency) points.
This package turns the single-spec :class:`~repro.compiler.syndcim.SynDCIM`
facade into a design-space instrument:

* :mod:`repro.batch.jobs` — content-hashed job descriptions;
* :mod:`repro.batch.cache` — the on-disk JSON result store
  (``~/.cache/repro`` by default) that makes repeated sweeps free;
* :mod:`repro.batch.engine` — :class:`BatchCompiler`: dedup, cache
  lookup, pooled execution, progress reporting;
* :mod:`repro.batch.pool` — :class:`WorkerPool`: the one long-lived,
  recyclable worker-process pool that sweeps and the service run on;
* :mod:`repro.batch.sweep` — the range grammar (``32:256:x2``)
  expanding CLI axes into spec grids;
* :mod:`repro.batch.summarize` — Pareto/scaling reports over a sweep's
  JSONL records;
* :mod:`repro.batch.resilience` — failure taxonomy,
  :class:`RetryPolicy`, the crash-safe :class:`SweepJournal` behind
  ``--resume``;
* :mod:`repro.batch.faults` — the deterministic ``$REPRO_FAULTS``
  chaos harness (see ``docs/robustness.md``).

See ``docs/architecture.md`` for how this package sits on top of the
search and implementation layers.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    MemoryResultStore,
    ResultCache,
    ResultStore,
    cache_corruption_count,
)
from .engine import BatchCompiler, BatchResult, BatchStats
from .faults import FaultPlan, active_plan
from .jobs import CompileJob, ImplementJob
from .pool import WorkerPool
from .resilience import (
    RetryPolicy,
    SweepJournal,
    list_journals,
    prune_journals,
)
from .sweep import expand_grid, parse_axis, parse_format_sets, parse_range

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "BatchCompiler",
    "BatchResult",
    "BatchStats",
    "CacheStats",
    "CompileJob",
    "FaultPlan",
    "ImplementJob",
    "MemoryResultStore",
    "ResultCache",
    "ResultStore",
    "RetryPolicy",
    "SweepJournal",
    "WorkerPool",
    "active_plan",
    "cache_corruption_count",
    "expand_grid",
    "list_journals",
    "parse_axis",
    "parse_format_sets",
    "parse_range",
    "prune_journals",
]

# NOTE: `summarize` is deliberately NOT re-exported here.  A lazy
# function re-export would be shadowed by the submodule of the same
# name the moment `from repro.batch import summarize` runs (the import
# system binds the module over the package attribute), leaving the
# name resolving to two different objects.  Use
# `from repro.batch.summarize import summarize`.
