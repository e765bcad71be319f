"""Span tracing from outside the program.

The tracer wraps public functions of each layer under ``src/repro`` at
the place the caller looks them up — a module attribute that a caller
imported by name (``flow.py`` binds ``run_drc``, ``analyze``, ... at
import), or a method on its class — and restores the originals when the
pass ends.  Nothing under ``src/`` changes.

Spans nest on one stack (every traced pass is single-threaded).  A
span's *self* time is its duration minus the durations of the spans it
directly contains, so the self times of all spans add up to the time
spent inside root spans, and no interval is counted twice.

A target that no longer exists (a later change renamed or removed it)
is skipped and listed in :attr:`Tracer.missing`; its work then shows
in the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name or None for count-only, counter).
#: The counter, when given, maps a call's result to named counts.
Target = Tuple[str, str, Optional[str], Optional[Callable[[object], Dict[str, int]]]]


def _flat_cells(module) -> Dict[str, int]:
    return {"rtl.cells_flat": len(module.instances)}


def _synth_cells(result) -> Dict[str, int]:
    flat = result[0]
    return {"synth.cells_out": len(flat.instances)}


def _search_counts(result) -> Dict[str, int]:
    return {
        "search.candidates": len(result.candidates),
        "search.fixes": sum(result.fix_counts.values()),
    }


#: Layer boundaries of the compile path (search and implementation).
FLOW_TARGETS: Tuple[Target, ...] = (
    ("repro.compiler.syndcim", "SynDCIM.compile", "compiler", None),
    ("repro.compiler.syndcim", "SynDCIM.search", "search.search", _search_counts),
    ("repro.compiler.flow", "ImplementSession.implement", None,
     lambda _r: {"compiler.attempts": 1}),
    ("repro.compiler.flow", "ImplementSession.array_module", "rtl.flatten", None),
    ("repro.compiler.flow", "generate_macro_with_array", "rtl.generate", None),
    ("repro.rtl.gen.memarray", "generate_memory_array", "rtl.generate", None),
    ("repro.rtl.ir", "Module.flatten", "rtl.flatten", _flat_cells),
    ("repro.rtl.netview", "NetView.__init__", "rtl.netview",
     lambda _r: {"rtl.netview_builds": 1}),
    ("repro.rtl.ir", "Module.validate", "rtl.validate",
     lambda _r: {"rtl.validate_calls": 1}),
    ("repro.synth.optimize", "optimize", "synth.optimize", _synth_cells),
    ("repro.synth.vt", "recover_leakage", "synth.vt_recover", None),
    ("repro.layout.arena", "LayoutArena.place", "layout.place", None),
    ("repro.layout.arena", "LayoutArena.route", "layout.route", None),
    ("repro.compiler.flow", "run_drc", "layout.drc", None),
    ("repro.compiler.flow", "run_lvs", "layout.lvs", None),
    ("repro.compiler.flow", "minimum_period_ns", "sta.min_period", None),
    ("repro.compiler.flow", "analyze", "sta.analyze", None),
    ("repro.compiler.flow", "sparsity_input_stats", "power.activity", None),
    ("repro.power.estimator", "_propagate_arrays", "power.activity", None),
    ("repro.compiler.flow", "estimate_power", "power.estimate", None),
    ("repro.compiler.flow", "multi_corner_signoff", "signoff.corners", None),
    ("repro.compiler.flow", "verify_macro", "verify.macro", None),
)

#: The batch engine's entry point, the root span of an inline sweep.
BATCH_TARGETS: Tuple[Target, ...] = (
    ("repro.batch.engine", "BatchCompiler.run_jobs", "batch.run_jobs", None),
)


class Tracer:
    """Collects self time per span name and counts per counter name."""

    def __init__(self) -> None:
        self._stack: List[List[int]] = []
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []
        self._installed: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, span: Optional[str], counter) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        def count(result) -> None:
            if counter is not None:
                for key, value in counter(result).items():
                    counts[key] = counts.get(key, 0) + value

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                self_ns[span] = self_ns.get(span, 0) + duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            count(result)
            return result

        return traced

    def install(self, targets: Tuple[Target, ...]) -> None:
        for module_name, path, span, counter in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self.patch(owner, attr, self._wrap(original, span, counter), original)

    def patch(self, owner: object, attr: str, replacement: object, original: object = None) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        if original is None:
            original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> Dict[str, float]:
        return {name: ns / 1e9 for name, ns in self.self_ns.items()}
