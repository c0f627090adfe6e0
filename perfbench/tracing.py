"""Spans and counters around klcat's cross-module calls, installed from outside.

Nothing under ``src/`` is edited.  :func:`install` rebinds the names each
klcat module imported from another one (for example ``klcat.cli.build_group``
or ``klcat.verify.character_map``) to wrappers, so the same jobs run
unchanged.  Calls inside one module keep their direct binding, so their
time is that module's self time.  The hot primitives (``descents``,
``mult_gen`` and the ``LaurentPoly`` arithmetic) are only counted, never
spanned; they are counted everywhere, ``klcat.coxeter`` itself included.

A span records its name, start, end and parent.  Spans stay in memory
until :meth:`Tracer.layer_figures` reduces them at the end of the pass.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter

import klcat.branch
import klcat.cells
import klcat.cli
import klcat.coxeter
import klcat.hecke
import klcat.kl
import klcat.laurent
import klcat.leaves
import klcat.verify

# Span names the layer metrics use, where they differ from module.function.
SPAN_NAMES = {
    "kl_to_csv": "kl.export_csv",
    "kl_to_json_obj": "kl.export_json",
    "kl_from_json_obj": "kl.cache_load",
    "recursion_kl_poly": "kl.recursion_v",
    "classical_recursion": "kl.recursion_q",
    "bott_samelson_class": "hecke.bott_samelson",
    "enumerate_leaves": "leaves.enumerate",
    "split_top_generator": "leaves.split_top",
    "verify_decomposition_identity": "cells.decomposition_identity",
    "verify_restriction_counts": "branch.restriction_counts",
    "derive_kl_recursion": "branch.derive_recursion",
}
COUNTED_ONLY = ("descents", "mult_gen")
LAURENT_OPS = {"__add__": "laurent.add", "__sub__": "laurent.sub", "__mul__": "laurent.mul"}
# Modules whose imported klcat functions get spans; in klcat.cli only the
# calls that do a layer's work are spanned, and the rest is its self time.
SPANNED_CALLERS = (klcat.verify, klcat.kl, klcat.cells, klcat.branch)
CLI_CALLS = ("build_group", "compute_kl", "kl_to_csv", "kl_to_json_obj", "kl_from_json_obj", "run_suite")
# klcat.verify calls into cells and branch through these module objects.
MODULE_REFS = {"cells_mod": klcat.cells, "branch_mod": klcat.branch}
ALL_MODULES = (
    klcat.cli, klcat.verify, klcat.kl, klcat.cells, klcat.branch,
    klcat.hecke, klcat.leaves, klcat.coxeter, klcat.laurent,
)
# Functions whose 2^len(word) leaf paths feed leaves.paths.
LEAF_WALKS = ("enumerate_leaves", "character_map", "split_top_generator")
PEAK_SPANS = ("coxeter.build_group", "kl.compute_kl", "kl.cache_load", "verify.run_suite")


def span_name(fn) -> str:
    return SPAN_NAMES.get(fn.__name__) or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Spans and exact counts of one pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, id, parent
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._next_id = 0

    def wrap(self, fn, name: str):
        spans, counts, stack = self.spans, self.counts, self._stack
        extra = _COUNT_HOOKS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((name, start, end, sid, parent))
            counts[name + ".calls"] += 1
            if extra is not None:
                extra(counts, args, result)
            return result

        return traced

    def count(self, fn, name: str):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_figures(self) -> dict[str, float]:
        """Self time per span name and every count, as flat metric values."""
        child_time: dict[int, float] = {}
        for _, start, end, _, parent in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_s: dict[str, float] = {}
        for name, start, end, sid, _ in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        figures = {f"{name}.self_s": value for name, value in self_s.items()}
        figures.update(self.counts)
        return figures


def _count_paths(counts, args, result):
    counts["leaves.paths"] += 2 ** len(args[1])


_COUNT_HOOKS = {
    "build_group": lambda counts, args, table: counts.update({"coxeter.elements": table.order}),
    "kl_to_csv": lambda counts, args, text: counts.update({"kl.rows": text.count("\n") - 1}),
    "run_suite": lambda counts, args, report: counts.update({"verify.records": len(report["records"])}),
    **{name: _count_paths for name in LEAF_WALKS},
}


class _ModuleProxy:
    """A module seen through wrapped functions; other names pass through."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _imported_functions(module):
    """(name, function) for each klcat function bound in ``module`` but defined elsewhere."""
    for attr, value in list(vars(module).items()):
        if (
            callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", "").startswith("klcat.")
            and value.__module__ != module.__name__
        ):
            yield attr, value


def install(wrap_span, wrap_count=None) -> None:
    """Rebind klcat's cross-module function bindings to wrappers.

    ``wrap_span(fn, name)`` wraps a call that gets a span;
    ``wrap_count(fn, name)``, if given, wraps each hot primitive and
    ``LaurentPoly`` operation once, and that wrapper replaces every binding
    of it.  Call once per process: the bindings stay rebound until the
    process ends.
    """
    for module in SPANNED_CALLERS:
        for attr, fn in _imported_functions(module):
            if fn.__name__ not in COUNTED_ONLY:
                setattr(module, attr, wrap_span(fn, span_name(fn)))
    for attr in CLI_CALLS:
        fn = getattr(klcat.cli, attr)
        setattr(klcat.cli, attr, wrap_span(fn, span_name(fn)))
    for attr, module in MODULE_REFS.items():
        own = {
            name: wrap_span(fn, span_name(fn))
            for name, fn in vars(module).items()
            if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == module.__name__
        }
        setattr(klcat.verify, attr, _ModuleProxy(module, own))
    if wrap_count is None:
        return
    for name in COUNTED_ONLY:
        original = getattr(klcat.coxeter, name)
        counted = wrap_count(original, f"coxeter.{name}")
        for module in ALL_MODULES:
            if getattr(module, name, None) is original:
                setattr(module, name, counted)
    for op, name in LAURENT_OPS.items():
        setattr(klcat.laurent.LaurentPoly, op, wrap_count(getattr(klcat.laurent.LaurentPoly, op), name))


class PeakTracker:
    """Peak traced memory (KiB) inside each span of PEAK_SPANS, max over calls.

    tracemalloc runs only inside these spans, because it slows every
    allocation about sixfold.  A repeated build of the same group has the
    same peak, so only the first build of each (matrix, cap) is measured.
    tracemalloc has one peak register: a nested span folds the peak seen
    so far into its parent before resetting it.
    """

    def __init__(self):
        self.peaks: dict[str, float] = {}
        self._frames: list[list[int]] = []  # [traced bytes at entry, highest peak seen]
        self._built: set = set()

    def wrap(self, fn, name: str):
        if name not in PEAK_SPANS:
            return fn
        frames = self._frames

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if name == "coxeter.build_group" and not frames:
                if args in self._built:
                    return fn(*args, **kwargs)
                self._built.add(args)
            if frames:
                current, peak = tracemalloc.get_traced_memory()
                frames[-1][1] = max(frames[-1][1], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                current = 0
            frames.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                start, seen = frames.pop()
                top = max(seen, tracemalloc.get_traced_memory()[1])
                if frames:
                    frames[-1][1] = max(frames[-1][1], top)
                else:
                    tracemalloc.stop()
                key = name + ".peak_kib"
                self.peaks[key] = max(self.peaks.get(key, 0.0), (top - start) / 1024)

        return measured
