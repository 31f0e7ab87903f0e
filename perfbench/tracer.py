"""Outside-in tracer for the traced benchmark run.

The library has no instrumentation of its own, so the tracer wraps the
calls that cross module boundaries.  Modules bind copies of each other's
names (``from .systems import evaluate_batch``), so every name in every
``resamplekit.*`` namespace that refers to a traced function is rebound,
not only the defining one; methods are replaced on their class.

A span records its name, thread, start, end, parent span and a work count.
Spans opened on a worker thread with nothing open on that thread take the
innermost span of the operation's own thread as parent, so thread-pool
work is attributed to the operation that started it.  Spans stay in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if np.ndim(x) == 2 else 1
    return shape[0] if len(shape) == 2 else 1


def _arg(pos: int, name: str):
    def get(args, kwargs, result):
        return args[pos] if len(args) > pos else kwargs[name]
    return get


# (module, attribute, class or None, span name, count(args, kwargs, result))
TARGETS = [
    ("_streams", "substream", None, "streams.substream", None),
    ("budget", "check_budget", None, "budget.check_budget", _arg(0, "needed")),
    ("samples", "enumerate_index_vectors", "SampleSet",
     "samples.enumerate_index_vectors", "yield"),
    ("samples", "values_matrix", "SampleSet", "samples.values_matrix",
     lambda a, k, r: _rows(a[1] if len(a) > 1 else k["indices"])),
    ("systems", "parse_system", None, "systems.parse_system", None),
    ("systems", "evaluate_batch", None, "systems.evaluate_batch",
     lambda a, k, r: _rows(a[1] if len(a) > 1 else k["X"])),
    ("systems", "evaluate", None, "systems.evaluate", None),
    ("distributions", "sample", "KnownDistribution", "distributions.sample",
     None),
    ("distributions", "cdf", "KnownDistribution", "distributions.cdf", None),
    ("distributions", "ppf", "KnownDistribution", "distributions.ppf", None),
    ("resampling", "draw_index_batch", None, "resampling.draw_index_batch",
     _arg(1, "count")),
    ("resampling", "estimate_theta", None, "resampling.estimate_theta", None),
    ("resampling", "exhaustive_moments", None, "resampling.exhaustive_moments",
     None),
    ("pairs", "enumerate_pairs", None, "pairs.enumerate_pairs",
     lambda a, k, r: len(r)),
    ("pairs", "_empirical_mixed_moment", None, "pairs.mixed_moment", None),
    ("pairs", "_generator_mixed_moment", None, "pairs.mixed_moment", None),
    ("pairs", "resampling_variance", None, "pairs.resampling_variance", None),
    ("wave", "wave_estimate", None, "wave.wave_estimate", None),
    ("wave", "propagate_pair_probabilities", None,
     "wave.propagate_pair_probabilities", None),
    ("wave", "hierarchical_variance", None, "wave.hierarchical_variance", None),
    ("partial", "estimate_known_g", None, "partial.estimate_known_g", None),
    ("partial", "estimate_inner_mc", None, "partial.estimate_inner_mc", None),
    ("damage", "resample_damage_counts", None, "damage.resample_damage_counts",
     _arg(2, "r")),
    ("damage", "damage_variance_mc", None, "damage.damage_variance_mc", None),
    ("damage", "plugin_variance_mc", None, "damage.plugin_variance_mc", None),
    ("renewal", "estimate_exceedance", None, "renewal.estimate_exceedance",
     _arg(1, "r")),
    ("coverage", "_enumerate_w", None, "coverage.w_enumeration", "yield"),
    ("coverage", "q_given_ordering", None, "coverage.q_given_ordering", None),
    ("coverage", "rho", None, "coverage.rho", None),
    ("coverage", "coverage_conditional", None, "coverage.coverage_conditional",
     None),
    ("coverage", "coverage_R", None, "coverage.coverage_R", None),
    ("cli", "main", None, "cli.main", None),
    ("cli", "run", None, "cli.run", None),
]

# span fields
NAME, PARENT, TID, T0, T1, COUNT = range(6)


class Tracer:
    """Rebinds the traced functions while installed and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stacks: dict[int, list] = {}
        self._op_tid: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> list:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            op_stack = self._stacks.get(self._op_tid)
            parent = op_stack[-1] if op_stack else None
        span = [name, parent, tid, time.perf_counter(), None, 0]
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[T1] = time.perf_counter()
        self._stacks[span[TID]].pop()

    def begin_op(self, case: str) -> list:
        """Open the root span of one benchmark operation."""
        self._op_tid = threading.get_ident()
        return self._open("op:" + case)

    def end_op(self, span: list) -> None:
        self._close(span)

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, name, count):
        tracer = self
        if count == "yield":
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def timed():
                    while True:
                        span = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer._close(span)
                            return
                        except BaseException:
                            tracer._close(span)
                            raise
                        span[COUNT] = 1
                        tracer._close(span)
                        yield item

                return timed()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span[COUNT] = 1 if count is None else count(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "resamplekit"
                                      or n.startswith("resamplekit."))]
        for mod_name, attr, cls_name, span_name, count in TARGETS:
            home = sys.modules[f"resamplekit.{mod_name}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, span_name, count))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, span_name, count)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write every span as JSON (times in ns from the first span)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        base = self.spans[0][T0] if self.spans else 0.0
        rows = [[s[NAME], index.get(id(s[PARENT])), s[TID],
                 round((s[T0] - base) * 1e9), round((s[T1] - base) * 1e9),
                 s[COUNT]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "thread", "start_ns",
                                  "end_ns", "count"], "spans": rows}, fh)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[list]) -> dict:
    """Aggregate spans per name: calls, count sum, total and self seconds.

    Also returns per-op figures: the op case of every span, unattributed
    time per op and, for spans whose children ran on other threads, the
    time no child covered (``wait``).
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append(s)
    op_of = {}

    def op_case(s):
        key = id(s)
        if key not in op_of:
            p = s
            while p[PARENT] is not None:
                p = p[PARENT]
            op_of[key] = p[NAME][3:]
        return op_of[key]

    agg = defaultdict(lambda: {"calls": 0, "count": 0, "total": 0.0,
                               "self": 0.0})
    by_case = defaultdict(lambda: defaultdict(lambda: {
        "calls": 0, "count": 0, "total": 0.0, "self": 0.0, "wait": 0.0}))
    unattributed = 0.0
    pair_cells = 0
    for s in spans:
        kids = children.get(id(s), ())
        dur = s[T1] - s[T0]
        covered = _union_length([(k[T0], k[T1]) for k in kids], s[T0], s[T1])
        if s[NAME].startswith("op:"):
            unattributed += dur - covered
            continue
        for target in (agg[s[NAME]], by_case[op_case(s)][s[NAME]]):
            target["calls"] += 1
            target["count"] += s[COUNT]
            target["total"] += dur
            target["self"] += dur - covered
        foreign = [(k[T0], k[T1]) for k in kids if k[TID] != s[TID]]
        if foreign:
            by_case[op_case(s)][s[NAME]]["wait"] += dur - _union_length(
                foreign, s[T0], s[T1])
        if s[NAME] == "systems.evaluate_batch":
            p = s[PARENT]
            while p is not None and p[NAME] != "pairs.mixed_moment":
                p = p[PARENT]
            if p is not None:
                pair_cells += s[COUNT]
    return {"layers": agg, "by_case": by_case, "unattributed": unattributed,
            "pair_cells": pair_cells}
