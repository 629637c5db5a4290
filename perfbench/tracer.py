"""Spans and counters recorded around the calls into each rlelcs module.

Nothing inside ``src/`` knows about tracing: :meth:`Tracer.installed`
replaces the names the solver looks up at call time (``rlelcs.walk``'s
module globals and the ``structures`` classes' methods) with wrappers, and
restores them on exit.  Spans are kept in memory as
``(name, start_ns, end_ns, parent, solve_id)``; hot per-call functions are
counted, not timed, except ``DynArray.range_min``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType

SOLVE = "solve"
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "solve_id")


@contextlib.contextmanager
def patched(replacements):
    """Set each ``(owner, attr, value)`` for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.range_min_ns = 0
        self.solve_id = -1
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.range_min_ns = 0

    # wrappers -------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve_id)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hits(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not None:
                counts[name] += 1
            return out

        return wrapper

    def _grover(self, fn):
        counts = self.counts

        def wrapper(space_size, predicate, *args, **kwargs):
            def counted_predicate(i):
                counts["grover_evals"] += 1
                return predicate(i)

            return fn(space_size, counted_predicate, *args, **kwargs)

        return wrapper

    def _walk_search(self, fn):
        def wrapper(m, r, delta_bound, hooks, *args, **kwargs):
            wrapped = {
                phase: self.span(f"walk.vertex_{phase}", getattr(hooks, phase))
                for phase in ("setup", "update", "check")
                if getattr(hooks, phase) is not None
            }
            return fn(m, r, delta_bound, dataclasses.replace(hooks, **wrapped), *args, **kwargs)

        return wrapper

    def _range_min(self, fn):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            self.counts["dynarray_ops"] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.range_min_ns += clock() - start

        return wrapper

    @contextlib.contextmanager
    def installed(self, rl: ModuleType):
        walk, structures = rl.walk, rl.structures
        dyn, rsum = structures.DynArray, structures.RangeSum2D
        replacements = [
            (walk, "build_exhaustive", self.span("anchors.build", walk.build_exhaustive)),
            (walk, "build_minimizer", self.span("anchors.build", walk.build_minimizer)),
            (walk.CollisionIndex, "__init__", self.span("walk.index", walk.CollisionIndex.__init__)),
            (
                walk,
                "inner_search",
                self.span("walk.inner_search", self._hits("probe_hits", walk.inner_search)),
            ),
            (walk, "walk_search", self.span("qmodel.walk_search", self._walk_search(walk.walk_search))),
            (
                walk,
                "grover_search",
                self.span(
                    "qmodel.grover_search",
                    self._hits("grover_hits", self._grover(walk.grover_search)),
                ),
            ),
            (walk, "finalize_answer", self.span("walk.finalize", walk.finalize_answer)),
            (walk, "verify_candidate", self.span("walk.verify", walk.verify_candidate)),
            (walk, "lex_compare_runs", self._counted("lex_compare_calls", walk.lex_compare_runs)),
            (walk, "ldcp_runs", self._counted("ldcp_calls", walk.ldcp_runs)),
            (dyn, "range_min", self._range_min(dyn.range_min)),
        ]
        for method in ("index", "insert", "delete", "locate"):
            replacements.append((dyn, method, self._counted("dynarray_ops", getattr(dyn, method))))
        for method in ("insert", "delete", "count"):
            replacements.append((rsum, method, self._counted("rangesum_ops", getattr(rsum, method))))
        with patched(replacements):
            yield self

    # derived metrics ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans and counts recorded since reset."""
        total = defaultdict(int)  # inclusive ns per span name
        calls = Counter()
        child_ns = defaultdict(int)  # ns covered by direct children, per span index
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
        solve_ns = total[SOLVE]
        covered_ns = sum(ns for i, ns in child_ns.items() if self.spans[i][0] == SOLVE)
        walk_search_children = sum(
            ns for i, ns in child_ns.items() if self.spans[i][0] == "qmodel.walk_search"
        )
        c = self.counts
        s = 1e-9
        return {
            "anchors.build_s": total["anchors.build"] * s,
            "walk.index_s": total["walk.index"] * s,
            "walk.index_builds": calls["walk.index"],
            "walk.inner_search_calls": calls["walk.inner_search"],
            "walk.probe_hit_ratio": _ratio(c["probe_hits"], calls["walk.inner_search"]),
            "walk.vertex_setup_s": total["walk.vertex_setup"] * s,
            "walk.vertex_update_s": total["walk.vertex_update"] * s,
            "walk.vertex_check_s": total["walk.vertex_check"] * s,
            "walk.vertex_check_calls": calls["walk.vertex_check"],
            "walk.finalize_s": total["walk.finalize"] * s,
            "walk.verify_s": total["walk.verify"] * s,
            "walk.fallback_s": (solve_ns - covered_ns) * s,
            "qmodel.walk_search_self_s": (total["qmodel.walk_search"] - walk_search_children) * s,
            "qmodel.walk_search_calls": calls["qmodel.walk_search"],
            "qmodel.grover_evals": c["grover_evals"],
            "qmodel.grover_hit_ratio": _ratio(c["grover_hits"], calls["qmodel.grover_search"]),
            "rle.lex_compare_calls": c["lex_compare_calls"],
            "rle.ldcp_calls": c["ldcp_calls"],
            "structures.dynarray_ops": c["dynarray_ops"],
            "structures.range_min_s": self.range_min_ns * s,
            "structures.rangesum_ops": c["rangesum_ops"],
            "trace.coverage": _ratio(covered_ns, solve_ns),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": self.spans}))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
