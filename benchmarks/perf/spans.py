"""Outside-in layer spans for the traced runs of the perf benchmark.

The benchmark does not instrument the verifier.  In a traced child
process it rebinds the public functions that sit on layer boundaries,
at the attribute the caller resolves them through: a class attribute
for a method, the importing module's global for a function imported by
name.  Each wrapper records a span (name, start, end, parent span) in
memory; the child writes them out when it exits.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the self times of all spans under
one root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

#: (span name, module, attribute path).  A name may appear several
#: times: every binding a caller can resolve is wrapped.
BOUNDARIES = (
    ("portfolio", "repro.verifier", "verify_portfolio"),
    ("refinement.verify", "repro.verifier", "verify"),
    # portfolio members resolve verify() in the portfolio module
    ("refinement.verify", "repro.verifier.portfolio", "verify"),
    ("triage.plan", "repro.verifier.portfolio", "plan_portfolio"),
    ("checkproof.check", "repro.verifier.checkproof", "ProofChecker.check"),
    ("hoare.step", "repro.verifier.hoare", "FloydHoareAutomaton.step"),
    (
        "commutativity",
        "repro.core.commutativity",
        "ConditionalCommutativity.commute_under",
    ),
    (
        "commutativity",
        "repro.core.commutativity",
        "ConditionalCommutativity.commute",
    ),
    ("solver.is_sat", "repro.logic.solver", "Solver.is_sat"),
    ("interpolate", "repro.verifier.refinement", "trace_feasible"),
    ("interpolate", "repro.verifier.refinement", "annotate_trace"),
    ("interpolate", "repro.verifier.refinement", "refutes"),
    ("interpolate", "repro.verifier.refinement", "extract_predicates"),
    ("stats.collect", "repro.verifier.stats", "QueryStats.collect"),
    # the store, delta and digest entry points are imported inside the
    # calling functions, so the package attribute is what they resolve
    ("store.open", "repro.store", "open_store"),
    ("store.get", "repro.store.store", "ProofStore.get"),
    ("store.put", "repro.store.store", "ProofStore.put"),
    ("store.flush", "repro.store.store", "ProofStore.flush"),
    ("delta.plan", "repro.delta.diff", "EditPlan.compute"),
    ("digest.program", "repro.store", "program_digest"),
    ("lang.parse", "repro.lang", "parse"),
    ("lang.parse", "repro.benchmarks.arrays", "parse"),
    ("lang.parse", "repro.benchmarks.bluetooth", "parse"),
    ("lang.parse", "repro.benchmarks.mutex", "parse"),
    ("lang.parse", "repro.benchmarks.svcomp", "parse"),
    ("lang.parse", "repro.benchmarks.weaver", "parse"),
)


def _count_verify(counts: Counter, result) -> None:
    counts["rounds"] += result.rounds
    qs = result.query_stats
    if qs is None:
        return
    for field in (
        "solver_sat_queries", "solver_cache_hits", "solver_model_pool_hits",
        "solver_unknown_cache_hits", "solver_decisions",
        "comm_subsumption_hits", "comm_cache_hits", "comm_solver_checks",
        "fh_step_hits", "fastpath_fallbacks", "store_hits", "store_misses",
        "delta_hoare_reused", "delta_hoare_missed", "delta_comm_reused",
        "delta_comm_missed",
    ):
        counts[field] += getattr(qs, field)


def _count_check(counts: Counter, outcome) -> None:
    counts["states"] += outcome.states_explored


#: counters read off a boundary's return value, where the work happens
RESULT_COUNTERS = {
    "refinement.verify": _count_verify,
    "checkproof.check": _count_check,
}


class Tracer:
    """Span recorder for one child process.

    ``spans`` holds ``[name, start, end, parent]`` lists; ``parent`` is
    the index of the enclosing span, or -1 for a root.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """*fn* with a span named *name* around every call."""
        on_result = RESULT_COUNTERS.get(name)
        begin, end, counts = self.begin, self.end, self.counts

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def install(self, boundaries=BOUNDARIES) -> None:
        """Rebind every boundary to its traced wrapper."""
        for name, module_name, path in boundaries:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every rebound attribute."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- output -------------------------------------------------------------

    def write_ndjson(self, path, call_id: str) -> None:
        """Append this process's spans to *path*, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "call": call_id, "id": index, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def self_times(spans) -> dict[str, list]:
    """``{name: [calls, self seconds, total seconds]}`` over *spans*.

    *spans* are ``(name, start, end, parent)`` with ``parent`` an index
    into *spans* or -1.  Child intervals are clipped to their parent and
    merged before subtraction, so children that overlap each other are
    not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) - covered
        row[2] += end - start
    return out


def spans_nest(spans) -> bool:
    """Does every span lie within its parent's interval?"""
    for _name, start, end, parent in spans:
        if end < start:
            return False
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                return False
    return True
