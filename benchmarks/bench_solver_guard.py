"""Solver-identity guard: a seeded LIA corpus vs. a checked-in baseline.

A fixed corpus of quantifier-free LIA formulas (seeded, so every run
builds the same terms) goes through a fresh ``Solver().model()`` each.
For every formula the guard records the verdict (SAT, UNSAT or
UNKNOWN), the sorted integer model, ``nodes_searched`` and
``max_query_nodes``, and compares the list with
``benchmarks/solver_baseline.json``, which is checked in.  The corpus
mixes conjunctions, disjunctions, disequalities, coefficients with a
gcd above 1 (so integer tightening cuts), ite atoms and atoms whose
variables cancel (trivially true or false constraints).  One slice runs
under a small ``node_budget`` and one under a small ``branch_budget``,
so the exact node where a query turns UNKNOWN is pinned too.

Any drift means the decision procedure explores a different tree or
returns a different model: a change to the DPLL search, the theory
memos or Fourier–Motzkin elimination that was meant to be invisible
was not.  Times are printed, not asserted.

To regenerate the baseline after an *intentional* solver change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_solver_guard.py -q --benchmark-disable
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.harness import atomic_write_text, emit, emit_timings
from repro.logic import (
    Solver,
    SolverUnknown,
    add,
    and_,
    eq,
    intc,
    ite,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    var,
)

BASELINE_PATH = Path(__file__).resolve().parent / "solver_baseline.json"

SEED = 20221
#: corpus slices: (name, formula count, solver keyword arguments)
SLICES = (
    ("default", 240, {"branch_budget": 40}),
    ("node-budget", 40, {"node_budget": 6}),
    ("branch-budget", 20, {"branch_budget": 2}),
)
#: variable names are prefixed ``sg_`` so the terms are fresh whatever
#: ran earlier in the process
VARIABLES = tuple(var(f"sg_x{i}") for i in range(4))


def _lin(rng: random.Random):
    """A random linear term; a third of them share a gcd above 1."""
    scale = rng.choice((1, 1, 2, 3))
    parts = [
        mul(scale * rng.randint(-3, 3), v)
        for v in rng.sample(VARIABLES, rng.randint(1, 3))
    ]
    parts.append(intc(rng.randint(-6, 6)))
    return add(*parts)


def _atom(rng: random.Random):
    kind = rng.randrange(8)
    lhs, rhs = _lin(rng), _lin(rng)
    if kind == 0:
        return eq(lhs, rhs)
    if kind == 1:
        return ne(lhs, rhs)
    if kind == 2:
        return lt(lhs, rhs)
    if kind == 3:
        # the variables cancel: a trivially true or trivially false
        # constraint, on either side of a (dis)equality
        return rng.choice((eq, ne, le))(add(lhs, intc(rng.randint(-1, 1))), lhs)
    if kind == 4:
        cond = le(_lin(rng), intc(0))
        return le(add(ite(cond, lhs, rhs), _lin(rng)), intc(rng.randint(-4, 4)))
    return le(lhs, rhs)


def _formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        atom = _atom(rng)
        return not_(atom) if rng.random() < 0.2 else atom
    width = rng.randint(2, 3)
    args = [_formula(rng, depth - 1) for _ in range(width)]
    return or_(*args) if rng.random() < 0.6 else and_(*args)


def _query(rng: random.Random):
    """A conjunction of a few random clauses: deep enough to split."""
    return and_(*(_formula(rng, 2) for _ in range(rng.randint(2, 6))))


def _corpus() -> list[tuple[str, object, dict]]:
    rng = random.Random(SEED)
    return [
        (name, _query(rng), kwargs)
        for name, count, kwargs in SLICES
        for _ in range(count)
    ]


def _run() -> tuple[list[dict], float]:
    records = []
    started = time.perf_counter()
    for index, (name, formula, kwargs) in enumerate(_corpus()):
        solver = Solver(**kwargs)
        try:
            model = solver.model(formula)
        except SolverUnknown:
            verdict, pairs = "UNKNOWN", None
        else:
            verdict = "UNSAT" if model is None else "SAT"
            pairs = None if model is None else [list(p) for p in sorted(model.items())]
        records.append(
            {
                "index": index,
                "slice": name,
                "verdict": verdict,
                "model": pairs,
                "nodes_searched": solver.stats.nodes_searched,
                "max_query_nodes": solver.stats.max_query_nodes,
            }
        )
    return records, time.perf_counter() - started


def _render(records: list[dict]) -> str:
    lines = ",\n".join("  " + json.dumps(r, sort_keys=True) for r in records)
    return "[\n" + lines + "\n]\n"


def test_solver_matches_baseline(benchmark):
    records, seconds = benchmark.pedantic(_run, rounds=1, iterations=1)
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(BASELINE_PATH, _render(records))
    baseline = json.loads(BASELINE_PATH.read_text())
    verdicts = {
        (name, verdict): sum(
            1 for r in records if r["slice"] == name and r["verdict"] == verdict
        )
        for name, _, _ in SLICES
        for verdict in ("SAT", "UNSAT", "UNKNOWN")
    }
    lines = [f"{len(records)} formulas"]
    for name, _, _ in SLICES:
        counts = ", ".join(
            f"{verdict} {verdicts[name, verdict]}"
            for verdict in ("SAT", "UNSAT", "UNKNOWN")
        )
        lines.append(f"{name:14s} {counts}")
    lines.append(
        f"nodes_searched total {sum(r['nodes_searched'] for r in records)}"
    )
    emit("bench_solver_guard", lines)
    emit_timings("bench_solver_guard", [f"{len(records)} formulas in {seconds:.2f}s"])
    drift = [
        (observed, pinned)
        for observed, pinned in zip(records, baseline)
        if observed != pinned
    ]
    assert len(records) == len(baseline), "corpus size changed"
    assert not drift, (
        f"{len(drift)} solver answers drifted from the checked-in baseline, "
        f"first: observed {drift[0][0]} vs pinned {drift[0][1]} "
        "(intentional solver change? regenerate with REPRO_REGEN_BASELINE=1)"
    )
