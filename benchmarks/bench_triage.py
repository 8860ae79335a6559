"""Portfolio triage guard: plan determinism + verdict bit-identity.

Two contracts, pinned against ``benchmarks/triage_baseline.json``:

* **Plan determinism** — the triage plan (ranked member lists, feature
  scores, ladder budgets) for a fixed program set must match the
  checked-in baseline exactly.  Ranking drift means the feature
  extractor or the weights changed; that must be a reviewed decision,
  not an accident.
* **Verdict bit-identity** — a triaged sequential portfolio must agree
  verdict-for-verdict with the untriaged run, with every member that
  completed under triage bit-identical (rounds, proof size, states) to
  its untriaged twin, and must report ``triage_budget_saved_seconds``
  greater than zero on a budgeted race it wins early.  Wall seconds are
  reported (in the git-ignored ``benchmarks/results/timings/``), never
  asserted.

To regenerate the baseline after an *intentional* ranking change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_triage.py -q --benchmark-disable
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import VerifierConfig
from repro.benchmarks import by_name
from repro.harness import atomic_write_text, emit, emit_timings
from repro.verifier import plan_portfolio, standard_orders, verify_portfolio

BASELINE_PATH = Path(__file__).resolve().parent / "triage_baseline.json"

#: registry programs covering every ranked-first kind: seq pipelines,
#: lockstep protocols, rand-favoured drivers, plus a buggy instance
PLAN_PROGRAMS = (
    "dekker",
    "peterson",
    "bluetooth(2)",
    "token-ring(3)",
    "counter-sum(2)",
    "ticket-lock(2)-bug",
)

#: the differential set stays small: one correct, one buggy program
DIFF_PROGRAMS = ("dekker", "ticket-lock(2)-bug")

PLAN_BUDGET = 8.0
DIFF_BUDGET = 12.0


def _plan_row(name: str) -> dict:
    program = by_name(name).build()
    plan = plan_portfolio(
        program, standard_orders(program), time_budget=PLAN_BUDGET
    )
    return {
        "ranked": plan.order_names(),
        "scores": [round(m.score, 4) for m in plan.ranked],
        "stage_budgets": plan.stage_budgets,
        "family": plan.family,
    }


def _run_plans() -> dict:
    return {name: _plan_row(name) for name in PLAN_PROGRAMS}


def test_triage_plan_matches_baseline(benchmark):
    observed = benchmark.pedantic(_run_plans, rounds=1, iterations=1)
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(
            BASELINE_PATH, json.dumps(observed, indent=2) + "\n"
        )
    baseline = json.loads(BASELINE_PATH.read_text())
    lines = [f"{'program':20s} ranked members"]
    for name, row in observed.items():
        lines.append(f"{name:20s} {', '.join(row['ranked'])}")
    emit("bench_triage_plan", lines)
    assert observed == baseline, (
        "triage plan drifted from benchmarks/triage_baseline.json "
        "(intentional ranking change? regenerate with "
        "REPRO_REGEN_BASELINE=1)"
    )


def _differential(name: str) -> dict:
    program = by_name(name).build()
    triaged = verify_portfolio(
        program, VerifierConfig(max_rounds=60, time_budget=DIFF_BUDGET)
    )
    flat = verify_portfolio(
        program,
        VerifierConfig(max_rounds=60, time_budget=DIFF_BUDGET, triage=False),
    )
    flat_members = {m.order_name: m for m in flat.members}
    completed = mismatched = 0
    for member in triaged.members:
        if member.failure_reason and "cancelled" in member.failure_reason:
            continue
        completed += 1
        twin = flat_members[member.order_name]
        if (
            member.verdict != twin.verdict
            or member.rounds != twin.rounds
            or member.proof_size != twin.proof_size
            or member.states_explored != twin.states_explored
        ):
            mismatched += 1
    counters = triaged.triage_counters or {}
    return {
        "verdict": triaged.aggregate().verdict.value,
        "flat_verdict": flat.aggregate().verdict.value,
        "completed": completed,
        "mismatched": mismatched,
        "budget_saved": counters.get("budget_saved_seconds", 0.0),
        "emulated_wall": triaged.emulated_wall_seconds,
    }


def test_triage_verdicts_bit_identical(benchmark):
    rows = benchmark.pedantic(
        lambda: {name: _differential(name) for name in DIFF_PROGRAMS},
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{'program':20s} {'verdict':10s} {'members':>7s} {'saved':>8s}"
    ]
    walls = [f"{'program':20s} {'wall':>7s}"]
    for name, row in rows.items():
        lines.append(
            f"{name:20s} {row['verdict']:10s} {row['completed']:>7d}"
            f" {row['budget_saved']:>7.1f}s"
        )
        walls.append(f"{name:20s} {row['emulated_wall']:>6.2f}s")
    emit("bench_triage_diff", lines)
    emit_timings("bench_triage_diff", walls)
    for name, row in rows.items():
        assert row["verdict"] == row["flat_verdict"], (
            f"{name}: triage changed the verdict "
            f"({row['verdict']} vs {row['flat_verdict']})"
        )
        assert row["mismatched"] == 0, (
            f"{name}: {row['mismatched']} completed members drifted from "
            "their untriaged twins"
        )
        assert row["completed"] >= 1
        assert row["budget_saved"] > 0.0, (
            f"{name}: a budgeted triaged race that ends early must bank "
            "budget from its cancelled losers"
        )
