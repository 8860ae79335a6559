"""Incremental-rounds guard: delta-step counters vs baseline.

A deterministic verification workload runs a fixed benchmark set twice —
incremental rounds on and off — and

* asserts the two modes are *equivalent* (same verdicts, rounds,
  counterexamples, proof sizes, and per-round state counts), and
* compares the incremental counters (``fh_step_delta_hits``, ...)
  against ``benchmarks/incremental_baseline.json``, which is checked
  in.  Any drift means the delta-step rule changed behavior;
  wall-clock is printed for inspection but not asserted
  (machine-dependent).

To regenerate the baseline after an *intentional* change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_incremental.py -q --benchmark-disable
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.benchmarks import all_benchmarks
from repro.core.commutativity import ConditionalCommutativity
from repro.core.preference import ThreadUniformOrder
from repro.harness import atomic_write_text, emit
from repro.logic import Solver
from repro.verifier import VerifierConfig, verify

BASELINE_PATH = Path(__file__).resolve().parent / "incremental_baseline.json"

#: small but round-rich programs: each goes through several refinement
#: rounds, so the delta-step path is genuinely hit
PROGRAMS = (
    "mutex-atomic(3)",
    "producer-consumer(2)",
    "flag-barrier(2)",
    "peterson",
    "dekker",
    "producer-consumer(3)-bug",  # INCORRECT path: cex after refinement
)

_COUNTER_KEYS = (
    "fh_step_delta_hits",
    "fh_step_delta_misses",
    "fh_initial_delta_hits",
)


def _run_one(bench, incremental: bool):
    solver = Solver()
    return verify(
        bench.build(),
        ThreadUniformOrder(),
        ConditionalCommutativity(solver),
        config=VerifierConfig(incremental=incremental, max_rounds=60),
        solver=solver,
    )


def _fingerprint(result) -> dict:
    return {
        "verdict": result.verdict.value,
        "rounds": result.rounds,
        "proof_size": result.proof_size,
        "num_predicates": result.num_predicates,
        "counterexample": (
            [s.label for s in result.counterexample]
            if result.counterexample is not None
            else None
        ),
        "states_per_round": [r.states_explored for r in result.round_stats],
    }


def _workload() -> dict:
    by_name = {b.name: b for b in all_benchmarks()}
    counters: dict[str, dict[str, int]] = {}
    timings: dict[str, dict[str, float]] = {}
    for name in PROGRAMS:
        bench = by_name[name]
        started = time.perf_counter()
        inc = _run_one(bench, incremental=True)
        t_inc = time.perf_counter() - started
        started = time.perf_counter()
        scratch = _run_one(bench, incremental=False)
        t_scratch = time.perf_counter() - started
        assert _fingerprint(inc) == _fingerprint(scratch), (
            f"{name}: incremental and from-scratch rounds diverged"
        )
        qs = inc.query_stats
        counters[name] = {k: getattr(qs, k) for k in _COUNTER_KEYS}
        # scratch mode must never take the incremental reuse paths
        # (delta *misses* — fresh computations — are counted either way)
        sqs = scratch.query_stats
        reuse = ("fh_step_delta_hits", "fh_initial_delta_hits")
        assert all(getattr(sqs, k) == 0 for k in reuse), (
            f"{name}: non-incremental run hit an incremental reuse path"
        )
        timings[name] = {"incremental": t_inc, "scratch": t_scratch}
    return {"counters": counters, "timings": timings}


def test_incremental_counters_match_baseline(benchmark):
    observed = benchmark.pedantic(_workload, rounds=1, iterations=1)
    counters, timings = observed["counters"], observed["timings"]
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(
            BASELINE_PATH,
            json.dumps({"counters": counters}, indent=2) + "\n",
        )
    baseline = json.loads(BASELINE_PATH.read_text())
    lines = [
        f"{'program':24s} {'delta+':>7s} {'delta-':>7s} {'init+':>6s}"
        f" {'t_inc':>7s} {'t_scr':>7s}"
    ]
    for name in PROGRAMS:
        c, t = counters[name], timings[name]
        lines.append(
            f"{name:24s} {c['fh_step_delta_hits']:>7d}"
            f" {c['fh_step_delta_misses']:>7d}"
            f" {c['fh_initial_delta_hits']:>6d}"
            f" {t['incremental']:>6.2f}s {t['scratch']:>6.2f}s"
        )
    emit("bench_incremental", lines)
    # the delta path must actually fire on this workload
    assert sum(c["fh_step_delta_hits"] for c in counters.values()) > 0
    assert counters == baseline["counters"], (
        "incremental-round counters drifted from the checked-in baseline "
        "(intentional change? regenerate with REPRO_REGEN_BASELINE=1)"
    )
