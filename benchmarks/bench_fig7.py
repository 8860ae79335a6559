"""Figure 7: scatter of refinement rounds and proof size.

For every benchmark solved by both tools, one point (Automizer value,
GemCutter value); correct programs are '+', incorrect 'x' in the paper.
Shape: points on or below the diagonal, with reductions up to large
factors for rounds and proof size.

Besides the scatter, the run appends a machine-readable trajectory
entry to ``benchmarks/BENCH_fig7.json``: the end-to-end wall of this
A/B pass next to the recorded walls of earlier optimisation PRs (all at
``REPRO_BUDGET=10``), so performance drift is a one-file diff.
"""

import json
import os
import time
from pathlib import Path

from repro.benchmarks import all_benchmarks
from repro.verifier import VerifierConfig
from repro.harness import (
    atomic_write_text,
    cache_summary,
    emit,
    emit_json,
    run_cached,
    _log_progress,
)

TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_fig7.json"

#: recorded end-to-end walls of this A/B pass at REPRO_BUDGET=10,
#: one entry per optimisation PR (measured on the reference CI box)
_HISTORY = [
    {"pr": "seed", "wall_seconds": 608.6},
    {"pr": "PR1 solver+commutativity caches", "wall_seconds": 519.8},
    {"pr": "PR3 unified exploration stack", "wall_seconds": 508.5},
    {"pr": "PR4 hash-consed term kernel", "wall_seconds": 443.4},
    {"pr": "PR5 incremental CEGAR rounds", "wall_seconds": 430.2},
    {"pr": "PR8 integer-kernel fast path", "wall_seconds": 309.0},
]


def _emit_trajectory(wall: float, caches: dict) -> None:
    entry = {
        "pr": "PR10 portfolio triage",
        "wall_seconds": round(wall, 1),
        "budget_seconds": float(os.environ.get("REPRO_BUDGET", "20")),
        "engine": VerifierConfig().engine,
        "fastpath_rounds": caches["fastpath_rounds"],
        "triage_ranker_hits": caches["triage_ranker_hits"],
        "triage_ladder_stages": caches["triage_ladder_stages"],
        "triage_preemptions": caches["triage_preemptions"],
        "triage_budget_saved_seconds": caches["triage_budget_saved_seconds"],
    }
    payload = {"trajectory": [*_HISTORY, entry]}
    atomic_write_text(TRAJECTORY_PATH, json.dumps(payload, indent=2) + "\n")


def _run():
    points = []
    runs = []
    started = time.perf_counter()
    for bench in all_benchmarks():
        base = run_cached(bench, "baseline")
        gem = run_cached(bench, "portfolio")
        runs.append((bench, gem))
        if base.verdict.solved and gem.verdict.solved:
            points.append(
                {
                    "program": bench.name,
                    "kind": bench.expected,
                    "rounds": (base.rounds, gem.rounds),
                    "proof": (base.proof_size, gem.proof_size),
                }
            )
    caches = cache_summary(runs)
    wall = time.perf_counter() - started
    _log_progress(
        f"fig7 summary: wall={wall:.1f}s "
        f"solver_hit={caches['solver_hit_rate']:.1%} "
        f"comm_hit={caches['comm_hit_rate']:.1%} "
        f"decisions={caches['solver_decisions']} "
        f"fh_delta={caches['fh_step_delta_hits']} "
        f"warm={caches['warm_start_reused']}"
    )
    _emit_trajectory(wall, caches)
    return points, caches


def test_fig7_rounds_and_proof_scatter(benchmark):
    points, caches = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        f"{'program':32s} {'kind':10s} {'rounds A':>8s} {'rounds G':>8s}"
        f" {'proof A':>8s} {'proof G':>8s}"
    ]
    for p in points:
        lines.append(
            f"{p['program']:32s} {p['kind']:10s} "
            f"{p['rounds'][0]:>8d} {p['rounds'][1]:>8d} "
            f"{p['proof'][0]:>8d} {p['proof'][1]:>8d}"
        )
    ra = sum(p["rounds"][0] for p in points)
    rg = sum(p["rounds"][1] for p in points)
    pa = sum(p["proof"][0] for p in points if p["kind"] == "correct")
    pg = sum(p["proof"][1] for p in points if p["kind"] == "correct")
    lines.append("")
    lines.append(f"total rounds: Automizer {ra}, GemCutter {rg}")
    lines.append(f"total proof size (correct): Automizer {pa}, GemCutter {pg}")
    lines.append("")
    lines.append(
        "query caches (GemCutter runs): "
        f"solver {caches['solver_cache_hits']}/{caches['solver_sat_queries']} "
        f"hits ({caches['solver_hit_rate']:.1%}), "
        f"commutativity {caches['comm_cache_hits']}/{caches['comm_questions']} "
        f"hits ({caches['comm_hit_rate']:.1%})"
    )
    emit("fig7", lines)
    emit_json("fig7", {"points": points, "cache_summary": caches})
    assert points
    assert rg <= ra, "GemCutter should need no more rounds in total"
    assert caches["solver_hit_rate"] > 0, "query cache never hit on fig7"
