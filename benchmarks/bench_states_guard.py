"""Behavior-preservation guard: ``states_explored`` vs a checked-in baseline.

The reduction/search stack promises *bit-identical* exploration across
refactors: same verdicts, same per-round state counts, same
counterexample traces.  This bench re-runs a small, fast subset of the
Figure 1(c) corpus (bluetooth, 2-4 threads) across the reduction modes
and both search strategies, once on the pure reference engine and once
on the integer fast path, and compares every run of both engines
against the same ``benchmarks/states_baseline.json``, which is checked
in.

Any drift — a state explored more or less, a different verdict, a
different round count — fails the job.  This is the regression guard for
the unified worklist engine / layered reduction pipeline, and for any
future refactor that claims to preserve behavior.

To regenerate the baseline (from the pure engine's runs) after an
*intentional* semantic change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_states_guard.py -q --benchmark-disable
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import VerifierConfig, verify
from repro.benchmarks import bluetooth
from repro.core import LockstepOrder, ThreadUniformOrder
from repro.core.commutativity import ConditionalCommutativity
from repro.harness import atomic_write_text, emit
from repro.logic import Solver

BASELINE_PATH = Path(__file__).resolve().parent / "states_baseline.json"

#: (threads, order, mode, search) — chosen to cover every reduction mode
#: and both search strategies while staying fast enough for a CI smoke
CASES = (
    (2, "seq", "combined", "bfs"),
    (2, "seq", "combined", "dfs"),
    (2, "seq", "sleep", "bfs"),
    (2, "seq", "persistent", "bfs"),
    (2, "seq", "none", "bfs"),
    (2, "lockstep", "combined", "bfs"),
    (3, "seq", "combined", "bfs"),
    (3, "lockstep", "combined", "bfs"),
    (4, "seq", "combined", "bfs"),
)

#: both exploration engines answer to the one baseline
ENGINES = ("pure", "fast")


def _case_id(threads: int, order: str, mode: str, search: str) -> str:
    return f"bluetooth({threads})/{order}/{mode}/{search}"


def _run_case(
    threads: int, order_name: str, mode: str, search: str, engine: str
) -> dict:
    program = bluetooth(threads)
    order = (
        ThreadUniformOrder()
        if order_name == "seq"
        else LockstepOrder(len(program.threads))
    )
    solver = Solver()
    result = verify(
        program,
        order,
        ConditionalCommutativity(solver),
        # the checked-in per-round baseline predates incremental rounds;
        # the guard's contract is bit-identical legacy exploration
        config=VerifierConfig(
            mode=mode, search=search, max_rounds=60, incremental=False,
            engine=engine,
        ),
        solver=solver,
    )
    return {
        "verdict": result.verdict.value,
        "rounds": result.rounds,
        "proof_size": result.proof_size,
        "states_explored": result.states_explored,
        "states_per_round": [r.states_explored for r in result.round_stats],
        "counterexample": (
            [s.label for s in result.counterexample]
            if result.counterexample is not None
            else None
        ),
    }


def _run_guard() -> dict:
    return {
        engine: {_case_id(*case): _run_case(*case, engine) for case in CASES}
        for engine in ENGINES
    }


def test_verdicts_identical_under_interning(benchmark):
    """Exploration must be bit-identical across intern-kernel states.

    Runs one guard case twice — on the warm process-wide kernel and
    again after ``compact_kernel(0)`` dropped every derived memo — and
    requires the exact same verdict, rounds, proof size, per-round state
    counts, and counterexample, also matching the checked-in baseline.
    The hash-consing layer and its id-keyed caches are performance-only.
    """
    from repro.logic import compact_kernel

    case = (3, "seq", "combined", "bfs")

    def run_twice():
        runs = {}
        for engine in ENGINES:
            warm = _run_case(*case, engine)
            compact_kernel(0)
            runs[engine] = (warm, _run_case(*case, engine))
        return runs

    runs = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    baseline = json.loads(BASELINE_PATH.read_text())
    for engine, (warm, cold) in runs.items():
        assert warm == cold, (
            f"{engine}: exploration depends on intern-kernel cache state"
        )
        assert warm == baseline[_case_id(*case)], (
            f"{engine}: exploration drifted from the checked-in baseline "
            "under interning"
        )


def test_states_explored_matches_baseline(benchmark):
    observed = benchmark.pedantic(_run_guard, rounds=1, iterations=1)
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(
            BASELINE_PATH, json.dumps(observed["pure"], indent=2) + "\n"
        )
    baseline = json.loads(BASELINE_PATH.read_text())
    lines = [
        f"{'case':38s} {'engine':6s} {'verdict':9s} {'rounds':>6s} "
        f"{'states':>8s}"
    ]
    drifted = []
    for engine, runs in observed.items():
        assert set(runs) == set(baseline), (
            "guard case set changed; regenerate"
        )
        for case, expected in baseline.items():
            got = runs[case]
            status = "ok" if got == expected else "DRIFT"
            if got != expected:
                drifted.append((f"{case} [{engine}]", expected, got))
            lines.append(
                f"{case:38s} {engine:6s} {got['verdict']:9s} "
                f"{got['rounds']:>6d} {got['states_explored']:>8d}  {status}"
            )
    emit("states_guard", lines)
    assert not drifted, (
        "exploration drifted from the checked-in baseline:\n"
        + "\n".join(
            f"  {case}:\n    expected {exp}\n    observed {got}"
            for case, exp, got in drifted
        )
    )
