"""Fast-path differential guard: pure vs integer engine, plus pinned counters.

Two promises are checked on a bluetooth subset of the Figure 1(c)
corpus plus two programs with more than 64 letters (reorder(31)-bug and
counter-sum(65), where packed ``(φ, letter)`` memo keys need a letter
field wider than 6 bits):

* **bit identity** — the fast engine's verdicts, rounds, proof sizes,
  per-round state counts, and counterexamples equal the pure engine's,
  run side by side in the same process (the states guard separately
  pins both engines against the checked-in exploration baseline);
* **counter stability** — the fast path's own cache counters
  (``fastpath_*``) and the commutativity question counts
  (``comm_queries``, ``comm_syntactic_hits``) are deterministic and
  match ``benchmarks/fastpath_baseline.json``.  A ``fastpath_*`` drift
  means the compiled tables are being rebuilt or bypassed — a
  performance regression the identical verdicts would hide; a
  ``comm_*`` drift means the persistent-set conflict graph or the sleep
  rule asks different commutativity questions.

A wall-clock comparison is reported (and sanity-bounded: the fast
engine must not be dramatically slower than pure) but not pinned —
timings are hardware-dependent.

To regenerate the baseline after an intentional change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_fastpath.py -q --benchmark-disable
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import VerifierConfig, verify
from repro.benchmarks import bluetooth, svcomp
from repro.core.commutativity import ConditionalCommutativity
from repro.harness import atomic_write_text, emit
from repro.logic import Solver

BASELINE_PATH = Path(__file__).resolve().parent / "fastpath_baseline.json"

#: (program, mode, search) — every reduction mode plus dfs on bluetooth,
#: and the wide alphabets on the default configuration; sized for CI
CASES = (
    ("bluetooth(2)", "combined", "bfs"),
    ("bluetooth(2)", "combined", "dfs"),
    ("bluetooth(2)", "sleep", "bfs"),
    ("bluetooth(2)", "persistent", "bfs"),
    ("bluetooth(2)", "none", "bfs"),
    ("bluetooth(3)", "combined", "bfs"),
    ("reorder(31)-bug", "combined", "bfs"),
    ("counter-sum(65)", "combined", "bfs"),
)

PROGRAMS = {
    "bluetooth(2)": lambda: bluetooth(2),
    "bluetooth(3)": lambda: bluetooth(3),
    "reorder(31)-bug": lambda: svcomp.reorder(31, correct=False),
    "counter-sum(65)": lambda: svcomp.counter_sum(65),
}

#: cases whose alphabet must exceed 64 letters
WIDE = ("reorder(31)-bug", "counter-sum(65)")

#: the pinned fast-path counters (drift = tables rebuilt or bypassed),
#: plus the commutativity questions asked: Algorithm 1 and the sleep
#: rule ask them in uid order, so a drift there means the reduction
#: asks different questions
COUNTER_FIELDS = (
    "fastpath_rounds",
    "fastpath_edge_hits",
    "fastpath_edge_misses",
    "fastpath_step_hits",
    "fastpath_step_misses",
    "fastpath_commute_mask_hits",
    "fastpath_commute_mask_misses",
    "comm_queries",
    "comm_syntactic_hits",
)


def _case_id(name: str, mode: str, search: str) -> str:
    return f"{name}/{mode}/{search}"


def _run(name: str, mode: str, search: str, engine: str):
    program = PROGRAMS[name]()
    solver = Solver()
    config = VerifierConfig(
        mode=mode, search=search, max_rounds=60, engine=engine
    )
    started = time.perf_counter()
    result = verify(
        program, None, ConditionalCommutativity(solver), config=config,
        solver=solver,
    )
    wall = time.perf_counter() - started
    return result, wall


def _fingerprint(result) -> dict:
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


def _run_all():
    out = {}
    for case in CASES:
        pure, pure_wall = _run(*case, engine="pure")
        fast, fast_wall = _run(*case, engine="fast")
        out[_case_id(*case)] = {
            "pure": (_fingerprint(pure), pure_wall),
            "fast": (_fingerprint(fast), fast_wall),
            "engine": fast.engine,
            "counters": {
                f: getattr(fast.query_stats, f) for f in COUNTER_FIELDS
            },
        }
    return out


def test_fast_engine_differential(benchmark):
    observed = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    counters = {
        case: data["counters"] for case, data in observed.items()
    }
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(
            BASELINE_PATH, json.dumps(counters, indent=2) + "\n"
        )
    baseline = json.loads(BASELINE_PATH.read_text())

    lines = [
        f"{'case':32s} {'verdict':9s} {'pure s':>8s} {'fast s':>8s} {'speedup':>8s}"
    ]
    mismatched, drifted, slow = [], [], []
    for name in WIDE:
        assert len(PROGRAMS[name]().alphabet()) > 64, name
    for case, data in observed.items():
        pure_fp, pure_wall = data["pure"]
        fast_fp, fast_wall = data["fast"]
        if fast_fp != pure_fp or data["engine"] != "fast":
            mismatched.append((case, pure_fp, fast_fp))
        if data["counters"] != baseline.get(case):
            drifted.append((case, baseline.get(case), data["counters"]))
        # generous sanity bound only: CI boxes are noisy
        if fast_wall > pure_wall * 1.5 + 0.5:
            slow.append((case, pure_wall, fast_wall))
        speedup = pure_wall / fast_wall if fast_wall else float("inf")
        lines.append(
            f"{case:32s} {fast_fp['verdict']:9s} {pure_wall:>8.3f} "
            f"{fast_wall:>8.3f} {speedup:>7.2f}x"
        )
    emit("fastpath_guard", lines)

    assert not mismatched, (
        "fast engine diverged from the pure oracle:\n"
        + "\n".join(
            f"  {case}:\n    pure {p}\n    fast {f}"
            for case, p, f in mismatched
        )
    )
    assert set(counters) == set(baseline), (
        "fast-path guard case set changed; regenerate the baseline"
    )
    assert not drifted, (
        "fast-path counters drifted from the checked-in baseline:\n"
        + "\n".join(
            f"  {case}:\n    expected {exp}\n    observed {got}"
            for case, exp, got in drifted
        )
    )
    assert not slow, (
        "fast engine dramatically slower than pure:\n"
        + "\n".join(
            f"  {case}: pure {p:.3f}s fast {f:.3f}s" for case, p, f in slow
        )
    )
