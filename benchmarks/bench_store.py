"""Proof-store guard: warm-vs-cold differential with pinned hit counters.

A deterministic verification workload (the mutex and bluetooth families)
runs twice against one proof store in a temp directory —

* the **cold** phase starts from an empty store and populates it;
* the **warm** phase simulates a fresh process (registry reset) and must
  reproduce the cold phase *bit-identically*: same verdicts, rounds,
  counterexamples, proof sizes, and per-round state counts — the store
  is consulted only after every in-memory cache misses, so it can only
  remove solver work, never change it —

and the store hit/miss/write counters of both phases are compared
against ``benchmarks/store_baseline.json``, which is checked in.  Any
real drift means the digest scheme, the cache-boundary wiring, or the
only-definite-verdicts rule changed behavior.  The comparison allows a
tolerance of ``_COUNTER_TOLERANCE`` per counter: whether a query
reaches the store depends on whether a weakly-interned term survived
to be found in an in-memory cache, and that is garbage-collection
timing — content digests keep the *entries* identical, but the
hit/miss split can wobble by a count or two between processes.  The
overall warm hit rate must exceed 50% (the acceptance bar).
Wall-clock and the observed counters are printed for inspection and
kept in the git-ignored ``benchmarks/results/timings/``; the tracked
table shows the pinned counters, so a passing run leaves it unchanged.

To regenerate the baseline after an *intentional* change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_store.py -q --benchmark-disable
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.benchmarks import all_benchmarks
from repro.core.commutativity import ConditionalCommutativity
from repro.core.preference import ThreadUniformOrder
from repro.harness import atomic_write_text, emit, emit_timings
from repro.logic import Solver
from repro.store import reset_store_registry
from repro.verifier import VerifierConfig, verify

BASELINE_PATH = Path(__file__).resolve().parent / "store_baseline.json"

#: the acceptance families: mutex scaling + bluetooth scaling, and one
#: INCORRECT member so counterexample replay goes through the store too
PROGRAMS = (
    "mutex-atomic(2)",
    "mutex-atomic(3)",
    "bluetooth(2)",
    "bluetooth(3)",
    "mutex-atomic(2)-bug",
)

_COUNTER_KEYS = ("store_hits", "store_misses", "store_writes")

#: allowed absolute per-counter wobble vs the baseline (GC timing; see
#: the module docstring) — far below any real behavioral regression
_COUNTER_TOLERANCE = 5


def _assert_close(observed: dict, pinned: dict, phase: str) -> None:
    for name, counters in pinned.items():
        for key, want in counters.items():
            got = observed[name][key]
            assert abs(got - want) <= _COUNTER_TOLERANCE, (
                f"{phase} {name} {key} drifted: {got} vs baseline {want} "
                "(intentional change? regenerate with "
                "REPRO_REGEN_BASELINE=1)"
            )


def _run_one(bench, store_path: str):
    solver = Solver()
    return verify(
        bench.build(),
        ThreadUniformOrder(),
        ConditionalCommutativity(solver),
        config=VerifierConfig(store_path=store_path, max_rounds=60),
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
        "predicates": sorted(repr(p) for p in result.predicates),
    }


def _phase(store_path: str) -> tuple[dict, dict, dict]:
    by_name = {b.name: b for b in all_benchmarks()}
    fingerprints, counters, timings = {}, {}, {}
    for name in PROGRAMS:
        started = time.perf_counter()
        result = _run_one(by_name[name], store_path)
        timings[name] = time.perf_counter() - started
        fingerprints[name] = _fingerprint(result)
        qs = result.query_stats
        counters[name] = {k: getattr(qs, k) for k in _COUNTER_KEYS}
    return fingerprints, counters, timings


def _workload() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "proof-store")
        reset_store_registry()
        cold_fp, cold_counters, cold_t = _phase(store_path)
        reset_store_registry()  # fresh process simulation: reload from disk
        warm_fp, warm_counters, warm_t = _phase(store_path)
        reset_store_registry()
    # only the first program starts against a truly empty store; later
    # cold-phase members may already share facts (mutex(3) reuses
    # mutex(2) entries) — cross-program reuse the baseline also pins
    assert cold_counters[PROGRAMS[0]]["store_hits"] == 0, (
        f"{PROGRAMS[0]}: first cold run hit a store that should be empty"
    )
    for name in PROGRAMS:
        assert warm_fp[name] == cold_fp[name], (
            f"{name}: warm phase diverged from the cold run"
        )
    return {
        "cold": cold_counters,
        "warm": warm_counters,
        "timings": {
            name: {"cold": cold_t[name], "warm": warm_t[name]}
            for name in PROGRAMS
        },
    }


def _store_row(name: str, c: dict) -> str:
    asked = c["store_hits"] + c["store_misses"]
    rate = c["store_hits"] / asked if asked else 0.0
    return (
        f"{name:24s} {c['store_hits']:>7d} {c['store_misses']:>7d}"
        f" {c['store_writes']:>7d} {rate:>5.0%}"
    )


def test_store_counters_match_baseline(benchmark):
    observed = benchmark.pedantic(_workload, rounds=1, iterations=1)
    warm, timings = observed["warm"], observed["timings"]
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(
            BASELINE_PATH,
            json.dumps(
                {"cold": observed["cold"], "warm": warm}, indent=2
            )
            + "\n",
        )
    baseline = json.loads(BASELINE_PATH.read_text())
    # the tracked table shows the pinned warm counters, which the run
    # matches within the tolerance; the observed ones can wobble with
    # garbage-collection timing, so they go with the wall times
    header = (
        f"{'program':24s} {'hits':>7s} {'misses':>7s} {'writes':>7s}"
        f" {'rate':>6s}"
    )
    lines = [header]
    walls = [header + f" {'t_cold':>7s} {'t_warm':>7s}"]
    total_hits = total_misses = 0
    for name in PROGRAMS:
        c, t = warm[name], timings[name]
        total_hits += c["store_hits"]
        total_misses += c["store_misses"]
        lines.append(_store_row(name, baseline["warm"][name]))
        walls.append(
            _store_row(name, c) + f" {t['cold']:>6.2f}s {t['warm']:>6.2f}s"
        )
    lines.append(f"(pinned; every run within ±{_COUNTER_TOLERANCE})")
    emit("bench_store", lines)
    emit_timings("bench_store", walls)
    # the acceptance bar: the warm re-run answers most probes from disk
    assert total_hits / (total_hits + total_misses) > 0.5, (
        "warm store hit rate fell to "
        f"{total_hits / (total_hits + total_misses):.0%} (bar: >50%)"
    )
    _assert_close(observed["cold"], baseline["cold"], "cold")
    _assert_close(warm, baseline["warm"], "warm")
