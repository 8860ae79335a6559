"""Patch-stream guard: delta verification vs from-scratch, pinned counters.

Each scenario is a (baseline, edited) program pair where the edit
touches one statement in one thread — the "developer fixes a guard and
re-verifies" loop the delta layer targets.  Per scenario and per search
strategy (bfs, dfs) the workload runs three phases against one proof
store in a temp directory:

* **scratch** — the edited program verified with no store at all: the
  ground-truth fingerprint the delta run must reproduce bit-identically
  (verdict, rounds, counterexample, proof, per-round state counts);
* **phase A** — the baseline program verified cold against the store,
  which persists its shape and Hoare/commutativity facts;
* **phase B** — the edited program verified with
  ``VerifierConfig.baseline_digest`` pointing at phase A, after a
  store-registry reset (fresh-process simulation).

Phase B must (a) match the scratch fingerprint exactly — served facts
can only remove work, never change verdicts — and (b) serve at least
``_REUSE_BAR`` of its Hoare + commutativity store probes from the
baseline's facts.  All runs use the default (fast) engine.  The
``delta_*`` counters are compared against
``benchmarks/patchstream_baseline.json`` (checked in) with a small
per-counter tolerance; drift means the diff classifier or the store
rekeying changed behavior.  The tracked table shows the pinned
counters; the observed ones, the reuse rates and the wall times go to
the git-ignored ``benchmarks/results/timings/``.

To regenerate the baseline after an *intentional* change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_patchstream.py -q --benchmark-disable
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.core.commutativity import ConditionalCommutativity
from repro.core.preference import ThreadUniformOrder
from repro.harness import atomic_write_text, emit, emit_timings
from repro.lang import parse
from repro.logic import Solver
from repro.store import program_digest, reset_store_registry
from repro.verifier import VerifierConfig, verify

BASELINE_PATH = Path(__file__).resolve().parent / "patchstream_baseline.json"

#: acceptance bar — fraction of Hoare+commutativity store probes in the
#: delta run answered by the baseline's persisted facts
_REUSE_BAR = 0.7

#: pinned QueryStats counters (absolute wobble allowed per counter)
_COUNTER_KEYS = (
    "delta_threads_unchanged",
    "delta_threads_edited",
    "delta_statements_edited",
    "delta_hoare_reused",
    "delta_hoare_missed",
    "delta_comm_reused",
    "delta_comm_missed",
)
_COUNTER_TOLERANCE = 5

# The mutex scenario spells out two distinct worker threads instead of
# using the registry's replicated ``Worker[2]`` — replication stamps
# every replica from one template, so a template edit would touch all
# threads and leave nothing unchanged to reuse.  The edit bumps a
# bookkeeping constant outside the lock/critical proof core.
_MUTEX_OLD = """
var lock: bool = false;
var critical: int = 0;
var aux: int = 0;

thread First {
    atomic { assume !lock; lock := true; }
    critical := critical + 1;
    assert critical == 1;
    critical := critical - 1;
    lock := false;
}

thread Second {
    atomic { assume !lock; lock := true; }
    critical := critical + 1;
    assert critical == 1;
    critical := critical - 1;
    lock := false;
    aux := 1;
}
"""
_MUTEX_NEW = _MUTEX_OLD.replace("aux := 1;", "aux := 2;")

# The bluetooth scenario mirrors the §2 driver (UserMon + one plain
# user + Stop) with a proof-irrelevant completion marker at the end of
# the stopper; the edit changes only that marker's value.
_BLUETOOTH_TEMPLATE = """
var pendingIo: int = 1;
var stoppingFlag: bool = false;
var stoppingEvent: bool = false;
var stopped: bool = false;
var done: int = 0;

thread UserMon {
  while (*) {
    atomic { assume !stoppingFlag; pendingIo := pendingIo + 1; }
    assert !stopped;
    atomic { pendingIo := pendingIo - 1; if (pendingIo == 0) { stoppingEvent := true; } }
  }
}

thread User[1] {
  while (*) {
    atomic { assume !stoppingFlag; pendingIo := pendingIo + 1; }
    atomic { pendingIo := pendingIo - 1; if (pendingIo == 0) { stoppingEvent := true; } }
  }
}

thread Stop {
  stoppingFlag := true;
  atomic { pendingIo := pendingIo - 1; if (pendingIo == 0) { stoppingEvent := true; } }
  assume stoppingEvent;
  stopped := true;
  done := %d;
}
"""

SCENARIOS = (
    ("mutex-patch", _MUTEX_OLD, _MUTEX_NEW),
    ("bluetooth-patch", _BLUETOOTH_TEMPLATE % 1, _BLUETOOTH_TEMPLATE % 2),
)
SEARCHES = ("bfs", "dfs")


def _run(source, name, search, store_path=None, baseline_digest=None):
    program = parse(source, name=name)
    solver = Solver()
    config = VerifierConfig(
        search=search,
        max_rounds=60,
        store_path=store_path,
        baseline_digest=baseline_digest,
    )
    result = verify(
        program, ThreadUniformOrder(), ConditionalCommutativity(solver),
        config=config, solver=solver,
    )
    return program, result


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


def _one_scenario(name, old_src, new_src, search):
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "proof-store")
        reset_store_registry()
        _, scratch = _run(new_src, f"{name}-new", search)
        reset_store_registry()
        started = time.perf_counter()
        old_program, _ = _run(old_src, f"{name}-old", search, store_path)
        cold_s = time.perf_counter() - started
        baseline_hex = program_digest(old_program).hex()
        reset_store_registry()  # fresh-process simulation
        started = time.perf_counter()
        _, delta = _run(
            new_src, f"{name}-new", search, store_path, baseline_hex
        )
        warm_s = time.perf_counter() - started
        reset_store_registry()
    assert _fingerprint(delta) == _fingerprint(scratch), (
        f"{name}/{search}: delta run diverged from the from-scratch run"
    )
    qs = delta.query_stats
    asked = (
        qs.delta_hoare_reused + qs.delta_hoare_missed
        + qs.delta_comm_reused + qs.delta_comm_missed
    )
    assert asked > 0, f"{name}/{search}: delta run probed no stored facts"
    rate = qs.delta_fact_reuse_rate
    assert rate >= _REUSE_BAR, (
        f"{name}/{search}: fact reuse {rate:.0%} below the "
        f"{_REUSE_BAR:.0%} acceptance bar"
    )
    counters = {k: getattr(qs, k) for k in _COUNTER_KEYS}
    return counters, rate, cold_s, warm_s


def _workload() -> dict:
    observed, rates, timings = {}, {}, {}
    for name, old_src, new_src in SCENARIOS:
        for search in SEARCHES:
            key = f"{name}/{search}"
            counters, rate, cold_s, warm_s = _one_scenario(
                name, old_src, new_src, search
            )
            observed[key] = counters
            rates[key] = rate
            timings[key] = {"cold": cold_s, "warm": warm_s}
    return {"counters": observed, "rates": rates, "timings": timings}


def _assert_close(observed: dict, pinned: dict) -> None:
    for key, counters in pinned.items():
        for counter, want in counters.items():
            got = observed[key][counter]
            assert abs(got - want) <= _COUNTER_TOLERANCE, (
                f"{key} {counter} drifted: {got} vs baseline {want} "
                "(intentional change? regenerate with "
                "REPRO_REGEN_BASELINE=1)"
            )


def _reuse_row(key: str, c: dict) -> str:
    hoare = f"{c['delta_hoare_reused']}/{c['delta_hoare_reused'] + c['delta_hoare_missed']}"
    comm = f"{c['delta_comm_reused']}/{c['delta_comm_reused'] + c['delta_comm_missed']}"
    return f"{key:24s} {hoare:>9s} {comm:>9s}"


def test_patchstream_counters_match_baseline(benchmark):
    observed = benchmark.pedantic(_workload, rounds=1, iterations=1)
    counters, rates, timings = (
        observed["counters"], observed["rates"], observed["timings"]
    )
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(
            BASELINE_PATH, json.dumps(counters, indent=2) + "\n"
        )
    baseline = json.loads(BASELINE_PATH.read_text())
    # the tracked table shows the pinned counters, which the run matches
    # within the tolerance; the observed ones go with the wall times
    lines = [f"{'scenario':24s} {'hoare':>9s} {'comm':>9s}"]
    walls = [
        f"{'scenario':24s} {'hoare':>9s} {'comm':>9s} {'reuse':>6s}"
        f" {'t_cold':>7s} {'t_warm':>7s}"
    ]
    for key, c in counters.items():
        t = timings[key]
        lines.append(_reuse_row(key, baseline[key]))
        walls.append(
            _reuse_row(key, c)
            + f" {rates[key]:>5.0%} {t['cold']:>6.2f}s {t['warm']:>6.2f}s"
        )
    lines.append(f"(pinned; every run within ±{_COUNTER_TOLERANCE})")
    emit("bench_patchstream", lines)
    emit_timings("bench_patchstream", walls)
    _assert_close(counters, baseline)
