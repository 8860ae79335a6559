"""Warm/cold differential tests for the persistent proof store.

The acceptance bar: a warm re-run against a populated store must
reproduce the cold run bit-identically — same verdict, rounds,
counterexample, proof size, predicates — while answering most solver
work from disk.  And the store must agree with ``run_cached`` on what
is memoizable: definite verdicts only, never budget-dependent UNKNOWNs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks import all_benchmarks
from repro.core import ConditionalCommutativity, SemanticCommutativity
from repro.core.preference import ThreadUniformOrder
from repro.lang import assign
from repro.logic import Solver, SolverUnknown, add, eq, intc, le, var
from repro.store import (
    FORMAT_VERSION,
    KIND_COMM,
    KIND_COMM_COND,
    KIND_HOARE,
    KIND_SAT,
    KIND_SHAPE,
    ProofStore,
    open_store,
    reset_store_registry,
)
from repro.store.store import MANIFEST_NAME, _frame
from repro.verifier import VerifierConfig, Verdict, verify, verify_portfolio
from repro.verifier.hoare import FloydHoareAutomaton


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_store_registry()
    yield
    reset_store_registry()


def _bench(name):
    return next(b for b in all_benchmarks() if b.name == name)


def _fingerprint(result):
    return {
        "verdict": result.verdict.value,
        "rounds": result.rounds,
        "proof_size": result.proof_size,
        "num_predicates": result.num_predicates,
        "states": result.states_explored,
        "counterexample": (
            [s.label for s in result.counterexample]
            if result.counterexample is not None
            else None
        ),
        "predicates": sorted(repr(p) for p in result.predicates),
    }


def _run(bench, config):
    solver = Solver()
    return verify(
        bench.build(), ThreadUniformOrder(), ConditionalCommutativity(solver),
        config=config, solver=solver,
    )


@pytest.mark.parametrize("name", ["mutex-atomic(2)", "bluetooth(2)"])
@pytest.mark.parametrize("search", ["bfs", "dfs"])
def test_warm_run_bit_identical_and_mostly_served(tmp_path, name, search):
    config = VerifierConfig(
        store_path=str(tmp_path / "s"), time_budget=60, search=search
    )
    cold = _run(_bench(name), config)
    assert cold.verdict.solved
    assert cold.query_stats.store_hits == 0  # nothing to hit yet
    assert cold.query_stats.store_writes > 0
    reset_store_registry()  # simulate a fresh process
    warm = _run(_bench(name), config)
    assert _fingerprint(warm) == _fingerprint(cold)
    assert warm.query_stats.store_hit_rate > 0.5


def test_warm_run_bit_identical_incorrect_program(tmp_path):
    config = VerifierConfig(store_path=str(tmp_path / "s"), time_budget=60)
    cold = _run(_bench("mutex-atomic(2)-bug"), config)
    assert cold.verdict == Verdict.INCORRECT
    reset_store_registry()
    warm = _run(_bench("mutex-atomic(2)-bug"), config)
    assert _fingerprint(warm) == _fingerprint(cold)
    assert warm.counterexample is not None
    assert warm.query_stats.store_hit_rate > 0.5


def test_no_store_matches_store_run(tmp_path):
    # attaching a store must not change any run-visible behavior — the
    # store is consulted only after every in-memory layer misses
    with_store = _run(
        _bench("mutex-atomic(2)"),
        VerifierConfig(store_path=str(tmp_path / "s"), time_budget=60),
    )
    without = _run(
        _bench("mutex-atomic(2)"), VerifierConfig(time_budget=60)
    )
    assert _fingerprint(with_store) == _fingerprint(without)
    assert without.query_stats.store_hits == 0
    assert without.query_stats.store_writes == 0


def test_unknowns_are_never_persisted_and_requeried_warm(tmp_path):
    # the run_cached contract, at the store boundary: a budget-dependent
    # UNKNOWN must not persist; a warm run re-queries and succeeds
    from repro.verifier.faults import FaultPlan

    store = open_store(tmp_path / "s")
    solver = Solver()
    solver.proof_store = store
    solver.fault_injector = FaultPlan.parse("unknown_at=0").injector_for("seq")
    formula = le(var("u_regress"), intc(3))
    with pytest.raises(SolverUnknown):
        solver.is_sat(formula)
    store.flush()
    assert store.stats.writes == 0
    assert len(store) == 0  # the UNKNOWN left no trace
    reset_store_registry()
    warm_store = open_store(tmp_path / "s")
    warm = Solver()
    warm.proof_store = warm_store
    assert warm.is_sat(formula) is True  # re-queried, not served stale
    assert warm_store.stats.misses >= 1
    assert warm_store.stats.writes >= 1


def test_solver_sat_verdicts_served_from_store(tmp_path):
    store = open_store(tmp_path / "s")
    solver = Solver()
    solver.proof_store = store
    formula = eq(add(var("sv1"), intc(1)), var("sv2"))
    assert solver.is_sat(formula) is True
    store.flush()
    reset_store_registry()
    fresh_store = open_store(tmp_path / "s")
    fresh = Solver()
    fresh.proof_store = fresh_store
    assert fresh.is_sat(formula) is True
    assert fresh.stats.decisions == 0  # no decision procedure run
    assert fresh_store.stats.by_kind[KIND_SAT][0] == 1


def test_hoare_triples_served_from_store(tmp_path):
    store = open_store(tmp_path / "s")
    letter = assign(0, "x", add(var("x"), intc(1)), label="inc")
    pred = le(var("x"), intc(5))

    fh = FloydHoareAutomaton([pred], Solver(), proof_store=store)
    state = fh.initial_state(le(var("x"), intc(4)))
    cold = fh.step(state, letter)
    store.flush()
    assert store.stats.by_kind[KIND_HOARE][2] > 0
    reset_store_registry()
    warm_store = open_store(tmp_path / "s")
    solver = Solver()
    fh2 = FloydHoareAutomaton([pred], solver, proof_store=warm_store)
    state2 = fh2.initial_state(le(var("x"), intc(4)))
    decisions_before_step = solver.stats.decisions
    warm = fh2.step(state2, letter)
    assert warm == cold
    assert warm_store.stats.by_kind[KIND_HOARE][0] > 0
    # every triple of the step came from disk, not the decision procedure
    assert solver.stats.decisions == decisions_before_step


def test_commutativity_served_from_store(tmp_path):
    store = open_store(tmp_path / "s")
    a = assign(0, "x", add(var("x"), intc(1)), label="a")
    b = assign(1, "x", add(var("x"), intc(2)), label="b")  # same var: not syntactic
    rel = SemanticCommutativity(Solver())
    rel.proof_store = store
    cold = rel.commute(a, b)
    assert rel.stats.solver_checks == 1
    store.flush()
    reset_store_registry()
    warm_store = open_store(tmp_path / "s")
    rel2 = SemanticCommutativity(Solver())
    rel2.proof_store = warm_store
    assert rel2.commute(a, b) is cold
    assert rel2.stats.solver_checks == 0  # verdict came from disk
    assert warm_store.stats.by_kind[KIND_COMM][0] == 1


def test_conditional_commutativity_served_from_store(tmp_path):
    store = open_store(tmp_path / "s")
    a = assign(0, "x", add(var("x"), var("y")), label="a")
    b = assign(1, "x", add(var("x"), var("z")), label="b")
    phi = eq(var("y"), var("z"))
    rel = ConditionalCommutativity(Solver())
    rel.attach_store(store)
    assert rel.proof_store is store
    cold = rel.commute_under(phi, a, b)
    checks = rel.stats.solver_checks
    assert checks >= 1
    store.flush()
    reset_store_registry()
    warm_store = open_store(tmp_path / "s")
    rel2 = ConditionalCommutativity(Solver())
    rel2.attach_store(warm_store)
    assert rel2.commute_under(phi, a, b) is cold
    assert rel2.stats.solver_checks == 0
    assert warm_store.stats.hits >= 1


@pytest.mark.parametrize(
    "version, record",
    [
        (1, {"k": "explore", "key": "ab" * 16,
             "v": {"verdict": "correct", "rounds": 1, "exploration": {}}}),
        (2, {"k": "outcome", "key": "cd" * 16,
             "v": {"order": "seq", "verdict": "correct", "time_s": 0.1}}),
    ],
    ids=["1-explore", "2-outcome"],
)
def test_old_format_store_opens_cold(tmp_path, caplog, version, record):
    """A store written before a record kind was dropped.

    Format 1 stores may hold ``explore`` records and format 2 stores
    ``outcome`` rows, kinds this loader no longer knows.  The format
    bump routes them through the version-skew cold start: one warning,
    no records read, the same verdict.
    """
    assert FORMAT_VERSION == 3
    path = tmp_path / "s"
    path.mkdir()
    (path / MANIFEST_NAME).write_text(
        json.dumps({"format": version, "max_records": 500_000}) + "\n"
    )
    (path / "segment-0001.log").write_text(_frame(json.dumps(record)))
    bench = _bench("mutex-atomic(2)")
    plain = _run(bench, VerifierConfig(time_budget=60))
    with caplog.at_level("WARNING", logger="repro.store"):
        old = _run(bench, VerifierConfig(store_path=str(path), time_budget=60))
    warnings = [r for r in caplog.records if r.name == "repro.store"]
    assert len(warnings) == 1
    assert f"format version {version}" in warnings[0].getMessage()
    assert _fingerprint(old) == _fingerprint(plain)
    assert old.query_stats.store_hits == 0
    assert old.query_stats.store_writes == 0  # foreign data untouched
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["format"] == version


def test_portfolio_with_store(tmp_path):
    config = VerifierConfig(store_path=str(tmp_path / "s"), time_budget=60)
    bench = _bench("mutex-atomic(2)")
    cold = verify_portfolio(bench.build(), config=config).aggregate()
    assert cold.verdict.solved
    reset_store_registry()
    warm = verify_portfolio(bench.build(), config=config).aggregate()
    assert warm.verdict == cold.verdict
    assert warm.rounds == cold.rounds
    assert warm.proof_size == cold.proof_size
    assert warm.query_stats.store_hits > 0
    # the race records no observations of its own: every stored record
    # is a deterministic fact
    stored = {
        json.loads(line.partition(":")[2])["k"]
        for segment in (tmp_path / "s").glob("segment-*.log")
        for line in segment.read_text().splitlines()
    }
    assert stored and stored <= {
        KIND_SAT, KIND_HOARE, KIND_COMM, KIND_COMM_COND, KIND_SHAPE
    }


def test_store_counters_flow_through_reports(tmp_path):
    from repro.verifier.reporting import results_to_csv, results_to_json

    config = VerifierConfig(store_path=str(tmp_path / "s"), time_budget=60)
    result = _run(_bench("mutex-atomic(2)"), config)
    qs = result.query_stats
    assert qs.store_writes > 0
    assert "proof store:" in qs.summary()
    assert "store_hit_rate" in qs.as_dict()
    csv_text = results_to_csv([result])
    assert "store_hits" in csv_text.splitlines()[0]
    assert "store_hit_rate" in results_to_json([result])


def test_cli_proof_store_flags(tmp_path):
    from repro.cli import main

    program = tmp_path / "p.cprog"
    program.write_text(
        "var x: int = 0;\n"
        "thread A { x := x + 1; }\n"
        "post: x >= 1;\n"
    )
    store_dir = tmp_path / "cli-store"
    rc = main(
        ["verify", str(program), "--proof-store", str(store_dir),
         "--show-cache-stats"]
    )
    assert rc == 0
    assert store_dir.is_dir()
    reset_store_registry()
    assert ProofStore(store_dir).counters()["store_entries"] > 0
    # --no-proof-store wins over both the flag and the env knob
    reset_store_registry()
    os.environ["REPRO_PROOF_STORE"] = str(tmp_path / "env-store")
    try:
        rc = main(["verify", str(program), "--no-proof-store"])
        assert rc == 0
        assert not (tmp_path / "env-store").exists()
        # and without the override, the env knob populates its store
        rc = main(["verify", str(program)])
        assert rc == 0
        assert (tmp_path / "env-store").is_dir()
    finally:
        del os.environ["REPRO_PROOF_STORE"]


def test_harness_config_reads_env_knob(tmp_path, monkeypatch):
    from repro import harness

    monkeypatch.delenv("REPRO_PROOF_STORE", raising=False)
    assert harness._config().store_path is None
    monkeypatch.setenv("REPRO_PROOF_STORE", str(tmp_path / "h"))
    assert harness._config().store_path == str(tmp_path / "h")
    summary = harness.cache_summary([])
    assert summary["store_hits"] == 0
    assert summary["store_hit_rate"] == 0.0


def test_two_phase_cold_then_warm_subprocess(tmp_path):
    # the CI smoke, as a test: phase 1 populates the store in one
    # process, phase 2 in another must hit it and agree on the verdict
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_PROOF_STORE"] = str(tmp_path / "s")
    script = (
        "from repro.benchmarks import all_benchmarks\n"
        "from repro.core import ConditionalCommutativity\n"
        "from repro.core.preference import ThreadUniformOrder\n"
        "from repro.logic import Solver\n"
        "from repro.verifier import VerifierConfig, verify\n"
        "import os\n"
        "bench = next(b for b in all_benchmarks() if b.name == 'mutex-atomic(3)')\n"
        "solver = Solver()\n"
        "config = VerifierConfig(store_path=os.environ['REPRO_PROOF_STORE'],\n"
        "                        time_budget=60)\n"
        "r = verify(bench.build(), ThreadUniformOrder(),\n"
        "           ConditionalCommutativity(solver), config=config,\n"
        "           solver=solver)\n"
        "qs = r.query_stats\n"
        "print(r.verdict.value, r.rounds, r.proof_size, qs.store_hits)\n"
    )
    cold = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    warm = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    assert cold[:3] == warm[:3]  # verdict, rounds, proof size identical
    assert int(cold[3]) == 0
    assert int(warm[3]) > 0
