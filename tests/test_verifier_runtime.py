"""Parallel portfolio runtime tests: crash containment, watchdog
deadlines, first-winner cancellation, and members identical to a direct
``verify()`` of their order in both races."""

from __future__ import annotations

import pytest

from helpers import fingerprint
from repro import VerifierConfig, parse, verify
from repro.benchmarks import mutex, svcomp
from repro.core.commutativity import ConditionalCommutativity
from repro.logic import Solver
from repro.verifier import (
    FaultPlan,
    Verdict,
    plan_portfolio,
    run_parallel_portfolio,
    standard_orders,
    verify_portfolio,
)

SIMPLE = "var x: int = 0; thread A { x := x + 1; } thread B { x := x + 1; } post: x == 2;"
BUGGY = "var x: int = 0; thread A { x := 1; } thread B { assert x == 0; }"


def simple():
    return parse(SIMPLE, name="incr2")


def config(**kw):
    base = dict(max_rounds=20)
    base.update(kw)
    return VerifierConfig(**base)


def by_order(outcome):
    return {m.order_name: m for m in outcome.members}


class TestParallelRuntime:
    def test_healthy_run_solves(self):
        outcome = run_parallel_portfolio(simple(), config(), member_timeout=30.0)
        assert outcome.verdict == Verdict.CORRECT
        assert outcome.strategy == "parallel"
        assert outcome.wall_seconds is not None and outcome.wall_seconds > 0
        assert len(outcome.members) == 5  # every slot filled
        winner = outcome.winner
        assert winner is not None and winner.failure_reason is None

    def test_buggy_program_found_incorrect(self):
        outcome = run_parallel_portfolio(
            parse(BUGGY, name="buggy"), config(), seeds=(1,)
        )
        assert outcome.verdict == Verdict.INCORRECT
        assert outcome.winner.counterexample is not None

    def test_crash_contained(self):
        # the others sleep a second at their first query, so seq
        # reaches its crash before any winner exists
        plan = FaultPlan.parse(
            "seed=3;seq:crash_at=0;"
            "lockstep:hang_at=0;lockstep:hang_s=1;"
            "rand(1):hang_at=0;rand(1):hang_s=1"
        )
        outcome = run_parallel_portfolio(
            simple(), config(), seeds=(1,), fault_plan=plan
        )
        assert outcome.verdict == Verdict.CORRECT
        seq = by_order(outcome)["seq"]
        assert seq.verdict == Verdict.ERROR
        assert "injected crash" in seq.failure_reason

    def test_memory_pressure_degrades_gracefully(self):
        # MemoryError during a check round is absorbed by the verifier
        # itself (refinement catches it and answers UNKNOWN); the worker's
        # BaseException containment is the backstop for anywhere else
        plan = FaultPlan.parse("seed=3;seq:oom_at=0")
        outcome = run_parallel_portfolio(
            simple(), config(), seeds=(1,), fault_plan=plan
        )
        assert outcome.verdict == Verdict.CORRECT
        assert by_order(outcome)["seq"].verdict == Verdict.UNKNOWN

    #: seq hard-exits at its first query while the other members sleep
    #: a second at theirs, so seq has died before any winner exists
    HARD_EXIT = (
        "seed=3;seq:exit_at=0;"
        "lockstep:hang_at=0;lockstep:hang_s=1;"
        "rand(1):hang_at=0;rand(1):hang_s=1"
    )

    def test_hard_exit_contained(self):
        # os._exit skips the worker's own containment; the parent must
        # notice the silent death and synthesize the ERROR itself
        plan = FaultPlan.parse(self.HARD_EXIT)
        outcome = run_parallel_portfolio(
            simple(), config(), seeds=(1,), fault_plan=plan
        )
        assert outcome.verdict == Verdict.CORRECT
        seq = by_order(outcome)["seq"]
        assert seq.verdict == Verdict.ERROR
        assert "exit code 86" in seq.failure_reason

    def test_death_seen_at_cancel_is_an_error(self, monkeypatch):
        # the wait hook hides seq's dead worker, so its death is first
        # seen when the winner's result is in and the losers are
        # cancelled: that is still a crash, reported with its exit code,
        # not a preemption
        from repro.verifier import pool

        real_wait = pool.wait

        def wait(workers):
            ready = real_wait(workers)
            if len(workers) == 1:
                return ready
            # workers follow member order: seq's comes first
            return [w for w in ready if w is not workers[0]]

        monkeypatch.setattr(pool, "wait", wait)
        plan = FaultPlan.parse(self.HARD_EXIT)
        outcome = run_parallel_portfolio(
            simple(), config(), seeds=(1,), fault_plan=plan
        )
        assert outcome.verdict == Verdict.CORRECT
        seq = by_order(outcome)["seq"]
        assert seq.verdict == Verdict.ERROR
        assert "exit code 86" in seq.failure_reason
        assert "cancelled" not in seq.failure_reason

    def test_acceptance_scenario(self):
        """One member crashes, one hangs, one is slow but healthy: the
        portfolio still answers CORRECT, the failures are recorded with
        reasons, and the hanger is killed when the winner is in."""
        plan = FaultPlan.parse(
            "seed=3;"
            "seq:crash_at=0;"
            "lockstep:hang_at=0;lockstep:hang_s=60;"
            "rand(1):hang_at=0;rand(1):hang_s=0.7"
        )
        outcome = run_parallel_portfolio(
            simple(),
            config(),
            seeds=(1,),
            member_timeout=30.0,
            fault_plan=plan,
        )
        members = by_order(outcome)
        assert outcome.verdict == Verdict.CORRECT
        assert members["rand(1)"].verdict == Verdict.CORRECT
        assert members["seq"].verdict == Verdict.ERROR
        assert "injected crash" in members["seq"].failure_reason
        assert members["lockstep"].verdict == Verdict.UNKNOWN
        assert members["lockstep"].failure_reason == (
            "cancelled (portfolio winner: rand(1))"
        )
        # the 60s hang did not hold the race up
        assert outcome.wall_seconds < 30.0

    def test_each_member_spawns_once(self, monkeypatch):
        # the plain race: every member runs once at its full budget.  A
        # winner that sleeps a second at its first query is never cut
        # off early by a budget slice and started again cold.
        from repro.verifier import pool

        spawned = []
        real_worker = pool.Worker

        def counting_worker(*args, **kwargs):
            spawned.append(kwargs["name"])
            return real_worker(*args, **kwargs)

        monkeypatch.setattr(pool, "Worker", counting_worker)
        plan = FaultPlan.parse(
            "seed=3;seq:hang_at=0;seq:hang_s=1;"
            "lockstep:crash_at=0;rand(1):crash_at=0"
        )
        outcome = run_parallel_portfolio(
            simple(), config(), seeds=(1,), member_timeout=2.0,
            fault_plan=plan,
        )
        assert outcome.winner.order_name == "seq"
        assert sorted(spawned) == sorted(
            f"portfolio-incr2-{name}"
            for name in ("seq", "lockstep", "rand(1)")
        )

    def test_all_members_fail_aggregates_honestly(self):
        plan = FaultPlan.parse("seed=5;crash_at=0")
        outcome = run_parallel_portfolio(
            simple(), config(), seeds=(1,), fault_plan=plan
        )
        assert not outcome.solved
        assert all(m.verdict == Verdict.ERROR for m in outcome.members)
        agg = outcome.aggregate()
        assert agg.verdict == Verdict.UNKNOWN
        assert "no member solved (3 members" in agg.failure_reason

    def test_deterministic_fault_outcomes_across_runs(self):
        # the winner sleeps a second at its first query, so both faults
        # have fired before it can win
        plan = FaultPlan.parse(
            "seed=3;seq:crash_at=0;lockstep:oom_at=0;"
            "rand(1):hang_at=0;rand(1):hang_s=1"
        )
        verdicts = []
        for _ in range(2):
            outcome = run_parallel_portfolio(
                simple(), config(), seeds=(1,), fault_plan=plan
            )
            verdicts.append(
                tuple(sorted((m.order_name, m.verdict.value)
                             for m in outcome.members
                             if m.verdict in (Verdict.ERROR, Verdict.CORRECT)))
            )
        assert verdicts[0] == verdicts[1]


class TestSequentialContainment:
    def test_sequential_member_crash_contained(self):
        # the crash goes into the ranker's first pick, which runs
        # before any winner can cancel it
        program = simple()
        first = plan_portfolio(
            program, standard_orders(program, (1,))
        ).ranked[0].order_name
        plan = FaultPlan.parse(f"seed=3;{first}:crash_at=0")
        outcome = verify_portfolio(
            program, config(), seeds=(1,), fault_plan=plan
        )
        assert outcome.strategy == "sequential"
        members = by_order(outcome)
        assert members[first].verdict == Verdict.ERROR
        assert "InjectedCrash" in members[first].failure_reason
        assert outcome.verdict == Verdict.CORRECT  # the rest survived

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            verify_portfolio(simple(), strategy="quantum")


def finished(member):
    """Whether a portfolio member ran to its own end (not cancelled)."""
    return "cancelled" not in (member.failure_reason or "")


def direct_verify(program, order, fault_plan=None):
    """A plain ``verify()`` of *order*, built here by hand."""
    solver = Solver()
    if fault_plan is not None:
        solver.fault_injector = fault_plan.injector_for(order.name)
    return verify(
        program, order, ConditionalCommutativity(solver),
        config=config(), solver=solver,
    )


class TestStrategyAgreement:
    """Both races build a member the same way: every member that
    finished, in either race, is a direct ``verify()`` of its order."""

    @pytest.mark.parametrize(
        "program",
        [
            parse(SIMPLE, name="incr2"),
            parse(BUGGY, name="buggy"),
            mutex.double_observer(),
            mutex.double_observer(correct=False),
        ],
        ids=lambda p: p.name,
    )
    def test_verdicts_agree(self, program):
        sequential = verify_portfolio(program, config(), seeds=(1,))
        parallel = verify_portfolio(
            program, config(), seeds=(1,), strategy="parallel"
        )
        assert sequential.verdict == parallel.verdict
        orders = {o.name: o for o in standard_orders(program, (1,))}
        compared = 0
        for race in (sequential, parallel):
            for member in filter(finished, race.members):
                direct = direct_verify(program, orders[member.order_name])
                assert fingerprint(member) == fingerprint(direct)
                compared += 1
        assert compared >= 2  # each race's winner at least

    def test_faulted_member_same_in_both_races(self):
        # Under this plan seq's first 26 conditional-commutativity
        # queries give up (every other sat query is answered), so a
        # member that stopped asking the solver after 25 give-ups would
        # explore another reduction.  The other members crash, so seq
        # finishes in both races.
        program = svcomp.mutex_atomic(3)
        plan = FaultPlan.parse(
            "seed=0;seq:unknown_at="
            "2|4|5|12|13|16|28|32|33|62|63|67|68|76|77|78|90|91|92|93|"
            "103|104|105|106|116|117;"
            "lockstep:crash_at=0;rand(1):crash_at=0"
        )
        direct = direct_verify(
            program, standard_orders(program, (1,))[0], plan
        )
        assert direct.query_stats.comm_unknown_fallbacks == 26
        for strategy in ("sequential", "parallel"):
            outcome = verify_portfolio(
                program, config(), seeds=(1,), strategy=strategy,
                fault_plan=plan,
            )
            seq = by_order(outcome)["seq"]
            assert fingerprint(seq) == fingerprint(direct), strategy
