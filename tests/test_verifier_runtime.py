"""Parallel portfolio runtime tests: crash containment, watchdog
deadlines, first-winner cancellation, escalating retries, degradation,
and parallel/sequential verdict agreement."""

from __future__ import annotations

import pytest

from repro import VerifierConfig, parse
from repro.benchmarks import mutex
from repro.lang import assign
from repro.logic import Solver, add, intc, var
from repro.verifier import (
    DegradingCommutativity,
    FaultPlan,
    RetryPolicy,
    Verdict,
    plan_portfolio,
    run_parallel_portfolio,
    standard_orders,
    verify_portfolio,
)
from repro.verifier.faults import FaultInjector, MemberFaultPlan

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


class TestRetryPolicy:
    def test_scale_escalates(self):
        policy = RetryPolicy(max_attempts=3, budget_scale=2.0)
        assert policy.scale(1) == 1.0
        assert policy.scale(2) == 2.0
        assert policy.scale(3) == 4.0

    def test_backoff_deterministic_and_jittered(self):
        policy = RetryPolicy(backoff_seconds=0.1, jitter=0.5, seed=4)
        assert policy.backoff("seq", 1) == policy.backoff("seq", 1)
        assert policy.backoff("seq", 1) != policy.backoff("lockstep", 1)
        assert 0.1 <= policy.backoff("seq", 1) <= 0.15

    def test_wants_retry_bounded(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.wants_retry(Verdict.UNKNOWN, 1)
        assert policy.wants_retry(Verdict.ERROR, 1)
        assert not policy.wants_retry(Verdict.UNKNOWN, 2)
        assert not policy.wants_retry(Verdict.CORRECT, 1)


class TestRetryPolicyDeterminism:
    def test_same_seed_same_schedule(self):
        a = RetryPolicy(max_attempts=5, seed=11, jitter=0.5)
        b = RetryPolicy(max_attempts=5, seed=11, jitter=0.5)
        assert a.schedule("seq") == b.schedule("seq")
        assert a.schedule("j000042") == b.schedule("j000042")

    def test_different_seed_different_schedule(self):
        a = RetryPolicy(max_attempts=4, seed=1)
        b = RetryPolicy(max_attempts=4, seed=2)
        assert a.schedule("seq") != b.schedule("seq")

    def test_different_member_different_jitter(self):
        policy = RetryPolicy(max_attempts=4, seed=7)
        assert policy.schedule("seq") != policy.schedule("lockstep")

    def test_schedule_replays_backoff_exactly(self):
        policy = RetryPolicy(max_attempts=6, seed=3)
        preview = policy.schedule("m")
        assert preview == [policy.backoff("m", n) for n in range(1, 7)]
        # calling backoff out of order must not perturb the schedule
        policy.backoff("m", 3)
        policy.backoff("m", 1)
        assert policy.schedule("m") == preview

    def test_backoff_monotone_base_escalation(self):
        # jitter is bounded by 50%, escalation doubles: with jitter off
        # the schedule is strictly increasing, and each jittered delay
        # stays within [base, base * (1 + jitter)]
        plain = RetryPolicy(max_attempts=6, jitter=0.0, backoff_seconds=0.05)
        schedule = plain.schedule("m")
        assert schedule == sorted(schedule)
        assert all(b > a for a, b in zip(schedule, schedule[1:]))
        jittered = RetryPolicy(
            max_attempts=6, jitter=0.5, backoff_seconds=0.05, seed=9
        )
        for attempt, delay in enumerate(jittered.schedule("m"), start=1):
            base = 0.05 * jittered.scale(attempt)
            assert base <= delay <= base * 1.5

    def test_budget_scale_monotone(self):
        policy = RetryPolicy(max_attempts=5, budget_scale=2.0)
        scales = [policy.scale(n) for n in range(1, 6)]
        assert scales == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_wants_retry_only_on_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.wants_retry(Verdict.ERROR, 1)
        assert policy.wants_retry(Verdict.TIMEOUT, 2)
        assert not policy.wants_retry(Verdict.ERROR, 3)
        assert not policy.wants_retry(Verdict.CORRECT, 1)
        assert not policy.wants_retry(Verdict.INCORRECT, 1)


class TestDegradingCommutativity:
    def _statements(self):
        # same shared variable, different threads: the syntactic check
        # fails and every question needs the solver
        return (
            assign(0, "x", add(var("x"), intc(1))),
            assign(1, "x", add(var("x"), intc(2))),
        )

    def test_degrades_after_threshold(self):
        solver = Solver(enable_cache=False)
        solver.fault_injector = FaultInjector(
            MemberFaultPlan(member="t", seed=1, p_unknown=1.0)
        )
        relation = DegradingCommutativity(solver, degrade_after=3)
        a, b = self._statements()
        for _ in range(3):
            assert relation.commute(a, b) is False  # unknown fallback
        assert relation.degraded
        assert relation.degraded_after_queries == 3
        queries_before = solver.stats.sat_queries
        assert relation.commute(a, b) is False  # syntactic only now
        assert relation.commute_under(var("x") == intc(0), a, b) is False
        assert solver.stats.sat_queries == queries_before

    def test_healthy_relation_never_degrades(self):
        solver = Solver()
        relation = DegradingCommutativity(solver, degrade_after=3)
        a, b = self._statements()
        for _ in range(10):
            relation.commute(a, b)
        assert not relation.degraded

    def test_degraded_flag_lands_on_result(self):
        # seed 3 deterministically lands two injected unknowns on the
        # seq member's commutativity queries before anything else aborts
        # the round, tripping the degradation threshold
        plan = FaultPlan.parse("seed=3;p_unknown=0.3")
        outcome = run_parallel_portfolio(
            simple(),
            config(),
            seeds=(1,),
            fault_plan=plan,
            degrade_after=2,
        )
        assert by_order(outcome)["seq"].degraded

    def test_healthy_members_not_flagged_degraded(self):
        outcome = run_parallel_portfolio(simple(), config(), seeds=(1,))
        assert not any(m.degraded for m in outcome.members)


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
        """One member crashes, one hangs past the watchdog, one is slow
        but healthy: the portfolio still answers CORRECT, the failures
        are recorded with reasons, retries escalate deterministically."""
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
            member_timeout=0.5,
            retry=RetryPolicy(max_attempts=2, seed=11),
            fault_plan=plan,
        )
        members = by_order(outcome)
        assert outcome.verdict == Verdict.CORRECT
        # the healthy-but-slow member needed the escalated second
        # attempt (0.7s sleep > 0.5s watchdog, < 1.0s escalated)
        winner = members["rand(1)"]
        assert winner.verdict == Verdict.CORRECT
        assert winner.attempts == 2 and winner.respawns == 1
        # the crasher was respawned and crashed again
        assert members["seq"].verdict == Verdict.ERROR
        assert members["seq"].attempts == 2
        # the hanger was SIGKILLed by the watchdog
        assert members["lockstep"].verdict == Verdict.TIMEOUT
        assert "watchdog" in members["lockstep"].failure_reason

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
        assert outcome.winner.attempts == 1
        assert sorted(spawned) == sorted(
            f"portfolio-incr2-{name}-a1"
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


class TestStrategyAgreement:
    """With faults disabled the two strategies are the same algorithm on
    the same members — verdicts must agree on the corpus."""

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
        seq_members = {m.order_name: m for m in sequential.members}
        for member in parallel.members:
            if member.failure_reason and "cancelled" in member.failure_reason:
                continue  # cancelled members never got to finish
            other = seq_members[member.order_name]
            if other.failure_reason and "cancelled" in other.failure_reason:
                continue  # triage cancelled it in the sequential run
            assert member.verdict == other.verdict
