"""Portfolio triage tests: feature extraction, ranking determinism,
the staged budget ladder, the emulated staged wall clock (regression
for the pre-triage max-over-members bug), and the sequential race's
completed members against direct ``verify()`` runs of their orders."""

from __future__ import annotations

import pytest

from repro import VerifierConfig
from repro.benchmarks.bluetooth import bluetooth
from repro.benchmarks.mutex import dekker
from repro.core import ConditionalCommutativity
from repro.logic import Solver
from repro.verifier import (
    ProgramFeatures,
    emulate_staged_wall,
    extract_features,
    ladder_stages,
    plan_portfolio,
    rank_members,
    standard_orders,
    verify,
    verify_portfolio,
)
from repro.verifier.triage import order_kind


def config(**kw):
    base = dict(max_rounds=40)
    base.update(kw)
    return VerifierConfig(**base)


def cancelled(member):
    return member.failure_reason and "cancelled" in member.failure_reason


class TestFeatures:
    def test_deterministic(self):
        program = dekker()
        orders = standard_orders(program)
        f1 = extract_features(program, orders)
        f2 = extract_features(program, orders)
        assert f1 == f2

    def test_ranges(self):
        program = dekker()
        features = extract_features(program, standard_orders(program))
        assert 0.0 <= features.conflict_density <= 1.0
        assert 0.0 <= features.guard_density <= 1.0
        assert features.num_threads == len(program.threads)
        assert features.alphabet_size == len(program.alphabet())

    def test_dispersion_zero_for_thread_blocked_orders(self):
        program = dekker()
        features = extract_features(program, standard_orders(program))
        assert features.dispersion["seq"] == 0.0
        assert features.dispersion["lockstep"] == 0.0
        # random orders shuffle uid-adjacent ranks
        assert any(
            v > 0.0 for k, v in features.dispersion.items()
            if k.startswith("rand")
        )


class TestRanking:
    def test_plan_deterministic(self):
        program = bluetooth(2)
        orders = standard_orders(program)
        p1 = plan_portfolio(program, orders, time_budget=8.0)
        p2 = plan_portfolio(program, orders, time_budget=8.0)
        assert p1.order_names() == p2.order_names()
        assert [m.score for m in p1.ranked] == [m.score for m in p2.ranked]
        assert p1.stage_budgets == p2.stage_budgets

    def test_rank_is_total_over_members(self):
        program = dekker()
        orders = standard_orders(program)
        plan = plan_portfolio(program, orders)
        assert sorted(plan.order_names()) == sorted(o.name for o in orders)

    def test_ties_keep_canonical_member_order(self):
        program = dekker()
        orders = standard_orders(program)
        # no dispersion: the three random members score exactly alike
        features = ProgramFeatures(
            num_threads=2, alphabet_size=4,
            conflict_density=0.5, guard_density=0.5,
        )
        ranked = [m.order_name for m in rank_members(features, orders)]
        rand = [o.name for o in orders if order_kind(o.name) == "rand"]
        assert [n for n in ranked if n in rand] == rand

    def test_kind_and_family_helpers(self):
        assert order_kind("seq") == "seq"
        assert order_kind("lockstep") == "lockstep"
        assert order_kind("rand(3)") == "rand"


class TestLadder:
    def test_no_budget_single_unbounded_rung(self):
        assert ladder_stages(None) == [None]

    def test_final_rung_is_full_budget(self):
        stages = ladder_stages(8.0)
        assert stages == [2.0, 8.0]
        assert stages[-1] == 8.0

    def test_slices_monotone(self):
        stages = ladder_stages(10.0)
        assert all(a < b for a, b in zip(stages, stages[1:]))


class TestStagedWall:
    """Regression: the sequential emulation's wall clock must model
    the staged schedule, not plain max-over-members (a ladder member's
    clock includes the slices burned before its final run)."""

    def test_winner_in_first_stage(self):
        assert emulate_staged_wall([[1.5, 2.0]], winner=(0, 0.5)) == 0.5

    def test_winner_in_second_stage_pays_first_slice(self):
        # rung 0 barrier: slowest slice (2.0) gates rung 1; the rung-1
        # winner at t=0.5 lands at 2.5 — NOT max(member times) = 3.0
        wall = emulate_staged_wall([[1.0, 2.0], [3.0, 0.5]], winner=(1, 0.5))
        assert wall == 2.5

    def test_no_winner_sums_stage_maxima(self):
        assert emulate_staged_wall([[1.0, 2.0], [3.0, 0.5]]) == 5.0

    def test_empty_stages(self):
        assert emulate_staged_wall([]) == 0.0
        assert emulate_staged_wall([[]]) == 0.0


class TestDifferential:
    """Triage must never change a verdict — only who runs when."""

    @pytest.mark.parametrize("builder", [dekker, lambda: bluetooth(2)])
    def test_sequential_verdicts_identical(self, builder):
        # the reference is a direct verify() of each order under the
        # full config: a fresh solver and conditional commutativity
        program = builder()
        full = config(time_budget=30.0)
        triaged = verify_portfolio(program, full)
        orders = {order.name: order for order in standard_orders(program)}
        completed = [m for m in triaged.members if not cancelled(m)]
        assert triaged.winner in completed
        for member in completed:
            solver = Solver()
            other = verify(
                program, orders[member.order_name],
                ConditionalCommutativity(solver), config=full, solver=solver,
            )
            assert member.verdict == other.verdict
            assert member.rounds == other.rounds
            assert member.proof_size == other.proof_size
            assert member.states_explored == other.states_explored

    def test_sequential_emulated_wall_is_staged(self):
        outcome = verify_portfolio(dekker(), config(time_budget=30.0))
        assert outcome.emulated_wall_seconds is not None
        agg = outcome.aggregate()
        if outcome.solved:
            assert agg.time_seconds == outcome.emulated_wall_seconds

    def test_triage_counters_surface(self):
        outcome = verify_portfolio(dekker(), config(time_budget=30.0))
        agg = outcome.aggregate()
        qs = agg.query_stats
        assert qs is not None
        assert qs.triage_ladder_stages >= 1
        assert qs.triage_budget_saved_seconds >= 0.0
        assert "triage:" in qs.summary()
