"""Portfolio internals tests."""

from repro import parse
from repro.verifier import (
    DEFAULT_RANDOM_SEEDS,
    PortfolioResult,
    Verdict,
    VerificationResult,
    standard_orders,
    verify_portfolio,
)


def program():
    return parse(
        "var x: int = 0; thread A { x := 1; } thread B { x := 2; }",
        name="p",
    )


def result(verdict, time_s, order="seq"):
    return VerificationResult(
        program_name="p",
        verdict=verdict,
        time_seconds=time_s,
        rounds=1,
        order_name=order,
    )


class TestStandardOrders:
    def test_five_members(self):
        orders = standard_orders(program())
        assert len(orders) == 2 + len(DEFAULT_RANDOM_SEEDS)
        names = [o.name for o in orders]
        assert names[0] == "seq"
        assert names[1] == "lockstep"
        assert names[2].startswith("rand(")

    def test_custom_seeds(self):
        orders = standard_orders(program(), seeds=(7,))
        assert [o.name for o in orders] == ["seq", "lockstep", "rand(7)"]


class TestPortfolioResult:
    def test_winner_is_fastest_solver(self):
        pr = PortfolioResult("p")
        pr.members = [
            result(Verdict.TIMEOUT, 0.1),
            result(Verdict.CORRECT, 2.0, "lockstep"),
            result(Verdict.CORRECT, 1.0, "rand(1)"),
        ]
        assert pr.winner.order_name == "rand(1)"
        assert pr.verdict == Verdict.CORRECT
        agg = pr.aggregate()
        assert agg.order_name == "portfolio[rand(1)]"
        assert agg.time_seconds == 1.0

    def test_no_winner(self):
        pr = PortfolioResult("p")
        pr.members = [result(Verdict.TIMEOUT, 3.0), result(Verdict.UNKNOWN, 1.0)]
        assert pr.winner is None
        assert not pr.solved
        agg = pr.aggregate()
        assert agg.verdict == Verdict.UNKNOWN
        # reflects the parallel portfolio running to the slowest member
        assert agg.time_seconds == 3.0

    def test_incorrect_wins(self):
        pr = PortfolioResult("p")
        pr.members = [
            result(Verdict.INCORRECT, 0.5),
            result(Verdict.CORRECT, 0.1),
        ]
        # fastest solving member decides; CORRECT at 0.1 wins the race
        assert pr.verdict == Verdict.CORRECT

    def test_empty_members(self):
        pr = PortfolioResult("p")
        assert pr.winner is None
        assert pr.aggregate().verdict == Verdict.UNKNOWN


class TestAggregateFailurePath:
    """The no-winner aggregate must say how many members ran, what each
    answered, and how long the portfolio spent overall."""

    def test_empty_portfolio_reports_zero_members(self):
        pr = PortfolioResult("p")
        agg = pr.aggregate()
        assert agg.verdict == Verdict.UNKNOWN
        assert agg.failure_reason == "empty portfolio (0 members)"
        assert agg.time_seconds == 0.0

    def test_all_unknown_reports_count_and_elapsed(self):
        pr = PortfolioResult("p")
        pr.members = [
            result(Verdict.UNKNOWN, 1.0, "seq"),
            result(Verdict.UNKNOWN, 2.5, "lockstep"),
            result(Verdict.TIMEOUT, 4.0, "rand(1)"),
        ]
        agg = pr.aggregate()
        assert agg.verdict == Verdict.UNKNOWN
        assert "3 members" in agg.failure_reason
        assert "seq=unknown" in agg.failure_reason
        assert "rand(1)=timeout" in agg.failure_reason
        # parallel semantics: the portfolio gives up with its last member
        assert agg.time_seconds == 4.0

    def test_measured_wall_clock_preferred(self):
        pr = PortfolioResult("p", strategy="parallel", wall_seconds=7.25)
        pr.members = [result(Verdict.UNKNOWN, 1.0, "seq")]
        assert pr.elapsed_seconds() == 7.25
        assert pr.aggregate().time_seconds == 7.25


class TestTriageCounterFold:
    COUNTER = (
        "var x: int = 0; thread A { x := x + 1; } thread B { x := x + 1; }"
        " post: x == 2;"
    )

    def test_aggregate_leaves_winner_stats_alone(self):
        outcome = verify_portfolio(parse(self.COUNTER, name="counter"))
        assert outcome.triage_counters
        winner = outcome.winner
        first = outcome.aggregate().query_stats
        second = outcome.aggregate().query_stats
        assert first is not winner.query_stats
        assert first == second
        assert first.triage_ladder_stages >= 1
        for name in (
            "triage_ranker_hits",
            "triage_ladder_stages",
            "triage_preemptions",
            "triage_budget_saved_seconds",
        ):
            assert getattr(winner.query_stats, name) == 0
            assert getattr(first, name) == outcome.triage_counters[
                name[len("triage_"):]
            ]
