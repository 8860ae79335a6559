"""End-to-end verification tests across modes, orders, and specs.

Cross-validated against the concrete interpreter: on every small
program, the verifier's verdict must agree with bounded concrete
exploration.
"""

import pytest

from repro import (
    Verdict,
    VerifierConfig,
    parse,
    verify,
    verify_portfolio,
)
from repro.core import (
    LockstepOrder,
    RandomOrder,
    SyntacticCommutativity,
    ThreadUniformOrder,
)
from repro.lang import explore_concrete


CORRECT_PROGRAMS = {
    "two-increments": """
        var x: int = 0;
        thread A { x := x + 1; }
        thread B { x := x + 1; }
        post: x == 2;
    """,
    "mutex-via-atomic": """
        var lock: bool = false;
        var critical: int = 0;
        thread T[2] {
            atomic { assume !lock; lock := true; }
            critical := critical + 1;
            assert critical == 1;
            critical := critical - 1;
            lock := false;
        }
    """,
    "producer-consumer-flag": """
        var data: int = 0;
        var ready: bool = false;
        thread Producer { data := 42; ready := true; }
        thread Consumer { assume ready; assert data == 42; }
    """,
    "independent-loops": """
        var x: int = 0;
        var y: int = 0;
        thread A { while (*) { x := x + 1; } }
        thread B { while (*) { y := y + 1; } }
        post: x >= 0 && y >= 0;
        pre: x == 0 && y == 0;
    """,
    "barrier-handshake": """
        var phase: int = 0;
        thread A { assume phase == 0; phase := 1; assume phase == 2; assert phase == 2; }
        thread B { assume phase == 1; phase := 2; }
    """,
}

INCORRECT_PROGRAMS = {
    "lost-update": """
        var x: int = 0;
        thread A { assume x == 0; x := x + 1; assert x == 1; }
        thread B { x := x + 5; }
    """,
    "race-on-flag": """
        var done: bool = false;
        var x: int = 0;
        thread A { x := 1; done := true; }
        thread B { assume done; assert x == 2; }
    """,
    "post-violated": """
        var x: int = 0;
        thread A { x := x + 1; }
        thread B { x := 1; }
        post: x == 2;
    """,
    "assert-false-reachable": """
        var turn: int = 0;
        thread A { assume turn == 0; turn := 1; }
        thread B { assume turn == 1; assert turn == 0; }
    """,
}


# programs whose concrete state space is unbounded (counters grow forever)
_UNBOUNDED = {"independent-loops"}


@pytest.mark.parametrize("name", sorted(CORRECT_PROGRAMS))
def test_correct_programs(name):
    program = parse(CORRECT_PROGRAMS[name], name=name)
    result = verify(program, config=VerifierConfig(max_rounds=30))
    assert result.verdict == Verdict.CORRECT, result.summary()
    assert result.proof_size > 0
    if name not in _UNBOUNDED:
        # cross-check with concrete exploration
        concrete = explore_concrete(program, max_states=20_000)
        assert not concrete.found_violation


@pytest.mark.parametrize("name", sorted(INCORRECT_PROGRAMS))
def test_incorrect_programs(name):
    program = parse(INCORRECT_PROGRAMS[name], name=name)
    result = verify(program, config=VerifierConfig(max_rounds=30))
    assert result.verdict == Verdict.INCORRECT, result.summary()
    assert result.counterexample is not None


@pytest.mark.parametrize("mode", ["combined", "sleep", "persistent", "none"])
@pytest.mark.parametrize("name", ["two-increments", "mutex-via-atomic"])
def test_modes_agree_correct(mode, name):
    program = parse(CORRECT_PROGRAMS[name], name=name)
    result = verify(
        program, config=VerifierConfig(max_rounds=30, mode=mode)
    )
    assert result.verdict == Verdict.CORRECT, f"{mode}: {result.summary()}"


@pytest.mark.parametrize("mode", ["combined", "sleep", "persistent", "none"])
@pytest.mark.parametrize("name", ["lost-update", "post-violated"])
def test_modes_agree_incorrect(mode, name):
    program = parse(INCORRECT_PROGRAMS[name], name=name)
    result = verify(
        program, config=VerifierConfig(max_rounds=30, mode=mode)
    )
    assert result.verdict == Verdict.INCORRECT, f"{mode}: {result.summary()}"


@pytest.mark.parametrize("name", ["two-increments", "lost-update"])
def test_orders_agree(name):
    sources = {**CORRECT_PROGRAMS, **INCORRECT_PROGRAMS}
    program = parse(sources[name], name=name)
    expected = verify(program, config=VerifierConfig(max_rounds=30)).verdict
    for order in (
        ThreadUniformOrder(),
        LockstepOrder(len(program.threads)),
        RandomOrder(program.alphabet(), seed=9),
    ):
        result = verify(program, order, config=VerifierConfig(max_rounds=30))
        assert result.verdict == expected, f"{order.name}: {result.summary()}"


class TestSearchStrategies:
    @pytest.mark.parametrize("name", sorted(CORRECT_PROGRAMS))
    def test_dfs_agrees_with_bfs(self, name):
        program = parse(CORRECT_PROGRAMS[name], name=name)
        result = verify(
            program,
            config=VerifierConfig(max_rounds=40, search="dfs"),
        )
        assert result.verdict == Verdict.CORRECT, result.summary()

    def test_dfs_with_useless_cache(self):
        program = parse(CORRECT_PROGRAMS["mutex-via-atomic"], name="mutex")
        result = verify(
            program,
            config=VerifierConfig(
                max_rounds=40, search="dfs", use_useless_cache=True
            ),
        )
        assert result.verdict == Verdict.CORRECT

    def test_dfs_useless_cache_incorrect_program(self):
        program = parse(INCORRECT_PROGRAMS["lost-update"], name="bug")
        result = verify(
            program,
            config=VerifierConfig(
                max_rounds=40, search="dfs", use_useless_cache=True
            ),
        )
        assert result.verdict == Verdict.INCORRECT


class TestProofSensitivity:
    def test_off_still_correct(self):
        program = parse(CORRECT_PROGRAMS["mutex-via-atomic"], name="mutex")
        result = verify(
            program,
            config=VerifierConfig(max_rounds=40, proof_sensitive=False),
        )
        assert result.verdict == Verdict.CORRECT

    def test_syntactic_commutativity_only(self):
        program = parse(CORRECT_PROGRAMS["two-increments"], name="two-inc")
        result = verify(
            program,
            commutativity=SyntacticCommutativity(),
            config=VerifierConfig(max_rounds=40),
        )
        assert result.verdict == Verdict.CORRECT


class TestPortfolio:
    def test_portfolio_on_correct(self):
        program = parse(CORRECT_PROGRAMS["two-increments"], name="two-inc")
        result = verify_portfolio(
            program, config=VerifierConfig(max_rounds=30)
        )
        assert result.solved
        assert result.verdict == Verdict.CORRECT
        assert len(result.members) == 5  # seq, lockstep, rand x3
        agg = result.aggregate()
        assert agg.time_seconds <= max(m.time_seconds for m in result.members)

    def test_portfolio_on_incorrect(self):
        program = parse(INCORRECT_PROGRAMS["lost-update"], name="bug")
        result = verify_portfolio(
            program, config=VerifierConfig(max_rounds=30)
        )
        assert result.verdict == Verdict.INCORRECT


class TestBudgets:
    def test_timeout_respected(self):
        program = parse(CORRECT_PROGRAMS["mutex-via-atomic"], name="mutex")
        result = verify(
            program, config=VerifierConfig(max_rounds=40, time_budget=0.0)
        )
        assert result.verdict == Verdict.TIMEOUT

    def test_round_budget(self):
        program = parse(CORRECT_PROGRAMS["mutex-via-atomic"], name="mutex")
        result = verify(program, config=VerifierConfig(max_rounds=1))
        assert result.verdict in (Verdict.TIMEOUT, Verdict.CORRECT)

    def test_memory_tracking(self):
        program = parse(CORRECT_PROGRAMS["two-increments"], name="two-inc")
        result = verify(
            program,
            config=VerifierConfig(max_rounds=30, track_memory=True),
        )
        assert result.peak_memory_bytes > 0


class TestCounterexampleValidity:
    """Reported counterexamples must replay concretely."""

    @pytest.mark.parametrize("name", sorted(INCORRECT_PROGRAMS))
    def test_counterexample_is_executable(self, name):
        from repro.logic import Solver
        from repro.verifier import trace_feasible

        program = parse(INCORRECT_PROGRAMS[name], name=name)
        result = verify(program, config=VerifierConfig(max_rounds=30))
        assert result.counterexample is not None
        trace = result.counterexample
        # the trace must be a path in the product
        state = program.initial_state()
        for stmt in trace:
            state = program.step(state, stmt)
            assert state is not None
        # and executable per the SSA path formula
        assert trace_feasible(Solver(), program.pre, trace)
