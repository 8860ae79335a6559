"""ProofChecker (Algorithm 2) unit tests."""

import pytest

from repro.core import ConditionalCommutativity, SyntacticCommutativity, ThreadUniformOrder
from repro.lang import parse
from repro.logic import Solver, intc, var
from repro.verifier import (
    FloydHoareAutomaton,
    ProofChecker,
    UselessStateCache,
    VerifierConfig,
    verify,
)


def racy_program():
    return parse(
        """
        var x: int = 0;
        thread A { x := x + 1; assert x >= 1; }
        thread B { x := x + 1; }
        """,
        name="racy",
    )


def checker_for(program, **kwargs):
    solver = Solver()
    defaults = dict(mode="combined", proof_sensitive=True, search="bfs")
    defaults.update(kwargs)
    return (
        ProofChecker(
            program,
            ThreadUniformOrder(),
            ConditionalCommutativity(solver),
            **defaults,
        ),
        solver,
    )


class TestEmptyProof:
    def test_finds_candidate_trace(self):
        program = racy_program()
        checker, solver = checker_for(program)
        fh = FloydHoareAutomaton([], solver)
        outcome = checker.check(fh, program.pre, program.post)
        # with an empty proof, some trace must be uncovered (the assert
        # can syntactically fail)
        assert not outcome.covered
        assert outcome.counterexample

    def test_trace_is_valid_product_path(self):
        program = racy_program()
        checker, solver = checker_for(program)
        fh = FloydHoareAutomaton([], solver)
        outcome = checker.check(fh, program.pre, program.post)
        state = program.initial_state()
        for stmt in outcome.counterexample:
            state = program.step(state, stmt)
            assert state is not None
        assert program.is_violation(state) or program.is_exit(state)


class TestCoverage:
    def test_sufficient_proof_covers(self):
        program = racy_program()
        checker, solver = checker_for(program)
        x = var("x")
        from repro.logic import ge

        fh = FloydHoareAutomaton(
            [ge(x, intc(0)), ge(x, intc(1)), ge(x, intc(2))], solver
        )
        outcome = checker.check(fh, program.pre, program.post)
        assert outcome.covered
        assert outcome.assertions_seen >= 2

    def test_bfs_returns_shortest(self):
        program = racy_program()
        checker, solver = checker_for(program)
        fh = FloydHoareAutomaton([], solver)
        bfs_len = len(checker.check(fh, program.pre, program.post).counterexample)
        dfs_checker, dfs_solver = checker_for(program, search="dfs")
        dfs_fh = FloydHoareAutomaton([], dfs_solver)
        dfs_len = len(
            dfs_checker.check(dfs_fh, program.pre, program.post).counterexample
        )
        assert bfs_len <= dfs_len


class TestBudgets:
    def test_state_budget(self):
        program = racy_program()
        checker, solver = checker_for(program, max_states=1)
        fh = FloydHoareAutomaton([], solver)
        with pytest.raises(MemoryError):
            checker.check(fh, program.pre, program.post)

    def test_invalid_search_rejected(self):
        program = racy_program()
        with pytest.raises(ValueError):
            ProofChecker(
                program,
                ThreadUniformOrder(),
                SyntacticCommutativity(),
                search="zigzag",
            )

    def test_invalid_mode_rejected(self):
        # an unknown mode must not run as the unreduced product
        program = racy_program()
        with pytest.raises(ValueError, match="unknown mode"):
            ProofChecker(
                program,
                ThreadUniformOrder(),
                SyntacticCommutativity(),
                mode="bogus",
            )
        with pytest.raises(ValueError, match="unknown mode"):
            verify(program, config=VerifierConfig(mode="bogus"))


class TestUselessCache:
    def test_cache_subsumption(self):
        cache = UselessStateCache()
        key = ("q", frozenset(), None)
        cache.mark(key, frozenset({1, 2}))
        assert cache.is_useless(key, frozenset({1, 2, 3}))  # stronger
        assert not cache.is_useless(key, frozenset({1}))  # weaker
        assert not cache.is_useless(("other",), frozenset({1, 2, 3}))

    def test_mark_keeps_weakest(self):
        cache = UselessStateCache()
        key = ("q", frozenset(), None)
        cache.mark(key, frozenset({1, 2, 3}))
        cache.mark(key, frozenset({1}))  # weaker entry subsumes
        assert cache.is_useless(key, frozenset({1, 5}))
        assert len(cache._useless[key]) == 1

    def test_hits_counted(self):
        cache = UselessStateCache()
        key = ("q", frozenset(), None)
        cache.mark(key, frozenset())
        cache.is_useless(key, frozenset({1}))
        assert cache.hits == 1

    def test_dfs_cache_reduces_second_round_states(self):
        program = parse(
            """
            var a: int = 0;
            var b: int = 0;
            var x: int = 0;
            thread A { a := 1; x := x + 1; assert x >= 1; }
            thread B { b := 1; x := x + 1; }
            """,
            name="cachey",
        )
        solver = Solver()
        cache = UselessStateCache()
        checker = ProofChecker(
            program,
            ThreadUniformOrder(),
            ConditionalCommutativity(solver),
            mode="combined",
            search="dfs",
            useless_cache=cache,
        )
        from repro.logic import ge

        x = var("x")
        fh = FloydHoareAutomaton([ge(x, intc(0)), ge(x, intc(1))], solver)
        first = checker.check(fh, program.pre, program.post)
        assert first.covered
        second = checker.check(fh, program.pre, program.post)
        assert second.covered
        # the cache kills re-exploration on the (identical) second round
        assert cache.hits > 0
        assert second.states_explored <= first.states_explored


class TestCommutativitySubsumption:
    def test_monotone_cache_consistent(self):
        """The subsumption cache must agree with direct queries."""
        program = parse(
            """
            var pendingIo: int = 1;
            var se: bool = false;
            thread A { atomic { pendingIo := pendingIo + 1; } }
            thread B { atomic { pendingIo := pendingIo - 1;
                                if (pendingIo == 0) { se := true; } } }
            """,
            name="pair",
        )
        solver = Solver()
        rel = ConditionalCommutativity(solver)
        checker = ProofChecker(
            program, ThreadUniformOrder(), rel, mode="combined"
        )
        from repro.logic import ge

        pending = var("pendingIo")
        fh = FloydHoareAutomaton([ge(pending, intc(2))], solver)
        (a,) = program.threads[0].enabled(program.threads[0].initial)
        # B's atomic block has one letter per path through the if
        b = program.threads[1].enabled(program.threads[1].initial)[0]
        weak = frozenset()
        strong = fh.initial_state(ge(pending, intc(2)))
        direct_weak = rel.commute_under(fh.assertion(weak), a, b)
        direct_strong = rel.commute_under(fh.assertion(strong), a, b)
        assert checker._commute(fh, weak, a, b) == direct_weak
        assert checker._commute(fh, strong, a, b) == direct_strong
        # repeated queries hit the cache and stay consistent
        assert checker._commute(fh, strong, a, b) == direct_strong
        assert not direct_weak and direct_strong
