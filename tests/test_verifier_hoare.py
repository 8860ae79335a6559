"""Floyd/Hoare automaton (predicate abstraction) tests."""

import pytest

from repro.lang import assign, assume
from repro.logic import FALSE, Solver, TRUE, add, eq, ge, gt, intc, le, var
from repro.verifier import BOTTOM, FloydHoareAutomaton

x, y = var("x"), var("y")


@pytest.fixture()
def solver():
    return Solver()


class TestVocabulary:
    def test_add_predicate(self, solver):
        fh = FloydHoareAutomaton([], solver)
        assert fh.add_predicate(ge(x, intc(0)))
        assert not fh.add_predicate(ge(x, intc(0)))  # duplicate
        assert not fh.add_predicate(TRUE)  # trivial

    def test_initial_state_from_pre(self, solver):
        fh = FloydHoareAutomaton([ge(x, intc(0)), ge(x, intc(5))], solver)
        state = fh.initial_state(eq(x, intc(2)))
        assert fh.entails(state, ge(x, intc(0)))
        assert not fh.entails(state, ge(x, intc(5)))

    def test_unsat_pre_is_bottom(self, solver):
        fh = FloydHoareAutomaton([], solver)
        assert fh.initial_state(FALSE) == BOTTOM


class TestTransitions:
    def test_assignment_updates_facts(self, solver):
        # the vocabulary needs x >= 0 for the abstraction to carry the
        # initial fact through the increment (classic predicate abstraction)
        fh = FloydHoareAutomaton([ge(x, intc(0)), ge(x, intc(1))], solver)
        state = fh.initial_state(eq(x, intc(0)))
        assert not fh.entails(state, ge(x, intc(1)))
        nxt = fh.step(state, assign(0, "x", add(x, intc(1))))
        assert fh.entails(nxt, ge(x, intc(1)))

    def test_untouched_predicate_preserved(self, solver):
        fh = FloydHoareAutomaton([ge(y, intc(3))], solver)
        state = fh.initial_state(ge(y, intc(3)))
        nxt = fh.step(state, assign(0, "x", intc(7)))
        assert fh.entails(nxt, ge(y, intc(3)))

    def test_blocked_guard_goes_bottom(self, solver):
        fh = FloydHoareAutomaton([le(x, intc(0))], solver)
        state = fh.initial_state(eq(x, intc(0)))
        nxt = fh.step(state, assume(0, gt(x, intc(0))))
        assert fh.is_bottom(nxt)

    def test_bottom_absorbs(self, solver):
        fh = FloydHoareAutomaton([], solver)
        assert fh.step(BOTTOM, assign(0, "x", intc(1))) == BOTTOM

    def test_transition_is_valid_hoare_triple(self, solver):
        """Every automaton transition {Φ} a {Φ'} must be solver-valid."""
        preds = [ge(x, intc(0)), ge(x, intc(1)), le(x, intc(5))]
        fh = FloydHoareAutomaton(preds, solver)
        letters = [
            assign(0, "x", add(x, intc(1))),
            assign(0, "x", intc(3)),
            assume(0, le(x, intc(4))),
        ]
        state = fh.initial_state(eq(x, intc(0)))
        for letter in letters:
            nxt = fh.step(state, letter)
            if fh.is_bottom(nxt):
                assert not solver.is_sat(
                    and_args(fh.assertion(state), letter)
                )
            else:
                assert solver.implies(
                    fh.assertion(state), letter.wp(fh.assertion(nxt))
                )
            state = nxt

    def test_assertion_of_empty_state_is_true(self, solver):
        fh = FloydHoareAutomaton([ge(x, intc(0))], solver)
        assert fh.assertion(frozenset()) == TRUE

    def test_entails_conservative_on_bottom(self, solver):
        fh = FloydHoareAutomaton([], solver)
        assert fh.entails(BOTTOM, FALSE)


def and_args(phi, letter):
    from repro.logic import and_

    return and_(phi, letter.guard)
