"""Semantic simplification tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    FALSE,
    Solver,
    TRUE,
    and_,
    eq,
    ge,
    gt,
    intc,
    le,
    lt,
    or_,
    var,
)
from repro.logic.simplify import (
    drop_redundant_conjuncts,
    drop_redundant_disjuncts,
    simplify,
    simplify_all,
)

x, y = var("x"), var("y")


@pytest.fixture()
def solver():
    return Solver()


class TestConjuncts:
    def test_drops_implied(self, solver):
        f = and_(ge(x, intc(5)), ge(x, intc(0)))
        g = drop_redundant_conjuncts(f, solver)
        assert g == ge(x, intc(5))

    def test_keeps_independent(self, solver):
        f = and_(ge(x, intc(0)), ge(y, intc(0)))
        assert drop_redundant_conjuncts(f, solver) == f

    def test_non_conjunction_passthrough(self, solver):
        assert drop_redundant_conjuncts(ge(x, intc(0)), solver) == ge(x, intc(0))


class TestDisjuncts:
    def test_drops_subsumed(self, solver):
        f = or_(ge(x, intc(0)), ge(x, intc(5)))
        g = drop_redundant_disjuncts(f, solver)
        assert g == ge(x, intc(0))

    def test_keeps_independent(self, solver):
        f = or_(ge(x, intc(0)), le(y, intc(0)))
        assert drop_redundant_disjuncts(f, solver) == f


class TestSimplify:
    def test_unsat_collapses(self, solver):
        f = and_(gt(x, intc(0)), lt(x, intc(0)))
        assert simplify(f, solver) == FALSE

    def test_valid_collapses(self, solver):
        f = or_(ge(x, intc(0)), lt(x, intc(5)))
        assert simplify(f, solver) == TRUE

    def test_nested(self, solver):
        f = and_(
            ge(x, intc(3)),
            or_(ge(x, intc(0)), eq(y, intc(1))),  # implied by x >= 3
        )
        g = simplify(f, solver)
        assert g == ge(x, intc(3))

    def test_simplify_all_dedups(self, solver):
        preds = [
            and_(ge(x, intc(1)), ge(x, intc(0))),
            ge(x, intc(1)),
            TRUE,
        ]
        out = simplify_all(preds, solver)
        assert out == [ge(x, intc(1))]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("xy"), st.integers(-3, 3)).map(
            lambda t: ge(var(t[0]), intc(t[1]))
        ),
        min_size=1,
        max_size=4,
    )
)
def test_simplify_preserves_equivalence(atoms):
    solver = Solver()
    f = and_(*atoms)
    g = simplify(f, solver)
    assert solver.equivalent(f, g)
