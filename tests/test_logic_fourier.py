"""Direct unit tests for Fourier–Motzkin elimination and integer search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.atoms import LinExpr, LinearConstraint
from repro.logic.fourier import (
    BranchBudgetExceeded,
    _dedup,
    _eliminate,
    canonical,
    fm_project,
    integer_model,
    rational_model,
    rationally_feasible,
    tighten,
)


def le0(coeffs, const):
    """Σ coeffs·x + const <= 0"""
    return LinearConstraint(LinExpr.of(coeffs, const))


class TestTighten:
    def test_divides_by_gcd(self):
        c = tighten(le0({"x": 2, "y": 4}, 3))
        assert c.expr.as_dict() == {"x": 1, "y": 2}
        assert c.expr.const == 2  # ceil(3/2)

    def test_noop_on_coprime(self):
        c = le0({"x": 2, "y": 3}, 1)
        assert tighten(c) == c

    def test_constant_only(self):
        c = le0({}, 5)
        assert tighten(c) == c

    def test_idempotent(self):
        c = le0({"x": 6}, 4)
        assert tighten(tighten(c)) == tighten(c)


class TestProjection:
    def test_transitivity(self):
        # x <= y, y <= z  --(eliminate y)-->  x <= z
        cons = [le0({"x": 1, "y": -1}, 0), le0({"y": 1, "z": -1}, 0)]
        projected = fm_project(cons, "y")
        assert projected == [le0({"x": 1, "z": -1}, 0)]

    def test_infeasible_detected(self):
        # y >= 1 and y <= -1
        cons = [le0({"y": -1}, 1), le0({"y": 1}, 1)]
        assert fm_project(cons, "y") is None

    def test_unbounded_variable_drops(self):
        cons = [le0({"y": -1}, 0)]  # y >= 0, no upper bound
        assert fm_project(cons, "y") == []

    def test_untouched_constraints_kept(self):
        cons = [le0({"x": 1}, -5), le0({"y": 1}, 0)]
        projected = fm_project(cons, "y")
        assert le0({"x": 1}, -5) in projected


class TestRationalModel:
    def test_simple(self):
        cons = [le0({"x": -1}, 2), le0({"x": 1}, -2)]  # x >= -2... x == 2? no:
        model = rational_model(cons)
        assert model is not None
        for c in cons:
            assert c.holds(model)

    def test_infeasible(self):
        cons = [le0({"x": 1}, 0), le0({"x": -1}, 1)]  # x <= 0 and x >= 1
        assert rational_model(cons) is None

    def test_chain(self):
        cons = [
            le0({"x": 1, "y": -1}, 0),   # x <= y
            le0({"y": 1, "z": -1}, 0),   # y <= z
            le0({"z": 1}, -10),          # z <= 10
            le0({"x": -1}, 5),           # x >= -5
        ]
        model = rational_model(cons)
        assert all(c.holds(model) for c in cons)

    def test_feasibility_cache_consistent(self):
        key = canonical((le0({"x": 1}, 0), le0({"x": -1}, 1)))
        assert not rationally_feasible(key)
        assert not rationally_feasible(key)  # cached path


class TestCanonical:
    def test_tightens_and_drops_trivially_true(self):
        key = canonical([le0({"x": 2}, 1), le0({}, -3), le0({"x": 1}, 1)])
        assert key == frozenset({le0({"x": 1}, 1)})

    def test_trivially_false_is_none(self):
        assert canonical([le0({"x": 1}, 0), le0({}, 1)]) is None

    def test_union_is_canonical_of_join(self):
        a = [le0({"x": 2, "y": 4}, 3), le0({"y": -1}, 0)]
        b = [le0({"x": 1, "y": 2}, 2), le0({}, 0)]
        assert canonical(a) | canonical(b) == canonical(a + b)


class TestIntegerModel:
    def test_integral_solution(self):
        cons = [le0({"x": -2}, -1), le0({"x": 2}, -1)]  # -1/2 <= x <= 1/2
        model = integer_model(cons)
        assert model == {"x": 0}

    def test_integer_infeasible_rational_feasible(self):
        # 1/3 <= x <= 2/3 has no integer point
        cons = [le0({"x": -3}, 1), le0({"x": 3}, -2)]
        assert integer_model(cons) is None

    def test_budget_exceeded_raises(self):
        # 2x + 3y == 1: the relaxation's corner is fractional (x = 1/2,
        # y = 0) and gcd-tightening cannot fire (coprime coefficients),
        # so finding the integer solution needs a branch — node 2,
        # which budget=1 forbids
        cons = [
            le0({"x": 2, "y": 3}, -1),
            le0({"x": -2, "y": -3}, 1),
        ]
        with pytest.raises(BranchBudgetExceeded):
            integer_model(cons, budget=1)

    def test_tightening_detects_parity_infeasibility(self):
        # x + y == 1 and x == y: integer-infeasible; gcd tightening on
        # the projection (2y <= 1 becomes y <= 0) detects it without
        # any branch-and-bound
        cons = [
            le0({"x": 1, "y": 1}, -1),
            le0({"x": -1, "y": -1}, 1),
            le0({"x": 1, "y": -1}, 0),
            le0({"x": -1, "y": 1}, 0),
        ]
        assert integer_model(cons, budget=1) is None

    def test_empty_is_sat(self):
        assert integer_model([]) == {}


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 4)
        ),
        max_size=4,
    )
)
def test_projection_preserves_satisfiability(rows):
    """If (x, y) satisfies the system, the y-projection holds for x."""
    cons = [le0({"x": a, "y": b}, c) for a, b, c in rows]
    projected = fm_project(cons, "y")
    for x in range(-5, 6):
        for y in range(-5, 6):
            env = {"x": Fraction(x), "y": Fraction(y)}
            if all(c.holds(env) for c in cons):
                assert projected is not None
                assert all(c.holds(env) for c in projected)


_rows = st.lists(
    st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
        st.integers(-6, 6),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(_rows, st.data())
def test_set_keyed_memo_ignores_order_and_duplicates(rows, data):
    """Every permutation and duplication of a constraint list reaches
    the same memo entry, and the memo agrees with an uncached
    elimination in that list's own order."""
    cons = [le0({"x": a, "y": b, "z": c}, k) for a, b, c, k in rows]
    extra = data.draw(st.lists(st.sampled_from(cons), max_size=3))
    variant = data.draw(st.permutations(cons + extra))
    key = canonical(cons)
    assert canonical(variant) == key
    model = rational_model(cons)
    assert rational_model(variant) == model
    deduped = _dedup(variant)
    assert model == (None if deduped is None else _eliminate(deduped))
    if key is not None:
        assert rationally_feasible(key) == (model is not None)
    outcomes = []
    for order in (cons, variant):
        try:
            outcomes.append(integer_model(order, budget=20))
        except BranchBudgetExceeded:
            outcomes.append("budget")
    assert outcomes[0] == outcomes[1]
