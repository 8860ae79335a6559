"""Quantifier elimination tests."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    Solver,
    add,
    and_,
    eliminate_exists,
    eliminate_forall,
    eq,
    evaluate,
    free_vars,
    ge,
    intc,
    le,
    lt,
    mul,
    or_,
    var,
)

x, y, z = var("x"), var("y"), var("z")


@pytest.fixture()
def solver():
    return Solver()


class TestExists:
    def test_eliminates_variable(self):
        f = and_(le(x, y), le(y, z))
        g = eliminate_exists(["y"], f)
        assert "y" not in free_vars(g)

    def test_projection_of_sandwich(self, solver):
        # exists y. x <= y <= z  iff  x <= z
        f = and_(le(x, y), le(y, z))
        g = eliminate_exists(["y"], f)
        assert solver.equivalent(g, le(x, z))

    def test_unsat_projects_to_false(self, solver):
        f = and_(lt(x, y), lt(y, x))
        g = eliminate_exists(["y"], f)
        assert not solver.is_sat(g)

    def test_free_variable_untouched(self, solver):
        f = eq(x, intc(5))
        g = eliminate_exists(["y"], f)
        assert free_vars(g) <= {"x"}
        assert solver.equivalent(g, f)

    def test_disjunction(self, solver):
        f = or_(eq(y, intc(1)), and_(eq(y, intc(2)), le(x, y)))
        g = eliminate_exists(["y"], f)
        # first disjunct is satisfiable for any x
        assert solver.is_valid(g)

    def test_multiple_variables(self, solver):
        f = and_(le(x, y), le(y, z), le(z, x))
        g = eliminate_exists(["y", "z"], f)
        assert solver.is_valid(g)  # pick y = z = x

    def test_no_variables_is_identity(self):
        f = le(x, y)
        assert eliminate_exists([], f) is f


class TestForall:
    def test_trivial(self, solver):
        g = eliminate_forall(["y"], le(y, y))
        assert solver.is_valid(g)

    def test_forall_bound(self, solver):
        # forall y. y >= x -> y >= 0   iff  x >= 0
        f = ge(y, x).implies(ge(y, intc(0)))
        g = eliminate_forall(["y"], f)
        assert solver.equivalent(g, ge(x, intc(0)))

    def test_forall_unbounded_false(self, solver):
        g = eliminate_forall(["y"], le(y, x))
        assert not solver.is_sat(g)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)
def test_exists_soundness_small_domain(a, b, c):
    """Projection agrees with explicit witness search on a small domain."""
    solver = Solver()
    f = and_(le(add(x, intc(a)), y), le(y, add(z, intc(b))), le(mul(2, y), intc(c)))
    g = eliminate_exists(["y"], f)
    for vx, vz in itertools.product(range(-3, 4), repeat=2):
        has_witness = any(
            evaluate(f, {"x": vx, "y": vy, "z": vz}) for vy in range(-10, 11)
        )
        projected = evaluate(g, {"x": vx, "z": vz})
        if has_witness:
            assert projected, (vx, vz)
        # (the reverse direction may admit witnesses outside the window;
        # check it semantically instead)
        if projected and not has_witness:
            assert solver.is_sat(
                and_(f, eq(x, intc(vx)), eq(z, intc(vz)))
            )
