"""Solver tests: hand-picked queries plus hypothesis vs brute force."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    FALSE,
    Solver,
    TRUE,
    add,
    and_,
    eq,
    evaluate,
    free_vars,
    ge,
    gt,
    intc,
    ite,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    var,
)
from repro.logic.solver import SolverUnknown
from repro.verifier import QueryStats

x, y, z = var("x"), var("y"), var("z")


@pytest.fixture()
def solver():
    return Solver()


class TestBasicSat:
    def test_true_sat(self, solver):
        assert solver.is_sat(TRUE)

    def test_false_unsat(self, solver):
        assert not solver.is_sat(FALSE)

    def test_simple_bounds(self, solver):
        assert solver.is_sat(and_(le(intc(0), x), le(x, intc(10))))

    def test_contradictory_bounds(self, solver):
        assert not solver.is_sat(and_(lt(x, intc(0)), gt(x, intc(0))))

    def test_equality_chain_unsat(self, solver):
        f = and_(eq(x, y), eq(y, z), ne(x, z))
        assert not solver.is_sat(f)

    def test_integer_gap(self, solver):
        # 0 < x < 1 has a rational model but no integer model
        assert not solver.is_sat(and_(lt(intc(0), x), lt(x, intc(1))))

    def test_parity_style_gap(self, solver):
        # 2x = 2y + 1 is rationally satisfiable, integrally not
        f = eq(mul(2, x), add(mul(2, y), intc(1)))
        assert not solver.is_sat(f)

    def test_disjunction(self, solver):
        f = or_(eq(x, intc(1)), eq(x, intc(2)))
        m = solver.model(f)
        assert m["x"] in (1, 2)

    def test_model_satisfies(self, solver):
        f = and_(le(intc(3), x), le(x, y), lt(y, intc(7)), ne(x, y))
        m = solver.model(f)
        assert m is not None
        assert evaluate(f, m)

    def test_unbounded_sat(self, solver):
        assert solver.is_sat(gt(x, intc(1000)))


class TestValidityAndImplication:
    def test_excluded_middle(self, solver):
        a = le(x, y)
        assert solver.is_valid(or_(a, not_(a)))

    def test_transitivity_valid(self, solver):
        f = and_(le(x, y), le(y, z)).implies(le(x, z))
        assert solver.is_valid(f)

    def test_implies(self, solver):
        assert solver.implies(eq(x, intc(3)), ge(x, intc(2)))
        assert not solver.implies(ge(x, intc(2)), eq(x, intc(3)))

    def test_implies_false_antecedent(self, solver):
        assert solver.implies(FALSE, eq(x, intc(1)))

    def test_equivalent(self, solver):
        assert solver.equivalent(lt(x, y), le(add(x, intc(1)), y))
        assert not solver.equivalent(lt(x, y), le(x, y))

    def test_integer_tightening_validity(self, solver):
        # over the integers, 2x <= 1 implies x <= 0
        assert solver.implies(le(mul(2, x), intc(1)), le(x, intc(0)))


class TestIteHandling:
    def test_ite_in_atom(self, solver):
        f = eq(ite(le(x, intc(0)), intc(0), x), intc(5))
        m = solver.model(f)
        assert m["x"] == 5

    def test_ite_forced_branch(self, solver):
        f = and_(le(x, intc(0)), eq(ite(le(x, intc(0)), intc(0), x), intc(5)))
        assert not solver.is_sat(f)

    def test_nested_ite(self, solver):
        absval = ite(lt(x, intc(0)), mul(-1, x), x)
        f = and_(eq(absval, intc(3)), lt(x, intc(0)))
        m = solver.model(f)
        assert m["x"] == -3


class TestCaching:
    def test_cache_returns_same_answer(self, solver):
        f = and_(le(intc(0), x), le(x, intc(10)))
        q0 = solver.num_queries
        assert solver.is_sat(f)
        assert solver.is_sat(f)
        assert solver.num_queries == q0 + 1

    def test_normalized_phrasings_share_one_entry(self, solver):
        """The cache key is the NNF, so De Morgan-dual spellings of the
        same query are answered by a single decision."""
        spelled_not = not_(and_(le(x, intc(0)), le(y, intc(0))))
        spelled_or = or_(not_(le(x, intc(0))), not_(le(y, intc(0))))
        assert solver.is_sat(spelled_not)
        decisions = solver.stats.decisions
        assert solver.is_sat(spelled_or)
        assert solver.stats.decisions == decisions
        assert solver.stats.cache_hits >= 1

    def test_stats_counters_are_consistent(self, solver):
        f = and_(le(intc(0), x), le(x, intc(3)))
        g = lt(x, x)
        for query in (f, f, g, g, f):
            solver.is_sat(query)
        s = solver.stats
        assert s.sat_queries == 5
        answered = (
            s.cache_hits + s.model_pool_hits + s.unknown_cache_hits + s.decisions
        )
        assert answered == s.sat_queries
        qs = QueryStats.collect(solver)
        assert qs.solver_sat_queries == 5
        assert qs.solver_hit_rate == (s.sat_queries - s.decisions) / 5
        assert 0.0 < qs.solver_hit_rate < 1.0
        assert qs.as_dict()["solver_hit_rate"] == round(qs.solver_hit_rate, 4)

    def test_model_short_circuits_on_cached_unsat(self, solver):
        f = and_(le(x, intc(0)), le(intc(1), x))
        assert not solver.is_sat(f)
        decisions = solver.stats.decisions
        assert solver.model(f) is None
        assert solver.stats.decisions == decisions

    def test_trivially_false_disequality_side_costs_one_node(self):
        # x + 1 != x splits into x + 1 < x (the constant 2 <= 0: false)
        # and x + 1 > x (true): root, false side, true side
        f = not_(eq(add(x, intc(1)), x))
        solver = Solver()
        assert solver.model(f) == {"x": 0}
        assert solver.stats.nodes_searched == 3
        assert solver.stats.max_query_nodes == 3
        # the budget turns UNKNOWN exactly where the false side's node
        # pushes the count past it
        with pytest.raises(SolverUnknown):
            Solver(node_budget=2).model(f)
        assert Solver(node_budget=3).model(f) == {"x": 0}

    def test_disabled_cache_redecides_every_query(self):
        solver = Solver(enable_cache=False)
        f = and_(le(intc(0), x), le(x, intc(10)))
        assert solver.is_sat(f)
        assert solver.is_sat(f)
        assert solver.stats.decisions == 2
        assert solver.stats.cache_hits == 0
        assert solver.stats.model_pool_hits == 0


# ---------------------------------------------------------------------------
# Property-based: the solver agrees with brute force over a small domain.
# ---------------------------------------------------------------------------

_DOMAIN = range(-2, 3)

_variables = st.sampled_from(["x", "y"])


def _int_terms():
    leaf = st.one_of(
        st.integers(min_value=-3, max_value=3).map(intc),
        _variables.map(var),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: add(*t)),
            st.tuples(st.integers(min_value=-2, max_value=2), inner).map(
                lambda t: mul(t[0], t[1])
            ),
        ),
        max_leaves=4,
    )


def _formulas():
    atom = st.one_of(
        st.tuples(_int_terms(), _int_terms()).map(lambda t: le(*t)),
        st.tuples(_int_terms(), _int_terms()).map(lambda t: eq(*t)),
    )
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            inner.map(not_),
            st.tuples(inner, inner).map(lambda t: and_(*t)),
            st.tuples(inner, inner).map(lambda t: or_(*t)),
        ),
        max_leaves=6,
    )


def _brute_force_sat(formula) -> bool:
    names = sorted(free_vars(formula))
    for values in itertools.product(_DOMAIN, repeat=len(names)):
        if evaluate(formula, dict(zip(names, values))):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(_formulas())
def test_solver_agrees_with_brute_force(formula):
    solver = Solver()
    brute = _brute_force_sat(formula)
    if brute:
        # brute-force SAT over the small domain must be confirmed
        assert solver.is_sat(formula)
        model = solver.model(formula)
        assert evaluate(formula, model)
    elif not solver.is_sat(formula):
        pass  # agreement
    else:
        # solver found a model outside the brute-force domain; verify it
        model = solver.model(formula)
        assert evaluate(formula, model)
