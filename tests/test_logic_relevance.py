"""Relevance filtering tests (exactness and soundness)."""

from hypothesis import given, settings, strategies as st

from repro.logic import Solver, TRUE, and_, ge, intc, le, var
from repro.logic.relevance import conjuncts_of, relevant_context

w, x, y, z = var("w"), var("x"), var("y"), var("z")


class TestConjunctsOf:
    def test_flat(self):
        f = and_(ge(x, intc(0)), le(y, intc(5)))
        assert len(conjuncts_of(f)) == 2

    def test_atom(self):
        assert conjuncts_of(ge(x, intc(0))) == (ge(x, intc(0)),)


class TestRelevantContext:
    def test_keeps_direct_overlap(self):
        phi = and_(ge(x, intc(0)), le(y, intc(5)))
        ctx = relevant_context(phi, frozenset({"x"}))
        assert ctx == ge(x, intc(0))

    def test_transitive_chain(self):
        phi = and_(ge(x, y), ge(y, z), le(w, intc(5)))
        ctx = relevant_context(phi, frozenset({"x"}))
        # x connects to y, y connects to z; w is isolated
        parts = set(conjuncts_of(ctx))
        assert ge(x, y) in parts and ge(y, z) in parts
        assert all("w" not in repr(p) for p in parts)

    def test_no_overlap_gives_true(self):
        phi = and_(ge(x, intc(0)), le(y, intc(5)))
        assert relevant_context(phi, frozenset({"q"})) == TRUE

    def test_ground_conjuncts_kept(self):
        # variable-free conjuncts (e.g. FALSE-ish residue) stay
        phi = and_(ge(x, intc(0)), le(intc(0), intc(1)))
        ctx = relevant_context(phi, frozenset({"x"}))
        assert ctx == ge(x, intc(0))  # the trivial conjunct folded away

    def test_single_conjunct_passthrough(self):
        phi = ge(x, intc(0))
        assert relevant_context(phi, frozenset({"z"})) is phi


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("wxyz"), st.sampled_from("wxyz"), st.integers(-2, 2)),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from("wxyz"),
    st.integers(-2, 2),
)
def test_filtering_exact_for_satisfiable_contexts(pairs, goal_var, bound):
    """For satisfiable φ: φ ⇒ ψ iff relevant(φ) ⇒ ψ."""
    solver = Solver()
    phi = and_(*(ge(var(a), var(b)) for a, b, _ in pairs))
    if not solver.is_sat(phi):
        return
    psi = ge(var(goal_var), intc(bound))
    from repro.logic import free_vars

    filtered = relevant_context(phi, free_vars(psi))
    assert solver.implies(phi, psi) == solver.implies(filtered, psi)
