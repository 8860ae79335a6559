"""Array theory tests (select/store, Ackermannization, aliasing)."""

import pytest

from repro.logic import (
    Solver,
    SolverUnknown,
    and_,
    avar,
    contains_arrays,
    eq,
    evaluate,
    gt,
    intc,
    le,
    ne,
    select,
    store,
    var,
)

h = avar("h")
i, j, x = var("i"), var("j"), var("x")


@pytest.fixture()
def solver():
    return Solver()


class TestSmartConstructors:
    def test_read_over_write_same_index(self):
        assert select(store(h, i, intc(5)), i) == intc(5)

    def test_read_over_write_distinct_constants(self):
        t = select(store(h, intc(0), intc(5)), intc(1))
        assert t == select(h, intc(1))

    def test_read_over_write_symbolic(self):
        t = select(store(h, i, intc(5)), j)
        # ite(i == j, 5, h[j])
        assert evaluate(t, {"i": 0, "j": 0, "h": ()}) == 5
        assert evaluate(t, {"i": 0, "j": 1, "h": ((1, 9),)}) == 9

    def test_store_collapse_same_index(self):
        t = store(store(h, i, intc(1)), i, intc(2))
        assert t == store(h, i, intc(2))

    def test_evaluate_store(self):
        t = store(h, intc(2), x)
        result = evaluate(t, {"h": ((1, 10),), "x": 7})
        assert dict(result) == {1: 10, 2: 7}

    def test_missing_cells_default_zero(self):
        assert evaluate(select(h, intc(42)), {"h": ()}) == 0


class TestContainsArrays:
    def test_positive(self):
        assert contains_arrays(eq(select(h, i), intc(0)))

    def test_negative(self):
        assert not contains_arrays(and_(le(x, i), gt(i, intc(0))))


class TestAckermannization:
    def test_functional_consistency(self, solver):
        # h[i] != h[j] and i == j is unsat
        f = and_(ne(select(h, i), select(h, j)), eq(i, j))
        assert not solver.is_sat(f)

    def test_distinct_reads_sat(self, solver):
        f = and_(ne(select(h, i), select(h, j)), ne(i, j))
        assert solver.is_sat(f)

    def test_read_after_write(self, solver):
        # after h[i] := 5: reading h[i] gives 5
        written = store(h, i, intc(5))
        assert solver.is_valid(eq(select(written, i), intc(5)))

    def test_write_preserves_other_cells(self, solver):
        written = store(h, i, intc(5))
        f = and_(ne(i, j), ne(select(written, j), select(h, j)))
        assert not solver.is_sat(f)

    def test_same_base_equality(self, solver):
        # store(h,i,v) == store(h,j,v') with i != j forces cross reads
        lhs = store(h, i, intc(1))
        rhs = store(h, j, intc(2))
        f = and_(eq(lhs, rhs), ne(i, j))
        # would need h[j] == 2 and h[i] == 1; satisfiable
        assert solver.is_sat(f)
        # but with i == j it is unsat (1 != 2)
        g = and_(eq(lhs, rhs), eq(i, j))
        assert not solver.is_sat(g)

    def test_identity_store_equality(self, solver):
        # h == store(h, i, h[i]) is valid
        f = eq(h, store(h, i, select(h, i)))
        assert solver.is_valid(f)

    def test_different_bases_rejected(self, solver):
        g = avar("g")
        with pytest.raises(SolverUnknown):
            solver.is_sat(eq(h, g))


class TestAliasing:
    """The paper's §7.2 example: pointer writes commute under non-aliasing."""

    def test_writes_commute_under_nonaliasing(self, solver):
        ij = store(store(h, i, intc(1)), j, intc(2))
        ji = store(store(h, j, intc(2)), i, intc(1))
        # equal arrays provided i != j
        f = ne(i, j).implies(eq(ij, ji))
        assert solver.is_valid(f)

    def test_writes_conflict_when_aliased(self, solver):
        ij = store(store(h, i, intc(1)), j, intc(2))
        ji = store(store(h, j, intc(2)), i, intc(1))
        f = and_(eq(i, j), eq(ij, ji))
        assert not solver.is_sat(f)
