"""Statement (guarded assignment) semantics tests."""

import pytest

from repro.lang.statements import Statement, SymbolicAction, assign, assume, havoc, skip
from repro.logic import (
    Solver,
    TRUE,
    add,
    and_,
    eq,
    evaluate,
    ge,
    gt,
    intc,
    le,
    var,
)

x, y = var("x"), var("y")


@pytest.fixture()
def solver():
    return Solver()


class TestConstruction:
    def test_assign(self):
        s = assign(0, "x", add(x, intc(1)))
        assert s.written_vars() == {"x"}
        assert s.read_vars() == {"x"}
        assert s.is_deterministic

    def test_assume(self):
        s = assume(0, le(x, y))
        assert s.written_vars() == frozenset()
        assert s.read_vars() == {"x", "y"}

    def test_havoc(self):
        s = havoc(0, "x")
        assert s.written_vars() == {"x"}
        assert s.read_vars() == frozenset()
        assert not s.is_deterministic

    def test_identity_equality(self):
        a = assign(0, "x", intc(1))
        b = assign(0, "x", intc(1))
        assert a != b  # distinct letters even with identical code
        assert a == a

    def test_choice_cannot_be_assigned(self):
        with pytest.raises(ValueError):
            Statement(0, "bad", updates={"c": intc(1)}, choices=("c",))


class TestWeakestPrecondition:
    def test_wp_assign(self, solver):
        s = assign(0, "x", add(x, intc(1)))
        post = ge(x, intc(1))
        assert solver.equivalent(s.wp(post), ge(x, intc(0)))

    def test_wp_assume(self, solver):
        s = assume(0, gt(x, intc(0)))
        post = ge(x, intc(1))
        assert solver.is_valid(s.wp(post))

    def test_wp_skip(self, solver):
        post = ge(x, intc(1))
        assert skip(0).wp(post) == post

    def test_wp_havoc_is_universal(self, solver):
        s = havoc(0, "x")
        post = ge(x, intc(0))
        # wp must not hold anywhere: some havoc value breaks the post
        assert not solver.is_sat(s.wp(post))

    def test_wp_havoc_trivial_post(self, solver):
        s = havoc(0, "x")
        assert solver.is_valid(s.wp(TRUE))


class TestSsaStep:
    def test_step_threads_renaming(self, solver):
        s = assign(0, "x", add(x, intc(1)))
        constraint, renaming = s.ssa_step({"x": x}, 1)
        assert renaming["x"] == var("x@1")
        assert evaluate(constraint, {"x": 3, "x@1": 4})
        assert not evaluate(constraint, {"x": 3, "x@1": 5})

    def test_guard_uses_old_names(self):
        s = Statement(0, "t", guard=ge(x, intc(0)), updates={"x": intc(0)})
        constraint, renaming = s.ssa_step({"x": var("x@0")}, 1)
        assert evaluate(constraint, {"x@0": 2, "x@1": 0})
        assert not evaluate(constraint, {"x@0": -1, "x@1": 0})

    def test_havoc_choice_freshened(self):
        s = havoc(0, "x")
        c1, r1 = s.ssa_step({"x": x}, 1)
        c2, r2 = s.ssa_step(r1, 2)
        # both constraints satisfiable with different havoc values
        from repro.logic import free_vars

        assert free_vars(c1) != free_vars(c2)


class TestComposition:
    def test_sequential_updates(self, solver):
        a = SymbolicAction(TRUE, {"x": add(x, intc(1))})
        b = SymbolicAction(TRUE, {"y": x})
        ab = a.then(b)
        # y gets the incremented x
        assert solver.is_valid(eq(ab.updates["y"], add(x, intc(1))))

    def test_guard_after_update(self, solver):
        a = SymbolicAction(TRUE, {"x": intc(5)})
        b = SymbolicAction(gt(x, intc(0)), {})
        ab = a.then(b)
        assert solver.is_valid(ab.guard)
        ba = b.then(a)
        assert solver.equivalent(ba.guard, gt(x, intc(0)))

    def test_statement_compose(self, solver):
        inc = assign(0, "x", add(x, intc(1)))
        dbl = assign(1, "x", add(x, x))
        inc_dbl = inc.compose(dbl)
        dbl_inc = dbl.compose(inc)
        # (x+1)*2 vs x*2+1 differ: not commutative
        assert not solver.is_valid(
            eq(inc_dbl.updates["x"], dbl_inc.updates["x"])
        )


class TestStrongestPostcondition:
    def test_sp_assign_constant(self, solver):
        s = assign(0, "x", intc(5))
        post = s.sp(TRUE)
        assert solver.equivalent(post, eq(x, intc(5)))

    def test_sp_increment(self, solver):
        s = assign(0, "x", add(x, intc(1)))
        post = s.sp(eq(x, intc(3)))
        assert solver.equivalent(post, eq(x, intc(4)))

    def test_sp_assume(self, solver):
        s = assume(0, gt(x, intc(0)))
        post = s.sp(ge(x, intc(0)))
        assert solver.equivalent(post, gt(x, intc(0)))

    def test_sp_havoc_forgets(self, solver):
        s = havoc(0, "x")
        post = s.sp(eq(x, intc(3)))
        assert solver.is_valid(post)  # any x reachable

    def test_sp_wp_galois(self, solver):
        """sp(phi, s) => psi  iff  phi => wp(psi, s) (deterministic s)."""
        s = assign(0, "x", add(x, y))
        phi = and_(ge(x, intc(0)), ge(y, intc(1)))
        psi = ge(x, intc(1))
        assert solver.implies(s.sp(phi), psi) == solver.implies(phi, s.wp(psi))

    def test_sp_arrays_unsupported(self):
        from repro.logic import avar, intc as ic, store
        s = Statement(0, "aw", updates={"h": store(avar("h"), ic(0), ic(1))})
        with pytest.raises(NotImplementedError):
            s.sp(TRUE)
