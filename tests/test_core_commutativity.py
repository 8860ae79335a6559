"""Commutativity relation tests."""

from repro.core import (
    ConditionalCommutativity,
    FullCommutativity,
    SemanticCommutativity,
    SyntacticCommutativity,
)
from repro.lang import assign, assume, havoc
from repro.logic import add, eq, gt, intc, sub, var

x, y, z = var("x"), var("y"), var("z")


class TestSyntactic:
    def test_disjoint_variables_commute(self):
        rel = SyntacticCommutativity()
        a = assign(0, "x", intc(1))
        b = assign(1, "y", intc(2))
        assert rel.commute(a, b)
        assert rel.commute(b, a)

    def test_write_write_conflict(self):
        rel = SyntacticCommutativity()
        a = assign(0, "x", intc(1))
        b = assign(1, "x", intc(2))
        assert not rel.commute(a, b)

    def test_read_write_conflict(self):
        rel = SyntacticCommutativity()
        a = assign(0, "x", intc(1))
        b = assume(1, gt(x, intc(0)))
        assert not rel.commute(a, b)

    def test_read_read_commutes(self):
        rel = SyntacticCommutativity()
        a = assume(0, gt(x, intc(0)))
        b = assume(1, gt(x, intc(5)))
        assert rel.commute(a, b)

    def test_same_thread_never_commutes(self):
        rel = SyntacticCommutativity()
        a = assign(0, "x", intc(1))
        b = assign(0, "y", intc(2))
        assert not rel.commute(a, b)


class TestFull:
    def test_cross_thread(self):
        rel = FullCommutativity()
        a = assign(0, "x", intc(1))
        b = assign(1, "x", intc(2))
        assert rel.commute(a, b)

    def test_same_thread(self):
        rel = FullCommutativity()
        a = assign(0, "x", intc(1))
        b = assign(0, "x", intc(2))
        assert not rel.commute(a, b)


class TestSemantic:
    def test_increments_commute(self):
        # both add to x: writes overlap syntactically but commute semantically
        rel = SemanticCommutativity()
        a = assign(0, "x", add(x, intc(1)))
        b = assign(1, "x", add(x, intc(2)))
        assert rel.commute(a, b)

    def test_increment_decrement_commute(self):
        rel = SemanticCommutativity()
        a = assign(0, "x", add(x, intc(1)))
        b = assign(1, "x", sub(x, intc(1)))
        assert rel.commute(a, b)

    def test_set_and_increment_do_not_commute(self):
        rel = SemanticCommutativity()
        a = assign(0, "x", intc(0))
        b = assign(1, "x", add(x, intc(1)))
        assert not rel.commute(a, b)

    def test_guard_interference(self):
        # b enables/disables under a's effect
        rel = SemanticCommutativity()
        a = assign(0, "x", intc(1))
        b = assume(1, eq(x, intc(0)))
        assert not rel.commute(a, b)

    def test_havoc_falls_back_to_syntactic(self):
        rel = SemanticCommutativity()
        a = havoc(0, "x")
        b = assign(1, "x", add(x, intc(1)))
        assert not rel.commute(a, b)  # conservative
        c = assign(1, "y", intc(0))
        assert rel.commute(a, c)  # disjoint: still fine

    def test_cache_consistency(self):
        rel = SemanticCommutativity()
        a = assign(0, "x", add(x, intc(1)))
        b = assign(1, "x", add(x, intc(2)))
        assert rel.commute(a, b) == rel.commute(b, a)


class TestConditional:
    def test_bluetooth_enter_exit(self):
        """enter and exit commute under pendingIo > 1 (§2)."""
        rel = ConditionalCommutativity()
        pending = var("pendingIo")
        enter = assign(0, "pendingIo", add(pending, intc(1)))
        # exit: pendingIo -= 1; if it hits 0, set stoppingEvent
        from repro.logic import ite

        exit_ = assign(
            1,
            "pendingIo",
            sub(pending, intc(1)),
        )
        set_event = ConditionalCommutativity()
        # model the full Close/Exit: pendingIo := pendingIo - 1;
        # stoppingEvent := ite(pendingIo - 1 == 0, 1, stoppingEvent)
        from repro.lang.statements import Statement

        exit_full = Statement(
            1,
            "exit",
            updates={
                "pendingIo": sub(pending, intc(1)),
                "stoppingEvent": ite(
                    eq(sub(pending, intc(1)), intc(0)),
                    intc(1),
                    var("stoppingEvent"),
                ),
            },
        )
        enter_full = Statement(
            0,
            "enter",
            guard=eq(var("stoppingFlag"), intc(0)),
            updates={"pendingIo": add(pending, intc(1))},
        )
        # unconditionally: do NOT commute (order decides if event fires)
        assert not rel.commute(enter_full, exit_full)
        # under pendingIo > 1 they commute
        assert rel.commute_under(gt(pending, intc(1)), enter_full, exit_full)

    def test_monotone_in_context(self):
        rel = ConditionalCommutativity()
        a = assign(0, "x", intc(0))
        b = assign(1, "x", add(x, intc(1)))
        # under x == -1 ... still do not commute (0 vs 1)
        assert not rel.commute_under(eq(x, intc(-1)), a, b)
        # under false everything commutes
        from repro.logic import FALSE

        assert rel.commute_under(FALSE, a, b)

    def test_aliasing_style(self):
        """Two writes through the same variable commute when values equal."""
        rel = ConditionalCommutativity()
        a = assign(0, "x", y)
        b = assign(1, "x", z)
        assert not rel.commute(a, b)
        assert rel.commute_under(eq(y, z), a, b)
