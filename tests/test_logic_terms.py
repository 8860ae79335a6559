"""Unit tests for the term language and smart constructors."""

from repro.logic import (
    FALSE,
    TRUE,
    add,
    and_,
    eq,
    evaluate,
    free_vars,
    ge,
    iff,
    implies,
    intc,
    ite,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    rename,
    sub,
    substitute,
    var,
)
from repro.logic.terms import Add, compile_eval


x, y, z = var("x"), var("y"), var("z")


class TestArithmeticConstructors:
    def test_add_folds_constants(self):
        assert add(intc(2), intc(3)) == intc(5)

    def test_add_flattens(self):
        t = add(add(x, y), z)
        assert isinstance(t, Add)
        assert t.args == (x, y, z)

    def test_add_drops_zero(self):
        assert add(x, intc(0)) == x

    def test_add_empty_is_zero(self):
        assert add() == intc(0)

    def test_mul_by_zero(self):
        assert mul(0, x) == intc(0)

    def test_mul_by_one(self):
        assert mul(1, x) == x

    def test_mul_distributes_over_add(self):
        t = mul(2, add(x, intc(3)))
        assert evaluate(t, {"x": 5}) == 16

    def test_mul_collapses_nested(self):
        t = mul(2, mul(3, x))
        assert evaluate(t, {"x": 1}) == 6

    def test_sub(self):
        assert evaluate(sub(x, y), {"x": 7, "y": 4}) == 3


class TestBooleanConstructors:
    def test_and_true_identity(self):
        assert and_(TRUE, le(x, y)) == le(x, y)

    def test_and_false_annihilates(self):
        assert and_(le(x, y), FALSE) == FALSE

    def test_and_dedups(self):
        a = le(x, y)
        assert and_(a, a) == a

    def test_and_detects_contradiction(self):
        a = le(x, y)
        assert and_(a, not_(a)) == FALSE
        assert and_(not_(a), a) == FALSE

    def test_or_detects_tautology(self):
        a = le(x, y)
        assert or_(a, not_(a)) == TRUE
        assert or_(not_(a), a) == TRUE

    def test_not_involution(self):
        a = le(x, y)
        assert not_(not_(a)) == a

    def test_not_constant(self):
        assert not_(TRUE) == FALSE

    def test_implies_shape(self):
        t = implies(TRUE, le(x, y))
        assert t == le(x, y)

    def test_iff_constants(self):
        assert iff(TRUE, TRUE) == TRUE
        assert iff(TRUE, FALSE) == FALSE

    def test_operator_overloads(self):
        a, b = le(x, y), le(y, z)
        assert (a & b) == and_(a, b)
        assert (a | b) == or_(a, b)
        assert (~a) == not_(a)


class TestComparisons:
    def test_le_constant_fold(self):
        assert le(intc(1), intc(2)) == TRUE
        assert le(intc(3), intc(2)) == FALSE

    def test_lt_is_integer_shifted_le(self):
        t = lt(x, y)
        assert evaluate(t, {"x": 1, "y": 2})
        assert not evaluate(t, {"x": 2, "y": 2})

    def test_eq_reflexive(self):
        assert eq(x, x) == TRUE

    def test_eq_constant_fold(self):
        assert eq(intc(2), intc(2)) == TRUE
        assert eq(intc(2), intc(3)) == FALSE

    def test_ne(self):
        assert evaluate(ne(x, y), {"x": 1, "y": 2})

    def test_ge(self):
        assert evaluate(ge(x, y), {"x": 3, "y": 2})


class TestIte:
    def test_ite_constant_cond(self):
        assert ite(TRUE, x, y) == x
        assert ite(FALSE, x, y) == y

    def test_ite_same_branches(self):
        assert ite(le(x, y), z, z) == z

    def test_ite_evaluation(self):
        t = ite(le(x, y), intc(1), intc(0))
        assert evaluate(t, {"x": 0, "y": 5}) == 1
        assert evaluate(t, {"x": 6, "y": 5}) == 0


class TestTraversals:
    def test_free_vars(self):
        t = and_(le(add(x, y), intc(3)), eq(z, intc(0)))
        assert free_vars(t) == {"x", "y", "z"}

    def test_free_vars_constant(self):
        assert free_vars(TRUE) == frozenset()

    def test_substitute(self):
        t = le(add(x, y), intc(3))
        s = substitute(t, {"x": intc(1)})
        assert free_vars(s) == {"y"}
        assert evaluate(s, {"y": 2})
        assert not evaluate(s, {"y": 3})

    def test_substitute_simultaneous(self):
        # x -> y, y -> x must swap, not chain
        t = sub(x, y)
        s = substitute(t, {"x": y, "y": x})
        assert evaluate(s, {"x": 1, "y": 5}) == 4

    def test_rename(self):
        t = le(x, y)
        assert free_vars(rename(t, {"x": "a"})) == {"a", "y"}

    def test_substitute_empty_is_identity(self):
        t = le(x, y)
        assert substitute(t, {}) is t


class TestCompileEval:
    """compile_eval must agree with evaluate on every node type."""

    TERMS = [
        intc(7),
        TRUE,
        x,
        add(x, mul(3, y), intc(-2)),
        and_(le(x, y), or_(eq(y, z), not_(le(z, x)))),
        ite(le(x, y), add(x, intc(1)), mul(2, z)),
        implies(le(x, intc(0)), eq(y, z)),
    ]

    ENVS = [
        {"x": 0, "y": 0, "z": 0},
        {"x": 1, "y": 2, "z": 3},
        {"x": 5, "y": -5, "z": 2},
        {"x": -1, "y": -1, "z": 7},
    ]

    def test_matches_evaluate(self):
        for t in self.TERMS:
            fn = compile_eval(t)
            for env in self.ENVS:
                assert fn(env) == evaluate(t, env), (t, env)

    def test_memoized_by_nid(self):
        t = add(x, y)
        assert compile_eval(t) is compile_eval(t)

    def test_missing_var_raises_keyerror(self):
        fn = compile_eval(add(x, y))
        try:
            fn({"x": 1})
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError, matching evaluate")
