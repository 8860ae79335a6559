"""Term-kernel tests: interning identity, differential semantics against
a structural reference, the connectives and normal forms against
reference copies that probe complements by building them, kernel
counters, pickle re-interning (in-process and across a real portfolio
worker), and the interner-leak guard.

The kernel invariant under test: for live nodes, structural equality is
object identity, and every precomputed per-node attribute (``free_vars``,
``size``, ``has_arrays``) agrees with a from-scratch recursive walk.
"""

from __future__ import annotations

import gc
import pickle
from copy import deepcopy

from hypothesis import given, settings, strategies as st

from repro import VerifierConfig, parse, verify
from repro.logic import (
    FALSE,
    TRUE,
    add,
    and_,
    avar,
    boolc,
    compact_kernel,
    eq,
    evaluate,
    intc,
    intern_table_size,
    ite,
    kernel_counters,
    le,
    mul,
    not_,
    or_,
    rename,
    select,
    store,
    sub,
    substitute,
    var,
)
from repro.logic import terms as tk
from repro.logic.solver import _find_ite, _rebuild_atom, lift_ite, to_nnf
from repro.verifier import Verdict, run_parallel_portfolio

SIMPLE = (
    "var x: int = 0; thread A { x := x + 1; } thread B { x := x + 1; } "
    "post: x == 2;"
)


# ---------------------------------------------------------------------------
# Interning identity
# ---------------------------------------------------------------------------


class TestInterningIdentity:
    def test_every_node_type_interns(self):
        # direct class construction must intern too (the contract for
        # new node types; see docs/solver.md) — __new__ is the interner
        x, y = var("ii_x"), var("ii_y")
        a = avar("ii_arr")
        pairs = [
            (tk.IntConst(12345), tk.IntConst(12345)),
            (tk.BoolConst(True), TRUE),
            (tk.Var("ii_x"), x),
            (tk.Add((x, tk.IntConst(999))), tk.Add((x, tk.IntConst(999)))),
            (tk.Mul(3, x), tk.Mul(3, x)),
            (tk.Ite(tk.Le(x, y), x, y), tk.Ite(tk.Le(x, y), x, y)),
            (tk.AVar("ii_arr"), a),
            (tk.Select(a, x), tk.Select(a, x)),
            (tk.Store(a, x, y), tk.Store(a, x, y)),
            (tk.Le(x, y), tk.Le(x, y)),
            (tk.Eq(x, y), tk.Eq(x, y)),
            (tk.Not(tk.Le(x, y)), tk.Not(tk.Le(x, y))),
            (tk.And((tk.Le(x, y), tk.Eq(x, y))), tk.And((tk.Le(x, y), tk.Eq(x, y)))),
            (tk.Or((tk.Le(x, y), tk.Eq(x, y))), tk.Or((tk.Le(x, y), tk.Eq(x, y)))),
        ]
        for first, second in pairs:
            assert first is second
            assert hash(first) == hash(second)

    def test_intern_counters_move(self):
        before = kernel_counters()
        t = add(var("kc_x"), intc(987_123))
        after = kernel_counters()
        assert after["intern_misses"] > before["intern_misses"]
        before = kernel_counters()
        again = add(var("kc_x"), intc(987_123))
        after = kernel_counters()
        assert again is t
        assert after["intern_hits"] >= before["intern_hits"] + 3
        assert after["intern_misses"] == before["intern_misses"]

    def test_distinct_structures_distinct_nodes(self):
        assert le(var("kd_x"), intc(1)) is not le(var("kd_x"), intc(2))
        assert intc(7) is not intc(8)
        # a BoolConst(True) key must never collide with IntConst(1)
        assert tk.BoolConst(True) is not tk.IntConst(1)


# ---------------------------------------------------------------------------
# Differential semantics: interned smart constructors vs a structural spec
# ---------------------------------------------------------------------------

_NAMES = ("dx", "dy", "dz")

_int_spec = st.deferred(
    lambda: st.one_of(
        st.integers(-3, 3).map(lambda v: ("int", v)),
        st.sampled_from(_NAMES).map(lambda n: ("var", n)),
        st.tuples(st.just("add"), _int_spec, _int_spec),
        st.tuples(st.just("mul"), st.integers(-2, 2), _int_spec),
        st.tuples(st.just("sub"), _int_spec, _int_spec),
        st.tuples(st.just("ite"), _bool_spec, _int_spec, _int_spec),
    )
)
_bool_spec = st.deferred(
    lambda: st.one_of(
        st.booleans().map(lambda v: ("bool", v)),
        st.tuples(st.just("le"), _int_spec, _int_spec),
        st.tuples(st.just("eq"), _int_spec, _int_spec),
        st.tuples(st.just("not"), _bool_spec),
        st.tuples(st.just("and"), _bool_spec, _bool_spec),
        st.tuples(st.just("or"), _bool_spec, _bool_spec),
    )
)
_envs = st.fixed_dictionaries({n: st.integers(-3, 3) for n in _NAMES})


def _build(spec) -> tk.Term:
    """Spec -> term through the (normalizing, interning) smart constructors."""
    tag = spec[0]
    if tag == "int":
        return intc(spec[1])
    if tag == "var":
        return var(spec[1])
    if tag == "add":
        return add(_build(spec[1]), _build(spec[2]))
    if tag == "mul":
        return mul(spec[1], _build(spec[2]))
    if tag == "sub":
        return sub(_build(spec[1]), _build(spec[2]))
    if tag == "ite":
        return ite(_build(spec[1]), _build(spec[2]), _build(spec[3]))
    if tag == "bool":
        return boolc(spec[1])
    if tag == "le":
        return le(_build(spec[1]), _build(spec[2]))
    if tag == "eq":
        return eq(_build(spec[1]), _build(spec[2]))
    if tag == "not":
        return not_(_build(spec[1]))
    if tag == "and":
        return and_(_build(spec[1]), _build(spec[2]))
    if tag == "or":
        return or_(_build(spec[1]), _build(spec[2]))
    raise AssertionError(spec)


def _ref_eval(spec, env):
    """Evaluate the spec directly: pre-interning structural semantics."""
    tag = spec[0]
    if tag == "int":
        return spec[1]
    if tag == "var":
        return env[spec[1]]
    if tag == "add":
        return _ref_eval(spec[1], env) + _ref_eval(spec[2], env)
    if tag == "mul":
        return spec[1] * _ref_eval(spec[2], env)
    if tag == "sub":
        return _ref_eval(spec[1], env) - _ref_eval(spec[2], env)
    if tag == "ite":
        branch = spec[2] if _ref_eval(spec[1], env) else spec[3]
        return _ref_eval(branch, env)
    if tag == "bool":
        return spec[1]
    if tag == "le":
        return _ref_eval(spec[1], env) <= _ref_eval(spec[2], env)
    if tag == "eq":
        return _ref_eval(spec[1], env) == _ref_eval(spec[2], env)
    if tag == "not":
        return not _ref_eval(spec[1], env)
    if tag == "and":
        return _ref_eval(spec[1], env) and _ref_eval(spec[2], env)
    if tag == "or":
        return _ref_eval(spec[1], env) or _ref_eval(spec[2], env)
    raise AssertionError(spec)


def _structural_free_vars(term: tk.Term) -> frozenset[str]:
    """Reference recomputation of free_vars by recursive walk."""
    if isinstance(term, (tk.Var, tk.AVar)):
        return frozenset((term.name,))
    if isinstance(term, (tk.IntConst, tk.BoolConst)):
        return frozenset()
    if isinstance(term, (tk.Add, tk.And, tk.Or)):
        out: frozenset[str] = frozenset()
        for a in term.args:
            out |= _structural_free_vars(a)
        return out
    if isinstance(term, (tk.Mul, tk.Not)):
        return _structural_free_vars(term.arg)
    if isinstance(term, (tk.Le, tk.Eq)):
        return _structural_free_vars(term.lhs) | _structural_free_vars(term.rhs)
    if isinstance(term, tk.Ite):
        return (
            _structural_free_vars(term.cond)
            | _structural_free_vars(term.then)
            | _structural_free_vars(term.else_)
        )
    if isinstance(term, tk.Select):
        return _structural_free_vars(term.array) | _structural_free_vars(term.index)
    if isinstance(term, tk.Store):
        return (
            _structural_free_vars(term.array)
            | _structural_free_vars(term.index)
            | _structural_free_vars(term.value)
        )
    raise TypeError(repr(term))


def _structural_size(term: tk.Term) -> int:
    if isinstance(term, (tk.Var, tk.AVar, tk.IntConst, tk.BoolConst)):
        return 1
    if isinstance(term, (tk.Add, tk.And, tk.Or)):
        return 1 + sum(_structural_size(a) for a in term.args)
    if isinstance(term, (tk.Mul, tk.Not)):
        return 1 + _structural_size(term.arg)
    if isinstance(term, (tk.Le, tk.Eq)):
        return 1 + _structural_size(term.lhs) + _structural_size(term.rhs)
    if isinstance(term, tk.Ite):
        return (
            1
            + _structural_size(term.cond)
            + _structural_size(term.then)
            + _structural_size(term.else_)
        )
    if isinstance(term, tk.Select):
        return 1 + _structural_size(term.array) + _structural_size(term.index)
    if isinstance(term, tk.Store):
        return (
            1
            + _structural_size(term.array)
            + _structural_size(term.index)
            + _structural_size(term.value)
        )
    raise TypeError(repr(term))


class TestDifferentialSemantics:
    @settings(max_examples=150, deadline=None)
    @given(spec=_bool_spec, env=_envs)
    def test_interned_terms_keep_structural_semantics(self, spec, env):
        term = _build(spec)
        assert bool(evaluate(term, env)) == bool(_ref_eval(spec, env))
        # rebuilding the same spec lands on the same canonical node
        assert _build(spec) is term

    @settings(max_examples=150, deadline=None)
    @given(spec=_bool_spec)
    def test_precomputed_attributes_match_reference_walk(self, spec):
        term = _build(spec)
        assert term.free_vars == _structural_free_vars(term)
        assert term.size == _structural_size(term)
        assert not term.has_arrays

    @settings(max_examples=100, deadline=None)
    @given(spec=_bool_spec, env=_envs, value=st.integers(-3, 3))
    def test_substitute_agrees_with_evaluation(self, spec, env, value):
        term = _build(spec)
        substituted = substitute(term, {"dx": intc(value)})
        env_after = dict(env)
        env_after["dx"] = value
        assert bool(evaluate(substituted, env_after)) == bool(
            evaluate(term, env_after)
        )

    @settings(max_examples=100, deadline=None)
    @given(spec=_bool_spec)
    def test_pickle_roundtrip_is_identity(self, spec):
        term = _build(spec)
        assert pickle.loads(pickle.dumps(term)) is term


# ---------------------------------------------------------------------------
# Connectives and normal forms against reference copies that build nodes
# ---------------------------------------------------------------------------


def _ref_connective(args, node_type, unit, zero):
    """``and_``/``or_`` as a list scan probing each complement by ``not_``."""
    flat: list = []
    for a in args:
        if isinstance(a, node_type):
            flat.extend(a.args)
        elif a is unit:
            pass
        elif a is zero:
            return zero
        else:
            flat.append(a)
    seen: list = []
    for a in flat:
        if a not in seen:
            if not_(a) in seen:
                return zero
            seen.append(a)
    if not seen:
        return unit
    if len(seen) == 1:
        return seen[0]
    return node_type(tuple(seen))


def _ref_nnf(f, negate=False):
    """NNF that rebuilds every connective through ``and_``/``or_``."""
    if isinstance(f, tk.BoolConst):
        return boolc(f.value != negate)
    if isinstance(f, tk.Not):
        return _ref_nnf(f.arg, not negate)
    if isinstance(f, (tk.And, tk.Or)):
        parts = [_ref_nnf(a, negate) for a in f.args]
        return (or_ if isinstance(f, tk.And) == negate else and_)(*parts)
    return not_(f) if negate else f


def _ref_lift(f):
    """Ite lifting that rebuilds every connective through ``and_``/``or_``."""
    if isinstance(f, tk.BoolConst):
        return f
    if isinstance(f, tk.Not):
        return not_(_ref_lift(f.arg))
    if isinstance(f, (tk.And, tk.Or)):
        parts = [_ref_lift(a) for a in f.args]
        return (and_ if isinstance(f, tk.And) else or_)(*parts)
    for side in (f.lhs, f.rhs):
        found = _find_ite(side)
        if found is not None:
            cond = _ref_lift(found.cond)
            return or_(
                and_(cond, _ref_lift(_rebuild_atom(f, found, found.then))),
                and_(not_(cond), _ref_lift(_rebuild_atom(f, found, found.else_))),
            )
    return f


#: atoms over one variable, so duplicates and complements are frequent;
#: the raw ``tk.Not``/``tk.And``/``tk.Or`` cases reach shapes the smart
#: constructors never build (a Not over a constant, constants nested in
#: an And)
_operands = st.recursive(
    st.one_of(
        st.integers(0, 3).map(lambda k: le(var("cp_x"), intc(k))),
        st.sampled_from((TRUE, FALSE)),
    ),
    lambda inner: st.one_of(
        inner.map(not_),
        inner.map(tk.Not),
        st.lists(inner, max_size=4).map(lambda xs: and_(*xs)),
        st.lists(inner, max_size=4).map(lambda xs: or_(*xs)),
        st.lists(inner, min_size=2, max_size=4).map(lambda xs: tk.And(tuple(xs))),
        st.lists(inner, min_size=2, max_size=4).map(lambda xs: tk.Or(tuple(xs))),
    ),
    max_leaves=8,
)


class TestConnectives:
    @settings(max_examples=300, deadline=None)
    @given(args=st.lists(_operands, max_size=6))
    def test_and_or_match_the_list_scan(self, args):
        assert and_(*args) is _ref_connective(args, tk.And, TRUE, FALSE)
        assert or_(*args) is _ref_connective(args, tk.Or, FALSE, TRUE)

    @settings(max_examples=150, deadline=None)
    @given(spec=_bool_spec)
    def test_normal_forms_match_full_rebuilds(self, spec):
        term = _build(spec)
        assert lift_ite(term) is _ref_lift(term)
        assert to_nnf(term) is _ref_nnf(term)
        assert to_nnf(term, negate=True) is _ref_nnf(term, True)

    def test_rebuilding_a_connective_builds_no_node(self):
        a = le(var("rb_x"), intc(1))
        b = eq(var("rb_y"), var("rb_x"))
        conj, disj = and_(a, b), or_(a, b)
        before = kernel_counters()["intern_misses"]
        assert and_(a, b) is conj
        assert or_(a, b) is disj
        assert kernel_counters()["intern_misses"] == before


class TestInternTable:
    def test_dropped_nodes_leave_the_table(self):
        gc.collect()
        baseline = intern_table_size()
        node = and_(le(var("dt_x"), intc(777_001)), eq(var("dt_y"), intc(777_002)))
        first_nid = node.nid
        assert intern_table_size() > baseline
        del node
        gc.collect()
        assert intern_table_size() == baseline
        node = and_(le(var("dt_x"), intc(777_001)), eq(var("dt_y"), intc(777_002)))
        assert node.nid > first_nid
        assert and_(le(var("dt_x"), intc(777_001)), eq(var("dt_y"), intc(777_002))) is node

    def test_hash_is_the_structural_hash(self):
        x, y, a = var("sh_x"), var("sh_y"), avar("sh_a")
        atom = le(x, y)
        cases = [
            (tk.BoolConst(False), 0, (False,)),
            (tk.IntConst(123_457), 1, (123_457,)),
            (x, 2, ("sh_x",)),
            (tk.Add((x, y)), 3, ((x, y),)),
            (tk.Mul(3, x), 5, (3, x)),
            (tk.Ite(atom, x, y), 7, (atom, x, y)),
            (a, 8, ("sh_a",)),
            (tk.Select(a, x), 11, (a, x)),
            (tk.Store(a, x, y), 13, (a, x, y)),
            (atom, 17, (x, y)),
            (tk.Eq(x, y), 19, (x, y)),
            (tk.Not(atom), 23, (atom,)),
            (tk.And((atom, tk.Eq(x, y))), 29, ((atom, tk.Eq(x, y)),)),
            (tk.Or((atom, tk.Eq(x, y))), 31, ((atom, tk.Eq(x, y)),)),
        ]
        assert {tag for _, tag, _ in cases} == set(tk._NODE_TYPES)
        for node, tag, fields in cases:
            assert hash(node) == hash((tag, *fields))
            assert node.__reduce__()[1] == (tag, *fields)


# ---------------------------------------------------------------------------
# Memoized traversals and counters
# ---------------------------------------------------------------------------


class TestMemoizedTraversals:
    def test_substitute_prunes_disjoint_mappings(self):
        term = le(add(var("sm_a"), var("sm_b")), intc(7))
        before = kernel_counters()["substitute_hits"]
        assert substitute(term, {"sm_zq": intc(1)}) is term
        assert kernel_counters()["substitute_hits"] == before + 1

    def test_substitute_memoizes_by_node_and_mapping(self):
        term = le(add(var("sm_c"), var("sm_d")), intc(7))
        mapping = {"sm_c": intc(3)}
        first = substitute(term, mapping)
        hits_before = kernel_counters()["substitute_hits"]
        second = substitute(term, mapping)
        assert second is first
        assert kernel_counters()["substitute_hits"] > hits_before
        assert evaluate(first, {"sm_d": 4})  # 3 + 4 <= 7

    def test_free_vars_is_precomputed(self):
        term = and_(le(var("fv_x"), intc(0)), eq(var("fv_y"), var("fv_x")))
        before = kernel_counters()["free_vars_calls"]
        assert tk.free_vars(term) == frozenset({"fv_x", "fv_y"})
        assert kernel_counters()["free_vars_calls"] == before + 1
        assert term.free_vars is tk.free_vars(term)  # same frozenset object

    def test_rename_reuses_interned_vars(self):
        term = eq(var("rn_a"), var("rn_b"))
        renamed = rename(term, {"rn_a": "rn_c"})
        assert renamed is eq(var("rn_c"), var("rn_b"))
        assert rename(term, {"rn_a": "rn_c"}) is renamed

    def test_array_nodes_pickle_and_flag(self):
        chain = store(avar("pa_m"), var("pa_i"), intc(4))
        read = select(chain, var("pa_j"))
        assert chain.has_arrays and read.has_arrays
        assert not le(var("pa_i"), intc(0)).has_arrays
        assert pickle.loads(pickle.dumps(read)) is read
        assert deepcopy(read) is read


# ---------------------------------------------------------------------------
# Compaction and the registered-memo registry
# ---------------------------------------------------------------------------


class TestCompaction:
    def test_compact_kernel_clears_registered_memos(self):
        cache = tk.register_kernel_cache({})
        try:
            cache[("sentinel",)] = TRUE
            before = kernel_counters()["kernel_compactions"]
            dropped = compact_kernel(0)
            assert dropped >= 1
            assert not cache
            assert kernel_counters()["kernel_compactions"] == before + 1
        finally:
            tk._kernel_caches.remove(cache)

    def test_compact_kernel_respects_threshold(self):
        compact_kernel(0)  # start empty
        assert compact_kernel(10**12) == 0  # under budget: no-op

    def test_canonicity_survives_compaction(self):
        term = le(add(var("cc_x"), intc(1)), var("cc_y"))
        compact_kernel(0)
        assert le(add(var("cc_x"), intc(1)), var("cc_y")) is term


# ---------------------------------------------------------------------------
# Cross-process re-interning and the leak guard
# ---------------------------------------------------------------------------


class TestProcessBoundaries:
    def test_reintern_across_real_portfolio_worker(self):
        program = parse(SIMPLE, name="incr2")
        before = kernel_counters()["reintern_count"]
        outcome = run_parallel_portfolio(
            program, VerifierConfig(max_rounds=20), seeds=(1,)
        )
        assert outcome.verdict == Verdict.CORRECT
        winner = outcome.winner
        assert winner is not None and winner.predicates
        # deserializing the workers' results re-interned their terms here
        assert kernel_counters()["reintern_count"] > before
        # ... and the parent-side share is attributed to the winner
        assert winner.query_stats is not None
        assert winner.query_stats.reintern_count > 0
        # the deserialized predicates are canonical in this process
        for predicate in winner.predicates:
            assert pickle.loads(pickle.dumps(predicate)) is predicate

    def test_intern_table_returns_to_baseline_after_verify(self):
        program = parse(SIMPLE, name="incr2")
        compact_kernel(0)
        gc.collect()
        baseline = intern_table_size()
        result = verify(program, config=VerifierConfig(max_rounds=20))
        assert result.verdict == Verdict.CORRECT
        assert intern_table_size() > baseline  # the run built terms
        del result
        compact_kernel(0)
        gc.collect()
        # nothing outside the (cleared) memos pins the run's terms
        assert intern_table_size() <= baseline + 16
