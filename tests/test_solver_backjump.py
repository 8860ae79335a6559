"""Backjumping search, its compiled form, and the model-pool probe.

The search is checked against a transcription of the chronological
search it replaced: same verdicts and models, never more nodes, and
under small budgets an UNKNOWN may only turn into a definite answer.
The compiled search (constraint masks, flattened And/Or items) is
checked against a transcription of the search over terms and constraint
sets that it replaced: the same nodes in the same order, so the same
verdicts, models, node counts and explanations.  Fourier–Motzkin over
integer rows is checked against a transcription of the elimination over
:class:`LinearConstraint` objects it replaced.  The pool probe is
checked against a transcription of the linear scan it replaced, over
random pools that overflow the 64-model cap.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.logic.fourier as fourier
import repro.logic.solver as solver_module
from repro.logic import (
    BoolConst,
    Solver,
    add,
    and_,
    avar,
    eq,
    intc,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    select,
    var,
)
from repro.logic.atoms import LinExpr, LinearConstraint
from repro.logic.fourier import (
    _solve,
    canonical,
    constraints_of,
    fm_project,
    integer_model_of,
    mask_of,
    rational_core,
    rationally_feasible,
    tighten,
)
from repro.logic.solver import (
    And,
    Or,
    SolverUnknown,
    _is_literal,
    _theory_branches,
)
from repro.logic.terms import compact_kernel, compile_eval

_NO_CONSTRAINTS = frozenset()


def _row(c):
    return c.expr.coeffs, c.expr.const

# -- the chronological search, as it was before backjumping ------------------


class _Chronological(Solver):
    """:class:`Solver` with the search that splits in the same order but
    never skips a side and never asks for a core."""

    def _search_root(self, nnf):
        hit = self._chronological([nnf], _NO_CONSTRAINTS, _NO_CONSTRAINTS)
        return 0 if hit is None else hit

    def _chronological(self, pending, key, branch):
        self._nodes_this_query += 1
        if self._nodes_this_query > self._node_budget:
            raise SolverUnknown("per-query node budget exceeded")
        if branch is None:
            return None
        parts = [branch] if branch else []
        ors = []
        alternatives = []
        work = list(pending)
        while work:
            f = work.pop()
            if isinstance(f, BoolConst):
                if not f.value:
                    return None
            elif isinstance(f, And):
                work.extend(f.args)
            elif isinstance(f, Or):
                ors.append(f)
            elif _is_literal(f):
                branches = _theory_branches(f)
                if len(branches) == 1:
                    if branches[0] is None:
                        return None
                    parts.append(branches[0])
                else:
                    alternatives.append(f)
            else:
                raise TypeError(f"unexpected node in NNF search: {f!r}")
        grown = key.union(*parts) if parts else key
        if len(grown) > len(key):
            if (ors or alternatives) and not rationally_feasible(grown):
                return None
            key = grown
        if alternatives:
            f = alternatives.pop()
            rest = ors + alternatives
            for side in _theory_branches(f):
                hit = self._chronological(rest, key, side)
                if hit is not None:
                    return hit
            return None
        if ors:
            f = ors.pop()
            for arg in f.args:
                hit = self._chronological(ors + [arg], key, _NO_CONSTRAINTS)
                if hit is not None:
                    return hit
            return None
        return integer_model_of(key, budget=self._branch_budget)


def _outcome(solver, formula):
    try:
        model = solver.model(formula)
    except SolverUnknown:
        return "UNKNOWN"
    return "UNSAT" if model is None else ("SAT", sorted(model.items()))


# -- formulas: And, Or, disequalities and integer gaps ----------------------

_VARS = tuple(var(f"bj_{name}") for name in "xyz")


def _linear():
    # a scale above 1 gives every coefficient a common factor, so that
    # equalities between two scaled sides can fall between integers
    return st.tuples(
        st.sampled_from((1, 1, 2, 3)),
        st.lists(
            st.tuples(st.integers(-3, 3), st.sampled_from(_VARS)),
            min_size=1, max_size=3,
        ),
        st.integers(-6, 6),
    ).map(lambda t: add(*(mul(t[0] * c, v) for c, v in t[1]), intc(t[2])))


def _formulas(*extra_atoms):
    pair = st.tuples(_linear(), _linear())
    atom = st.one_of(
        pair.map(lambda t: le(*t)),
        pair.map(lambda t: lt(*t)),
        pair.map(lambda t: eq(*t)),
        pair.map(lambda t: ne(*t)),
        *extra_atoms,
    )
    clause = st.recursive(
        atom,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda a: or_(*a)),
            st.lists(inner, min_size=2, max_size=3).map(lambda a: and_(*a)),
        ),
        max_leaves=8,
    )
    return st.lists(clause, min_size=2, max_size=6).map(lambda c: and_(*c))


@settings(max_examples=150, deadline=None)
@given(_formulas())
def test_search_agrees_with_chronological_search(formula):
    """At default budgets: equal verdicts and models, never more nodes."""
    new, old = Solver(), _Chronological()
    answer = _outcome(new, formula)
    assert answer == _outcome(old, formula)
    assert new.stats.nodes_searched <= old.stats.nodes_searched
    assert new.stats.max_query_nodes <= old.stats.max_query_nodes


@settings(max_examples=150, deadline=None)
@given(
    _formulas(),
    st.sampled_from(({"node_budget": 4}, {"node_budget": 8}, {"branch_budget": 1})),
)
def test_small_budgets_only_turn_unknown_into_answers(formula, budget):
    answer = _outcome(Solver(**budget), formula)
    reference = _outcome(_Chronological(**budget), formula)
    if reference != "UNKNOWN":
        assert answer == reference
    if answer == "UNKNOWN":
        assert reference == "UNKNOWN"


@settings(max_examples=60, deadline=None)
@given(_formulas())
def test_search_cores_are_infeasible_subsets(formula):
    seen = []
    original = solver_module.mask_core

    def recording(key):
        core = original(key)
        seen.append((constraints_of(key), constraints_of(core) if core else None))
        return core

    solver_module.mask_core = recording
    try:
        _outcome(Solver(), formula)
    finally:
        solver_module.mask_core = original
    for key, core in seen:
        if core is None:
            assert rationally_feasible(key)
        else:
            assert core and core <= key
            assert not rationally_feasible(core)
            assert rational_core(core) is not None


def test_backjumping_skips_sides_the_conflict_does_not_depend_on():
    """Two splits over unrelated variables above a split whose sides
    both contradict the root's ``x >= 1`` (in this conjunct order the
    search splits on ``y``, then ``z``, then ``x``).  Chronologically,
    the ``x`` split is repeated under all four ``y``/``z`` choices:
    1 + 2 * (1 + 2 * (1 + 2)) = 15 nodes.  Its failure depends on
    neither choice, so the search backjumps to the root after the first
    try: root, ``y``, ``z`` and the two ``x`` sides, 5 nodes."""
    x, y, z = _VARS
    formula = and_(
        le(intc(1), x),
        or_(le(y, intc(0)), le(intc(5), y)),
        or_(eq(x, intc(-3)), le(x, intc(0))),
        or_(le(z, intc(0)), le(intc(5), z)),
    )
    new, old = Solver(), _Chronological()
    assert new.model(formula) is None
    assert old.model(formula) is None
    assert (new.stats.nodes_searched, old.stats.nodes_searched) == (5, 15)


@pytest.mark.parametrize("dead", ["or", "disequality"])
def test_a_failed_split_depends_on_the_choice_that_introduced_it(dead):
    """A split whose every side contradicts the root fails for a reason
    that includes the choice which put the split formula on the branch:
    the outer split must go on to its second side, which is satisfiable."""
    x, y, _ = _VARS
    root = and_(le(intc(1), x), le(x, intc(1)))
    if dead == "or":
        inner = or_(le(x, intc(0)), eq(x, intc(3)))
    else:
        inner = ne(x, intc(1))
    formula = and_(root, or_(and_(inner, le(intc(0), y)), le(y, intc(-2))))
    model = Solver().model(formula)
    assert model is not None and model["bj_y"] <= -2
    assert _outcome(Solver(), formula) == _outcome(_Chronological(), formula)


@pytest.mark.parametrize("swap", [False, True])
def test_an_integer_gap_explains_with_every_depth(swap):
    """``2x + 3y = 1`` with ``y = 0`` has rational models but no integer
    one, and no core names why: the leaf's failure must not let any
    split above it skip a side.  The first ``y`` side leaves the gap, the
    second (``y = 1``) has an integer model."""
    x, y, z = _VARS
    ors = [or_(eq(y, intc(0)), eq(y, intc(1))), or_(le(z, intc(0)), le(intc(5), z))]
    if swap:
        ors.reverse()
    formula = and_(eq(add(mul(2, x), mul(3, y)), intc(1)), *ors)
    answer = _outcome(Solver(), formula)
    assert answer == _outcome(_Chronological(), formula)
    assert answer != "UNSAT"


# -- the compiled search against the search over terms ----------------------


class _Recording(Solver):
    """:class:`Solver` that records the explanation every failed search
    node returns, in the order the nodes return."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.explanations = []

    def _search(self, *args):
        hit = super()._search(*args)
        if hit.__class__ is int:
            self.explanations.append(hit)
        return hit


class _TermSearch(_Recording):
    """The search before it was compiled: it walks :class:`Term` nodes,
    keys nodes by constraint sets and explains by binary search over the
    path."""

    def _search_root(self, nnf):
        return self._term_search([(nnf, 0)], _NO_CONSTRAINTS, _NO_CONSTRAINTS, 0)

    def _term_search(self, pending, key, branch, depth):
        hit = self._term_node(pending, key, branch, depth)
        if hit.__class__ is int:
            self.explanations.append(hit)
        return hit

    def _term_node(self, pending, key, branch, depth):
        self._nodes_this_query += 1
        if self._nodes_this_query > self._node_budget:
            raise SolverUnknown("per-query node budget exceeded")
        if branch is None:
            return 1 << depth
        parts = [branch] if branch else []
        ors = []
        alternatives = []
        work = list(pending)
        while work:
            item = work.pop()
            f, tag = item
            if isinstance(f, BoolConst):
                if not f.value:
                    return 1 << tag
            elif isinstance(f, And):
                work.extend([(a, tag) for a in f.args])
            elif isinstance(f, Or):
                ors.append(item)
            elif _is_literal(f):
                branches = _theory_branches(f)
                if len(branches) == 1:
                    if branches[0] is None:
                        return 1 << tag
                    parts.append(branches[0])
                else:
                    alternatives.append(item)
            else:
                raise TypeError(f"unexpected node in NNF search: {f!r}")
        path = self._path
        del path[depth:]
        grown = key.union(*parts) if parts else key
        if len(grown) > len(key):
            path.append(grown)
            if ors or alternatives:
                core = rational_core(grown)
                if core is not None:
                    return self._term_explain(core, depth)
            key = grown
        else:
            path.append(key)
        child = depth + 1
        here = 1 << child
        if alternatives:
            f, tag = alternatives.pop()
            rest = ors + alternatives
            why = 1 << tag
            for side in _theory_branches(f):
                hit = self._term_search(rest, key, side, child)
                if hit.__class__ is not int:
                    return hit
                if not hit & here:
                    return hit
                why |= hit ^ here
            return why
        if ors:
            f, tag = ors.pop()
            why = 1 << tag
            for arg in f.args:
                hit = self._term_search(ors + [(arg, child)], key, _NO_CONSTRAINTS, child)
                if hit.__class__ is not int:
                    return hit
                if not hit & here:
                    return hit
                why |= hit ^ here
            return why
        model = integer_model_of(key, budget=self._branch_budget)
        if model is not None:
            return model
        core = rational_core(key)
        if core is None:
            return here - 1
        return self._term_explain(core, depth)

    def _term_explain(self, core, depth):
        path = self._path
        why = 0
        for c in core:
            lo, hi = 0, depth
            while lo < hi:
                mid = (lo + hi) >> 1
                if c in path[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            why |= 1 << lo
        return why


_PAD = tuple(var(f"bj_pad{i}") for i in range(2))


def _cancelling():
    """Atoms whose variables cancel: trivially true or false."""
    return st.tuples(
        _linear(), st.integers(-1, 1), st.sampled_from((le, eq, ne))
    ).map(lambda t: t[2](add(t[0], intc(t[1])), t[0]))


def _wide_formulas():
    """:func:`_formulas` with trivially true and false atoms among the
    others, and up to 33 distinct bounds on each of two padding
    variables, so that a query's constraint mask often passes 64 bits."""
    return st.tuples(
        _formulas(_cancelling()), st.integers(0, 33), st.integers(0, 33)
    ).map(
        lambda t: and_(
            t[0],
            *(le(_PAD[0], intc(40 + k)) for k in range(t[1])),
            *(le(intc(-40 - k), _PAD[1]) for k in range(t[2])),
        )
    )


def _explained(solver, formula):
    return (
        _outcome(solver, formula),
        solver.stats.nodes_searched,
        solver.stats.max_query_nodes,
        solver.explanations,
    )


@settings(max_examples=150, deadline=None)
@given(
    _wide_formulas(),
    st.sampled_from(({}, {"node_budget": 6}, {"branch_budget": 2})),
)
def test_compiled_search_visits_the_term_search_nodes(formula, budget):
    """Equal verdicts, models, node counts, and the same explanation at
    every failed node, in the same order."""
    assert _explained(_Recording(**budget), formula) == _explained(
        _TermSearch(**budget), formula
    )


def test_wide_formulas_pass_a_machine_word():
    formula = and_(
        le(_VARS[0], intc(3)),
        *(le(_PAD[0], intc(40 + k)) for k in range(33)),
        *(le(intc(-40 - k), _PAD[1]) for k in range(33)),
    )
    key = canonical(
        c for f in formula.args for side in _theory_branches(f) for c in side
    )
    assert len(key) == 67 and mask_of(key).bit_length() > 64
    assert _explained(_Recording(), formula) == _explained(_TermSearch(), formula)


def test_compaction_keeps_constraint_ids():
    """A kernel compaction drops the mask-keyed memo, never an id: a set
    has the same mask before and after."""
    key = canonical([LinearConstraint(LinExpr.of({"bj_id": 3}, -7))])
    before = mask_of(key)
    assert rationally_feasible(key)
    compact_kernel()
    assert not fourier._model_cache
    assert mask_of(key) == before and constraints_of(before) == key


# -- cores -------------------------------------------------------------------


def _le0(coeffs, const):
    return LinearConstraint(LinExpr.of(coeffs, const))


_rows = st.lists(
    st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
        st.integers(-6, 6),
    ),
    min_size=2,
    max_size=9,
)


@settings(max_examples=150, deadline=None)
@given(_rows, st.randoms(use_true_random=False))
def test_core_is_an_infeasible_subset_independent_of_order(rows, rng):
    key = canonical(_le0({"x": a, "y": b, "z": c}, k) for a, b, c, k in rows)
    if key is None:
        return
    core = rational_core(key)
    if core is None:
        assert rationally_feasible(key)
        return
    assert core and core <= key
    assert rational_core(core) is not None
    assert not rationally_feasible(core)
    shuffled = [_row(c) for c in key]
    for _ in range(4):
        rng.shuffle(shuffled)
        assert _solve(shuffled) == {_row(c) for c in core}


# -- integer-row elimination against elimination over constraints ------------


def _old_project(constraints, masks, variable):
    lowers, uppers, new, new_masks = [], [], [], []
    for c, mask in zip(constraints, masks):
        coeffs = c.expr.coeffs
        coeff = dict(coeffs).get(variable, 0)
        if coeff == 0:
            new.append(c)
            new_masks.append(mask)
            continue
        remainder = LinExpr(tuple(p for p in coeffs if p[0] != variable), c.expr.const)
        if coeff > 0:
            uppers.append((coeff, remainder, mask))
        else:
            lowers.append((-coeff, remainder, mask))
    for cu, ru, mu in uppers:
        for cl, rl, ml in lowers:
            new.append(LinearConstraint(ru.combine(cl, rl, cu)))
            new_masks.append(mu | ml)
    out, out_masks, seen = [], [], set()
    for c, mask in zip(new, new_masks):
        c = tighten(c)
        if c.trivially_false:
            return mask
        if c.trivially_true or c in seen:
            continue
        seen.add(c)
        out.append(c)
        out_masks.append(mask)
    return out, out_masks


def _old_bounds_for(variable, constraints, env):
    lo = hi = None
    for c in constraints:
        coeff = dict(c.expr.coeffs).get(variable, 0)
        if coeff == 0:
            continue
        value = Fraction(c.expr.const)
        for v, co in c.expr.coeffs:
            if v != variable:
                value += co * env[v]
        bound = Fraction(-value, coeff)
        if coeff > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    return lo, hi


def _old_pick_value(lo, hi):
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(math.floor(hi))
    if hi is None:
        return Fraction(math.ceil(lo))
    ceil_lo = Fraction(math.ceil(lo))
    return ceil_lo if ceil_lo <= hi else (lo + hi) / 2


def _old_solve(cons):
    """Elimination over :class:`LinearConstraint` objects, as it was."""
    ordered = sorted(cons, key=lambda c: (c.expr.coeffs, c.expr.const))
    masks = [1 << i for i in range(len(ordered))]
    variables = sorted({v for c in ordered for v, _ in c.expr.coeffs})
    stages = []
    current = ordered
    for v in variables:
        stages.append((v, current))
        projected = _old_project(current, masks, v)
        if projected.__class__ is int:
            return frozenset(c for i, c in enumerate(ordered) if projected >> i & 1)
        current, masks = projected
    env = {}
    for v, cons_at in reversed(stages):
        env[v] = _old_pick_value(*_old_bounds_for(v, cons_at, env))
    return env


_wide_rows = st.lists(
    st.tuples(
        st.sampled_from((1, 1, 2, 3)),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
        st.integers(-3, 3), st.integers(-9, 9),
    ),
    min_size=1,
    max_size=10,
)


def _constraint_set(rows):
    return canonical(
        _le0({"a": g * a, "b": g * b, "c": g * c, "d": g * d}, k)
        for g, a, b, c, d, k in rows
    )


@settings(max_examples=200, deadline=None)
@given(_wide_rows)
def test_row_elimination_matches_constraint_elimination(rows):
    """The same model, with values in the same order, or the same core."""
    key = _constraint_set(rows)
    if not key:
        return
    old = _old_solve(list(key))
    new = _solve([_row(c) for c in key])
    if old.__class__ is dict:
        assert list(new.items()) == list(old.items())
    else:
        assert new == {_row(c) for c in old}
        assert rational_core(key) == old


@settings(max_examples=100, deadline=None)
@given(_wide_rows, st.sampled_from("abcd"))
def test_row_projection_matches_constraint_projection(rows, variable):
    cons = [
        _le0({"a": g * a, "b": g * b, "c": g * c, "d": g * d}, k)
        for g, a, b, c, d, k in rows
    ]
    old = _old_project(cons, [0] * len(cons), variable)
    assert fm_project(cons, variable) == (None if old.__class__ is int else old[0])


_HASHSEED_CHILD = """
import random

from repro.logic import Solver, SolverUnknown, add, and_, eq, intc, le, mul, ne, or_, var

rng = random.Random(7)
names = [var(f"hs_{i}") for i in range(3)]

def lin():
    scale = rng.choice((1, 2, 3))
    parts = [mul(scale * rng.randint(-3, 3), v) for v in rng.sample(names, rng.randint(1, 3))]
    return add(*parts, intc(rng.randint(-6, 6)))

def formula(depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((le, eq, ne))(lin(), lin())
    args = [formula(depth - 1) for _ in range(rng.randint(2, 3))]
    return or_(*args) if rng.random() < 0.6 else and_(*args)

out = []
for _ in range(120):
    solver = Solver(branch_budget=40)
    try:
        model = solver.model(and_(*(formula(2) for _ in range(rng.randint(2, 4)))))
    except SolverUnknown:
        model = "unknown"
    out.append((solver.stats.nodes_searched, None if model is None else str(model)))
print(out)
"""


def test_search_does_not_follow_hash_order():
    """Two fresh processes under different ``PYTHONHASHSEED`` values
    search the same number of nodes: cores come from a fixed order of
    the constraint set, not from its iteration order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = seed
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", _HASHSEED_CHILD],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )
    assert len(outputs) == 1


# -- the model-pool probe against a linear scan -------------------------------


def _linear_scan(pool, formula):
    """The probe before masks: oldest model first; the first model that
    satisfies the formula is a hit, the first that raises a miss."""
    names = formula.free_vars
    check = compile_eval(formula)
    for model in pool:
        env = {name: model.get(name, 0) for name in names}
        try:
            if check(env):
                return True
        except TypeError:
            return False
    return False


_POOL_VARS = tuple(var(f"pool_{name}") for name in "abc")
_ARRAY = avar("pool_arr")


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        lhs = add(
            mul(rng.randint(-2, 2), rng.choice(_POOL_VARS)), intc(rng.randint(-3, 3))
        )
        kind = rng.randrange(5)
        if kind == 0:
            # evaluating a select under an integer model raises TypeError
            return eq(select(_ARRAY, rng.choice(_POOL_VARS)), intc(0))
        if kind == 1:
            return eq(lhs, rng.choice(_POOL_VARS))
        return le(lhs, rng.choice(_POOL_VARS))
    args = [_random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return rng.choice((and_, or_, lambda *a: not_(and_(*a))))(*args)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pool_probe_agrees_with_linear_scan(seed):
    """Random pools, filled past the 64-model cap, changed between
    probes; the probe answers exactly what the linear scan does,
    including for formulas whose evaluation raises."""
    rng = random.Random(seed)
    solver = Solver()
    formulas = [_random_formula(rng, 3) for _ in range(12)]
    for _ in range(250):
        if rng.random() < 0.45:
            names = rng.sample([v.name for v in _POOL_VARS], rng.randint(1, 3))
            solver._remember_model({n: rng.randint(-3, 3) for n in names})
            assert len(solver._model_pool) <= 64
        else:
            formula = rng.choice(formulas)
            assert solver._model_pool_hit(formula) == _linear_scan(
                solver._model_pool, formula
            )


def test_pool_probe_on_empty_pool_misses():
    assert not Solver()._model_pool_hit(le(_POOL_VARS[0], intc(0)))


#: ``(solver_model_pool_hits, solver_decisions)`` of the array programs,
#: whose probes nearly all raise; as the linear scan left them
ARRAY_PROBE_PINS = {
    ("parallel_init", (2,), True): (0, 6),
    ("parallel_init", (3,), True): (0, 9),
    ("pointer_handoff", (), True): (2, 15),
    ("shared_buffer", (1,), True): (1, 16),
    ("shared_buffer", (2,), True): (2, 439),
    ("parallel_init", (2,), False): (0, 2),
    ("parallel_init", (3,), False): (0, 3),
    ("pointer_handoff", (), False): (3, 8),
    ("shared_buffer", (1,), False): (1, 17),
    ("shared_buffer", (2,), False): (3, 383),
}


@pytest.mark.parametrize("case", sorted(ARRAY_PROBE_PINS, key=repr), ids=repr)
def test_array_program_probe_counters(case):
    from repro.benchmarks import arrays
    from repro.verifier import verify

    name, args, correct = case
    stats = verify(getattr(arrays, name)(*args, correct=correct)).query_stats
    assert (stats.solver_model_pool_hits, stats.solver_decisions) == ARRAY_PROBE_PINS[case]
