"""Backjumping search and the bit-parallel model-pool probe.

The search is checked against a transcription of the chronological
search it replaced: same verdicts and models, never more nodes, and
under small budgets an UNKNOWN may only turn into a definite answer.
The pool probe is checked against a transcription of the linear scan it
replaced, over random pools that overflow the 64-model cap.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    integer_model_of,
    rational_core,
    rationally_feasible,
)
from repro.logic.solver import (
    And,
    Or,
    SolverUnknown,
    _NO_CONSTRAINTS,
    _is_literal,
    _theory_branches,
)
from repro.logic.terms import compile_eval

# -- the chronological search, as it was before backjumping ------------------


class _Chronological(Solver):
    """:class:`Solver` with the search that splits in the same order but
    never skips a side and never asks for a core."""

    def _search(self, pending, key, branch, depth=0):
        hit = self._chronological([f for f, _ in pending], key, branch)
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


def _formulas():
    pair = st.tuples(_linear(), _linear())
    atom = st.one_of(
        pair.map(lambda t: le(*t)),
        pair.map(lambda t: lt(*t)),
        pair.map(lambda t: eq(*t)),
        pair.map(lambda t: ne(*t)),
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
    original = solver_module.rational_core

    def recording(key):
        core = original(key)
        seen.append((key, core))
        return core

    solver_module.rational_core = recording
    try:
        _outcome(Solver(), formula)
    finally:
        solver_module.rational_core = original
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
    shuffled = list(key)
    for _ in range(4):
        rng.shuffle(shuffled)
        assert _solve(shuffled) == core


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
