"""Cross-cutting property-based tests.

These tie independent components to each other:

* wp agrees with concrete execution (Dijkstra's characterization);
* SSA path formulas agree with the concrete interpreter's replay;
* semantic commutativity agrees with concrete two-step execution;
* the reduction pipeline preserves verdicts across preference orders;
* sleep-set reduction equals the brute-force red_lex representative
  set, with and without commutativity memoization.
"""

from hypothesis import given, settings, strategies as st

from helpers import make_program, reduction_language, straight_line_thread
from repro.core import (
    SemanticCommutativity,
    ThreadUniformOrder,
    minimal_word,
    partition_into_classes,
)
from repro.lang import Statement, assign, assume, replay
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
    sub,
    var,
)
from repro.verifier import path_formula

x, y = var("x"), var("y")

_VALUES = st.integers(min_value=-2, max_value=2)


def _statements(thread: int):
    """A small pool of deterministic statements."""
    return st.sampled_from(
        [
            assign(thread, "x", add(var("x"), intc(1))),
            assign(thread, "x", intc(0)),
            assign(thread, "y", sub(var("y"), intc(1))),
            assign(thread, "y", var("x")),
            assign(thread, "x", add(var("x"), var("y"))),
            assume(thread, ge(var("x"), intc(0))),
            assume(thread, gt(var("y"), var("x"))),
        ]
    )


def _posts():
    return st.sampled_from(
        [
            ge(x, intc(0)),
            eq(x, y),
            le(add(x, y), intc(3)),
            gt(y, intc(-2)),
        ]
    )


def _run_concrete(statement: Statement, env: dict) -> dict | None:
    """Execute one deterministic statement concretely."""
    if not evaluate(statement.guard, env):
        return None
    out = dict(env)
    for target, rhs in statement.updates.items():
        out[target] = evaluate(rhs, env)
    return out


@settings(max_examples=120, deadline=None)
@given(_statements(0), _posts(), _VALUES, _VALUES)
def test_wp_characterizes_execution(statement, post, vx, vy):
    """env |= wp(post, s)  iff  every s-successor of env satisfies post."""
    env = {"x": vx, "y": vy}
    wp_holds = evaluate(statement.wp(post), env)
    successor = _run_concrete(statement, env)
    if successor is None:
        # blocked: wp holds vacuously
        assert wp_holds
    else:
        assert wp_holds == evaluate(post, successor)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_statements(0), max_size=4),
    _VALUES,
    _VALUES,
)
def test_path_formula_agrees_with_concrete_replay(trace, vx, vy):
    """The SSA path formula is satisfiable from a fixed initial store
    exactly when the concrete execution runs to completion."""
    solver = Solver()
    pre = and_(eq(x, intc(vx)), eq(y, intc(vy)))
    formula, _renaming = path_formula(pre, trace)
    env = {"x": vx, "y": vy}
    concrete = env
    for statement in trace:
        concrete = _run_concrete(statement, concrete)
        if concrete is None:
            break
    assert solver.is_sat(formula) == (concrete is not None)


@settings(max_examples=60, deadline=None)
@given(_statements(0), _statements(1), _VALUES, _VALUES)
def test_semantic_commutativity_matches_concrete(a, b, vx, vy):
    """If the relation says a ↷↷ b, then ab and ba agree concretely."""
    rel = SemanticCommutativity()
    if not rel.commute(a, b):
        return
    env = {"x": vx, "y": vy}

    def run_two(first, second):
        mid = _run_concrete(first, env)
        if mid is None:
            return None
        return _run_concrete(second, mid)

    assert run_two(a, b) == run_two(b, a)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_statements(0), min_size=1, max_size=3),
    st.lists(_statements(1), min_size=1, max_size=2),
)
def test_sleep_reduction_is_red_lex(stmts0, stmts1):
    """The sleep-set reduction of a random 2-thread straight-line program
    accepts exactly the lex(<)-minimal representative of every
    equivalence class (red_lex, Def. 4.2) — and commutativity
    memoization does not change the language."""
    program = make_program(
        [straight_line_thread(0, stmts0), straight_line_thread(1, stmts1)]
    )
    order = ThreadUniformOrder()
    max_length = len(stmts0) + len(stmts1)
    full = program.product_dfa("exit").language_up_to(max_length)

    languages = {}
    for memoize in (True, False):
        relation = SemanticCommutativity(
            Solver(enable_cache=memoize), memoize=memoize
        )
        languages[memoize] = reduction_language(
            program, order, relation, mode="sleep", max_length=max_length
        )
        expected = frozenset(
            minimal_word(order, cls)
            for cls in partition_into_classes(full, relation)
        )
        assert languages[memoize] == expected
    assert languages[True] == languages[False]


@settings(max_examples=40, deadline=None)
@given(st.lists(_statements(0), min_size=1, max_size=3), _VALUES, _VALUES)
def test_replay_agrees_with_direct_execution(trace, vx, vy):
    """lang.replay and step-by-step execution coincide."""
    from repro.lang.cfg import ThreadCFG
    from repro.lang.program import ConcurrentProgram

    edges = {i: [(s, i + 1)] for i, s in enumerate(trace)}
    thread = ThreadCFG("T", 0, 0, len(trace), None, edges)
    program = ConcurrentProgram("t", [thread], TRUE, TRUE)
    env = {"x": vx, "y": vy}
    direct = dict(env)
    for statement in trace:
        nxt = _run_concrete(statement, direct)
        if nxt is None:
            direct = None
            break
        direct = nxt
    replayed = replay(program, trace, env)
    assert replayed == direct
