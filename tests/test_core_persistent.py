"""Persistent set (Algorithm 1) tests against Definitions 6.1 / 6.3."""

import os
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import explore
from repro.benchmarks import all_benchmarks, bluetooth, svcomp
from repro.core import (
    ConditionalCommutativity,
    FullCommutativity,
    PersistentSetProvider,
    RandomOrder,
    SemanticCommutativity,
    SyntacticCommutativity,
    ThreadUniformOrder,
    LockstepOrder,
    is_membrane,
    is_weakly_persistent,
)
from repro.core.reduction import ReducedProduct
from repro.lang import assign, assume, parse
from repro.logic import Solver, add, gt, intc, var
from repro.verifier.checkproof import ProofChecker

from helpers import make_program, small_programs, straight_line_thread


def sample_states(program, limit=200):
    view = program.product_view("both")
    states, _ = explore(view, max_states=limit)
    return view, states


class TestAlgorithmOne:
    def test_independent_threads_pick_one(self):
        """Under full commutativity + seq order, E is a single thread."""
        prog = make_program(
            [
                straight_line_thread(i, [assign(i, f"v{i}", intc(0))], f"T{i}")
                for i in range(3)
            ]
        )
        provider = PersistentSetProvider(
            prog, ThreadUniformOrder(), FullCommutativity()
        )
        ctx = None
        M = provider.persistent_letters(prog.initial_state(), ctx)
        threads = {s.thread for s in M}
        assert threads == {0}  # highest-priority thread only

    def test_terminated_threads_skipped(self):
        prog = make_program(
            [
                straight_line_thread(0, [assign(0, "x", intc(0))], "A"),
                straight_line_thread(1, [assign(1, "y", intc(0))], "B"),
            ]
        )
        provider = PersistentSetProvider(
            prog, ThreadUniformOrder(), FullCommutativity()
        )
        state = (prog.threads[0].exit, prog.threads[1].initial)
        M = provider.persistent_letters(state, None)
        assert {s.thread for s in M} == {1}

    def test_all_terminated_empty(self):
        prog = make_program(
            [straight_line_thread(0, [assign(0, "x", intc(0))], "A")]
        )
        provider = PersistentSetProvider(
            prog, ThreadUniformOrder(), FullCommutativity()
        )
        assert provider.persistent_letters((prog.threads[0].exit,), None) == frozenset()

    def test_conflicting_threads_merged(self):
        """Write-write conflicts force both threads into E."""
        prog = make_program(
            [
                straight_line_thread(0, [assign(0, "x", intc(1))], "A"),
                straight_line_thread(1, [assign(1, "x", intc(2))], "B"),
            ]
        )
        provider = PersistentSetProvider(
            prog, ThreadUniformOrder(), SyntacticCommutativity()
        )
        M = provider.persistent_letters(prog.initial_state(), None)
        assert {s.thread for s in M} == {0, 1}

    def test_future_conflict_detected(self):
        """⇝ looks at locations *reachable* in the other thread."""
        prog = make_program(
            [
                straight_line_thread(0, [assign(0, "x", intc(1))], "A"),
                straight_line_thread(
                    1,
                    [assign(1, "y", intc(0)), assign(1, "x", intc(2))],
                    "B",
                ),
            ]
        )
        provider = PersistentSetProvider(
            prog, ThreadUniformOrder(), SyntacticCommutativity()
        )
        M = provider.persistent_letters(prog.initial_state(), None)
        # B's first letter doesn't touch x, but its successor does:
        # A conflicts with B's future, so both must be in E
        assert {s.thread for s in M} == {0, 1}


@pytest.mark.parametrize(
    "make_order",
    [
        lambda prog: ThreadUniformOrder(),
        lambda prog: LockstepOrder(len(prog.threads)),
    ],
)
class TestDefinitionsHold:
    def _check_program(self, prog, make_order, max_length):
        order = make_order(prog)
        rel = SyntacticCommutativity()
        provider = PersistentSetProvider(prog, order, rel)
        view, states = sample_states(prog)
        ctx = order.initial_context()  # context-free orders only here
        for state in states:
            M = provider.persistent_letters(state, ctx)
            assert is_weakly_persistent(
                view, state, M, rel, max_length=max_length
            ), f"not weakly persistent at {state}"
            assert is_membrane(
                view, state, M, max_length=max_length
            ), f"not a membrane at {state}"

    def test_independent(self, make_order):
        prog = make_program(
            [
                straight_line_thread(
                    i, [assign(i, f"v{i}", intc(k)) for k in range(2)], f"T{i}"
                )
                for i in range(2)
            ]
        )
        self._check_program(prog, make_order, max_length=4)

    def test_shared_counter(self, make_order):
        x = var("x")
        prog = make_program(
            [
                straight_line_thread(0, [assign(0, "x", add(x, intc(1)))], "A"),
                straight_line_thread(1, [assign(1, "x", intc(0))], "B"),
                straight_line_thread(2, [assign(2, "y", intc(1))], "C"),
            ]
        )
        self._check_program(prog, make_order, max_length=3)

    def test_with_asserts_observer_included(self, make_order):
        prog = parse(
            """
            var x: int = 0;
            var y: int = 0;
            thread A { assert x == 0; }
            thread B { y := 1; }
            """
        )
        order = make_order(prog)
        rel = SyntacticCommutativity()
        provider = PersistentSetProvider(prog, order, rel)
        M = provider.persistent_letters(
            prog.initial_state(), order.initial_context()
        )
        # the observer thread A must be in every persistent set
        assert any(s.thread == 0 for s in M)
        view, states = sample_states(prog)
        for state in states:
            M = provider.persistent_letters(state, order.initial_context())
            assert is_membrane(view, state, M, max_length=4)


class _RecordingRelation:
    """A commutativity relation that records every pair it is asked."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []
        self.answers = []

    def commute(self, a, b):
        answer = self.inner.commute(a, b)
        self.asked.append((a.uid, b.uid))
        self.answers.append(answer)
        return answer


def test_conflict_queries_ask_pairs_in_uid_order():
    """ℓᵢ ⇝ ℓⱼ asks its pairs in (a.uid, b.uid) order and stops at the
    first conflict: the pairs asked follow the program, never the
    addresses the statements happen to live at."""
    program = bluetooth(2)
    relation = _RecordingRelation(SyntacticCommutativity())
    provider = PersistentSetProvider(program, ThreadUniformOrder(), relation)
    threads = program.threads
    for i, thread_i in enumerate(threads):
        for loc_i in thread_i.edges:
            for j, thread_j in enumerate(threads):
                if i == j:
                    continue
                for loc_j in thread_j.locations:
                    reach = {
                        b
                        for loc in thread_j.reachable_from(loc_j)
                        for b in thread_j.enabled(loc)
                    }
                    every = sorted(
                        (a.uid, b.uid)
                        for a in thread_i.enabled(loc_i)
                        for b in reach
                    )
                    relation.asked.clear()
                    relation.answers.clear()
                    provider._commute_cache.clear()
                    conflict = provider._location_conflict(i, loc_i, j, loc_j)
                    asked = relation.asked
                    assert asked == every[: len(asked)]
                    assert relation.answers.count(False) == int(conflict)
                    assert conflict or len(asked) == len(every)


_LAYOUT_CHILD = """
import sys

n = int(sys.argv[1])
junk = [[None] * (k % 13) for k in range(n)]
del junk[::3]
holes = [object() for _ in range(n)]
del holes[::2]

from repro.benchmarks import svcomp
from repro.verifier import verify

stats = verify(svcomp.producer_consumer(2)).query_stats
print(stats.comm_queries, stats.comm_syntactic_hits)
"""


def test_commutativity_counters_do_not_follow_memory_layout():
    """Two fresh processes that allocate different junk before building
    the program report the same commutativity counters."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _LAYOUT_CHILD, str(n)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for n in (0, 333)
    }
    assert len(outputs) == 1, outputs


# -- differential: the bitmask Algorithm 1 against a dict + Tarjan reference --


def _reference_membrane(provider, state, context):
    """Algorithm 1 as a dict-of-sets conflict graph with Tarjan's sink
    SCC: the implementation the thread-bitmask version replaced.  Its
    conflict queries go through *provider*'s own caches."""
    program = provider.program
    threads = program.threads
    observers = {i for i, t in enumerate(threads) if t.error is not None}
    active = [i for i in range(len(threads)) if threads[i].enabled(state[i])]
    if not active:
        return frozenset()
    edges = {i: set() for i in active}
    enabled = {i: threads[i].enabled(state[i]) for i in active}
    keys = {i: [provider.order.key(context, a) for a in enabled[i]] for i in active}
    for i in active:
        for j in active:
            if i == j:
                continue
            if provider.include_observers and j in observers:
                edges[i].add(j)
                continue
            if provider._location_conflict(i, state[i], j, state[j]):
                edges[i].add(j)
                continue
            if min(keys[j]) < max(keys[i]):
                edges[i].add(j)
    letters = set()
    for i in _reference_sink_scc(active, edges):
        letters.update(enabled[i])
    return frozenset(letters)


def _reference_sink_scc(nodes, edges):
    """Tarjan + condensation; the union of the sink SCCs."""
    index, lowlink, on_stack, stack = {}, {}, set(), []
    components, comp_of = [], {}
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(sorted(edges[v])))]
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                comp_of.update({w: len(components) for w in comp})
                components.append(frozenset(comp))

    for v in nodes:
        if v not in index:
            strongconnect(v)
    sinks = [
        comp
        for ci, comp in enumerate(components)
        if not {comp_of[w] for v in comp for w in edges[v]} - {ci}
    ]
    return frozenset(n for comp in sinks for n in comp)


def _reachable_pairs(program, order, limit):
    """(state, context) pairs of the product × context automaton, BFS."""
    start = (program.initial_state(), order.initial_context())
    seen, frontier = {start}, [start]
    while frontier and len(seen) < limit:
        nxt = []
        for state, context in frontier:
            for a, q2 in program.successors(state):
                pair = (q2, order.advance(context, a))
                if pair not in seen and len(seen) < limit:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return sorted(seen, key=repr)


def _assert_membranes_match(program, make_order, relation, *, include_observers, limit):
    order = make_order(program)
    fast = PersistentSetProvider(
        program, order, relation, include_observers=include_observers
    )
    reference = PersistentSetProvider(
        program, order, relation, include_observers=include_observers
    )
    for state, context in _reachable_pairs(program, order, limit):
        expected = _reference_membrane(reference, state, context)
        assert fast.persistent_letters(state, context) == expected, (state, context)
        assert set(fast._conflict_cache) == set(reference._conflict_cache)


_ORDERS = {
    "seq": lambda program: ThreadUniformOrder(),
    "lockstep": lambda program: LockstepOrder(len(program.threads)),
    "rand(3)": lambda program: RandomOrder(program.alphabet(), 3),
    "rand(11)": lambda program: RandomOrder(program.alphabet(), 11),
}

_SHARED = ("x := x + 1;", "x := 0;", "y := x;", "assume x >= 0;", "y := y - 1;")
_PRIVATE = ("p := p + 1;", "p := x;", "assume p > 0;", "p := 2;")
_ASSERTS = ("assert x >= 0;", "assert y <= x;", "assert p >= 0;")


@st.composite
def _thread_source(draw, index, observer=False):
    body = draw(st.lists(st.sampled_from(_SHARED + _PRIVATE), min_size=1, max_size=3))
    if observer or draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(_ASSERTS)))
    if draw(st.booleans()):
        body = [f"while (*) {{ {body[0]} }}"] + body[1:]
    return f"thread T{index} {{ local p: int = 0; {' '.join(body)} }}"


@st.composite
def _mixed_programs(draw, observers=False):
    """3-5 threads mixing assert observers and plain threads (only
    observers if *observers*), over shared (x, y) and thread-private (p)
    variables."""
    count = draw(st.integers(3, 5))
    threads = [draw(_thread_source(i, observers)) for i in range(count)]
    return parse("var x: int = 0;\nvar y: int = 0;\n" + "\n".join(threads))


@pytest.mark.parametrize("include_observers", [True, False])
@pytest.mark.parametrize("order_name", sorted(_ORDERS))
@settings(max_examples=12, deadline=None)
@given(program=_mixed_programs())
def test_membrane_matches_reference(program, order_name, include_observers):
    _assert_membranes_match(
        program,
        _ORDERS[order_name],
        SyntacticCommutativity(),
        include_observers=include_observers,
        limit=300,
    )


@pytest.mark.parametrize(
    "make_program_, order_name, limit",
    [
        (lambda: svcomp.mutex_atomic(4), "seq", 2000),
        (lambda: svcomp.mutex_atomic(4, correct=False), "lockstep", 2000),
        (lambda: bluetooth(3), "lockstep", 2000),
        # the initial state and its successors: 65 threads, a chain of
        # preference edges under seq, semantically commuting adders
        (lambda: svcomp.counter_sum(65), "seq", 66),
    ],
)
@pytest.mark.parametrize("include_observers", [True, False])
def test_membrane_matches_reference_on_registry(
    make_program_, order_name, limit, include_observers
):
    _assert_membranes_match(
        make_program_(),
        _ORDERS[order_name],
        SemanticCommutativity(Solver()),
        include_observers=include_observers,
        limit=limit,
    )


# -- the static no-prune fact: where Algorithm 1 is skipped -------------------


def _assert_no_prune_is_exact(program, make_order, limit):
    """A provider that reports it cannot prune returns every enabled
    letter at every reachable location vector, without asking a single
    conflict query; one that can prune has a thread outside the
    observers it includes."""
    order = make_order(program)
    relation = _RecordingRelation(SyntacticCommutativity())
    provider = PersistentSetProvider(program, order, relation)
    observers = all(t.error is not None for t in program.threads)
    assert provider.prunes is not observers
    if provider.prunes:
        return
    letter_id = {a: n for n, a in enumerate(sorted(program.alphabet(), key=lambda a: a.uid))}
    for state, context in _reachable_pairs(program, order, limit):
        enabled = sum(1 << letter_id[a] for a, _ in program.successors(state))
        assert provider.persistent_mask(state, context) == enabled, state
    assert relation.asked == []


_CONTEXT_ORDERS = ("seq", "lockstep")


@pytest.mark.parametrize("order_name", _CONTEXT_ORDERS)
def test_no_prune_membrane_is_every_enabled_letter_on_registry(order_name):
    for bench in all_benchmarks():
        _assert_no_prune_is_exact(bench.build(), _ORDERS[order_name], limit=1500)


@pytest.mark.parametrize("order_name", _CONTEXT_ORDERS)
@settings(max_examples=15, deadline=None)
@given(
    program=st.one_of(
        small_programs(), _mixed_programs(), _mixed_programs(observers=True)
    )
)
def test_no_prune_membrane_is_every_enabled_letter_on_random_programs(
    program, order_name
):
    _assert_no_prune_is_exact(program, _ORDERS[order_name], limit=300)


@settings(max_examples=15, deadline=None)
@given(
    program=st.one_of(small_programs(), _mixed_programs(observers=True))
)
def test_excluded_observers_always_prune(program):
    provider = PersistentSetProvider(
        program, ThreadUniformOrder(), SyntacticCommutativity(),
        include_observers=False,
    )
    assert provider.prunes


def test_excluded_observers_always_prune_on_registry():
    for bench in all_benchmarks():
        provider = PersistentSetProvider(
            bench.build(), ThreadUniformOrder(), SyntacticCommutativity(),
            include_observers=False,
        )
        assert provider.prunes, bench.name


@pytest.mark.parametrize(
    "make_program_, holds",
    [
        (lambda: svcomp.mutex_atomic(4), False),
        (lambda: svcomp.mutex_atomic(4, correct=False), False),
        (lambda: bluetooth(2), True),
    ],
)
def test_membrane_installed_only_where_it_can_prune(make_program_, holds):
    """An all-observer program gets no membrane in the fast pipeline, the
    pure layer stack or the standalone reduction; bluetooth gets one."""
    program = make_program_()
    relation = ConditionalCommutativity(Solver())
    order = ThreadUniformOrder()
    fast = ProofChecker(program, order, relation, engine="fast")
    pure = ProofChecker(program, order, relation, engine="pure")
    reduced = ReducedProduct(program, order, relation)
    layers = (fast._fast.pipeline, fast._layer, pure._layer, reduced._layer)
    assert [layer.membrane is not None for layer in layers] == [holds] * 4


def _reference_edge_table(enc, q, ctx_id):
    """The edge table before the membrane was folded in: every enabled
    edge in ⋖ order with its prefix-OR ``lower`` mask."""
    keys = enc.key_table(ctx_id)
    raw = []
    rest = q
    for radix, digit_edges in zip(enc.radix, enc.thread_edges):
        rest, d = divmod(rest, radix)
        for a_id, delta in digit_edges[d]:
            raw.append((keys[a_id], a_id, delta))
    raw.sort(key=itemgetter(0))
    edges, lower = [], 0
    for _key, a_id, delta in raw:
        bit = 1 << a_id
        edges.append((a_id, bit, q + delta, enc.advance_id(ctx_id, a_id), lower))
        lower |= bit
    return edges, lower


@pytest.mark.parametrize("order_name", _CONTEXT_ORDERS)
def test_folded_edge_tables_match_filtered_reference(order_name):
    """On bluetooth(3) every folded edge table keeps exactly the edges
    of the unfiltered table that the membrane mask of the decoded
    location vector admits, with the same ``lower`` masks and an
    ``enabled_mask`` over all enabled letters."""
    program = bluetooth(3)
    order = _ORDERS[order_name](program)
    checker = ProofChecker(
        program, order, ConditionalCommutativity(Solver()), engine="fast"
    )
    pipeline = checker._fast.pipeline
    enc = pipeline.enc
    assert pipeline.membrane is not None
    start = (enc.q_id(program.initial_state()), enc.ctx_id(order.initial_context()))
    seen, frontier, pruned = {start}, [start], 0
    while frontier and len(seen) < 2000:
        nxt = []
        for q, ctx_id in frontier:
            edges, enabled = _reference_edge_table(enc, q, ctx_id)
            mem = pipeline.membrane(enc.q_of(q), enc.ctx_of(ctx_id))
            kept = tuple(edge for edge in edges if edge[1] & mem)
            table = pipeline.edge_table(q, ctx_id)
            assert table.edges == kept, (q, ctx_id)
            assert table.enabled_mask == enabled, (q, ctx_id)
            pruned += len(edges) - len(kept)
            for _a_id, _bit, q2, ctx2, _lower in edges:
                if (q2, ctx2) not in seen:
                    seen.add((q2, ctx2))
                    nxt.append((q2, ctx2))
        frontier = nxt
    assert pruned > 0
