"""Differential tests for the integer fast path (repro.fastpath).

The fast engine's contract is *bit-identical exploration*: for any
program and configuration, verdicts, round counts, per-round state
counts, proof sizes, and counterexample traces must equal the pure
engine's.  The suite checks that contract on random small programs
(hypothesis), the encoder's bitmask bijection, alphabets wider than 64
letters (where packed memo keys need a wider letter field), and the
config plumbing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    fingerprint,
    folded_edges,
    make_program,
    small_programs,
    straight_line_thread,
)
from repro.benchmarks import bluetooth, svcomp
from repro.core import (
    LockstepOrder,
    PersistentSetProvider,
    PositionalOrder,
    RandomOrder,
    SyntacticCommutativity,
    ThreadUniformOrder,
)
import repro.fastpath.check as fast_check
from repro.fastpath import FastPipeline, ProgramEncoder
from repro.lang import assign, parse
from repro.logic import intc
from repro.verifier import ProofChecker, Verdict, VerifierConfig, verify


def _both_engines(program, order=None, **config_kwargs):
    pure = verify(program, order, config=VerifierConfig(engine="pure", **config_kwargs))
    fast = verify(program, order, config=VerifierConfig(engine="fast", **config_kwargs))
    assert fast.engine == "fast"
    assert pure.engine == "pure"
    return pure, fast


# -- differential: random programs, pure vs fast ------------------------------


@settings(max_examples=25, deadline=None)
@given(program=small_programs())
def test_fast_engine_bit_identical_bfs(program):
    pure, fast = _both_engines(program, max_rounds=8)
    assert fingerprint(fast) == fingerprint(pure)


@settings(max_examples=15, deadline=None)
@given(program=small_programs())
def test_fast_engine_bit_identical_dfs(program):
    pure, fast = _both_engines(program, search="dfs", max_rounds=8)
    assert fingerprint(fast) == fingerprint(pure)


@settings(max_examples=10, deadline=None)
@given(program=small_programs())
def test_fast_engine_bit_identical_no_sleep(program):
    pure, fast = _both_engines(program, mode="none", max_rounds=8)
    assert fingerprint(fast) == fingerprint(pure)


@settings(max_examples=10, deadline=None)
@given(program=small_programs())
def test_fast_engine_bit_identical_cold_rounds(program):
    pure, fast = _both_engines(program, incremental=False, max_rounds=8)
    assert fingerprint(fast) == fingerprint(pure)


@settings(max_examples=10, deadline=None)
@given(program=small_programs())
def test_fast_engine_bit_identical_dfs_useless_cache(program):
    pure, fast = _both_engines(
        program, search="dfs", use_useless_cache=True, max_rounds=8
    )
    assert fingerprint(fast) == fingerprint(pure)


def test_fast_engine_counters_surface():
    program = make_program(
        [
            straight_line_thread(0, [assign(0, "x", intc(0))]),
            straight_line_thread(1, [assign(1, "y", intc(0))]),
        ]
    )
    pure, fast = _both_engines(program)
    assert fast.query_stats.fastpath_rounds >= 1
    assert fast.query_stats.fastpath_edge_misses >= 1
    assert "fast path:" in fast.query_stats.summary()
    # the pure engine's stats stay byte-identical: no fast-path line
    assert pure.query_stats.fastpath_rounds == 0
    assert "fast path:" not in pure.query_stats.summary()


# -- the encoder's bitmask bijection -------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    program=small_programs(),
    data=st.data(),
)
def test_encoder_mask_roundtrip(program, data):
    enc = ProgramEncoder(program, ThreadUniformOrder())
    subset = data.draw(st.sets(st.sampled_from(sorted(enc.letters, key=lambda s: s.uid))))
    mask = enc.mask_of(subset)
    assert enc.letters_of(mask) == frozenset(subset)
    # the mask is canonical: re-encoding the decoded set is a fixpoint
    assert enc.mask_of(enc.letters_of(mask)) == mask


def test_encoder_ids_are_uid_sorted_and_dense():
    program = make_program(
        [
            straight_line_thread(0, [assign(0, "x", intc(1)), assign(0, "y", intc(2))]),
            straight_line_thread(1, [assign(1, "x", intc(3))]),
        ]
    )
    enc = ProgramEncoder(program, ThreadUniformOrder())
    uids = [s.uid for s in enc.letters]
    assert uids == sorted(uids)
    assert sorted(enc.letter_id.values()) == list(range(len(enc.letters)))


def test_encoder_interning_is_bijective():
    program = make_program(
        [
            straight_line_thread(0, [assign(0, "x", intc(1))]),
            straight_line_thread(1, [assign(1, "y", intc(2))]),
        ]
    )
    enc = ProgramEncoder(program, ThreadUniformOrder())
    q = program.initial_state()
    assert enc.q_of(enc.q_id(q)) == q
    assert enc.q_id(q) == enc.q_id(q)
    phi = frozenset({0, 2})
    assert enc.phi_of(enc.phi_id(phi)) == phi
    ctx = ThreadUniformOrder().initial_context()
    assert enc.ctx_of(enc.ctx_id(ctx)) == ctx


# -- the packed product state: mixed-radix digits ------------------------------

_PACKED_SHARED = ("x := x + 1;", "x := 0;", "y := x;", "assume x >= 0;")
_PACKED_PRIVATE = ("p := p + 1;", "p := x;", "assume p > 0;")
_PACKED_ASSERTS = ("assert x >= 0;", "assert y <= x;", "assert p >= 0;")


@st.composite
def _packed_thread(draw, index):
    pool = _PACKED_SHARED + _PACKED_PRIVATE
    body = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    if draw(st.booleans()):
        body.insert(
            draw(st.integers(0, len(body))), draw(st.sampled_from(_PACKED_ASSERTS))
        )
    if draw(st.booleans()):
        body = [f"while (*) {{ {body[0]} }}"] + body[1:]
    return f"thread T{index} {{ local p: int = 0; {' '.join(body)} }}"


@st.composite
def _packed_programs(draw):
    """2-3 threads with loops and ``assert`` observers (error digits)."""
    count = draw(st.integers(2, 3))
    threads = [draw(_packed_thread(i)) for i in range(count)]
    return parse("var x: int = 0;\nvar y: int = 0;\n" + "\n".join(threads))


def _fast_checker(program, order=None):
    from repro.core import ConditionalCommutativity
    from repro.logic import Solver

    checker = ProofChecker(
        program,
        order or ThreadUniformOrder(),
        ConditionalCommutativity(Solver()),
        engine="fast",
    )
    return checker._fast


def _assert_packed_encoding(program, limit=None):
    """Walk the reachable product states (BFS, up to *limit*) and check the
    packed encoding against the program's own tuple semantics."""
    fast = _fast_checker(program)
    enc = fast.enc
    ctx = enc.ctx_id(ThreadUniformOrder().initial_context())
    start = program.initial_state()
    seen, frontier, widest = {start}, [start], 0
    while frontier:
        nxt = []
        for q in frontier:
            packed = enc.q_id(q)
            widest = max(widest, packed.bit_length())
            assert enc.q_of(packed) == q
            table, edges = folded_edges(fast.pipeline, packed, ctx)
            assert table.flags == (
                program.is_violation(q) | 2 * program.is_exit(q)
            ), q
            enabled = enc.mask_of(a for a, _ in program.successors(q))
            assert table.enabled_mask == enabled
            # the expansion takes the membrane's edges (all, without one)
            membrane = fast.pipeline.membrane
            keep = membrane(q, enc.ctx_of(ctx)) if membrane else enabled
            assert enc.mask_of(
                enc.letters[a_id] for a_id, *_ in edges
            ) == enabled & keep
            for a_id, _bit, q2, _ctx2, _lower in edges:
                assert enc.q_of(q2) == program.step(q, enc.letters[a_id])
            for _a, q2 in program.successors(q):
                if q2 not in seen and (limit is None or len(seen) < limit):
                    seen.add(q2)
                    nxt.append(q2)
        frontier = nxt
    return enc, widest


@settings(max_examples=40, deadline=None)
@given(program=_packed_programs())
def test_packed_encoding_matches_program(program):
    _assert_packed_encoding(program)


def test_packed_encoding_wider_than_a_machine_word():
    """counter-sum(65): 65 two-location threads, so thread 64's digit has
    weight 2**64 and packed states outgrow a 64-bit word."""
    program = svcomp.counter_sum(65)
    enc, widest = _assert_packed_encoding(program, limit=200)
    assert widest > 64
    assert enc.exit_q.bit_length() > 64
    exit_state = tuple(t.exit for t in program.threads)
    assert enc.q_of(enc.exit_q) == exit_state
    fast = _fast_checker(program)
    ctx = fast.enc.ctx_id(ThreadUniformOrder().initial_context())
    assert fast.compile_table(enc.q_id(exit_state), ctx).flags == 2


@pytest.mark.parametrize(
    "make_program_, order",
    [
        (lambda: svcomp.mutex_atomic(4), ThreadUniformOrder()),
        (lambda: svcomp.mutex_atomic(4, correct=False), LockstepOrder(4)),
        (lambda: parse(_BOTH_GOALS), ThreadUniformOrder()),
        (lambda: svcomp.counter_sum(65), ThreadUniformOrder()),
    ],
)
def test_persistent_mask_uses_the_encoder_letter_ids(make_program_, order):
    """Algorithm 1's mask and its statement set agree bit for bit under the
    encoder's letter ids, on every (state, context) pair reached."""

    program = make_program_()
    enc = ProgramEncoder(program, order)
    provider = PersistentSetProvider(program, order, SyntacticCommutativity())
    start = (program.initial_state(), order.initial_context())
    seen, frontier = {start}, [start]
    while frontier and len(seen) < 400:
        state, context = frontier.pop()
        mask = provider.persistent_mask(state, context)
        assert mask == enc.mask_of(provider.persistent_letters(state, context))
        for a, q2 in program.successors(state):
            pair = (q2, order.advance(context, a))
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)


# -- wide alphabets: more letters than the 6-bit packed-key field ------------


def _wide_program(letters_per_thread: int = 33):
    """A 2-thread program with more than 64 statements total."""
    return make_program(
        [
            straight_line_thread(
                0, [assign(0, "x", intc(i)) for i in range(letters_per_thread)]
            ),
            straight_line_thread(
                1, [assign(1, "y", intc(i)) for i in range(letters_per_thread)]
            ),
        ],
        name="wide",
    )


def test_encoder_letter_bits_cover_the_alphabet():
    narrow = ProgramEncoder(_wide_program(2), ThreadUniformOrder())
    assert narrow.letter_bits == 6  # <= 64 letters pack as (φ << 6) | a
    wide = ProgramEncoder(_wide_program(), ThreadUniformOrder())
    assert len(wide.letters) > 64
    assert len(wide.letters) <= 1 << wide.letter_bits


def test_wide_alphabet_fast_matches_pure():
    program = _wide_program()
    assert len(program.alphabet()) > 64
    pure, fast = _both_engines(program)
    assert fast.query_stats.fastpath_rounds >= 1
    assert fingerprint(fast) == fingerprint(pure)


def test_wide_alphabet_memo_keys_do_not_alias():
    """reorder(31)-bug has 65 letters, so letter 64 exists.

    With the memo-key shift pinned at 6 bits, ``(φ, 64)`` and
    ``(φ + 1, 0)`` share a key and the fast engine answers UNKNOWN in
    round 2 where the pure engine finds the bug.
    """
    program = svcomp.reorder(31, correct=False)
    assert len(program.alphabet()) == 65
    pure, fast = _both_engines(program)
    assert pure.verdict.value == "incorrect"
    assert fingerprint(fast) == fingerprint(pure)


# -- config plumbing -------------------------------------------------------------


def test_engine_default_ignores_environment(monkeypatch):
    """The fast engine is the constant default; no environment knob."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert VerifierConfig().engine == "fast"
    monkeypatch.setenv("REPRO_ENGINE", "pure")
    assert VerifierConfig().engine == "fast"
    assert verify(_wide_program(2)).engine == "fast"


def test_unknown_engine_rejected():
    program = _wide_program(2)
    from repro.core import ConditionalCommutativity
    from repro.logic import Solver

    with pytest.raises(ValueError, match="unknown engine"):
        ProofChecker(
            program,
            ThreadUniformOrder(),
            ConditionalCommutativity(Solver()),
            engine="warp",
        )


# -- registry shapes the random programs miss ------------------------------------


@pytest.mark.parametrize("correct", [True, False])
def test_all_observer_program_fast_matches_pure(correct):
    """Every mutex-atomic thread monitors an ``assert``: the conflict
    graph is complete and the membrane is every enabled letter."""
    program = svcomp.mutex_atomic(4, correct=correct)
    assert all(t.error is not None for t in program.threads)
    pure, fast = _both_engines(program)
    assert pure.verdict.value == ("correct" if correct else "incorrect")
    assert fingerprint(fast) == fingerprint(pure)


def test_positional_order_fast_matches_pure():
    """Lockstep advances the context on every letter, so the edge tables
    and membranes are keyed by more than one context."""

    program = bluetooth(3)
    pure, fast = _both_engines(program, LockstepOrder(len(program.threads)))
    assert fingerprint(fast) == fingerprint(pure)


_BOTH_GOALS = """
var x: int = 0;
var y: int = 0;
thread A { x := x + 1; assert y == 0; }
thread B { x := x + 1; y := 1; }
post: x == 2;
"""


def test_goal_flags_cover_violation_and_exit(monkeypatch):
    """An exploration that meets both a violation and an all-exit state:
    the goal flags compiled into each edge table agree with the
    program's predicates on every product state, and the fast engine
    matches pure."""

    program = parse(_BOTH_GOALS)
    seen = set()
    compile_table = FastPipeline.compile_table

    def recording_compile(self, q_id, ctx_id):
        table = compile_table(self, q_id, ctx_id)
        q = self.enc.q_of(q_id)
        assert table.flags == (
            program.is_violation(q) | (2 if program.is_exit(q) else 0)
        )
        seen.add(table.flags)
        return table

    monkeypatch.setattr(FastPipeline, "compile_table", recording_compile)
    pure, fast = _both_engines(program)
    assert pure.verdict.value == "incorrect"
    assert fingerprint(fast) == fingerprint(pure)
    assert {1, 2} <= seen


# -- compiled tables against the key-sorted reference, per shipped order ------


def _interleaving_order():
    """A positional order whose ranks interleave the threads: the
    context counts steps mod 3 and rotates the letters' uid residues."""
    return PositionalOrder(
        0,
        lambda ctx, a: (ctx + 1) % 3,
        lambda ctx, a: ((a.uid + ctx) % 3, a.uid),
        name="interleave",
    )


_TABLE_ORDERS = {
    "seq": lambda program: ThreadUniformOrder(),
    "seq-reversed": lambda program: ThreadUniformOrder(
        list(reversed(range(len(program.threads))))
    ),
    "lockstep": lambda program: LockstepOrder(len(program.threads)),
    "rand(3)": lambda program: RandomOrder(program.alphabet(), 3),
    "interleave": lambda program: _interleaving_order(),
}

#: which path each order's contexts take: thread-major contexts
#: concatenate their fragments, the others sort by rank
_THREAD_MAJOR = {
    "seq": {True},
    "seq-reversed": {False},
    "lockstep": {True, False},
    "rand(3)": {False},
    "interleave": {False},
}


@pytest.mark.parametrize(
    "make_program_", [lambda: bluetooth(3), lambda: parse(_BOTH_GOALS)],
    ids=["bluetooth(3)", "both-goals"],
)
@pytest.mark.parametrize("order_name", sorted(_TABLE_ORDERS))
def test_compiled_tables_match_the_key_sorted_reference(order_name, make_program_):
    """Every reached table lists the program's successors stably sorted
    by ``order.key``, and its expansion keeps the membrane's edges with
    the reference's lower masks, enabled mask and goal flags."""
    program = make_program_()
    order = _TABLE_ORDERS[order_name](program)
    enc = ProgramEncoder(program, order)
    provider = PersistentSetProvider(program, order, SyntacticCommutativity())
    membrane = provider.persistent_mask if provider.prunes else None
    pipeline = FastPipeline(enc, membrane)
    letter_id = enc.letter_id
    start = (program.initial_state(), order.initial_context())
    seen, frontier, majors = {start}, [start], set()
    while frontier and len(seen) < 1500:
        q, ctx = frontier.pop()
        q_id, ctx_id = enc.q_id(q), enc.ctx_id(ctx)
        succ = sorted(program.successors(q), key=lambda e: order.key(ctx, e[0]))
        full = [
            (letter_id[a], enc.q_id(q2), enc.ctx_id(order.advance(ctx, a)))
            for a, q2 in succ
        ]
        keep = membrane(q, ctx) if membrane is not None else -1
        kept, lower = [], 0
        for a_id, q2_id, ctx2_id in full:
            bit = 1 << a_id
            if bit & keep:
                kept.append((a_id, bit, q2_id, ctx2_id, lower))
            lower |= bit
        table, edges = folded_edges(pipeline, q_id, ctx_id)
        assert [(a, q_id + delta, c) for _r, a, _b, delta, c in table.rows] == full
        assert edges == kept, (q, ctx)
        assert table.enabled_mask == lower
        assert table.keep_mask == keep
        assert table.flags == program.is_violation(q) | 2 * program.is_exit(q)
        majors.add(pipeline.fragments(ctx_id)[1])
        for a, q2 in succ:
            nxt = (q2, order.advance(ctx, a))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert majors == _THREAD_MAJOR[order_name]


@pytest.mark.parametrize(
    "make_program_",
    [lambda: svcomp.mutex_atomic(8), lambda: bluetooth(4, correct=False)],
    ids=["mutex-atomic(8)", "bluetooth(4)-bug"],
)
def test_default_seq_context_is_thread_major(make_program_):
    """The default order's one context is thread-major, so a default
    run builds every table by concatenation, with no sort."""
    fast = _fast_checker(make_program_())
    ctx_id = fast.enc.ctx_id(ThreadUniformOrder().initial_context())
    assert fast.pipeline.fragments(ctx_id)[1] is True


# -- ⊥ successors are counted leaves of the fast BFS ---------------------------


def _record_bfs_rounds(monkeypatch):
    """Wrap the fast BFS: per finished round, its seen map and ⊥ id."""
    rounds = []
    run_bfs = fast_check.run_bfs

    def recording(rc, initial):
        trace_ids, seen = run_bfs(rc, initial)
        rounds.append((seen, rc.bottom))
        return trace_ids, seen

    monkeypatch.setattr(fast_check, "run_bfs", recording)
    return rounds


def test_bottom_initial_state_is_covered():
    program = parse(
        "var x: int = 0; pre: false;"
        " thread A { x := x + 1; assert x == 5; } post: x == 7;"
    )
    pure, fast = _both_engines(program)
    for result in (pure, fast):
        assert result.verdict is Verdict.CORRECT
        assert result.states_explored == 1
    assert fingerprint(fast) == fingerprint(pure)


@pytest.mark.parametrize("correct", [True, False])
def test_bottom_leaves_count_against_the_state_budget(correct, monkeypatch):
    # the first round's vocabulary is empty, so its φ is never ⊥: the
    # sweep runs up to the largest round, where ⊥ leaves are discovered
    program = svcomp.mutex_atomic(3, correct=correct)
    rounds = _record_bfs_rounds(monkeypatch)
    full = verify(program, config=VerifierConfig(engine="fast"))
    leaves = [sum(1 for s in seen if s[1] == bottom) for seen, bottom in rounds]
    assert leaves[0] == 0 and sum(leaves) > 0
    for seen, bottom in rounds:
        # a ⊥ state is a leaf with no link; every other state but the
        # initial one links to an expanded (non-⊥) parent
        initial = next(iter(seen))
        for state, link in seen.items():
            assert (link is None) == (state[1] == bottom or state == initial)
            if link is not None:
                assert link[0] in seen and link[0][1] != bottom
    top = max(r.states_explored for r in full.round_stats)
    for budget in range(1, top + 1):
        pure, fast = _both_engines(program, max_states_per_round=budget)
        assert fingerprint(fast) == fingerprint(pure), budget
        assert (fast.verdict is Verdict.UNKNOWN) == (budget < top), budget
    assert fingerprint(fast) == fingerprint(full)


@pytest.mark.parametrize(
    "make_program_",
    [
        lambda: svcomp.mutex_atomic(4, correct=False),
        lambda: svcomp.counter_sum(5, correct=False),
    ],
)
def test_bottom_leaves_keep_rounds_and_counterexample(make_program_):
    pure, fast = _both_engines(make_program_())
    assert fast.verdict is Verdict.INCORRECT
    assert [r.states_explored for r in fast.round_stats] == [
        r.states_explored for r in pure.round_stats
    ]
    assert fast.proof_size == pure.proof_size
    assert fast.counterexample == pure.counterexample
    assert fingerprint(fast) == fingerprint(pure)
