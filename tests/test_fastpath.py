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

from helpers import make_program, straight_line_thread
from repro.benchmarks import svcomp
from repro.core import ThreadUniformOrder
from repro.fastpath import ProgramEncoder
from repro.lang import ConcurrentProgram, assign, assume
from repro.logic import TRUE, add, eq, ge, gt, intc, le, sub, var
from repro.verifier import ProofChecker, VerifierConfig, verify

x, y = var("x"), var("y")


def _statements(thread: int):
    """A small pool of deterministic statements (mirrors test_properties)."""
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


def _programs(max_len: int = 3):
    """Random 2-thread straight-line programs with a random postcondition."""
    return st.builds(
        lambda s0, s1, post: ConcurrentProgram(
            name="rand",
            threads=[
                straight_line_thread(0, s0),
                straight_line_thread(1, s1),
            ],
            pre=TRUE,
            post=post,
        ),
        st.lists(_statements(0), min_size=1, max_size=max_len),
        st.lists(_statements(1), min_size=1, max_size=max_len),
        _posts(),
    )


def _fingerprint(result):
    """Everything the bit-identity contract pins."""
    return (
        result.verdict,
        result.rounds,
        result.proof_size,
        result.num_predicates,
        result.states_explored,
        [r.states_explored for r in result.round_stats],
        (
            [s.label for s in result.counterexample]
            if result.counterexample is not None
            else None
        ),
    )


def _both_engines(program, **config_kwargs):
    pure = verify(program, config=VerifierConfig(engine="pure", **config_kwargs))
    fast = verify(program, config=VerifierConfig(engine="fast", **config_kwargs))
    assert fast.engine == "fast"
    assert pure.engine == "pure"
    return pure, fast


# -- differential: random programs, pure vs fast ------------------------------


@settings(max_examples=25, deadline=None)
@given(program=_programs())
def test_fast_engine_bit_identical_bfs(program):
    pure, fast = _both_engines(program, max_rounds=8)
    assert _fingerprint(fast) == _fingerprint(pure)


@settings(max_examples=15, deadline=None)
@given(program=_programs())
def test_fast_engine_bit_identical_dfs(program):
    pure, fast = _both_engines(program, search="dfs", max_rounds=8)
    assert _fingerprint(fast) == _fingerprint(pure)


@settings(max_examples=10, deadline=None)
@given(program=_programs())
def test_fast_engine_bit_identical_no_sleep(program):
    pure, fast = _both_engines(program, mode="none", max_rounds=8)
    assert _fingerprint(fast) == _fingerprint(pure)


@settings(max_examples=10, deadline=None)
@given(program=_programs())
def test_fast_engine_bit_identical_cold_rounds(program):
    pure, fast = _both_engines(program, incremental=False, max_rounds=8)
    assert _fingerprint(fast) == _fingerprint(pure)


@settings(max_examples=10, deadline=None)
@given(program=_programs())
def test_fast_engine_bit_identical_dfs_useless_cache(program):
    pure, fast = _both_engines(
        program, search="dfs", use_useless_cache=True, max_rounds=8
    )
    assert _fingerprint(fast) == _fingerprint(pure)


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
    program=_programs(),
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
    assert _fingerprint(fast) == _fingerprint(pure)


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
    assert _fingerprint(fast) == _fingerprint(pure)


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
