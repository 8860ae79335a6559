"""Shared test helpers: tiny program builders, reduction oracles, and the
random-program strategy of the engine differentials."""

from __future__ import annotations

from typing import Sequence

from hypothesis import strategies as st

from repro.automata import materialize
from repro.core import (
    CommutativityRelation,
    minimal_word,
    partition_into_classes,
)
from repro.core.preference import PreferenceOrder
from repro.core.reduction import ReducedProduct
from repro.lang import ConcurrentProgram, Statement, assign, assume
from repro.lang.cfg import ThreadCFG
from repro.logic import TRUE, add, eq, ge, gt, intc, le, sub, var


def straight_line_thread(
    index: int, statements: Sequence[Statement], name: str | None = None
) -> ThreadCFG:
    """A thread executing *statements* in order."""
    edges: dict[int, list[tuple[Statement, int]]] = {}
    for loc, stmt in enumerate(statements):
        edges.setdefault(loc, []).append((stmt, loc + 1))
    return ThreadCFG(
        name=name or f"T{index}",
        index=index,
        initial=0,
        exit=len(statements),
        error=None,
        edges=edges,
    )


def looping_thread(
    index: int,
    loop_body: Sequence[Statement],
    after: Sequence[Statement],
    enter: Statement,
    leave: Statement,
    name: str | None = None,
) -> ThreadCFG:
    """``while (*) { body } after`` with explicit branch letters."""
    edges: dict[int, list[tuple[Statement, int]]] = {}
    head = 0
    edges[head] = [(enter, 1), (leave, 1 + len(loop_body))]
    for i, stmt in enumerate(loop_body):
        src = 1 + i
        dst = head if i == len(loop_body) - 1 else src + 1
        edges.setdefault(src, []).append((stmt, dst))
    base = 1 + len(loop_body)
    for i, stmt in enumerate(after):
        edges.setdefault(base + i, []).append((stmt, base + i + 1))
    return ThreadCFG(
        name=name or f"T{index}",
        index=index,
        initial=0,
        exit=base + len(after),
        error=None,
        edges=edges,
    )


def make_program(threads: Sequence[ThreadCFG], name: str = "test") -> ConcurrentProgram:
    return ConcurrentProgram(name=name, threads=list(threads), pre=TRUE, post=TRUE)


def reduction_language(
    program: ConcurrentProgram,
    order: PreferenceOrder,
    commutativity: CommutativityRelation,
    *,
    mode: str = "combined",
    max_length: int,
) -> frozenset[tuple[Statement, ...]]:
    reduced = ReducedProduct(
        program, order, commutativity, mode=mode, accepting="exit"
    )
    dfa = materialize(reduced, program.alphabet(), max_states=100_000)
    return dfa.language_up_to(max_length)


def check_reduction_oracle(
    program: ConcurrentProgram,
    order: PreferenceOrder,
    commutativity: CommutativityRelation,
    *,
    mode: str = "combined",
    max_length: int,
    expect_minimal: bool = True,
) -> None:
    """Assert soundness (and optionally minimality + canonicity) of a
    reduction against explicit class enumeration.

    Equivalence preserves word length, so restricting both languages to
    words of length <= max_length is exact.
    """
    full = program.product_dfa("exit").language_up_to(max_length)
    reduced = reduction_language(
        program, order, commutativity, mode=mode, max_length=max_length
    )
    assert reduced <= full, "reduction must be a subset of the language"
    classes = partition_into_classes(full, commutativity)
    for cls in classes:
        reps = cls & reduced
        assert reps, f"class lost by reduction: {sorted(cls)[:1]}"
        if expect_minimal:
            assert len(reps) == 1, f"class has {len(reps)} representatives"
            (rep,) = reps
            assert rep == minimal_word(order, cls), (
                "representative is not the lex(<)-minimal class member"
            )


# -- random programs for the engine differentials ----------------------------

def _small_statements(thread: int):
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


def _small_posts():
    x, y = var("x"), var("y")
    return st.sampled_from(
        [
            ge(x, intc(0)),
            eq(x, y),
            le(add(x, y), intc(3)),
            gt(y, intc(-2)),
        ]
    )


def small_programs(max_len: int = 3):
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
        st.lists(_small_statements(0), min_size=1, max_size=max_len),
        st.lists(_small_statements(1), min_size=1, max_size=max_len),
        _small_posts(),
    )


def fingerprint(result):
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


def folded_edges(pipeline, q: int, ctx_id: int):
    """The edges the fast expansion takes from ``(q, ctx_id)``.

    Looks the table up (compiling it on a miss), installs its membrane,
    and walks its rows as :meth:`FastChecker.expand` does: returns the
    table and its kept edges as ``(a_id, bit, q2, ctx2_id, lower)``,
    ``lower`` the prefix OR of every earlier row, kept or not.
    """
    table = pipeline.tables.get((q, ctx_id)) or pipeline.compile_table(q, ctx_id)
    if not table.expanded:
        pipeline.first_expansion(table, q, ctx_id)
    edges, lower = [], 0
    for _rank, a_id, bit, delta, ctx2 in table.rows:
        if bit & table.keep_mask:
            edges.append((a_id, bit, q + delta, ctx2, lower))
        lower |= bit
    return table, edges
