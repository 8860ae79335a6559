"""The fast layer pipeline: per-context edge fragments and (q, ctx) tables.

The pure stack answers an expansion with a memoized tuple of
``(letter, successor, sort key, next context)`` objects and re-derives
the sleep rule's candidate set ``{b | b ∈ S or b <_q a}`` by comparing
sort keys per sibling.  Here the work that depends only on the context
is compiled once per context, and a ``(q, ctx)`` table is a few list
concatenations:

* **fragments** — on a context's first table miss, each thread's
  ``(a_id, delta)`` edges per digit become a tuple of rows
  ``(rank, a_id, bit, delta, ctx2_id)`` sorted by the letter's rank,
  its position in the ⋖ order of the context's key array (equal keys
  share a rank, so a stable sort by rank is a stable sort by key);
  ``ctx2_id`` is the advanced context, so no expansion calls
  ``advance``;
* **thread-major** — the context's one fact about its fragments: every
  row of thread ``t`` ranks below every row of thread ``t + 1``.  A
  table miss then concatenates each thread's fragment for its digit,
  and only a context that is not thread-major (lockstep's rotations,
  ``rand(k)``, a custom ``seq`` priority, positional orders) sorts the
  concatenation by rank.  The default ``seq`` order is thread-major;
* **tables** — per ``(q, ctx)``: the ⋖-sorted rows, the enabled mask
  (the OR of every row's bit) and the goal flags (bit 1 a thread at its
  error digit, bit 2 the all-exit state), all read off the same
  per-thread ``divmod`` pass, plus the membrane mask.  The engine looks
  a table up once per popped state, for the goal flags and the edges.

A table keeps every enabled row.  The expansion
(:meth:`repro.fastpath.check.FastChecker.expand`) computes ``q +
delta`` and the prefix-OR mask of the strictly-⋖-smaller siblings as
it iterates, ORs the bit of a row outside the membrane and skips that
row, so the sleep rule's candidate set ``(S | lower) & enabled`` still
ranges over every enabled sibling.  The membrane's provider
(:class:`~repro.core.persistent.PersistentSetProvider`, shared with the
pure stack) answers with
:meth:`~repro.core.persistent.PersistentSetProvider.persistent_mask`
at the table's first expansion, never for a goal state; no membrane is
installed where it cannot prune (every thread an ``assert`` observer).

Commutativity masks are *not* here: they depend on the proof assertion
φ, so they live with the proof-check glue (:mod:`repro.fastpath.check`)
next to the subsumption cache they decode into.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from ..core.preference import Context
from ..lang.program import ProductState
from .encoder import ProgramEncoder

#: sorts rows by rank alone (stable, like the pure layer's key sort)
_by_rank = itemgetter(0)

#: the membrane hook: Algorithm 1's letter mask of a (location vector,
#: context) pair, over the encoder's uid-sorted letter ids
MembraneMask = Callable[[ProductState, Context], int]

#: one compiled edge: (rank, a_id, bit, delta, ctx2_id)
Row = tuple[int, int, int, int, int]

#: one thread under one context: (radix, enabled mask per digit, error
#: digit, rows per digit)
_Thread = tuple[int, tuple[int, ...], int, tuple[tuple[Row, ...], ...]]


class EdgeTable:
    """The compiled outgoing edges and goal flags of one ``(q, ctx)``.

    ``keep_mask`` is the membrane (-1 keeps every row); it is installed
    by the table's first expansion, which also sets ``expanded``.  The
    pipeline's ``edge_misses`` count first expansions and ``edge_hits``
    later ones, so a table that a goal check looked up first is counted
    exactly as if that check had not compiled it.
    """

    __slots__ = ("rows", "enabled_mask", "keep_mask", "flags", "expanded")

    def __init__(self, rows: list[Row], enabled_mask: int, flags: int) -> None:
        self.rows = rows
        self.enabled_mask = enabled_mask
        self.keep_mask = -1
        self.flags = flags
        self.expanded = False


class FastPipeline:
    """Per-context fragments and ``(q, ctx)`` tables over a
    :class:`ProgramEncoder`."""

    def __init__(
        self,
        encoder: ProgramEncoder,
        membrane: MembraneMask | None = None,
    ) -> None:
        self.enc = encoder
        self.membrane = membrane
        #: the ``(q, ctx_id)`` table memo, read directly by the engine
        self.tables: dict[tuple[int, int], EdgeTable] = {}
        # per context id: its compiled threads and whether it is
        # thread-major (see :meth:`fragments`)
        self._fragments: dict[int, tuple[tuple[_Thread, ...], bool]] = {}
        # per thread: (radix, enabled mask per digit, error digit)
        self._threads = tuple(
            zip(
                encoder.radix,
                tuple(
                    tuple(_mask(edges) for edges in digit_edges)
                    for digit_edges in encoder.thread_edges
                ),
                encoder.error_digit,
            )
        )
        self._exit_q = encoder.exit_q
        #: first and later expansions of a table (``fastpath_edge_*``)
        self.edge_hits = 0
        self.edge_misses = 0

    def fragments(self, ctx_id: int) -> tuple[tuple[_Thread, ...], bool]:
        """Context *ctx_id*'s compiled threads and whether it is
        thread-major, compiled on first use.  A thread is ``(radix,
        enabled mask per digit, error digit, rank-sorted rows per
        digit)``."""
        compiled = self._fragments.get(ctx_id)
        if compiled is not None:
            return compiled
        enc = self.enc
        keys = enc.key_table(ctx_id)
        rank = [0] * len(keys)
        r = -1
        prev = None
        for a_id in sorted(range(len(keys)), key=keys.__getitem__):
            if r < 0 or keys[a_id] != prev:
                r += 1
                prev = keys[a_id]
            rank[a_id] = r
        advance_id = enc.advance_id
        frags = tuple(
            tuple(
                tuple(
                    sorted(
                        (
                            (rank[a], a, 1 << a, delta, advance_id(ctx_id, a))
                            for a, delta in edges
                        ),
                        key=_by_rank,
                    )
                )
                for edges in digit_edges
            )
            for digit_edges in enc.thread_edges
        )
        thread_major = True
        top = -1  # the highest rank of the earlier threads
        for thread_frags in frags:
            ranks = [row[0] for rows in thread_frags for row in rows]
            if ranks:
                if min(ranks) <= top:
                    thread_major = False
                    break
                top = max(ranks)
        threads = tuple(
            (radix, masks, error, thread_frags)
            for (radix, masks, error), thread_frags in zip(self._threads, frags)
        )
        compiled = self._fragments[ctx_id] = (threads, thread_major)
        return compiled

    def compile_table(self, q: int, ctx_id: int) -> EdgeTable:
        """The table of ``(q, ctx)``, compiled and memoized (a miss).

        One ``divmod`` pass reads each thread's digit: it appends that
        digit's fragment, ORs its enabled mask and tests its error
        digit.  Only a context that is not thread-major sorts the rows,
        by int rank.  The membrane waits for :meth:`first_expansion`,
        so a goal state's table asks Algorithm 1 nothing.
        """
        compiled = self._fragments.get(ctx_id)
        if compiled is None:
            compiled = self.fragments(ctx_id)
        threads, thread_major = compiled
        rows: list[Row] = []
        enabled = 0
        flags = 0
        rest = q
        for radix, masks, error, thread_frags in threads:
            rest, d = divmod(rest, radix)
            rows += thread_frags[d]
            enabled |= masks[d]
            if d == error:
                flags = 1
        if not thread_major:
            rows.sort(key=_by_rank)
        if q == self._exit_q:
            flags |= 2
        table = self.tables[(q, ctx_id)] = EdgeTable(rows, enabled, flags)
        return table

    def first_expansion(self, table: EdgeTable, q: int, ctx_id: int) -> None:
        """Count a table's first expansion and install its membrane."""
        table.expanded = True
        self.edge_misses += 1
        if self.membrane is not None:
            enc = self.enc
            table.keep_mask = self.membrane(enc.q_of(q), enc.ctx_of(ctx_id))


def _mask(edges: tuple[tuple[int, int], ...]) -> int:
    """The letter bitmask of ``(a_id, delta)`` edges."""
    mask = 0
    for a_id, _delta in edges:
        mask |= 1 << a_id
    return mask
