"""The fast layer pipeline: compiled ⋖-sorted edge tables + mask memos.

The pure stack answers an expansion with a memoized tuple of
``(letter, successor, sort key, next context)`` objects and re-derives
the sleep rule's candidate set ``{b | b ∈ S or b <_q a}`` by comparing
sort keys per sibling.  Here both are compiled once per ``(q, ctx)``:

* ``edges`` — ``(a_id, bit, q2, ctx2_id, lower_mask)`` in ⋖ order,
  where ``q2`` is the packed successor and ``lower_mask`` is the
  bitmask of the strictly-⋖-smaller sibling letters (a prefix OR,
  since the edges are sorted and keys are strict);
* ``enabled_mask`` — the OR of all edge letters, so the sleep rule's
  candidate set becomes ``(S | lower_mask) & enabled_mask``: two mask
  ops instead of a key comparison per sibling;
* the membrane (persistent-set) letter filter, folded in: a table
  keeps only the edges of the membrane's letters, while each kept
  edge's ``lower_mask`` and ``enabled_mask`` still range over every
  enabled sibling, so the sleep rule's candidate set is unchanged.
  The provider (:class:`~repro.core.persistent.PersistentSetProvider`,
  shared with the pure stack) answers with
  :meth:`~repro.core.persistent.PersistentSetProvider.persistent_mask`
  during the table miss; no membrane is installed where it cannot
  prune (every thread an ``assert`` observer).

A table miss reads each thread's digit of the packed ``q`` and that
digit's ``(a_id, delta)`` edges from the encoder; the successor is
``q + delta``.  The membrane's location tuple is built in the same
per-thread pass; a table touches neither ``program.successors`` nor a
statement-to-id lookup.

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

#: sorts raw edges by their ⋖ key alone (stable, like the pure layer)
_sort_key = itemgetter(0)

#: the membrane hook: Algorithm 1's letter mask of a (location vector,
#: context) pair, over the encoder's uid-sorted letter ids
MembraneMask = Callable[[ProductState, Context], int]


class EdgeTable:
    """The compiled outgoing edges of one ``(q, ctx)`` pair."""

    __slots__ = ("edges", "enabled_mask")

    def __init__(
        self,
        edges: tuple[tuple[int, int, int, int, int], ...],
        enabled_mask: int,
    ) -> None:
        self.edges = edges
        self.enabled_mask = enabled_mask


class FastPipeline:
    """Membrane-filtered edge tables over a :class:`ProgramEncoder`."""

    def __init__(
        self,
        encoder: ProgramEncoder,
        membrane: MembraneMask | None = None,
    ) -> None:
        self.enc = encoder
        self.membrane = membrane
        self._tables: dict[tuple[int, int], EdgeTable] = {}
        # per thread: (radix, the (a_id, delta) edges per digit, locations)
        self._threads = tuple(zip(encoder.radix, encoder.thread_edges, encoder.locations))
        #: compiled-edge-table memo counters (``fastpath_edge_*``)
        self.edge_hits = 0
        self.edge_misses = 0

    def edge_table(self, q: int, ctx_id: int) -> EdgeTable:
        """The ⋖-sorted compiled membrane edges of ``(q, ctx)``, memoized.

        The edges are read from the encoder's per-thread digit tables
        (thread-major, edge-list order, like ``program.successors``) and
        sorted under the encoder's precomputed per-context rank array;
        keys include the letter uid, so they are strict and the sorted
        order matches the pure context layer's exactly.  A successor is
        ``q + delta``.  Edges outside the membrane are dropped after
        their bits enter the later siblings' ``lower`` masks.
        """
        memo_key = (q, ctx_id)
        table = self._tables.get(memo_key)
        if table is not None:
            self.edge_hits += 1
            return table
        self.edge_misses += 1
        enc = self.enc
        keys = enc.key_table(ctx_id)
        raw = []
        locations = []
        rest = q
        for radix, digit_edges, locs in self._threads:
            rest, d = divmod(rest, radix)
            locations.append(locs[d])
            for a_id, delta in digit_edges[d]:
                raw.append((keys[a_id], a_id, delta))
        raw.sort(key=_sort_key)
        keep = (
            self.membrane(tuple(locations), enc.ctx_of(ctx_id))
            if self.membrane is not None
            else -1
        )
        advance_id = enc.advance_id
        edges = []
        lower = 0  # prefix OR: bits of the strictly-⋖-smaller siblings
        for _key, a_id, delta in raw:
            bit = 1 << a_id
            if bit & keep:
                edges.append((a_id, bit, q + delta, advance_id(ctx_id, a_id), lower))
            lower |= bit
        table = EdgeTable(tuple(edges), lower)  # lower: every enabled bit
        self._tables[memo_key] = table
        return table
