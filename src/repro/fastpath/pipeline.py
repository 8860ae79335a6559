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
* the membrane (persistent-set) letter filter, memoized per
  ``(q, ctx)`` as a mask — the only membrane memo on this path.  The
  provider (:class:`~repro.core.persistent.PersistentSetProvider`,
  shared with the pure stack) answers with
  :meth:`~repro.core.persistent.PersistentSetProvider.persistent_mask`:
  Algorithm 1 over its own per-thread tables (thread bitmasks, one
  adjacency int per active thread, a Warshall closure for the sink
  SCC), with the sink threads' precomputed letter masks ORed together.

A table miss reads each thread's digit of the packed ``q`` and that
digit's ``(a_id, delta)`` edges from the encoder; the successor is
``q + delta``.  Building an edge table touches neither
``program.successors``, a statement-to-id lookup, nor a location tuple.

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
    """Edge tables and membrane masks over a :class:`ProgramEncoder`."""

    def __init__(
        self,
        encoder: ProgramEncoder,
        membrane: MembraneMask | None = None,
    ) -> None:
        self.enc = encoder
        self.membrane = membrane
        self._tables: dict[tuple[int, int], EdgeTable] = {}
        self._membrane_masks: dict[tuple[int, int], int] = {}
        # per thread: (radix, the (a_id, delta) edges per digit)
        self._threads = tuple(zip(encoder.radix, encoder.thread_edges))
        #: compiled-edge-table memo counters (``fastpath_edge_*``)
        self.edge_hits = 0
        self.edge_misses = 0

    def edge_table(self, q: int, ctx_id: int) -> EdgeTable:
        """The ⋖-sorted compiled edges of ``(q, ctx)``, memoized.

        The edges are read from the encoder's per-thread digit tables
        (thread-major, edge-list order, like ``program.successors``) and
        sorted under the encoder's precomputed per-context rank array;
        keys include the letter uid, so they are strict and the sorted
        order matches the pure context layer's exactly.  A successor is
        ``q + delta``: no location tuple is built.
        """
        memo_key = (q, ctx_id)
        table = self._tables.get(memo_key)
        if table is not None:
            self.edge_hits += 1
            return table
        self.edge_misses += 1
        keys = self.enc.key_table(ctx_id)
        raw = []
        rest = q
        for radix, digit_edges in self._threads:
            rest, d = divmod(rest, radix)
            for a_id, delta in digit_edges[d]:
                raw.append((keys[a_id], a_id, delta))
        raw.sort(key=_sort_key)
        advance_id = self.enc.advance_id
        edges = []
        enabled = 0
        lower = 0  # prefix OR: bits of the strictly-⋖-smaller siblings
        for _key, a_id, delta in raw:
            bit = 1 << a_id
            edges.append((a_id, bit, q + delta, advance_id(ctx_id, a_id), lower))
            lower |= bit
            enabled |= bit
        table = EdgeTable(tuple(edges), enabled)
        self._tables[memo_key] = table
        return table

    def membrane_mask(self, q: int, ctx_id: int) -> int:
        """The persistent-set letter filter of ``(q, ctx)`` as a mask."""
        memo_key = (q, ctx_id)
        mask = self._membrane_masks.get(memo_key)
        if mask is None:
            enc = self.enc
            mask = self.membrane(enc.q_of(q), enc.ctx_of(ctx_id))
            self._membrane_masks[memo_key] = mask
        return mask
