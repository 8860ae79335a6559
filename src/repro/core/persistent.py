"""Weakly persistent membranes for concurrent programs (§7.1, Algorithm 1).

``PersistentSetProvider.persistent_mask(locations, ctx)`` returns, for a
product state, a weakly persistent membrane M compatible with the
preference order, as a letter mask (``persistent_letters`` decodes it
to statements):

* *weakly persistent* (Def. 6.1): any accepted word from the state whose
  i-th letter conflicts with M contains an earlier letter from M;
* *membrane* (Def. 6.3): every non-empty accepted word from the state
  contains a letter from M;
* *compatible* (§6.2): every letter in M is ⋖-preferred over every
  pruned letter.

The algorithm: build the conflict graph over active threads — an edge
(i, j) when ℓᵢ ⇝ ℓⱼ (location conflict) or thread j has an enabled
letter preferred over one of thread i's — and return the enabled letters
of the topologically maximal (sink) SCC.  Between any two active threads
at least one preference edge exists, so the sink SCC is unique and the
choice is deterministic.

Threads that monitor ``assert`` statements (those with an error
location) are always included, realizing footnote 4 of the paper: this
keeps M a membrane under error-state acceptance.  So when every thread
is an observer, M is every enabled letter and prunes nothing; the
constructor records this as ``prunes`` and callers then install no
membrane at all, which is exact.

The graph runs on per-thread tables: the enabled and reachable
statements of each ``(thread, location)``, built by the constructor,
and the least and greatest sort key per ``(context, thread,
location)``, memoized.  Each active thread's adjacency is one int
bitmask over threads; the sink is read off a Warshall closure of those
ints (thread v is in a sink SCC iff every thread it reaches reaches v
back).  A complete graph, e.g. one of observers only, is all active.
The membrane is the OR of the sink threads' precomputed per-``(thread,
location)`` letter masks.
"""

from __future__ import annotations

from operator import attrgetter

from ..lang.program import ConcurrentProgram, ProductState
from ..lang.statements import Statement
from .commutativity import CommutativityRelation
from .preference import Context, PreferenceOrder, SortKey


_uid = attrgetter("uid")


class PersistentSetProvider:
    """Implements Algorithm 1 over per-thread location tables."""

    def __init__(
        self,
        program: ConcurrentProgram,
        order: PreferenceOrder,
        commutativity: CommutativityRelation,
        *,
        include_observers: bool = True,
    ) -> None:
        self.program = program
        self.order = order
        self.commutativity = commutativity
        self.include_observers = include_observers
        threads = program.threads
        # statement tuples are uid-sorted: statements hash by identity,
        # so a set's iteration order (and with it which pairs a
        # short-circuiting conflict query asks) would follow the memory
        # layout.  A location without outgoing edges has no entry.
        self._enabled: list[dict[int, tuple[Statement, ...]]] = [
            {
                loc: tuple(sorted((s for s, _ in out), key=_uid))
                for loc, out in t.edges.items()
                if out
            }
            for t in threads
        ]
        # letter ids in uid order (the fast encoder's ids) and, per
        # ``(thread, location)``, the mask of the enabled letters
        self._letters: tuple[Statement, ...] = tuple(
            sorted(program.alphabet(), key=_uid)
        )
        letter_bit = {a: 1 << n for n, a in enumerate(self._letters)}
        self._letter_masks: list[dict[int, int]] = [
            {
                loc: sum(letter_bit[a] for a in stmts)
                for loc, stmts in enabled.items()
            }
            for enabled in self._enabled
        ]
        self._reachable_stmts: list[dict[int, tuple[Statement, ...]]] = [
            self._thread_reachable_statements(t) for t in threads
        ]
        observers = [i for i, t in enumerate(threads) if t.error is not None]
        self._observer_mask = sum(1 << i for i in observers) if include_observers else 0
        #: False iff every membrane is the whole enabled set (every
        #: thread an included observer), so the filter never prunes
        self.prunes = self._observer_mask != (1 << len(threads)) - 1
        self._commute_cache: dict[tuple[int, int], bool] = {}
        self._conflict_cache: dict[tuple[int, int, int, int], bool] = {}
        self._key_bounds: dict[tuple[Context, int, int], tuple[SortKey, SortKey]] = {}
        self._result_cache: dict[tuple, frozenset[Statement]] = {}

    # -- preprocessing ---------------------------------------------------------

    @staticmethod
    def _thread_reachable_statements(thread) -> dict[int, tuple[Statement, ...]]:
        """For each location, the statements on edges reachable from it."""
        out: dict[int, tuple[Statement, ...]] = {}
        for loc in thread.locations:
            stmts: set[Statement] = set()
            for reach in thread.reachable_from(loc):
                stmts.update(thread.enabled(reach))
            out[loc] = tuple(sorted(stmts, key=_uid))
        return out

    def _commute(self, a: Statement, b: Statement) -> bool:
        key = (a.uid, b.uid) if a.uid < b.uid else (b.uid, a.uid)
        hit = self._commute_cache.get(key)
        if hit is None:
            hit = self.commutativity.commute(a, b)
            self._commute_cache[key] = hit
        return hit

    def _location_conflict(self, i: int, loc_i: int, j: int, loc_j: int) -> bool:
        """ℓᵢ ⇝ ℓⱼ: an enabled letter of ℓᵢ conflicts with a letter
        enabled at some location reachable from ℓⱼ in thread j."""
        key = (i, loc_i, j, loc_j)
        hit = self._conflict_cache.get(key)
        if hit is not None:
            return hit
        reach_j = self._reachable_stmts[j][loc_j]
        result = any(
            not self._commute(a, b)
            for a in self._enabled[i][loc_i]
            for b in reach_j
        )
        self._conflict_cache[key] = result
        return result

    def _bounds(self, context: Context, i: int, loc: int) -> tuple[SortKey, SortKey]:
        """The least and greatest sort key of thread i's letters at *loc*."""
        key = (context, i, loc)
        hit = self._key_bounds.get(key)
        if hit is None:
            sort_key = self.order.key
            keys = [sort_key(context, a) for a in self._enabled[i][loc]]
            hit = (min(keys), max(keys))
            self._key_bounds[key] = hit
        return hit

    # -- Algorithm 1 --------------------------------------------------------------

    def persistent_letters(
        self, state: ProductState, context: Context
    ) -> frozenset[Statement]:
        """CompatiblePersistentSet(q): a weakly persistent membrane.

        The statements of :meth:`persistent_mask`, memoized per (state,
        context): the result is independent of the sleep set and proof
        assertion, which otherwise multiply the number of calls by
        orders of magnitude.
        """
        memo_key = (state, context)
        cached = self._result_cache.get(memo_key)
        if cached is not None:
            return cached
        mask = self.persistent_mask(state, context)
        letters = self._letters
        out = []
        while mask:
            bit = mask & -mask
            out.append(letters[bit.bit_length() - 1])
            mask ^= bit
        result = frozenset(out)
        self._result_cache[memo_key] = result
        return result

    def persistent_mask(self, locations: ProductState, context: Context) -> int:
        """Algorithm 1 at a location vector, as a letter mask.

        Bit ``n`` stands for the ``n``-th letter in uid order — the fast
        encoder's letter ids.  Not memoized: each caller keeps one memo
        keyed by its own state representation.
        """
        enabled = self._enabled
        active = [i for i, loc in enumerate(locations) if loc in enabled[i]]
        if not active:
            return 0
        sink = active
        if len(active) > 1 and any(
            not self._observer_mask >> i & 1 for i in active
        ):
            sink = self._sink_threads(locations, context, active)
        masks = self._letter_masks
        mask = 0
        for i in sink:
            mask |= masks[i][locations[i]]
        return mask

    def _sink_threads(
        self, state: ProductState, context: Context, active: list[int]
    ) -> list[int]:
        """The threads of the conflict graph's sink SCC(s).

        Edges are built in (i, j) order and short-circuit: an observer
        j gives an edge without a conflict query, a conflict gives one
        without a preference test.  With preference edges between every
        active pair the sink is unique; should several exist, their
        union is returned (always sound).
        """
        observers = self._observer_mask
        conflicts = self._conflict_cache
        conflict = self._location_conflict
        bounds = [self._bounds(context, i, state[i]) for i in active]
        others = [(j, 1 << j, state[j], bounds[n][0]) for n, j in enumerate(active)]
        full = sum(1 << i for i in active)
        reach = {}
        for n, i in enumerate(active):
            loc_i = state[i]
            greatest = bounds[n][1]
            out = 0
            for j, bit, loc_j, least in others:
                if j == i:
                    continue
                if not observers & bit:
                    hit = conflicts.get((i, loc_i, j, loc_j))
                    if hit is None:
                        hit = conflict(i, loc_i, j, loc_j)
                    # no conflict: a preference edge if thread j has a
                    # letter preferred over one of thread i's letters
                    if not hit and least >= greatest:
                        continue
                out |= bit
            reach[i] = out
        if all(reach[i] | 1 << i == full for i in active):
            return active
        # Warshall: reach[v] becomes every thread reachable from v
        for k in active:
            bit = 1 << k
            through = reach[k]
            for v in active:
                if reach[v] & bit:
                    reach[v] |= through
        return [
            v
            for v in active
            if all(reach[u] >> v & 1 for u in active if reach[v] >> u & 1)
        ]
