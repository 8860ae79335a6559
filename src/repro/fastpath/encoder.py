"""The compilation step: program objects ↔ dense integers.

Everything the hot loop touches is compiled to a primitive
representation before search:

* **letters** — the product alphabet, sorted by statement uid (the
  ⋖-tiebreak order, so ids are stable and reproducible), gets dense ids
  ``0..|Σ|-1``; a *set* of letters is an int bitmask with bit ``i`` for
  letter ``i``.  Python ints are arbitrary-precision, so alphabets of
  any width encode; ``letter_bits`` is the width of a letter id, the
  shift the fast path uses to pack ``(φ_id, a_id)`` memo keys into one
  int without collisions.
* **product states / contexts / Floyd-Hoare states** — interned to
  dense ids on first sight.  Interning is a bijection, so two packed
  states are equal iff the rich tuples are: the engine's seen set,
  warm-map exact-match rule, and per-round state counts are preserved
  bit-for-bit.
* **threads** — each thread's CFG compiled to ``(a_id, dst)`` edge
  tuples per location, plus the all-exit product state and the
  ``(thread, error location)`` pairs: expanding a product state and
  flagging it as a goal read these tables, never the program objects.
* **preference orders** — compiled to per-context rank arrays
  (``key_table``): one ``order.key`` evaluation per (context, letter),
  then O(1) array reads, plus a memoized ``advance`` table.

The reverse direction (``letters_of``, ``q_of``, ``ctx_of``,
``phi_of``) is the decode boundary: commutativity and Hoare queries
leave the integer world through it, counterexample traces and warm
maps re-enter object land only at the round's edges.
"""

from __future__ import annotations

from ..core.preference import Context, PreferenceOrder, SortKey
from ..lang.program import ConcurrentProgram, ProductState
from ..lang.statements import Statement
from ..verifier.hoare import FhState

#: minimum letter-id width of packed ``(φ_id, a_id)`` keys: alphabets of
#: up to 64 letters pack as ``(φ_id << 6) | a_id``
MIN_LETTER_BITS = 6


class ProgramEncoder:
    """Dense-id tables for one (program, preference order) pair.

    Lives for the whole verification run (all CEGAR rounds): statement
    ids, product-state ids, and context ids depend only on the program
    and the order; Floyd/Hoare state ids only on the frozenset of
    predicate indices (stable across vocabulary growth — old indices
    never change meaning).
    """

    def __init__(self, program: ConcurrentProgram, order: PreferenceOrder) -> None:
        letters = sorted(program.alphabet(), key=lambda s: s.uid)
        self.order = order
        self.letters: tuple[Statement, ...] = tuple(letters)
        #: bits of a letter id: ``(φ_id << letter_bits) | a_id`` is a
        #: collision-free key for every ``a_id < len(letters)``
        self.letter_bits = max(
            MIN_LETTER_BITS, (len(letters) - 1).bit_length()
        )
        self.letter_id: dict[Statement, int] = {
            s: i for i, s in enumerate(letters)
        }
        # the program, compiled per thread: ``(a_id, dst)`` edges per
        # location (a location without outgoing edges has no entry), the
        # all-exit product state, and the ``(thread, error location)``
        # pairs of the ``assert`` observers
        letter_id = self.letter_id
        self.thread_edges: tuple[dict[int, tuple[tuple[int, int], ...]], ...] = tuple(
            {
                loc: tuple((letter_id[a], dst) for a, dst in out)
                for loc, out in t.edges.items()
                if out
            }
            for t in program.threads
        )
        self.exit_state: ProductState = tuple(t.exit for t in program.threads)
        self.error_locations: tuple[tuple[int, int], ...] = tuple(
            (i, t.error)
            for i, t in enumerate(program.threads)
            if t.error is not None
        )
        # interning tables: rich object -> dense id, and the decode lists
        self._q_ids: dict[ProductState, int] = {}
        self._q_objs: list[ProductState] = []
        self._ctx_ids: dict[Context, int] = {}
        self._ctx_objs: list[Context] = []
        self._phi_ids: dict[FhState, int] = {}
        self._phi_objs: list[FhState] = []
        # the order, compiled: per-context-id rank arrays and the
        # memoized context-advance table
        self._key_tables: list[tuple[SortKey, ...]] = []
        self._advance: dict[tuple[int, int], int] = {}

    # -- interning ------------------------------------------------------------

    def q_id(self, q: ProductState) -> int:
        i = self._q_ids.get(q)
        if i is None:
            i = len(self._q_objs)
            self._q_ids[q] = i
            self._q_objs.append(q)
        return i

    def ctx_id(self, ctx: Context) -> int:
        i = self._ctx_ids.get(ctx)
        if i is None:
            i = len(self._ctx_objs)
            self._ctx_ids[ctx] = i
            self._ctx_objs.append(ctx)
            # compile the order for this context up front: one key per
            # letter (the rank array every edge sort reads)
            key = self.order.key
            self._key_tables.append(
                tuple(key(ctx, a) for a in self.letters)
            )
        return i

    def phi_id(self, phi: FhState) -> int:
        i = self._phi_ids.get(phi)
        if i is None:
            i = len(self._phi_objs)
            self._phi_ids[phi] = i
            self._phi_objs.append(phi)
        return i

    # -- decoding (the id -> object boundary) ----------------------------------

    def q_of(self, q_id: int) -> ProductState:
        return self._q_objs[q_id]

    def ctx_of(self, ctx_id: int) -> Context:
        return self._ctx_objs[ctx_id]

    def phi_of(self, phi_id: int) -> FhState:
        return self._phi_objs[phi_id]

    # -- the compiled order -----------------------------------------------------

    def key_table(self, ctx_id: int) -> tuple[SortKey, ...]:
        """Sort key per letter id under context *ctx_id* (precomputed)."""
        return self._key_tables[ctx_id]

    def advance_id(self, ctx_id: int, a_id: int) -> int:
        """``order.advance`` over ids, memoized."""
        key = (ctx_id, a_id)
        c2 = self._advance.get(key)
        if c2 is None:
            c2 = self.ctx_id(
                self.order.advance(self._ctx_objs[ctx_id], self.letters[a_id])
            )
            self._advance[key] = c2
        return c2

    # -- letter sets <-> bitmasks ------------------------------------------------

    def mask_of(self, letters) -> int:
        """The bitmask of an iterable of statements."""
        letter_id = self.letter_id
        mask = 0
        for a in letters:
            mask |= 1 << letter_id[a]
        return mask

    def letters_of(self, mask: int) -> frozenset[Statement]:
        """The statement set of a bitmask (decode boundary)."""
        letters = self.letters
        out = []
        while mask:
            bit = mask & -mask
            out.append(letters[bit.bit_length() - 1])
            mask ^= bit
        return frozenset(out)
