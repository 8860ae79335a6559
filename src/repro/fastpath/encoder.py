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
* **product states** — a mixed-radix integer: thread ``t``'s location
  index is the digit ``q // stride[t] % radix[t]``.  The encoding is a
  bijection over location vectors, so two packed states are equal iff
  the rich tuples are: the engine's seen set and per-round state
  counts are preserved bit-for-bit.  Python
  ints are arbitrary-precision, so any number of threads packs.
* **contexts / Floyd-Hoare states** — interned to dense ids on first
  sight (same bijection argument).
* **threads** — each thread's CFG compiled to ``(a_id, delta)`` edge
  tuples per digit, where ``q + delta`` is the successor; plus the
  packed all-exit state ``exit_q`` and each thread's error digit
  (``error_digit``, -1 for a thread without an ``assert``): the edge
  pipeline compiles its per-context fragments and reads a state's goal
  flags from these tables and digits, never from the program objects
  or a location tuple.
* **preference orders** — compiled to per-context key arrays
  (``key_table``): one ``order.key`` evaluation per (context, letter),
  then O(1) array reads, plus a memoized ``advance`` table.

The reverse direction (``letters_of``, ``q_of``, ``ctx_of``,
``phi_of``) is the decode boundary: commutativity and Hoare queries
leave the integer world through it, counterexample traces re-enter
object land only at the round's edges.  ``q_of`` is the only
location-tuple build; on the search path only the membrane call at an
edge table's first expansion makes it.
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
    ids, packed product states, and context ids depend only on the
    program and the order; Floyd/Hoare state ids only on the frozenset of
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
        # the product state, packed: thread t's location index is the
        # digit of weight stride[t] = radix[0] * ... * radix[t-1]
        threads = program.threads
        #: per thread, its locations in digit order
        self.locations: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(t.locations)) for t in threads
        )
        self._digit: tuple[dict[int, int], ...] = tuple(
            {loc: d for d, loc in enumerate(locs)} for locs in self.locations
        )
        self.radix: tuple[int, ...] = tuple(len(locs) for locs in self.locations)
        strides = []
        weight = 1
        for r in self.radix:
            strides.append(weight)
            weight *= r
        self.stride: tuple[int, ...] = tuple(strides)
        # the program, compiled per thread: ``(a_id, delta)`` edges per
        # digit (a location without outgoing edges has an empty tuple),
        # where ``q + delta`` moves thread t from the source to the
        # destination location; the packed all-exit state; and each
        # thread's error digit (-1 unless it observes an ``assert``)
        letter_id = self.letter_id
        self.thread_edges: tuple[tuple[tuple[tuple[int, int], ...], ...], ...] = tuple(
            tuple(
                tuple(
                    (letter_id[a], (digit[dst] - d) * stride)
                    for a, dst in t.edges.get(loc, ())
                )
                for d, loc in enumerate(locs)
            )
            for t, locs, digit, stride in zip(
                threads, self.locations, self._digit, self.stride
            )
        )
        self.exit_q: int = self.q_id(tuple(t.exit for t in threads))
        self.error_digit: tuple[int, ...] = tuple(
            digit[t.error] if t.error is not None else -1
            for t, digit in zip(threads, self._digit)
        )
        # interning tables: rich object -> dense id, and the decode lists
        self._ctx_ids: dict[Context, int] = {}
        self._ctx_objs: list[Context] = []
        self._phi_ids: dict[FhState, int] = {}
        self._phi_objs: list[FhState] = []
        # the order, compiled: per-context-id rank arrays and the
        # memoized context-advance table
        self._key_tables: list[tuple[SortKey, ...]] = []
        self._advance: dict[tuple[int, int], int] = {}

    # -- encoding / interning ---------------------------------------------------

    def q_id(self, q: ProductState) -> int:
        """The packed integer of a location vector."""
        return sum(
            digit[loc] * stride
            for digit, loc, stride in zip(self._digit, q, self.stride)
        )

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

    def q_of(self, q: int) -> ProductState:
        """The location vector of a packed state (the only tuple build)."""
        out = []
        for locs, radix in zip(self.locations, self.radix):
            q, d = divmod(q, radix)
            out.append(locs[d])
        return tuple(out)

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
