"""The fast proof-check round: glue between the checker and the
integer engine.

:class:`FastChecker` owns the compiled tables of one
:class:`~repro.verifier.checkproof.ProofChecker` (one encoder + edge
pipeline for the whole CEGAR run) and runs each proof-check round on
:mod:`repro.fastpath.engine` over packed ``(q, φ_id, S_mask,
ctx_id)`` states, ``q`` the mixed-radix product state.  Everything
that needs the rich objects — Hoare steps, entailment, proof-sensitive
commutativity, the cross-round useless-state cache — goes through the
encoder's decode boundary and is answered by the *same* caches and
solver the pure path uses, so the answers (and with them verdicts,
rounds, proofs, counterexamples, and per-round state counts) are
bit-identical to the pure engine's.

:meth:`FastChecker.expand` walks a state's edge table (see
:mod:`repro.fastpath.pipeline`): it computes each successor as ``q +
delta`` and the sleep rule's lower mask as a prefix OR while it
iterates, and skips the rows outside the membrane.  On top of the
shared caches the fast path adds three id-keyed memos the pure path
cannot express cheaply; the expansion reads the step and
commutativity-mask memos inline and calls a method only on a miss:

* ``step`` — ``(φ_id, a_id) -> φ_id``; a thin integer front for the
  Hoare automaton's own step cache, cleared whenever the vocabulary
  grows (stepping under more predicates can strengthen the successor);
  keyed by ``(φ_id << letter_bits) | a_id``, with the shift sized to the
  alphabet by the encoder so no two pairs share a key;
* ``entails`` — ``φ_id -> bool`` for the exit-state postcondition
  check; stable across rounds because an interned φ always denotes the
  same assertion (old predicate indices never change meaning);
* commutativity masks — per taken letter (and per φ when the relation
  is proof-sensitive) a ``known``/``true`` bitmask pair over candidate
  letters, so the sleep rule costs two mask ops once the pair has been
  decided.  Monotonicity is not consulted here: the masks only memoize
  what :meth:`ProofChecker._commute` (with its subsumption cache)
  already answered, keeping the two engines' answer streams identical.

Each round starts cold: no per-state record of the last round is kept
(see :mod:`repro.verifier.checkproof` for the measured hit rates that
retired it).  A re-expanded state is cheap anyway, because the edge
tables, the step memo, and the commutativity masks above outlive the
round.
"""

from __future__ import annotations

from ..automata.engine import DEADLINE_TICK_INTERVAL
from ..verifier.checkproof import (
    CheckBudgetExceeded,
    CheckDeadlineExceeded,
    CheckOutcome,
    UselessStateCache,
)
from ..verifier.hoare import BOTTOM, FloydHoareAutomaton
from .encoder import ProgramEncoder
from .engine import PackedState, RoundStats, run_bfs, run_dfs
from .pipeline import EdgeTable, FastPipeline

#: entails-memo miss sentinel (False is a valid cached answer)
_MISS = object()


class _FastUselessHook:
    """Adapts :class:`UselessStateCache` to packed states.

    Keys are the packed reduction part ``(q, S_mask, ctx_id)`` with
    the *decoded* Floyd/Hoare predicate set as the monotone dimension —
    the subset tests must compare real predicate sets.  The encoder is
    stable for the checker's lifetime and a checker runs on exactly one
    engine, so packed keys never mix with the pure hook's object keys.
    """

    __slots__ = ("cache", "enc")

    def __init__(self, cache: UselessStateCache, enc: ProgramEncoder) -> None:
        self.cache = cache
        self.enc = enc

    def is_useless(self, state: PackedState) -> bool:
        return self.cache.is_useless(
            (state[0], state[2], state[3]), self.enc.phi_of(state[1])
        )

    def mark(self, state: PackedState) -> None:
        self.cache.mark(
            (state[0], state[2], state[3]), self.enc.phi_of(state[1])
        )


class FastChecker:
    """One proof checker's compiled fast path (all CEGAR rounds).

    Construction compiles the program and order; :meth:`check` then
    mirrors :meth:`~repro.verifier.checkproof.ProofChecker.check` round
    for round.
    """

    def __init__(self, checker) -> None:
        enc = ProgramEncoder(checker.program, checker.order)
        self.checker = checker
        self.enc = enc
        self.pipeline = FastPipeline(
            enc,
            membrane=(
                checker._persistent.persistent_mask
                if checker._persistent is not None
                else None
            ),
        )
        self.use_sleep = checker._use_sleep
        # static relations answer independently of φ: one mask per letter
        self._static_commute = checker._conditional is None
        self.bottom = enc.phi_id(BOTTOM)
        self._shift = enc.letter_bits
        # the id-keyed memos (see module docstring)
        self._step_memo: dict[int, int] = {}
        self._step_vocab = -1
        self._entails_memo: dict[int, bool] = {}
        self._cmask: dict[int, list[int]] = {}
        self._fh: FloydHoareAutomaton | None = None
        self._post = None
        #: fastpath_* counters (surfaced through ``QueryStats``)
        self.rounds = 0
        self.step_hits = 0
        self.step_misses = 0
        self.commute_mask_hits = 0
        self.commute_mask_misses = 0
        # per-round engine parameters (set by :meth:`check`)
        self.stats = RoundStats()
        self.deadline = checker.deadline
        self.max_states = checker.max_states
        self.tick_interval = DEADLINE_TICK_INTERVAL
        self.budget_error = CheckBudgetExceeded
        self.budget_message = "proof check exceeded its state budget"
        self.deadline_error = CheckDeadlineExceeded
        self.useless: _FastUselessHook | None = None
        # the table memo and its miss, read by the engine per popped state
        self.tables = self.pipeline.tables
        self.compile_table = self.pipeline.compile_table

    # -- vocabulary / automaton lifecycle --------------------------------------

    def note_vocabulary_grown(self) -> None:
        """Invalidate the step memo after refinement grew the vocabulary.

        Stepping the same φ under more predicates can strengthen the
        successor, so ``(φ_id, a_id)`` entries go stale.  Everything
        else survives: φ ids keep their meaning, ``entails`` answers are
        per-φ stable, and the commutativity masks memoize per-(φ, a, b)
        answers that monotonicity never retracts.
        """
        self._step_memo.clear()
        self._step_vocab = -1

    def _bind_automaton(self, fh: FloydHoareAutomaton) -> None:
        """Point the fast path at *fh*, resetting φ-dependent state.

        ``verify()`` uses one automaton per run, so this fires once; it
        matters for direct :class:`ProofChecker` users that check
        against several automata — a φ id is only meaningful relative to
        the automaton whose predicate indices it froze.
        """
        if fh is self._fh:
            return
        self._fh = fh
        self.enc._phi_ids.clear()
        self.enc._phi_objs.clear()
        self.bottom = self.enc.phi_id(BOTTOM)
        self._step_memo.clear()
        self._step_vocab = -1
        self._entails_memo.clear()
        if not self._static_commute:
            self._cmask.clear()

    # -- the decode boundary ----------------------------------------------------

    def _step_miss(self, phi: int, a_id: int, key: int) -> int:
        """``(φ_id, a_id) -> φ_id`` through the Hoare automaton, stored
        under *key* in the step memo."""
        self.step_misses += 1
        enc = self.enc
        nxt = enc.phi_id(self._fh.step(enc.phi_of(phi), enc.letters[a_id]))
        self._step_memo[key] = nxt
        return nxt

    def entails(self, phi: int) -> bool:
        """Does φ entail the round's postcondition? (exit-state goal)"""
        answer = self._entails_memo.get(phi, _MISS)
        if answer is _MISS:
            answer = self._fh.entails(self.enc.phi_of(phi), self._post)
            self._entails_memo[phi] = answer
        return answer

    def _commute_mask(self, phi: int, a_id: int, cand: int) -> int:
        """The sleep set ``{b ∈ cand | a ↷↷_φ b}`` as a mask, when some
        bit of *cand* is not yet decided (a commute-mask miss).

        Memoized as a ``[known, true]`` mask pair; unknown candidate
        bits are decided through :meth:`ProofChecker._commute` — the
        same subsumption cache and solver the pure sleep rule uses, so
        the answers are identical (only the query *counts* differ).
        """
        key = (
            a_id if self._static_commute else ((phi << self._shift) | a_id)
        )
        entry = self._cmask.get(key)
        if entry is None:
            entry = [0, 0]
            self._cmask[key] = entry
        known, true = entry
        unknown = cand & ~known
        self.commute_mask_misses += 1
        enc = self.enc
        letters = enc.letters
        commute = self.checker._commute
        fh = self._fh
        phi_obj = enc.phi_of(phi)
        a = letters[a_id]
        while unknown:
            bit = unknown & -unknown
            if commute(fh, phi_obj, a, letters[bit.bit_length() - 1]):
                true |= bit
            known |= bit
            unknown ^= bit
        entry[0] = known
        entry[1] = true
        return cand & true

    # -- expansion (the reduction rule over masks) -------------------------------

    def expand(
        self, state: PackedState, table: EdgeTable
    ) -> list[tuple[int, PackedState]]:
        """Reduced successor edges of a packed state, from its *table*.

        The sleep rule over masks: candidates ``(S | lower_a) & enabled``,
        where ``lower_a`` is the prefix OR of the rows before ``a`` in
        the ⋖-sorted table, filtered by commutativity with the taken
        letter.  A row outside the membrane only adds its bit to
        ``lower``.  The step and commute-mask memos are read inline; a
        method is called only on a miss.  The engine never expands
        violation or ⊥-covered states, so no explicit guard is repeated
        here.
        """
        q, phi, sleep, ctx_id = state
        if table.expanded:
            self.pipeline.edge_hits += 1
        else:
            self.pipeline.first_expansion(table, q, ctx_id)
        out: list[tuple[int, PackedState]] = []
        rows = table.rows
        if not rows:
            return out
        keep = table.keep_mask
        step_get = self._step_memo.get
        base = phi << self._shift
        step_hits = mask_hits = 0
        try:
            if self.use_sleep:
                enabled = table.enabled_mask
                cmask_get = self._cmask.get
                cbase = 0 if self._static_commute else base
                lower = 0  # prefix OR: bits of the strictly-⋖-smaller rows
                for _rank, a_id, bit, delta, ctx2 in rows:
                    if not bit & keep or bit & sleep:
                        lower |= bit
                        continue
                    cand = (sleep | lower) & enabled
                    lower |= bit
                    if cand:
                        entry = cmask_get(cbase | a_id)
                        if entry is not None and not cand & ~entry[0]:
                            mask_hits += 1
                            sleep2 = cand & entry[1]
                        else:
                            sleep2 = self._commute_mask(phi, a_id, cand)
                    else:
                        sleep2 = 0
                    key = base | a_id
                    phi2 = step_get(key)
                    if phi2 is None:
                        phi2 = self._step_miss(phi, a_id, key)
                    else:
                        step_hits += 1
                    out.append((a_id, (q + delta, phi2, sleep2, ctx2)))
            else:
                for _rank, a_id, bit, delta, ctx2 in rows:
                    if not bit & keep:
                        continue
                    key = base | a_id
                    phi2 = step_get(key)
                    if phi2 is None:
                        phi2 = self._step_miss(phi, a_id, key)
                    else:
                        step_hits += 1
                    out.append((a_id, (q + delta, phi2, 0, ctx2)))
        finally:
            self.step_hits += step_hits
            self.commute_mask_hits += mask_hits
        return out

    # -- the round ----------------------------------------------------------------

    def check(self, fh: FloydHoareAutomaton, pre, post) -> CheckOutcome:
        checker = self.checker
        enc = self.enc
        self._bind_automaton(fh)
        vocab = len(fh.predicates)
        if vocab != self._step_vocab:
            self._step_memo.clear()
            self._step_vocab = vocab
        if post is not self._post:
            self._entails_memo.clear()
            self._post = post
        self.rounds += 1

        initial: PackedState = (
            enc.q_id(checker.program.initial_state()),
            enc.phi_id(fh.initial_state(pre)),
            0,
            enc.ctx_id(checker.order.initial_context()),
        )
        self.stats = RoundStats()
        self.deadline = checker.deadline
        self.max_states = checker.max_states
        self.useless = (
            _FastUselessHook(checker.useless_cache, enc)
            if checker.search == "dfs" and checker.useless_cache is not None
            else None
        )
        try:
            if checker.search == "bfs":
                trace_ids, seen = run_bfs(self, initial)
            else:
                trace_ids, seen = run_dfs(self, initial)
        finally:
            stats = self.stats
            checker.engine_states_explored += stats.states_explored
            checker.engine_deadline_ticks += stats.deadline_ticks
        letters = enc.letters
        trace = (
            tuple(letters[a_id] for a_id in trace_ids)
            if trace_ids is not None
            else None
        )
        assertions = {state[1] for state in seen}
        return CheckOutcome(trace, len(seen), len(assertions))
