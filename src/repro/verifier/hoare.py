"""Floyd/Hoare automata via predicate abstraction (§7.2, after [19]).

The automaton's states are the *assertions* of the candidate proof.  We
use the canonical deterministic construction over a finite predicate
vocabulary P: a state is the set of predicates known to hold (read as
their conjunction), and

    δ_A(Φ, a) = { p ∈ P | the Hoare triple {⋀Φ} a {p} is valid }

— every transition is a bundle of solver-checked Hoare triples, so any
run of the automaton is a valid Floyd/Hoare annotation of the word it
reads.  A state whose conjunction is unsatisfiable is the ⊥ state: every
trace reaching it is proven infeasible (covered by the proof).

All triple checks are memoized; the number of distinct reachable states
during a proof check is the paper's *proof size* metric.

Incremental rounds (delta-aware transitions).  The CEGAR loop only ever
*grows* the vocabulary, and growth cannot change anything about the old
indices: a cached step entry's source state Φ contains only old indices,
so its assertion φ = ⋀Φ is unchanged, and with it every already-solved
per-predicate triple verdict and the guard-satisfiability check.  In
incremental mode (the default) the step cache is therefore *versioned*
instead of cleared: an entry computed under vocabulary length V is
upgraded to length N by solving Hoare triples **only for the new indices
V..N-1**, re-running the final bottom-satisfiability check only when a
new predicate actually joined the holding set.  Both ⊥ causes are
monotone in the vocabulary (an excluded guard stays excluded, an
unsatisfiable conjunction only gains conjuncts), so a ⊥ entry is final.
The implied-predicate scan of :meth:`initial_state` is delta-stepped the
same way.  ``incremental=False`` restores the wholesale
``_step_cache.clear()`` so the differential suite can prove the two
modes equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..lang.statements import Statement
from ..logic import FALSE, Solver, SolverUnknown, TRUE, Term, and_
from ..logic.relevance import relevant_context
from ..store import KIND_HOARE, pair_digest, statement_digest, term_digest

FhState = frozenset[int]

BOTTOM: FhState = frozenset({-1})  # sentinel: unsatisfiable conjunction


@dataclass
class FhStats:
    """Counters for the delta-aware transition cache.

    ``step_hits`` are same-vocabulary cache hits (the classical memo);
    ``step_delta_hits`` count entries *upgraded* across a vocabulary
    growth — the old holding set and triple verdicts were reused and
    only the new predicate indices were solved; ``step_delta_misses``
    are full from-scratch computations.  ``initial_delta_hits`` count
    the same reuse in the implied-predicate scan of ``initial_state``.
    """

    step_hits: int = 0
    step_delta_hits: int = 0
    step_delta_misses: int = 0
    initial_delta_hits: int = 0


class _StepEntry:
    """A versioned step-cache entry: result under ``vocab`` predicates.

    ``holding`` is the raw holding set before ⊥ detection (needed to
    extend the entry on vocabulary growth); it is ``None`` once the
    entry went ⊥ — both ⊥ causes are monotone, so the entry is final.
    """

    __slots__ = ("result", "holding", "vocab")

    def __init__(self, result: FhState, holding: FhState | None, vocab: int) -> None:
        self.result = result
        self.holding = holding
        self.vocab = vocab


class FloydHoareAutomaton:
    """Deterministic predicate-abstraction automaton over a predicate set."""

    def __init__(
        self,
        predicates: Sequence[Term],
        solver: Solver,
        *,
        incremental: bool = True,
        proof_store=None,
        delta_tracker=None,
    ) -> None:
        self._solver = solver
        self._incremental = incremental
        #: optional persistent proof store: triple verdicts are keyed by
        #: (context digest, statement digest, predicate digest), so they
        #: survive the process and program edits that do not touch them
        self._store = proof_store
        #: optional :class:`repro.delta.DeltaTracker`: attributes each
        #: store probe to the edit plan of a delta run (pure observation)
        self.delta_tracker = delta_tracker
        self._predicates: list[Term] = []
        self._pred_index: dict[Term, int] = {}
        # (context.nid, letter.uid, pred_index): identity-keyed — a hit
        # never pays a structural compare, and the memo pins no terms
        self._triple_cache: dict[tuple[int, int, int], bool] = {}
        # (letter.content_id, pred_index): wp depends only on the
        # letter's transition relation, so thread copies share entries
        self._wp_cache: dict[tuple[int, int], Term] = {}
        self._assertion_cache: dict[FhState, Term] = {}
        self._step_cache: dict[tuple[FhState, int], _StepEntry] = {}
        # pre.nid -> [sat(pre), holding list, vocab length]; delta-scanned
        self._initial_cache: dict[int, list] = {}
        self.stats = FhStats()
        for p in predicates:
            self.add_predicate(p)

    # -- predicate vocabulary -----------------------------------------------

    @property
    def predicates(self) -> tuple[Term, ...]:
        return tuple(self._predicates)

    @property
    def incremental(self) -> bool:
        return self._incremental

    def add_predicate(self, predicate: Term) -> bool:
        """Add to the vocabulary; returns False if already present."""
        if predicate in self._pred_index or predicate in (TRUE, FALSE):
            return False
        self._pred_index[predicate] = len(self._predicates)
        self._predicates.append(predicate)
        if not self._incremental:
            # transitions depend on the vocabulary: invalidate wholesale
            self._step_cache.clear()
            self._initial_cache.clear()
        # incremental mode keeps every entry versioned by vocabulary
        # length; stale entries are delta-upgraded lazily on next access
        return True

    # -- states ------------------------------------------------------------------

    def initial_state(self, pre: Term) -> FhState:
        """Predicates implied by the precondition (delta-scanned)."""
        n = len(self._predicates)
        entry = self._initial_cache.get(pre.nid) if self._incremental else None
        if entry is not None:
            sat, holding, vocab = entry
            if not sat:
                return BOTTOM
            if vocab < n:
                # vocabulary grew: scan only the new predicate indices —
                # pre is unchanged, so every old verdict stands
                holding.extend(
                    i
                    for i in range(vocab, n)
                    if self._implies_safe(pre, self._predicates[i])
                )
                entry[2] = n
                self.stats.initial_delta_hits += 1
            return frozenset(holding)
        if not self._solver.is_sat(pre):
            if self._incremental:
                self._initial_cache[pre.nid] = [False, [], n]
            return BOTTOM
        holding = [
            i
            for i, p in enumerate(self._predicates)
            if self._implies_safe(pre, p)
        ]
        if self._incremental:
            self._initial_cache[pre.nid] = [True, holding, n]
        return frozenset(holding)

    def assertion(self, state: FhState) -> Term:
        """The conjunction this state stands for."""
        if state == BOTTOM:
            return FALSE
        cached = self._assertion_cache.get(state)
        if cached is None:
            cached = and_(*(self._predicates[i] for i in sorted(state)))
            self._assertion_cache[state] = cached
        return cached

    def is_bottom(self, state: FhState) -> bool:
        return state == BOTTOM

    # -- transitions ----------------------------------------------------------------

    def step(self, state: FhState, letter: Statement) -> FhState:
        if state == BOTTOM:
            return BOTTOM
        key = (state, letter.uid)
        entry = self._step_cache.get(key)
        n = len(self._predicates)
        if entry is not None:
            if entry.vocab == n:
                self.stats.step_hits += 1
                return entry.result
            return self._upgrade_step(entry, state, letter, n)
        self.stats.step_delta_misses += 1
        phi = self.assertion(state)
        written = letter.written_vars()
        holding_set: set[int] = set()
        for i in range(n):
            # fast path: a predicate that already holds and whose
            # variables the letter does not write is preserved —
            # {φ} a {p} follows from φ ⇒ p ⇒ (guard → p) = wp(p, a)
            if i in state and not (written & self._pred_vars(i)):
                holding_set.add(i)
            elif self._triple(phi, letter, i):
                holding_set.add(i)
        holding = frozenset(holding_set)
        # detect the bottom state: phi excludes the letter's guard, or
        # the resulting conjunction is unsatisfiable
        result = holding
        if not self._sat_safe(and_(phi, letter.guard)):
            result = BOTTOM
        elif holding and not self._sat_safe(self.assertion(holding)):
            result = BOTTOM
        self._step_cache[key] = _StepEntry(
            result, None if result == BOTTOM else holding, n
        )
        return result

    def _upgrade_step(
        self, entry: _StepEntry, state: FhState, letter: Statement, n: int
    ) -> FhState:
        """Delta-upgrade a step entry after the vocabulary grew.

        The source state's indices all predate ``entry.vocab``, so its
        assertion φ is unchanged; only the new indices need triples, and
        the final ⊥-satisfiability check re-runs only when a new
        predicate joined the holding set.  A ⊥ entry is final (both ⊥
        causes are monotone in the vocabulary).
        """
        self.stats.step_delta_hits += 1
        if entry.holding is None:  # went ⊥ under a smaller vocabulary
            entry.vocab = n
            return entry.result
        phi = self.assertion(state)
        new_indices = [
            i
            for i in range(entry.vocab, n)
            if self._triple(phi, letter, i)
        ]
        if not new_indices:
            entry.vocab = n
            return entry.result
        holding = entry.holding | frozenset(new_indices)
        result = holding
        if not self._sat_safe(self.assertion(holding)):
            result = BOTTOM
        entry.result = result
        entry.holding = None if result == BOTTOM else holding
        entry.vocab = n
        return result

    def _triple(self, phi: Term, letter: Statement, pred_index: int) -> bool:
        """Is the Hoare triple {phi} letter {predicate} valid?

        The context *phi* is projected to its goal-relevant conjuncts
        (exact for satisfiable assertions; see repro.logic.relevance),
        which keeps the solver queries small and cache-friendly.
        """
        wp_key = (letter.content_id, pred_index)
        wp = self._wp_cache.get(wp_key)
        if wp is None:
            wp = letter.wp(self._predicates[pred_index])
            self._wp_cache[wp_key] = wp
        context = relevant_context(phi, wp.free_vars)
        key = (context.nid, letter.uid, pred_index)
        cached = self._triple_cache.get(key)
        if cached is not None:
            return cached
        store = self._store
        skey = None
        if store is not None:
            skey = pair_digest(
                term_digest(context),
                statement_digest(letter),
                term_digest(self._predicates[pred_index]),
            )
            hit = store.get(KIND_HOARE, skey)
            if self.delta_tracker is not None:
                self.delta_tracker.note_hoare(letter, hit is not None)
            if hit is not None:
                result = bool(hit)
                self._triple_cache[key] = result
                return result
        try:
            result = self._solver.implies(context, wp)
            definite = True
        except SolverUnknown:
            # sound fallback: claim fewer facts.  Budget-dependent, so it
            # is memoized for this run only, never persisted.
            result = False
            definite = False
        self._triple_cache[key] = result
        if definite and skey is not None:
            store.put(KIND_HOARE, skey, result)
        return result

    def _pred_vars(self, index: int) -> frozenset[str]:
        return self._predicates[index].free_vars

    def entails(self, state: FhState, formula: Term) -> bool:
        """Does this state's assertion entail *formula*? (conservative)"""
        return self._implies_safe(self.assertion(state), formula)

    def _implies_safe(self, lhs: Term, rhs: Term) -> bool:
        try:
            return self._solver.implies(lhs, rhs)
        except SolverUnknown:
            return False  # sound: claim fewer facts

    def _sat_safe(self, formula: Term) -> bool:
        try:
            return self._solver.is_sat(formula)
        except SolverUnknown:
            return True  # sound: do not claim infeasibility
