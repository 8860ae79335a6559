"""Commutativity relations between program statements.

Three layers, mirroring the paper (§2, §7.2, §8):

* :class:`SyntacticCommutativity` — the efficient sufficient condition
  ("neither statement writes a variable accessed by the other");
* :class:`SemanticCommutativity` — the syntactic check first, then a
  solver query on the two sequential compositions ``a;b`` and ``b;a``;
* :class:`ConditionalCommutativity` — proof-sensitive commutativity
  a ↷↷_φ b (Def. 7.3): the compositions agree when started from a state
  satisfying φ.  Monotone: commuting under φ implies commuting under any
  stronger assertion, which justifies the cross-round caching
  optimization in the proof check (§7.2).

Statements of the same thread never commute (the standing assumption of
§4 that keeps L(P) closed).  Statements with choice variables
(havoc-like nondeterminism) are compared syntactically only — relational
equivalence of nondeterministic actions is beyond the guarded-assignment
solver query, and declaring less commutativity is always sound (§8).

There is also :class:`FullCommutativity`, the idealized relation used by
the space-complexity theorems (Thm 4.3 / 7.2) and by the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..lang.statements import Statement
from ..logic import Solver, SolverUnknown, TRUE, Term, and_, eq, iff, implies, var
from ..logic.relevance import relevant_context


class CommutativityRelation(Protocol):
    """The unconditional interface used by reductions and persistent sets."""

    def commute(self, a: Statement, b: Statement) -> bool:
        """Symmetric; must be False for statements of the same thread."""


@dataclass
class CommutativityStats:
    """Instrumentation for the solver-backed commutativity relations.

    One record is shared by a :class:`ConditionalCommutativity` and its
    embedded unconditional relation, so it covers both query kinds.
    ``queries`` counts commutativity questions that got past the
    same-thread short-circuit; each is settled by the syntactic check
    (``syntactic_hits``), a memoized verdict (``cache_hits``), or a fresh
    solver validity check (``solver_checks``, of which
    ``unknown_fallbacks`` gave up and soundly answered "do not
    commute").
    """

    queries: int = 0
    syntactic_hits: int = 0
    cache_hits: int = 0
    solver_checks: int = 0
    unknown_fallbacks: int = 0


def _same_thread(a: Statement, b: Statement) -> bool:
    return a.thread == b.thread


class FullCommutativity:
    """All statements of different threads commute (ideal test case)."""

    def commute(self, a: Statement, b: Statement) -> bool:
        return not _same_thread(a, b)


class SyntacticCommutativity:
    """Write/access disjointness — cheap and sound."""

    def commute(self, a: Statement, b: Statement) -> bool:
        if _same_thread(a, b):
            return False
        return not (
            a.written_vars() & b.accessed_vars()
            or b.written_vars() & a.accessed_vars()
        )


_KIND_COMM = "comm"
_KIND_COMM_COND = "commc"


def _pair_store_key(a: Statement, b: Statement, context: Term | None = None):
    """Persistent-store key for a commutativity fact (order-normalized).

    Commutativity is symmetric, so the pair is ordered by content digest
    — the same two statements get the same key in every process, whatever
    their construction order.
    """
    from ..store import pair_digest, statement_digest, term_digest

    da, db = statement_digest(a), statement_digest(b)
    if da > db:
        da, db = db, da
    if context is None:
        return pair_digest(da, db)
    return pair_digest(term_digest(context), da, db)


#: (uid, uid) in uid order -> condition: one probe for a repeated pair
_condition_cache: dict[tuple[int, int], Term] = {}
#: (content id, content id) of the same pair, still in uid order ->
#: condition: thread copies of one letter pair share one build
_content_condition_cache: dict[tuple[int, int], Term] = {}


def composition_equal_condition(a: Statement, b: Statement) -> Term:
    """A formula valid iff ``a;b`` and ``b;a`` have the same semantics.

    Both statements must be deterministic (no choices).  The formula
    is built for the pair in uid order: it is valid for either order,
    but its terms are not symmetric.  It is memoized per uid pair and,
    behind that, per *ordered* pair of content ids, so thread copies of
    one letter pair share one build; a memoized condition is the very
    node a fresh build interns.  These formulas are the hot spot of
    proof-sensitive checks.
    """
    key = (a.uid, b.uid) if a.uid < b.uid else (b.uid, a.uid)
    cached = _condition_cache.get(key)
    if cached is not None:
        return cached
    if key != (a.uid, b.uid):
        a, b = b, a
    content = (a.content_id, b.content_id)
    condition = _content_condition_cache.get(content)
    if condition is None:
        ab = a.compose(b)
        ba = b.compose(a)
        parts = [iff(ab.guard, ba.guard)]
        touched = set(ab.updates) | set(ba.updates)
        for name in sorted(touched):
            lhs = ab.updates.get(name, var(name))
            rhs = ba.updates.get(name, var(name))
            parts.append(implies(ab.guard, eq(lhs, rhs)))
        condition = and_(*parts)
        _content_condition_cache[content] = condition
    _condition_cache[key] = condition
    return condition


class SemanticCommutativity:
    """Solver-checked commutativity with a syntactic fast path.

    On :class:`SolverUnknown` the pair is declared non-commuting (sound;
    the paper's implementation does the same on SMT timeout).
    """

    def __init__(
        self,
        solver: Solver | None = None,
        *,
        memoize: bool = True,
        stats: CommutativityStats | None = None,
    ) -> None:
        self._solver = solver or Solver()
        self._syntactic = SyntacticCommutativity()
        self._memoize = memoize
        self._cache: dict[tuple[int, int], bool] = {}
        self.stats = stats if stats is not None else CommutativityStats()
        #: optional persistent proof store; commutativity of a statement
        #: pair is a trace-independent fact, keyed by content digests
        self.proof_store = None
        #: optional :class:`repro.delta.DeltaTracker` (delta runs only)
        self.delta_tracker = None

    def commute(self, a: Statement, b: Statement) -> bool:
        if _same_thread(a, b):
            return False
        self.stats.queries += 1
        if self._syntactic.commute(a, b):
            self.stats.syntactic_hits += 1
            return True
        if not a.is_deterministic or not b.is_deterministic:
            return False
        key = (a.uid, b.uid) if a.uid < b.uid else (b.uid, a.uid)
        if self._memoize:
            hit = self._cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit
        store = self.proof_store
        skey = None
        if store is not None:
            skey = _pair_store_key(a, b)
            stored = store.get(_KIND_COMM, skey)
            if self.delta_tracker is not None:
                self.delta_tracker.note_comm(a, b, stored is not None)
            if stored is not None:
                result = bool(stored)
                if self._memoize:
                    self._cache[key] = result
                return result
        self.stats.solver_checks += 1
        try:
            result = self._solver.is_valid(composition_equal_condition(a, b))
        except SolverUnknown:
            # budget-dependent verdict: answer soundly but do not memoize
            # (the solver's epoch-scoped unknown cache absorbs repeats,
            # and a later run with a fresh budget gets a fresh chance)
            self.stats.unknown_fallbacks += 1
            return False
        if self._memoize:
            self._cache[key] = result
        if skey is not None:
            store.put(_KIND_COMM, skey, result)
        return result


class ConditionalCommutativity:
    """Proof-sensitive commutativity a ↷↷_φ b (Def. 7.3).

    ``commute_under(phi, a, b)`` asks whether the compositions agree from
    states satisfying *phi*.  The unconditional ``commute`` (φ = true)
    makes this usable wherever a plain relation is expected.
    """

    def __init__(
        self, solver: Solver | None = None, *, memoize: bool = True
    ) -> None:
        self._solver = solver or Solver()
        self._syntactic = SyntacticCommutativity()
        self.stats = CommutativityStats()
        self._memoize = memoize
        self._unconditional = SemanticCommutativity(
            self._solver, memoize=memoize, stats=self.stats
        )
        # keyed by (context.nid, uid, uid): the interned node id replaces
        # the structural key, so a hit never pays a deep compare and the
        # memo holds no term references (nids are never reused, so an
        # entry for a dead context is unreachable, never wrong)
        self._cache: dict[tuple[int, int, int], bool] = {}
        #: bumped by :meth:`note_vocabulary_grown`; consumers holding
        #: derived caches (e.g. the proof checker's subsumption entries)
        #: compare against it to apply the monotone invalidation rule
        self.vocabulary_epoch = 0
        self.proof_store = None
        #: optional :class:`repro.delta.DeltaTracker` (delta runs only)
        self.delta_tracker = None

    def attach_store(self, store) -> None:
        """Attach a persistent proof store to both relation layers."""
        self.proof_store = store
        self._unconditional.proof_store = store

    def attach_delta(self, tracker) -> None:
        """Attach a delta tracker to both relation layers (observation)."""
        self.delta_tracker = tracker
        self._unconditional.delta_tracker = tracker

    def commute(self, a: Statement, b: Statement) -> bool:
        return self._unconditional.commute(a, b)

    def note_vocabulary_grown(self) -> None:
        """Signal that the Floyd/Hoare predicate vocabulary grew.

        Memoized verdicts here are keyed by the *exact* relevant-context
        predicate, so growth never makes an entry wrong: commuting under
        φ is monotone in φ (Def. 7.3), and a negative verdict is only
        reused for the identical context.  The monotone invalidation
        rule therefore keeps every entry and merely advances the epoch,
        which tells derived predicate-set-keyed caches (the proof
        checker's subsumption entries) to compact to their frontier.
        """
        self.vocabulary_epoch += 1

    def commute_under(self, phi: Term, a: Statement, b: Statement) -> bool:
        if _same_thread(a, b):
            return False
        self.stats.queries += 1
        if self._syntactic.commute(a, b):
            self.stats.syntactic_hits += 1
            return True
        if self._unconditional.commute(a, b):
            return True
        if phi == TRUE:
            return False
        if not a.is_deterministic or not b.is_deterministic:
            return False
        condition = composition_equal_condition(a, b)
        # Only the variable-connected part of the assertion matters (the
        # caller's assertions are satisfiable, making this exact); the
        # projection also folds many distinct assertions onto one cache
        # entry.  See repro.logic.relevance.
        # condition.free_vars is precomputed by the interning kernel —
        # this hot loop no longer re-walks the composition formula
        context = relevant_context(phi, condition.free_vars)
        if context is TRUE:
            return False  # nothing relevant known: same as unconditional
        pair = (a.uid, b.uid) if a.uid < b.uid else (b.uid, a.uid)
        key = (context.nid,) + pair
        if self._memoize:
            hit = self._cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit
        store = self.proof_store
        skey = None
        if store is not None:
            skey = _pair_store_key(a, b, context)
            stored = store.get(_KIND_COMM_COND, skey)
            if self.delta_tracker is not None:
                self.delta_tracker.note_comm(a, b, stored is not None)
            if stored is not None:
                result = bool(stored)
                if self._memoize:
                    self._cache[key] = result
                return result
        self.stats.solver_checks += 1
        try:
            result = self._solver.is_valid(implies(context, condition))
        except SolverUnknown:
            # budget-dependent: sound fallback, not memoized (see
            # SemanticCommutativity.commute)
            self.stats.unknown_fallbacks += 1
            return False
        if self._memoize:
            self._cache[key] = result
        if skey is not None:
            store.put(_KIND_COMM_COND, skey, result)
        return result
