"""The proof check with on-the-fly, proof-sensitive sequentialization.

This is Algorithm 2 of the paper: a search over tuples

    ⟨ program location q, Floyd/Hoare assertion φ, sleep set S, context c ⟩

that simultaneously (a) constructs the reduction — persistent-set
pruning of the candidate letters, sleep-set pruning with *conditional*
commutativity a ↷↷_φ b relative to the current proof assertion — and
(b) checks that the candidate proof covers every trace of the reduction.
A state whose assertion is ⊥ is covered and never expanded; a violation
(or an exit state whose assertion does not entail the postcondition)
reached with a non-⊥ assertion yields a counterexample trace.

Architecturally this module adds exactly one layer of its own, the
:class:`ProofCoverLayer` (Floyd/Hoare product with ⊥-covering, §7.2), on
top of the shared reduction stack of :mod:`repro.core.layers` — the
sleep-set rule is *not* re-implemented here; the proof-sensitive
relation is threaded into :meth:`repro.core.layers.SleepLayer.
reduced_edges` as a commutativity callback.  The search itself is the
shared :class:`~repro.automata.engine.WorklistEngine`; two strategies:

* ``"bfs"`` (default) — returns a *shortest* uncovered trace, which
  keeps refinement interpolants small;
* ``"dfs"`` — faithful to Algorithm 2, and supports the cross-round
  "useless state" cache of §7.2 (sound by monotonicity of
  proof-sensitive commutativity) as an engine strategy hook.

Every round starts cold.  Only the proof grows between rounds, and a
new predicate changes φ on nearly every check state, so a record of
last round's expansions keyed by the exact ⟨q, φ, S, c⟩ tuple almost
never matches: such a warm start (removed) served 3.5% of the BFS pops
across the fig7 suite and 53 of 936 in the incremental-rounds guard,
while recording every expanded state cost a dict store per state on
every round.  What does carry over is keyed below the full tuple: the
delta-aware Floyd/Hoare step cache, the commutativity subsumption
cache, the (q, c) edge-order memo, and the fast engine's id-keyed
memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..automata.engine import (
    DeadlineExceeded,
    StateBudgetExceeded,
    WorklistEngine,
)
from ..core.antichain import maximal_antichain, minimal_antichain
from ..core.commutativity import (
    CommutativityRelation,
    ConditionalCommutativity,
)
from ..core.layers import build_reduction_layers
from ..core.persistent import PersistentSetProvider
from ..core.preference import Context, PreferenceOrder
from ..lang.program import ConcurrentProgram, ProductState
from ..lang.statements import Statement
from ..logic import Term
from .hoare import FhState, FloydHoareAutomaton

CheckState = tuple[ProductState, FhState, frozenset[Statement], Context]


class CheckDeadlineExceeded(DeadlineExceeded):
    """The per-run time budget expired mid-round."""


class CheckBudgetExceeded(StateBudgetExceeded):
    """The proof check exceeded its state budget.

    Part of the engine's typed :class:`~repro.automata.engine.
    BudgetExceeded` hierarchy; still a ``MemoryError`` for callers of
    the historical ``verify()`` boundary contract.
    """


@dataclass
class CheckOutcome:
    """Result of one proof check round."""

    counterexample: tuple[Statement, ...] | None
    states_explored: int
    assertions_seen: int  # distinct Floyd/Hoare assertions (proof size)

    @property
    def covered(self) -> bool:
        return self.counterexample is None


class UselessStateCache:
    """Cross-round cache of states that cannot reach a counterexample.

    A state ⟨q, S, c⟩ proven useless under predicate set Φ stays useless
    under any Φ' ⊇ Φ: assertions only strengthen across rounds, and
    proof-sensitive commutativity is monotone (§7.2).

    Each bucket is kept as a ⊆-minimal antichain: :meth:`mark` drops
    dominated entries incrementally, and :meth:`compact` re-applies the
    same frontier rule wholesale (the hook the checker calls after the
    proof vocabulary grows, mirroring the commutativity subsumption
    cache's ``note_vocabulary_grown``).
    """

    def __init__(self) -> None:
        self._useless: dict[tuple, list[frozenset[int]]] = {}
        self.hits = 0

    def is_useless(self, key: tuple, predicates: FhState) -> bool:
        for recorded in self._useless.get(key, ()):
            if recorded <= predicates:
                self.hits += 1
                return True
        return False

    def mark(self, key: tuple, predicates: FhState) -> None:
        bucket = self._useless.setdefault(key, [])
        bucket[:] = [rec for rec in bucket if not (predicates <= rec)]
        if not any(rec <= predicates for rec in bucket):
            bucket.append(predicates)

    def compact(self) -> None:
        """Compact every bucket to its ⊆-minimal frontier.

        An entry Φ dominated by a kept Φ₀ ⊆ Φ answers no query Φ₀ does
        not; dropping it changes no answer and keeps the linear scans in
        :meth:`is_useless` from growing round over round.
        """
        for bucket in self._useless.values():
            bucket[:] = minimal_antichain(bucket)


class _UselessHook:
    """Adapts :class:`UselessStateCache` to the engine's strategy hook.

    The cache is keyed by the reduction part ⟨q, S, c⟩ of a check state
    with the Floyd/Hoare assertion as the monotone predicate dimension.
    """

    def __init__(self, cache: UselessStateCache) -> None:
        self.cache = cache

    def is_useless(self, state: CheckState) -> bool:
        q, phi_state, sleep, ctx = state
        return self.cache.is_useless((q, sleep, ctx), phi_state)

    def mark(self, state: CheckState) -> None:
        q, phi_state, sleep, ctx = state
        self.cache.mark((q, sleep, ctx), phi_state)


class ProofCoverLayer:
    """The Floyd/Hoare product with ⊥-covering (§7.2) — the top layer.

    Wraps the shared reduction stack for one proof-check round: states
    gain the assertion component φ, successors step φ through the
    Floyd/Hoare automaton, and the proof-sensitive commutativity
    a ↷↷_φ b is threaded into the sleep-set rule as a callback.  A ⊥
    state is *covered*: the proof refutes everything below it.
    """

    def __init__(self, checker: "ProofChecker", fh: FloydHoareAutomaton) -> None:
        self.checker = checker
        self.fh = fh
        # the commutativity callback only reads the Floyd/Hoare
        # component, so it is built once per distinct φ state (proof
        # size many), not once per expanded check state
        self._commute_cbs: dict[
            FhState, Callable[[Statement, Statement], bool]
        ] = {}

    def initial_state(self, pre: Term) -> CheckState:
        checker = self.checker
        return (
            checker.program.initial_state(),
            self.fh.initial_state(pre),
            frozenset(),
            checker.order.initial_context(),
        )

    def _commute_cb(
        self, phi_state: FhState
    ) -> Callable[[Statement, Statement], bool]:
        cb = self._commute_cbs.get(phi_state)
        if cb is None:
            def cb(
                a: Statement,
                b: Statement,
                _commute=self.checker._commute,
                _fh=self.fh,
                _phi=phi_state,
            ) -> bool:
                return _commute(_fh, _phi, a, b)
            self._commute_cbs[phi_state] = cb
        return cb

    def successors(self, state: CheckState) -> list[tuple[Statement, CheckState]]:
        checker = self.checker
        q, phi_state, sleep, ctx = state
        if checker.program.is_violation(q):
            return []
        # one materialized reduced-edge view per (q, ctx) expansion: the
        # ⋖-sorted memo is fetched once, not re-entered per successor
        step = self.fh.step
        commute = self._commute_cb(phi_state) if checker._use_sleep else None
        return [
            (a, (q2, step(phi_state, a), new_sleep, ctx2))
            for a, q2, new_sleep, ctx2 in checker._layer.reduced_edges(
                q, sleep, ctx, commute=commute
            )
        ]

    def is_covered(self, state: CheckState) -> bool:
        return self.fh.is_bottom(state[1])


class ProofChecker:
    """On-the-fly reduction construction integrated with the proof check."""

    def __init__(
        self,
        program: ConcurrentProgram,
        order: PreferenceOrder,
        commutativity: CommutativityRelation,
        *,
        mode: str = "combined",
        proof_sensitive: bool = True,
        search: str = "bfs",
        useless_cache: UselessStateCache | None = None,
        max_states: int | None = None,
        deadline: float | None = None,
        memoize_commutativity: bool = True,
        engine: str = "pure",
    ) -> None:
        if search not in ("bfs", "dfs"):
            raise ValueError(f"unknown search strategy {search!r}")
        if engine not in ("pure", "fast"):
            raise ValueError(f"unknown engine {engine!r}")
        self.deadline = deadline  # absolute time.perf_counter() timestamp
        self.program = program
        self.order = order
        self.commutativity = commutativity
        self.mode = mode
        self.search = search
        self.max_states = max_states
        self.useless_cache = useless_cache
        self._conditional: ConditionalCommutativity | None = None
        if proof_sensitive and isinstance(commutativity, ConditionalCommutativity):
            self._conditional = commutativity
        # no membrane where Algorithm 1 cannot prune (all observers)
        self._persistent: PersistentSetProvider | None = None
        if mode in ("combined", "persistent"):
            provider = PersistentSetProvider(program, order, commutativity)
            if provider.prunes:
                self._persistent = provider
        self._use_sleep = mode in ("combined", "sleep")
        # the shared reduction stack; the edge-order memo inside its
        # context layer persists across rounds (edges depend only on the
        # program and the preference order, never on the proof)
        self._layer = build_reduction_layers(
            program,
            order,
            None,  # the proof-sensitive callback is threaded per round
            mode=mode,
            membrane=(
                self._persistent.persistent_letters
                if self._persistent is not None
                else None
            ),
        )
        self._memoize = memoize_commutativity
        self._commute_entries: dict[
            tuple[int, int], tuple[list[FhState], list[FhState]]
        ] = {}
        #: proof-sensitive commutativity questions asked of this checker
        self.commute_queries = 0
        #: ... of which the monotone subsumption cache answered directly
        self.commute_subsumption_hits = 0
        #: engine counters aggregated over all rounds of this checker
        self.engine_states_explored = 0
        self.engine_deadline_ticks = 0
        self._last_fh: FloydHoareAutomaton | None = None
        # the integer fast path: compile the program once up front
        self._fast = FastChecker(self) if engine == "fast" else None

    # -- engine counters ------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """This checker's counters, named as ``QueryStats`` fields."""
        out = {
            "comm_subsumption_queries": self.commute_queries,
            "comm_subsumption_hits": self.commute_subsumption_hits,
            "engine_states_explored": self.engine_states_explored,
            "engine_deadline_ticks": self.engine_deadline_ticks,
            # (q, ctx)-memoized edge orderings: edge_sort_hits/_misses
            **vars(self._layer.context.stats),
        }
        if self.useless_cache is not None:
            out["useless_cache_hits"] = self.useless_cache.hits
        if self._last_fh is not None:
            for name, value in vars(self._last_fh.stats).items():
                out[f"fh_{name}"] = value
        fast = self._fast
        if fast is not None:
            for name in (
                "rounds",
                "step_hits",
                "step_misses",
                "commute_mask_hits",
                "commute_mask_misses",
            ):
                out[f"fastpath_{name}"] = getattr(fast, name)
            out["fastpath_edge_hits"] = fast.pipeline.edge_hits
            out["fastpath_edge_misses"] = fast.pipeline.edge_misses
        return out

    # -- commutativity under the current assertion ---------------------------
    #
    # Proof-sensitive commutativity is monotone in the assertion (§7.2):
    # commuting under Φ implies commuting under any Φ' ⊇ Φ, and failing
    # under Φ implies failing under any Φ'' ⊆ Φ.  We exploit this with a
    # subsumption cache keyed by the Floyd/Hoare state's predicate set,
    # which avoids most solver queries across states and rounds.

    def _commute(
        self, fh: FloydHoareAutomaton, phi_state: FhState, a: Statement, b: Statement
    ) -> bool:
        if self._conditional is None:
            return self.commutativity.commute(a, b)
        self.commute_queries += 1
        pair = (a.uid, b.uid) if a.uid < b.uid else (b.uid, a.uid)
        entries = self._commute_entries.get(pair) if self._memoize else None
        if entries is not None:
            positives, negatives = entries
            for known in positives:
                if known <= phi_state:
                    self.commute_subsumption_hits += 1
                    return True
            for known in negatives:
                if known >= phi_state:
                    self.commute_subsumption_hits += 1
                    return False
        result = self._conditional.commute_under(fh.assertion(phi_state), a, b)
        if not self._memoize:
            return result
        if entries is None:
            entries = ([], [])
            self._commute_entries[pair] = entries
        entries[0 if result else 1].append(phi_state)
        return result

    def note_vocabulary_grown(self) -> None:
        """Apply the monotone invalidation rule after refinement.

        Growing the Floyd/Hoare vocabulary never falsifies an entry:
        positive verdicts recorded under predicate set Φ keep holding for
        any Φ' ⊇ Φ and negative verdicts for any Φ'' ⊆ Φ (monotonicity of
        proof-sensitive commutativity, §7.2).  What growth does change is
        which entries can still *fire* — so each subsumption list is
        compacted to its frontier: positives to their ⊆-minimal sets,
        negatives to their ⊇-maximal sets.  Every dropped entry was
        dominated by a kept one, so no answer changes; the lists the hot
        path scans linearly just stop growing round over round.  The
        useless-state cache's buckets obey the same frontier rule and are
        compacted together with them.
        """
        if self._conditional is not None:
            self._conditional.note_vocabulary_grown()
        if self.useless_cache is not None:
            self.useless_cache.compact()
        for positives, negatives in self._commute_entries.values():
            positives[:] = minimal_antichain(positives)
            negatives[:] = maximal_antichain(negatives)
        if self._fast is not None:
            self._fast.note_vocabulary_grown()

    # -- successor generation (the reduction, on the fly) ----------------------

    def _successors(
        self, fh: FloydHoareAutomaton, state: CheckState
    ) -> Iterator[tuple[Statement, CheckState]]:
        """Successors of a check state (delegates to the layer stack)."""
        return ProofCoverLayer(self, fh).successors(state)

    # -- uncovered-state detection ------------------------------------------------

    def _uncovered(
        self, fh: FloydHoareAutomaton, state: CheckState, post: Term
    ) -> bool:
        """Does *state* witness that the proof candidate is insufficient?"""
        q, phi_state, _sleep, _ctx = state
        if fh.is_bottom(phi_state):
            return False
        if self.program.is_violation(q):
            return True
        if self.program.is_exit(q):
            return not fh.entails(phi_state, post)
        return False

    # -- the check ----------------------------------------------------------------

    def check(self, fh: FloydHoareAutomaton, pre: Term, post: Term) -> CheckOutcome:
        self._last_fh = fh
        if self._fast is not None:
            return self._fast.check(fh, pre, post)
        layer = ProofCoverLayer(self, fh)
        initial = layer.initial_state(pre)
        assertions: set[FhState] = set()
        engine: WorklistEngine = WorklistEngine(
            layer.successors,
            strategy=self.search,
            max_states=self.max_states,
            deadline=self.deadline,
            budget_error=CheckBudgetExceeded,
            budget_message="proof check exceeded its state budget",
            deadline_error=CheckDeadlineExceeded,
            on_discover=lambda state: assertions.add(state[1]),
            should_expand=lambda state: not layer.is_covered(state),
            useless=(
                _UselessHook(self.useless_cache)
                if self.search == "dfs" and self.useless_cache is not None
                else None
            ),
        )
        try:
            result = engine.run(
                initial, goal=lambda state: self._uncovered(fh, state, post)
            )
        finally:
            self.engine_states_explored += engine.stats.states_explored
            self.engine_deadline_ticks += engine.stats.deadline_ticks
        return CheckOutcome(
            result.trace, result.states_explored, len(assertions)
        )


# The production engine imports this module's names, so it loads once they
# are defined: with ``repro.verifier``, not inside the first run.
from ..fastpath import FastChecker  # noqa: E402
