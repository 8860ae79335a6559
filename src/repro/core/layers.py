"""Composable reduction layers over lazy automata (§3–§7.2).

The paper builds its reductions as a stack of language transformers:

* **product** (§3) — the interleaving product of the thread CFAs: the
  base automaton (any ``LazyDFA``, e.g. a program's ``product_view``),
  which the context layer wraps directly;
* **context** (§4) — the product with the preference order's auxiliary
  context automaton, which fixes the ⋖-sorted order of outgoing edges;
* **sleep** (§5, Definition 5.1) — sleep sets prune all but the
  lex(⋖)-minimal representative per Mazurkiewicz class;
* **persistent/membrane** (§6, Algorithm 1) — weakly persistent
  membranes prune useless states, compatible with ⋖; a letter filter
  on the sleep layer, which persistent-only modes run with sleep
  tracking off;
* **proof cover** (§7.2) — the Floyd/Hoare product with ⊥-covering,
  layered on top by the proof checker.

This module is the single home of those layers.  In particular the
sleep-set successor rule

    S' = { b ∈ enabled(q) | (b ∈ S or b <_q a) and a ↷↷ b }

is implemented exactly once, in :meth:`SleepLayer.reduced_edges`,
parameterized by a commutativity callback so that the proof-sensitive
relation a ↷↷_φ b of the proof checker plugs in unchanged.  Every
consumer — :class:`~repro.core.sleepset.SleepSetAutomaton`,
:class:`~repro.core.reduction.ReducedProduct`, and
``ProofChecker._successors`` — assembles these same layer objects.

The context layer memoizes the ``order.key``-sorted edge list (letters,
base successors, sort keys, and advanced contexts) per ``(q, ctx)``.
Exploration visits a base state under many sleep sets and proof
assertions; before this cache every such visit re-listed and re-sorted
the edges and recomputed O(|edges|²) sort keys in the sleep rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

from ..lang.statements import Statement
from .commutativity import CommutativityRelation
from .preference import Context, PreferenceOrder

BaseState = Hashable
#: the reduction modes of :func:`build_reduction_layers` (Table 2)
MODES = ("combined", "sleep", "persistent", "none")
#: a memoized outgoing edge: (letter, base successor, sort key, next context)
OrderedEdge = tuple[Statement, BaseState, tuple, Context]

_EMPTY_SLEEP: frozenset[Statement] = frozenset()

#: sentinel for "use the layer's own commutativity callback"
_LAYER_DEFAULT: object = object()


@dataclass
class LayerStats:
    """Edge-ordering cache counters (surfaced through ``QueryStats``)."""

    edge_sort_hits: int = 0
    edge_sort_misses: int = 0


class ContextLayer:
    """The preference-context product layer (§4).

    States are pairs ``(q, ctx)`` of a base state and the preference
    order's context; outgoing edges are yielded in ⋖-sorted order.  The
    sorted edge list — including each letter's sort key and the advanced
    context — is memoized per ``(q, ctx)``, which is the hot-path cache
    every layer above shares via :meth:`ordered_edges`.
    """

    def __init__(self, base, order: PreferenceOrder) -> None:
        self.base = base
        self.order = order
        self.stats = LayerStats()
        self._edges: dict[tuple[BaseState, Context], tuple[OrderedEdge, ...]] = {}

    # -- the shared edge-ordering service -----------------------------------

    def ordered_edges(self, q: BaseState, ctx: Context) -> tuple[OrderedEdge, ...]:
        """The ⋖-sorted outgoing edges of *q* under *ctx*, memoized."""
        key = (q, ctx)
        hit = self._edges.get(key)
        if hit is not None:
            self.stats.edge_sort_hits += 1
            return hit
        self.stats.edge_sort_misses += 1
        order = self.order
        edges = tuple(
            sorted(
                (
                    (a, q2, order.key(ctx, a), order.advance(ctx, a))
                    for a, q2 in self.base.successors(q)
                ),
                key=lambda e: e[2],
            )
        )
        self._edges[key] = edges
        return edges

    # -- LazyDFA ------------------------------------------------------------

    def initial_state(self) -> tuple[BaseState, Context]:
        return (self.base.initial_state(), self.order.initial_context())

    def successors(
        self, state: tuple[BaseState, Context]
    ) -> Iterator[tuple[Statement, tuple[BaseState, Context]]]:
        q, ctx = state
        for a, q2, _key, ctx2 in self.ordered_edges(q, ctx):
            yield a, (q2, ctx2)

    def is_accepting(self, state: tuple[BaseState, Context]) -> bool:
        return self.base.is_accepting(state[0])


#: the membrane hook: ``(q, ctx) -> allowed letters`` or None for "all"
LetterFilter = Callable[[BaseState, Context], frozenset[Statement]]

#: a commutativity callback ``(a, b) -> a ↷↷ b`` (possibly proof-sensitive)
CommuteCallback = Callable[[Statement, Statement], bool]


class SleepLayer:
    """The sleep-set layer S⋖ (§5, Definition 5.1) — and the single home
    of the sleep-set successor rule.

    States are triples ``(q, S, ctx)``: the context is fused into the
    state tuple rather than nested (the paper encodes it in the state of
    A; carrying it flat keeps the historical state shapes of every
    consumer, and their seen-set sizes, bit-identical).

    Two hooks make the one rule serve the whole stack:

    * *commute* — the commutativity callback used by the rule.  Pass
      ``None`` to disable sleep tracking entirely (the ``"persistent"``
      and ``"none"`` reduction modes: S' is always ∅).  The proof
      checker passes its proof-sensitive ``a ↷↷_φ b`` closure here.
    * *membrane* — an optional letter filter (§6): only letters in
      ``membrane(q, ctx)`` are expanded.  The filter is applied before
      the sleep set of a successor is computed, so pruned letters cost
      no commutativity queries.
    """

    def __init__(
        self,
        context: ContextLayer,
        commute: CommuteCallback | None,
        membrane: LetterFilter | None = None,
    ) -> None:
        self.context = context
        self.commute = commute
        self.membrane = membrane

    # -- the rule, parameterized --------------------------------------------

    def reduced_edges(
        self,
        q: BaseState,
        sleep: frozenset[Statement],
        ctx: Context,
        commute: CommuteCallback | None = _LAYER_DEFAULT,  # type: ignore[assignment]
    ) -> Iterator[tuple[Statement, BaseState, frozenset[Statement], Context]]:
        """Successor edges of ⟨q, S, ctx⟩ as (a, q', S', ctx') tuples.

        δ_S(⟨q, S⟩, a) is undefined if a ∈ S (or a is pruned by the
        membrane), and otherwise carries the sleep set

            S' = { b ∈ enabled(q) | (b ∈ S or b <_q a) and a ↷↷ b }.

        *commute* overrides the layer's callback per call — this is how
        the proof checker threads the current assertion φ into a ↷↷_φ b
        without a second copy of the rule.  Passing ``None`` explicitly
        disables sleep tracking for the call (S' = ∅).

        Lazy by design: each edge's sleep set (and hence its
        commutativity queries) is computed only when the consumer asks
        for that edge, so engines that abort an expansion mid-way
        (budget/deadline checks) never pay for the unconsumed tail.
        The ⋖-sorted memo view is still fetched once per (q, ctx)
        expansion and reused for every yielded edge.
        """
        edges = self.context.ordered_edges(q, ctx)
        if not edges:
            return
        if commute is _LAYER_DEFAULT:
            commute = self.commute
        allowed = self.membrane(q, ctx) if self.membrane is not None else None
        for a, q2, key_a, ctx2 in edges:
            if a in sleep:
                continue
            if allowed is not None and a not in allowed:
                continue
            if commute is None:
                new_sleep = _EMPTY_SLEEP
            else:
                new_sleep = frozenset(
                    b
                    for b, _q2, key_b, _ctx2 in edges
                    if (b in sleep or key_b < key_a) and commute(a, b)
                )
            yield a, q2, new_sleep, ctx2

    # -- LazyDFA ------------------------------------------------------------

    def initial_state(self) -> tuple[BaseState, frozenset[Statement], Context]:
        return (
            self.context.base.initial_state(),
            _EMPTY_SLEEP,
            self.context.order.initial_context(),
        )

    def successors(
        self, state: tuple[BaseState, frozenset[Statement], Context]
    ) -> Iterator[
        tuple[Statement, tuple[BaseState, frozenset[Statement], Context]]
    ]:
        q, sleep, ctx = state
        for a, q2, new_sleep, ctx2 in self.reduced_edges(q, sleep, ctx):
            yield a, (q2, new_sleep, ctx2)

    def is_accepting(
        self, state: tuple[BaseState, frozenset[Statement], Context]
    ) -> bool:
        return self.context.base.is_accepting(state[0])


def build_reduction_layers(
    base,
    order: PreferenceOrder,
    commutativity: CommutativityRelation | None,
    *,
    mode: str = "combined",
    membrane: LetterFilter | None = None,
) -> SleepLayer:
    """Assemble the Context → Sleep stack over *base* for *mode*.

    ``"combined"`` layers sleep sets over the membrane, ``"sleep"`` and
    ``"persistent"`` each use one layer alone, ``"none"`` degenerates to
    the ⋖-ordered product (empty sleep sets, no pruning).  The returned
    object exposes the ``LazyDFA`` protocol over ``(q, S, ctx)`` states
    plus :meth:`SleepLayer.reduced_edges` for clients (the proof
    checker) that thread extra per-state information through the rule.
    """
    context = ContextLayer(base, order)
    use_sleep = mode in ("combined", "sleep")
    use_membrane = mode in ("combined", "persistent")
    commute = (
        commutativity.commute
        if use_sleep and commutativity is not None
        else None
    )
    return SleepLayer(
        context,
        commute,
        membrane=membrane if use_membrane else None,
    )
