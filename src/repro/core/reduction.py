"""Reductions of concurrent programs (§4–§6).

:class:`ReducedProduct` is the lazy automaton the verifier actually
explores.  Its four modes correspond to the tool variants evaluated in
Table 2 of the paper:

* ``"combined"`` — (S⋖(P))↓π_S, sleep sets + weakly persistent membranes
  (Theorem 6.6): recognizes exactly the lexicographic reduction while
  pruning useless states;
* ``"sleep"``    — S⋖(P) only (Definition 5.1): exact reduction, no
  state pruning;
* ``"persistent"`` — P↓π only: sound reduction, not language-minimal;
* ``"none"``     — the full interleaving product (the Automizer
  baseline).

All four are assemblies of the shared layer stack
(:func:`repro.core.layers.build_reduction_layers`); the successor rules
live there, in one place, and the ⋖-sorted edge lists are memoized per
``(q, ctx)`` by the context layer.
"""

from __future__ import annotations

from typing import Iterator

from ..automata import DFA, materialize
from ..lang.program import ConcurrentProgram, ProductState
from ..lang.statements import Statement
from .commutativity import CommutativityRelation, SyntacticCommutativity
from .layers import MODES, build_reduction_layers
from .persistent import PersistentSetProvider
from .preference import Context, PreferenceOrder, ThreadUniformOrder

ReducedState = tuple[ProductState, frozenset[Statement], Context]


class ReducedProduct:
    """A lazy reduction automaton over a concurrent program."""

    def __init__(
        self,
        program: ConcurrentProgram,
        order: PreferenceOrder | None = None,
        commutativity: CommutativityRelation | None = None,
        *,
        mode: str = "combined",
        accepting: str = "both",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.program = program
        self.order = order or ThreadUniformOrder()
        self.commutativity = commutativity or SyntacticCommutativity()
        self.mode = mode
        self.view = program.product_view(accepting)
        # no membrane where Algorithm 1 cannot prune (all observers)
        self._persistent: PersistentSetProvider | None = None
        if mode in ("combined", "persistent"):
            provider = PersistentSetProvider(
                program, self.order, self.commutativity
            )
            if provider.prunes:
                self._persistent = provider
        self._layer = build_reduction_layers(
            self.view,
            self.order,
            self.commutativity,
            mode=mode,
            membrane=(
                self._persistent.persistent_letters
                if self._persistent is not None
                else None
            ),
        )

    # -- lazy DFA interface (delegated to the layer stack) -----------------

    def initial_state(self) -> ReducedState:
        return self._layer.initial_state()

    def successors(
        self, state: ReducedState
    ) -> Iterator[tuple[Statement, ReducedState]]:
        return self._layer.successors(state)

    def is_accepting(self, state: ReducedState) -> bool:
        return self._layer.is_accepting(state)

    # -- convenience ----------------------------------------------------------

    def to_dfa(self, *, max_states: int | None = 200_000) -> DFA:
        """Materialize (small programs / analysis only)."""
        return materialize(self, self.program.alphabet(), max_states=max_states)


def reduce_program(
    program: ConcurrentProgram,
    order: PreferenceOrder | None = None,
    commutativity: CommutativityRelation | None = None,
    *,
    mode: str = "combined",
    accepting: str = "both",
) -> ReducedProduct:
    """The public constructor for program reductions."""
    return ReducedProduct(
        program, order, commutativity, mode=mode, accepting=accepting
    )
