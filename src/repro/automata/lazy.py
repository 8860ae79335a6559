"""On-the-fly automata.

The interleaving product of a concurrent program — and every reduction
automaton layered on top of it — is exponentially large, so the pipeline
never builds it eagerly.  A :class:`LazyDFA` exposes only the initial
state, per-state successors, and the acceptance predicate; exploration
(:func:`explore`, :func:`materialize`, :func:`count_reachable_states`)
constructs exactly the states that are visited.  This realizes the
paper's "on the fly" constructions (§6, §7.2).

All traversals delegate to the shared :class:`~repro.automata.engine.
WorklistEngine`; the helpers here only describe *what* to search.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from .dfa import DFA, Letter, State
from .engine import StateBudgetExceeded, WorklistEngine


class LazyDFA(Protocol):
    """The on-the-fly automaton interface."""

    def initial_state(self) -> State:
        """The initial state."""

    def successors(self, state: State) -> Iterable[tuple[Letter, State]]:
        """Outgoing edges of *state*, as (letter, successor) pairs."""

    def is_accepting(self, state: State) -> bool:
        """Acceptance predicate."""


class ExplorationLimit(StateBudgetExceeded):
    """Raised when on-the-fly exploration exceeds its state budget."""


def explore(
    automaton: LazyDFA, *, max_states: int | None = None
) -> tuple[set[State], dict[tuple[State, Letter], State]]:
    """Breadth-first reachability; returns (states, transitions)."""
    transitions: dict[tuple[State, Letter], State] = {}
    engine: WorklistEngine = WorklistEngine(
        automaton.successors,
        strategy="bfs",
        max_states=max_states,
        budget_error=ExplorationLimit,
        budget_message=f"exceeded {max_states} states during exploration",
        on_edge=lambda q, a, q2: transitions.__setitem__((q, a), q2),
    )
    result = engine.run(automaton.initial_state())
    return result.seen, transitions


def materialize(
    automaton: LazyDFA,
    alphabet: Iterable[Letter],
    *,
    max_states: int | None = None,
) -> DFA:
    """Materialize the reachable part of a lazy automaton as a DFA."""
    states, transitions = explore(automaton, max_states=max_states)
    finals = frozenset(q for q in states if automaton.is_accepting(q))
    return DFA(
        alphabet=frozenset(alphabet),
        transitions=transitions,
        initial=automaton.initial_state(),
        finals=finals,
    )


def count_reachable_states(
    automaton: LazyDFA, *, max_states: int | None = None
) -> int:
    states, _ = explore(automaton, max_states=max_states)
    return len(states)


class MappedLazyDFA:
    """A lazy DFA built from plain callables (adapter / testing helper)."""

    def __init__(
        self,
        initial: State,
        successors: Callable[[State], Iterable[tuple[Letter, State]]],
        accepting: Callable[[State], bool],
    ) -> None:
        self._initial = initial
        self._successors = successors
        self._accepting = accepting

    def initial_state(self) -> State:
        return self._initial

    def successors(self, state: State) -> Iterable[tuple[Letter, State]]:
        return self._successors(state)

    def is_accepting(self, state: State) -> bool:
        return self._accepting(state)
