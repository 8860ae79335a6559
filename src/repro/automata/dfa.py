"""Explicit deterministic finite automata.

States and letters may be any hashable values.  Transition functions are
*partial*: a missing entry means the letter is not enabled (the paper's
automata are partial as well; see §3, "Finite Automata").

A ``DFA`` is what :func:`~repro.automata.lazy.materialize` returns for
an on-the-fly automaton (``ReducedProduct.to_dfa``, ``repro reduce
--dot``); the tests run words through it and enumerate its language as
an oracle.  The pipeline itself never complements, intersects or
minimizes an automaton: the proof check steps the Floyd/Hoare automaton
alongside the reduction instead (Algorithm 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

State = Hashable
Letter = Hashable


@dataclass(frozen=True)
class DFA:
    """A (partial) deterministic finite automaton."""

    alphabet: frozenset[Letter]
    transitions: Mapping[tuple[State, Letter], State]
    initial: State
    finals: frozenset[State]

    @staticmethod
    def build(
        alphabet: Iterable[Letter],
        transitions: Mapping[tuple[State, Letter], State],
        initial: State,
        finals: Iterable[State],
    ) -> "DFA":
        return DFA(
            alphabet=frozenset(alphabet),
            transitions=dict(transitions),
            initial=initial,
            finals=frozenset(finals),
        )

    # -- basic structure ------------------------------------------------

    def step(self, state: State, letter: Letter) -> State | None:
        return self.transitions.get((state, letter))

    def run(self, word: Sequence[Letter]) -> State | None:
        """The state reached by *word*, or ``None`` if the run dies."""
        q = self.initial
        for a in word:
            q = self.step(q, a)
            if q is None:
                return None
        return q

    def accepts(self, word: Sequence[Letter]) -> bool:
        q = self.run(word)
        return q is not None and q in self.finals

    def states(self) -> frozenset[State]:
        """All states reachable from the initial state."""
        seen: set[State] = {self.initial}
        queue: deque[State] = deque(seen)
        succ: dict[State, list[State]] = {}
        for (q, _a), q2 in self.transitions.items():
            succ.setdefault(q, []).append(q2)
        while queue:
            q = queue.popleft()
            for q2 in succ.get(q, ()):
                if q2 not in seen:
                    seen.add(q2)
                    queue.append(q2)
        return frozenset(seen)

    def num_states(self) -> int:
        """|A|: the number of reachable states (paper §3)."""
        return len(self.states())

    # -- language queries -------------------------------------------------

    def words(self, max_length: int) -> Iterator[tuple[Letter, ...]]:
        """Enumerate all accepted words of length <= *max_length*.

        Test oracle for language comparisons on small automata; explores
        the product of (state, word) breadth-first.
        """
        queue: deque[tuple[State, tuple[Letter, ...]]] = deque(
            [(self.initial, ())]
        )
        succ: dict[State, list[tuple[Letter, State]]] = {}
        for (q, a), q2 in self.transitions.items():
            succ.setdefault(q, []).append((a, q2))
        while queue:
            q, word = queue.popleft()
            if q in self.finals:
                yield word
            if len(word) == max_length:
                continue
            for a, q2 in sorted(succ.get(q, ()), key=lambda e: repr(e[0])):
                queue.append((q2, word + (a,)))

    def language_up_to(self, max_length: int) -> frozenset[tuple[Letter, ...]]:
        return frozenset(self.words(max_length))

