"""The one worklist engine behind every on-the-fly exploration.

Historically the repo grew three hand-rolled search loops — plain
breadth-first reachability in :mod:`repro.automata.lazy`, and a BFS and
a DFS variant inside the proof checker — with divergent budget,
deadline, and statistics handling.  This module is their single
replacement: one engine, two strategies (``"bfs"`` | ``"dfs"``), owning

* the seen set and the state budget (one typed exception hierarchy,
  :class:`BudgetExceeded`, instead of ``ExplorationLimit`` here and a
  bare ``MemoryError`` there);
* tick-batched deadline checks (one ``time.perf_counter()`` call every
  ``tick_interval`` worklist pops, module-level import — nothing is
  imported inside the search loop);
* parent-trace reconstruction (BFS) / path tracking (DFS);
* the DFS grey-cut taint rule plus a pluggable useless-state hook
  (the §7.2 cross-round cache slots in as a strategy hook);
* per-state discovery callbacks and engine counters
  (:class:`EngineStats`), surfaced through ``QueryStats``/reporting.

Every client — :func:`repro.automata.lazy.explore`, the reduction
automata, ``ProofChecker`` — describes *what* to search (successors,
goal, cover predicate) and delegates *how* to this engine.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, Protocol, TypeVar

State = TypeVar("State", bound=Hashable)
Letter = TypeVar("Letter", bound=Hashable)

STRATEGIES = ("bfs", "dfs")

#: deadline checks are batched: one wall-clock read per this many pops
DEADLINE_TICK_INTERVAL = 128


class BudgetExceeded(Exception):
    """Base of the engine's resource-budget exception hierarchy."""


class StateBudgetExceeded(BudgetExceeded, MemoryError):
    """The exploration grew past its ``max_states`` budget.

    Also a ``MemoryError``: the proof checker historically raised a bare
    ``MemoryError`` here and the ``verify()`` boundary (and external
    callers) still catch it as such.
    """


class DeadlineExceeded(Exception):
    """The exploration's wall-clock deadline expired mid-search.

    Deliberately *not* a :class:`BudgetExceeded`: running out of time is
    a TIMEOUT at the verifier boundary, running out of states is not.
    """


class UselessStateHook(Protocol):
    """The DFS strategy hook for cross-round useless-state caching (§7.2).

    ``is_useless`` is consulted before a state is first visited; a True
    answer prunes the subtree.  ``mark`` is called when the DFS *leaves*
    a state whose entire subtree was explored without being cut at a
    grey node (a cycle back into the current path) — only such states
    may soundly be recorded as useless.
    """

    def is_useless(self, state) -> bool: ...

    def mark(self, state) -> None: ...


@dataclass
class EngineStats:
    """Counters for one engine run (aggregated by the owner across runs)."""

    states_explored: int = 0
    deadline_ticks: int = 0  # wall-clock reads performed (batched)


@dataclass
class SearchResult(Generic[State, Letter]):
    """Outcome of one :meth:`WorklistEngine.run`.

    ``goal_state``/``trace`` are ``None`` when the search exhausted the
    state space without the goal predicate firing; ``seen`` is the set
    of discovered states (shared, not copied — read-only by convention).
    """

    goal_state: State | None
    trace: tuple[Letter, ...] | None
    seen: set[State]
    stats: EngineStats

    @property
    def states_explored(self) -> int:
        return self.stats.states_explored


class WorklistEngine(Generic[State, Letter]):
    """One search loop for everything that explores a lazy automaton.

    Parameters
    ----------
    successors:
        ``state -> iterable of (letter, successor)`` — typically a
        reduction pipeline's successor function.
    strategy:
        ``"bfs"`` (queue; shortest goal trace) or ``"dfs"`` (stack;
        Algorithm 2 order, supports the useless-state hook).
    max_states:
        Seen-set budget; exceeding it raises *budget_error*.
    deadline:
        Absolute ``time.perf_counter()`` timestamp; checked once every
        ``tick_interval`` pops, raising *deadline_error*.
    on_discover:
        Called exactly once per state, when it enters the seen set
        (BFS: at generation, including the initial state; DFS: at first
        visit) — the per-state stats callback.
    should_expand:
        Cover predicate: a popped state with ``should_expand(state)``
        False contributes no successors (e.g. ⊥-covered proof states).
        The goal predicate is still evaluated first.
    useless:
        DFS-only :class:`UselessStateHook`; ignored under BFS.
    """

    def __init__(
        self,
        successors: Callable[[State], Iterable[tuple[Letter, State]]],
        *,
        strategy: str = "bfs",
        max_states: int | None = None,
        deadline: float | None = None,
        tick_interval: int = DEADLINE_TICK_INTERVAL,
        budget_error: type[Exception] = StateBudgetExceeded,
        budget_message: str = "exploration exceeded its state budget",
        deadline_error: type[Exception] = DeadlineExceeded,
        on_discover: Callable[[State], None] | None = None,
        should_expand: Callable[[State], bool] | None = None,
        on_edge: Callable[[State, Letter, State], None] | None = None,
        useless: UselessStateHook | None = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown search strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.successors = successors
        self.strategy = strategy
        self.max_states = max_states
        self.deadline = deadline
        self.tick_interval = tick_interval
        self.budget_error = budget_error
        self.budget_message = budget_message
        self.deadline_error = deadline_error
        self.on_discover = on_discover
        self.should_expand = should_expand
        self.on_edge = on_edge
        self.useless = useless
        self.stats = EngineStats()

    # -- shared plumbing ----------------------------------------------------

    def _check_deadline(self) -> None:
        if self.deadline is not None:
            self.stats.deadline_ticks += 1
            if time.perf_counter() > self.deadline:
                raise self.deadline_error()

    def _check_budget(self, seen_size: int) -> None:
        if self.max_states is not None and seen_size > self.max_states:
            raise self.budget_error(self.budget_message)

    # -- the engine ---------------------------------------------------------

    def run(
        self,
        initial: State,
        goal: Callable[[State], bool] | None = None,
    ) -> SearchResult[State, Letter]:
        """Search from *initial* until *goal* fires or the space is done."""
        if self.strategy == "bfs":
            return self._run_bfs(initial, goal)
        return self._run_dfs(initial, goal)

    def _run_bfs(
        self,
        initial: State,
        goal: Callable[[State], bool] | None,
    ) -> SearchResult[State, Letter]:
        discover = self.on_discover
        expand = self.should_expand
        on_edge = self.on_edge
        seen: set[State] = {initial}
        if discover is not None:
            discover(initial)
        parent: dict[State, tuple[State, Letter]] = {}
        queue: deque[State] = deque([initial])
        ticks = 0
        while queue:
            state = queue.popleft()
            ticks += 1
            if ticks % self.tick_interval == 0:
                self._check_deadline()
            if goal is not None and goal(state):
                return self._finish(state, _trace_to(parent, state), seen)
            if expand is not None and not expand(state):
                continue
            for a, nxt in self.successors(state):
                if on_edge is not None:
                    on_edge(state, a, nxt)
                if nxt in seen:
                    continue
                seen.add(nxt)
                self._check_budget(len(seen))
                if discover is not None:
                    discover(nxt)
                parent[nxt] = (state, a)
                queue.append(nxt)
        return self._finish(None, None, seen)

    def _run_dfs(
        self,
        initial: State,
        goal: Callable[[State], bool] | None,
    ) -> SearchResult[State, Letter]:
        discover = self.on_discover
        expand = self.should_expand
        useless = self.useless
        seen: set[State] = set()
        on_stack: set[State] = set()
        tainted: set[State] = set()
        path: list[Letter] = []
        # frames: ("visit" | "leave", state, incoming letter, parent state)
        stack: list[tuple] = [("visit", initial, None, None)]
        ticks = 0
        while stack:
            kind, state, letter, parent = stack.pop()
            ticks += 1
            if ticks % self.tick_interval == 0:
                self._check_deadline()
            if kind == "leave":
                if letter is not None:
                    path.pop()
                on_stack.discard(state)
                if state in tainted:
                    # the subtree was cut at a grey node somewhere below:
                    # the taint propagates to the parent, and the state
                    # must not be recorded as useless
                    if parent is not None:
                        tainted.add(parent)
                elif useless is not None:
                    useless.mark(state)
                continue
            if state in seen:
                if state in on_stack or state in tainted:
                    # grey cut (a cycle back into the current path) or a
                    # known-tainted child: the parent's subtree is not
                    # fully explored through this edge
                    if parent is not None:
                        tainted.add(parent)
                continue
            if useless is not None and useless.is_useless(state):
                continue
            seen.add(state)
            self._check_budget(len(seen))
            if discover is not None:
                discover(state)
            if letter is not None:
                path.append(letter)
            if goal is not None and goal(state):
                return self._finish(state, tuple(path), seen)
            on_stack.add(state)
            stack.append(("leave", state, letter, parent))
            if expand is not None and not expand(state):
                continue
            successors = self.successors(state)
            if not isinstance(successors, (list, tuple)):
                successors = list(successors)
            for a, nxt in reversed(successors):
                stack.append(("visit", nxt, a, state))
        return self._finish(None, None, seen)

    def _finish(
        self,
        goal_state: State | None,
        trace: tuple[Letter, ...] | None,
        seen: set[State],
    ) -> SearchResult[State, Letter]:
        self.stats.states_explored = len(seen)
        return SearchResult(goal_state, trace, seen, self.stats)


def _trace_to(
    parent: dict[State, tuple[State, Letter]], state: State
) -> tuple[Letter, ...]:
    """Reconstruct the letters from the initial state to *state*."""
    trace: list[Letter] = []
    while state in parent:
        state, letter = parent[state]
        trace.append(letter)
    trace.reverse()
    return tuple(trace)
