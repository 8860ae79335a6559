"""Finite automata: explicit DFAs, on-the-fly (lazy) automata, and the
shared worklist engine behind every exploration."""

from .dfa import DFA, Letter, State
from .engine import (
    BudgetExceeded,
    DeadlineExceeded,
    EngineStats,
    SearchResult,
    StateBudgetExceeded,
    WorklistEngine,
)
from .lazy import (
    ExplorationLimit,
    LazyDFA,
    MappedLazyDFA,
    count_reachable_states,
    explore,
    materialize,
)

__all__ = [
    "DFA",
    "Letter",
    "State",
    "BudgetExceeded",
    "DeadlineExceeded",
    "EngineStats",
    "SearchResult",
    "StateBudgetExceeded",
    "WorklistEngine",
    "ExplorationLimit",
    "LazyDFA",
    "MappedLazyDFA",
    "count_reachable_states",
    "explore",
    "materialize",
]
