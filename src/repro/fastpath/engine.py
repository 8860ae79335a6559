"""The integer worklist engine: BFS/DFS over packed id tuples.

A mirror of :class:`repro.automata.engine.WorklistEngine`, specialized
to proof-check states packed as ``(q, φ_id, S_mask, ctx_id)`` int
tuples.  Both searches discover the *same* states in the *same* order
as the pure engine modulo the (bijective) encoding, with the same dedup
and per-discovery budget check, so seen-set sizes, per-round
``states_explored`` and counterexample traces are equal: the states
guard compares the two bit-for-bit.  DFS replicates the pure loop
statement for statement, tick-batched deadline reads and grey-cut taint
included; its taint and useless-state marking see ⊥ states.  BFS makes
a ⊥ successor a counted leaf: it enters the seen map unlinked and is
never queued, where the pure engine pops it as covered, so the fast
BFS's deadline ticks count only non-⊥ pops.

What is different is what a pop costs: coverage is one int compare
against the interned ⊥ id; an uncovered state costs one lookup in the
``(q, ctx_id)`` table memo (compiled on a miss), which answers both the
goal flags and, if the state is no goal, the edges it is expanded
from; an exit state adds a memoized entailment bit; and hashing a
state hashes four small ints instead of nested tuples and frozensets.

The entry points take a *round context* ``rc`` — in practice the
:class:`repro.fastpath.check.FastChecker` — exposing the table memo
(``tables``) and its miss (``compile_table``), ``expand``, the memos,
and the budget/error parameters for one check round.
"""

from __future__ import annotations

import time
from collections import deque

#: packed check state: (q, phi_id, sleep_mask, ctx_id), q the
#: mixed-radix product state
PackedState = tuple[int, int, int, int]


class RoundStats:
    """Per-round engine counters (folded into the checker's totals).

    ``states_explored`` is set only when a round finishes (goal found or
    space exhausted) — an aborted round counts zero, exactly like the
    pure engine's ``_finish``-only assignment.
    """

    __slots__ = ("states_explored", "deadline_ticks")

    def __init__(self) -> None:
        self.states_explored = 0
        self.deadline_ticks = 0


def run_bfs(rc, initial: PackedState):
    """Breadth-first proof-check round over packed states.

    Returns ``(trace_ids | None, seen)`` where ``trace_ids`` is the
    letter-id path to the first uncovered state (decoded by the caller)
    and ``seen`` maps every discovered state to its ``(parent, a_id)``
    link.  A successor whose assertion is ⊥ is a counted leaf: it enters
    ``seen`` (and the budget) with no link and is never queued, since ⊥
    is never a goal and has no successors.
    """
    stats = rc.stats
    tick_interval = rc.tick_interval
    deadline = rc.deadline
    max_states = rc.max_states
    expand = rc.expand
    tables_get = rc.tables.get
    compile_table = rc.compile_table
    entails = rc.entails
    bottom = rc.bottom
    perf_counter = time.perf_counter

    seen: dict[PackedState, tuple[PackedState, int] | None] = {initial: None}
    queue: deque[PackedState] = deque([initial])
    ticks = 0
    while queue:
        state = queue.popleft()
        ticks += 1
        if ticks % tick_interval == 0 and deadline is not None:
            stats.deadline_ticks += 1
            if perf_counter() > deadline:
                raise rc.deadline_error()
        q, phi, _sleep, ctx_id = state
        if phi == bottom:
            # only the initial state is queued at ⊥: covered, no successors
            continue
        table = tables_get((q, ctx_id))
        if table is None:
            table = compile_table(q, ctx_id)
        f = table.flags
        # goal = uncovered: a violation, or an exit state whose
        # assertion does not entail the postcondition
        if f and (f & 1 or not entails(phi)):
            stats.states_explored = len(seen)
            return _trace_to(seen, state), seen
        for a_id, nxt in expand(state, table):
            if nxt in seen:
                continue
            if nxt[1] == bottom:
                seen[nxt] = None
            else:
                seen[nxt] = (state, a_id)
                queue.append(nxt)
            if max_states is not None and len(seen) > max_states:
                raise rc.budget_error(rc.budget_message)
    stats.states_explored = len(seen)
    return None, seen


def run_dfs(rc, initial: PackedState):
    """Depth-first proof-check round (Algorithm 2 order) over packed
    states, with the pure engine's grey-cut taint rule and useless-state
    hook."""
    stats = rc.stats
    tick_interval = rc.tick_interval
    deadline = rc.deadline
    max_states = rc.max_states
    expand = rc.expand
    tables_get = rc.tables.get
    compile_table = rc.compile_table
    entails = rc.entails
    bottom = rc.bottom
    useless = rc.useless
    perf_counter = time.perf_counter

    seen: set[PackedState] = set()
    on_stack: set[PackedState] = set()
    tainted: set[PackedState] = set()
    path: list[int] = []
    # frames: (is_leave, state, incoming letter id, parent state)
    stack: list[tuple] = [(False, initial, None, None)]
    ticks = 0
    while stack:
        leave, state, letter, parent = stack.pop()
        ticks += 1
        if ticks % tick_interval == 0 and deadline is not None:
            stats.deadline_ticks += 1
            if perf_counter() > deadline:
                raise rc.deadline_error()
        if leave:
            if letter is not None:
                path.pop()
            on_stack.discard(state)
            if state in tainted:
                # the subtree was cut at a grey node below: propagate
                # the taint, never record the state as useless
                if parent is not None:
                    tainted.add(parent)
            elif useless is not None:
                useless.mark(state)
            continue
        if state in seen:
            if state in on_stack or state in tainted:
                if parent is not None:
                    tainted.add(parent)
            continue
        if useless is not None and useless.is_useless(state):
            continue
        seen.add(state)
        if max_states is not None and len(seen) > max_states:
            raise rc.budget_error(rc.budget_message)
        if letter is not None:
            path.append(letter)
        q, phi, _sleep, ctx_id = state
        if phi != bottom:
            table = tables_get((q, ctx_id))
            if table is None:
                table = compile_table(q, ctx_id)
            f = table.flags
            if f and (f & 1 or not entails(phi)):
                stats.states_explored = len(seen)
                return tuple(path), seen
        on_stack.add(state)
        stack.append((True, state, letter, parent))
        if phi == bottom:
            continue
        for a_id, nxt in reversed(expand(state, table)):
            stack.append((False, nxt, a_id, state))
    stats.states_explored = len(seen)
    return None, seen


def _trace_to(
    seen: dict[PackedState, tuple[PackedState, int] | None], state: PackedState
) -> tuple[int, ...]:
    """Letter-id path from the initial state to *state*."""
    trace: list[int] = []
    link = seen[state]
    while link is not None:
        state, letter = link
        trace.append(letter)
        link = seen[state]
    trace.reverse()
    return tuple(trace)
