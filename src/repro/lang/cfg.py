"""Compilation of thread bodies to control-flow automata.

A thread is a DFA over its own statements (§3): locations are states,
the initial location is the entry, and the *exit* location is the only
accepting state.  ``assert`` compiles to a branch into a distinguished
terminal *error location* (the product automaton accepts states where
some thread sits at an error location; see
:class:`repro.lang.program.ConcurrentProgram`).

``atomic`` blocks are symbolically executed: every path through the
block becomes a single letter (guarded parallel assignment), so the
block is a set of parallel edges — indivisible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..logic import TRUE, not_, var
from . import ast
from .statements import Statement, SymbolicAction

Location = int


class CompileError(Exception):
    """Raised for constructs the front-end does not support."""


@dataclass
class ThreadCFG:
    """The control-flow automaton of a single thread."""

    name: str
    index: int
    initial: Location
    exit: Location
    error: Location | None
    edges: dict[Location, list[tuple[Statement, Location]]]

    @property
    def locations(self) -> frozenset[Location]:
        locs = {self.initial, self.exit}
        if self.error is not None:
            locs.add(self.error)
        for src, out in self.edges.items():
            locs.add(src)
            for _stmt, dst in out:
                locs.add(dst)
        return frozenset(locs)

    @property
    def size(self) -> int:
        """|Tᵢ|: number of control-flow locations (§3)."""
        return len(self.locations)

    def alphabet(self) -> frozenset[Statement]:
        return frozenset(s for out in self.edges.values() for s, _ in out)

    def enabled(self, location: Location) -> tuple[Statement, ...]:
        return tuple(s for s, _ in self.edges.get(location, ()))

    def step(self, location: Location, statement: Statement) -> Location | None:
        for s, dst in self.edges.get(location, ()):
            if s is statement:
                return dst
        return None

    def reachable_from(self, location: Location) -> frozenset[Location]:
        """Locations reachable within this thread from *location*."""
        seen = {location}
        stack = [location]
        while stack:
            loc = stack.pop()
            for _stmt, dst in self.edges.get(loc, ()):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)


class _Compiler:
    """Compiles one thread body into a :class:`ThreadCFG`."""

    def __init__(self, thread_name: str, thread_index: int) -> None:
        self.name = thread_name
        self.index = thread_index
        self._next_location = 0
        self.edges: dict[Location, list[tuple[Statement, Location]]] = {}
        self.error: Location | None = None
        self._label_count: dict[str, int] = {}

    def fresh_location(self) -> Location:
        loc = self._next_location
        self._next_location += 1
        return loc

    def error_location(self) -> Location:
        if self.error is None:
            self.error = self.fresh_location()
        return self.error

    def add_edge(self, src: Location, stmt: Statement, dst: Location) -> None:
        self.edges.setdefault(src, []).append((stmt, dst))

    def label(self, base: str) -> str:
        n = self._label_count.get(base, 0)
        self._label_count[base] = n + 1
        suffix = f"/{n}" if n else ""
        return f"{self.name}:{base}{suffix}"

    # -- statement compilation ------------------------------------------------

    def compile(self, stmt: ast.Stmt, entry: Location, exit_: Location) -> None:
        """Emit edges so control flows from *entry* to *exit_* through *stmt*."""
        if isinstance(stmt, ast.Skip):
            self.add_edge(
                entry, Statement(self.index, self.label("skip")), exit_
            )
        elif isinstance(stmt, ast.Assign):
            self.add_edge(
                entry,
                Statement(
                    self.index,
                    self.label(f"{stmt.target}:="),
                    updates={stmt.target: stmt.value},
                ),
                exit_,
            )
        elif isinstance(stmt, ast.Assume):
            self.add_edge(
                entry,
                Statement(self.index, self.label("assume"), guard=stmt.condition),
                exit_,
            )
        elif isinstance(stmt, ast.Havoc):
            from .statements import havoc

            s = havoc(self.index, stmt.target, label=self.label(f"havoc({stmt.target})"))
            self.add_edge(entry, s, exit_)
        elif isinstance(stmt, ast.Assert):
            ok = Statement(
                self.index, self.label("assert-pass"), guard=stmt.condition
            )
            fail = Statement(
                self.index, self.label("assert-fail"), guard=not_(stmt.condition)
            )
            self.add_edge(entry, ok, exit_)
            self.add_edge(entry, fail, self.error_location())
        elif isinstance(stmt, ast.Seq):
            current = entry
            for i, sub in enumerate(stmt.stmts):
                nxt = exit_ if i == len(stmt.stmts) - 1 else self.fresh_location()
                self.compile(sub, current, nxt)
                current = nxt
        elif isinstance(stmt, ast.If):
            if stmt.condition is None:
                take = Statement(self.index, self.label("choose-then"))
                skip_ = Statement(self.index, self.label("choose-else"))
            else:
                take = Statement(
                    self.index, self.label("then"), guard=stmt.condition
                )
                skip_ = Statement(
                    self.index, self.label("else"), guard=not_(stmt.condition)
                )
            for guard_stmt, branch in ((take, stmt.then), (skip_, stmt.else_)):
                if isinstance(branch, ast.Skip):
                    # branch edge goes straight to the join point
                    self.add_edge(entry, guard_stmt, exit_)
                else:
                    branch_entry = self.fresh_location()
                    self.add_edge(entry, guard_stmt, branch_entry)
                    self.compile(branch, branch_entry, exit_)
        elif isinstance(stmt, ast.While):
            body_entry = self.fresh_location()
            if stmt.condition is None:
                enter = Statement(self.index, self.label("loop-enter"))
                leave = Statement(self.index, self.label("loop-exit"))
            else:
                enter = Statement(
                    self.index, self.label("loop-enter"), guard=stmt.condition
                )
                leave = Statement(
                    self.index, self.label("loop-exit"), guard=not_(stmt.condition)
                )
            self.add_edge(entry, enter, body_entry)
            self.add_edge(entry, leave, exit_)
            self.compile(stmt.body, body_entry, entry)
        elif isinstance(stmt, ast.Atomic):
            for action, violating in _atomic_paths(stmt.body):
                letter = Statement(
                    self.index,
                    self.label("atomic" + ("-fail" if violating else "")),
                    guard=action.guard,
                    updates=action.updates,
                    choices=action.choices,
                )
                target = self.error_location() if violating else exit_
                self.add_edge(entry, letter, target)
        else:  # pragma: no cover - defensive
            raise CompileError(f"cannot compile {stmt!r}")


def _atomic_paths(
    stmt: ast.Stmt, prefix: SymbolicAction | None = None
) -> Iterator[tuple[SymbolicAction, bool]]:
    """Symbolically execute an atomic block.

    Yields ``(action, violating)`` pairs, one per path; ``violating``
    marks paths that end in a failed ``assert``.
    """
    from .statements import _uid_counter

    action = prefix if prefix is not None else SymbolicAction.identity()
    if isinstance(stmt, ast.Skip):
        yield action, False
    elif isinstance(stmt, ast.Assign):
        step = SymbolicAction(TRUE, {stmt.target: stmt.value})
        yield action.then(step), False
    elif isinstance(stmt, ast.Assume):
        yield action.then(SymbolicAction(stmt.condition)), False
    elif isinstance(stmt, ast.Havoc):
        choice = f"choice!{next(_uid_counter)}"
        step = SymbolicAction(TRUE, {stmt.target: var(choice)}, (choice,))
        yield action.then(step), False
    elif isinstance(stmt, ast.Assert):
        yield action.then(SymbolicAction(stmt.condition)), False
        yield action.then(SymbolicAction(not_(stmt.condition))), True
    elif isinstance(stmt, ast.Seq):
        def walk(
            acc: SymbolicAction, rest: tuple[ast.Stmt, ...]
        ) -> Iterator[tuple[SymbolicAction, bool]]:
            if not rest:
                yield acc, False
                return
            head, tail = rest[0], rest[1:]
            for sub_action, violating in _atomic_paths(head, acc):
                if violating:
                    yield sub_action, True
                else:
                    yield from walk(sub_action, tail)

        yield from walk(action, stmt.stmts)
    elif isinstance(stmt, ast.If):
        if stmt.condition is None:
            branch_guards = (TRUE, TRUE)
        else:
            branch_guards = (stmt.condition, not_(stmt.condition))
        for guard, branch in zip(branch_guards, (stmt.then, stmt.else_)):
            guarded = action.then(SymbolicAction(guard))
            yield from _atomic_paths(branch, guarded)
    elif isinstance(stmt, ast.Atomic):
        yield from _atomic_paths(stmt.body, action)
    elif isinstance(stmt, ast.While):
        raise CompileError("loops inside atomic blocks are not supported")
    else:  # pragma: no cover - defensive
        raise CompileError(f"cannot compile {stmt!r} inside atomic")


def compile_thread(
    body: ast.Stmt, *, name: str, index: int
) -> ThreadCFG:
    """Compile a thread body into its control-flow automaton."""
    compiler = _Compiler(name, index)
    entry = compiler.fresh_location()
    exit_ = compiler.fresh_location()
    compiler.compile(body, entry, exit_)
    return ThreadCFG(
        name=name,
        index=index,
        initial=entry,
        exit=exit_,
        error=compiler.error,
        edges=compiler.edges,
    )
