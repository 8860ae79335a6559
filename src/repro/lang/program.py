"""Concurrent programs and their interleaving product (§3).

A :class:`ConcurrentProgram` is a fixed tuple of thread CFAs with a
pre/postcondition specification.  The interleaving product automaton is
exposed *lazily* (its size grows exponentially with the thread count —
the algorithms never build it eagerly).

``assert`` statements compile to terminal per-thread error locations;
the product state is a *violation state* if some thread sits at its
error location.  Verification establishes that (a) no violation state is
reachable by a feasible trace, and (b) every feasible complete trace
(all threads at exit) satisfies the postcondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..automata import DFA, materialize
from ..logic import TRUE, Term, and_, eq, substitute, var
from . import ast
from .cfg import ThreadCFG, compile_thread
from .statements import Statement

ProductState = tuple[int, ...]


@dataclass
class ConcurrentProgram:
    """A concurrent program P = T₁ ∥ ... ∥ Tₙ with a (pre, post) spec."""

    name: str
    threads: list[ThreadCFG]
    pre: Term = TRUE
    post: Term = TRUE

    def __post_init__(self) -> None:
        self._thread_of: dict[Statement, int] = {}
        for i, t in enumerate(self.threads):
            if t.index != i:
                raise ValueError(f"thread {t.name} has index {t.index}, expected {i}")
            for s in t.alphabet():
                self._thread_of[s] = i

    # -- structure ----------------------------------------------------------

    @property
    def size(self) -> int:
        """size(P) = Σ |Tᵢ| (§3)."""
        return sum(t.size for t in self.threads)

    def alphabet(self) -> frozenset[Statement]:
        return frozenset(self._thread_of)

    def variables(self) -> frozenset[str]:
        names: set[str] = set()
        for s in self.alphabet():
            names |= s.accessed_vars()
        from ..logic import free_vars

        names |= free_vars(self.pre) | free_vars(self.post)
        return frozenset(names)

    def array_variables(self) -> frozenset[str]:
        """Names of array-sorted program variables."""
        from ..logic.arrays import array_names

        out: set[str] = set(array_names(self.pre)) | set(array_names(self.post))
        for s in self.alphabet():
            out |= array_names(s.guard)
            for rhs in s.updates.values():
                out |= array_names(rhs)
        return frozenset(out)

    # -- the interleaving product, lazily ------------------------------------

    def initial_state(self) -> ProductState:
        return tuple(t.initial for t in self.threads)

    def successors(
        self, state: ProductState
    ) -> Iterator[tuple[Statement, ProductState]]:
        for i, t in enumerate(self.threads):
            loc = state[i]
            for stmt, dst in t.edges.get(loc, ()):
                yield stmt, state[:i] + (dst,) + state[i + 1 :]

    def step(self, state: ProductState, statement: Statement) -> ProductState | None:
        i = self._thread_of[statement]
        dst = self.threads[i].step(state[i], statement)
        if dst is None:
            return None
        return state[:i] + (dst,) + state[i + 1 :]

    def enabled(self, state: ProductState) -> tuple[Statement, ...]:
        return tuple(s for s, _ in self.successors(state))

    def statements(self) -> Iterator[tuple[int, int, Statement, int]]:
        """Every statement with its CFG position, in canonical order.

        Yields ``(thread_index, src, statement, dst)`` sorted by thread,
        then source location, then edge-list position — the same order
        the content digests walk, so two structurally compatible
        programs (same locations and edge lists, possibly different
        statement contents) align position-for-position.  The delta
        layer diffs program versions over exactly this alignment.
        """
        for i, t in enumerate(self.threads):
            for src in sorted(t.edges):
                for statement, dst in t.edges[src]:
                    yield i, src, statement, dst

    def is_exit(self, state: ProductState) -> bool:
        return all(loc == t.exit for loc, t in zip(state, self.threads))

    def is_violation(self, state: ProductState) -> bool:
        return any(
            t.error is not None and loc == t.error
            for loc, t in zip(state, self.threads)
        )

    def is_accepting(self, state: ProductState) -> bool:
        """Accepting states of the verification language."""
        return self.is_violation(state) or self.is_exit(state)

    def has_asserts(self) -> bool:
        return any(t.error is not None for t in self.threads)

    # -- views ---------------------------------------------------------------

    def product_view(self, accepting: str = "both") -> "ProductView":
        """A lazy DFA view of the interleaving product.

        *accepting* is ``"exit"`` (the paper's L(P): complete traces),
        ``"error"`` (violation prefixes), or ``"both"``.
        """
        return ProductView(self, accepting)

    def product_dfa(
        self, accepting: str = "both", *, max_states: int | None = 200_000
    ) -> DFA:
        """Materialize the product (small programs / tests only)."""
        return materialize(
            self.product_view(accepting), self.alphabet(), max_states=max_states
        )

    def __repr__(self) -> str:
        names = " || ".join(t.name for t in self.threads)
        return f"ConcurrentProgram({self.name}: {names})"


class ProductView:
    """Lazy-DFA adapter over the interleaving product.

    Violation states are treated as terminal: a trace that reaches an
    error location is reported at its first violation (extending it
    cannot restore safety, and prefixes of feasible traces stay
    feasible, so this is sound — see DESIGN.md §5).
    """

    def __init__(self, program: ConcurrentProgram, accepting: str) -> None:
        if accepting not in ("exit", "error", "both"):
            raise ValueError(f"unknown acceptance mode: {accepting}")
        self.program = program
        self.accepting = accepting

    def initial_state(self) -> ProductState:
        return self.program.initial_state()

    def successors(
        self, state: ProductState
    ) -> Iterator[tuple[Statement, ProductState]]:
        if self.program.is_violation(state):
            return iter(())
        return self.program.successors(state)

    def is_accepting(self, state: ProductState) -> bool:
        if self.accepting == "exit":
            return self.program.is_exit(state)
        if self.accepting == "error":
            return self.program.is_violation(state)
        return self.program.is_accepting(state)


# ---------------------------------------------------------------------------
# Instantiation from the surface AST
# ---------------------------------------------------------------------------

def _rename_term(
    term: Term | None, mapping: Mapping[str, str], array_names: frozenset[str]
) -> Term | None:
    if term is None or not mapping:
        return term
    from ..logic import avar

    substitution = {
        old: (avar(new) if old in array_names else var(new))
        for old, new in mapping.items()
    }
    return substitute(term, substitution)


def _rename_stmt(
    stmt: ast.Stmt, mapping: Mapping[str, str], arrays: frozenset[str]
) -> ast.Stmt:
    if not mapping:
        return stmt
    if isinstance(stmt, ast.Skip):
        return stmt
    if isinstance(stmt, ast.Assign):
        return ast.Assign(
            mapping.get(stmt.target, stmt.target),
            _rename_term(stmt.value, mapping, arrays),
        )
    if isinstance(stmt, ast.Assume):
        return ast.Assume(_rename_term(stmt.condition, mapping, arrays))
    if isinstance(stmt, ast.Assert):
        return ast.Assert(_rename_term(stmt.condition, mapping, arrays))
    if isinstance(stmt, ast.Havoc):
        return ast.Havoc(mapping.get(stmt.target, stmt.target))
    if isinstance(stmt, ast.Seq):
        return ast.Seq(tuple(_rename_stmt(s, mapping, arrays) for s in stmt.stmts))
    if isinstance(stmt, ast.If):
        return ast.If(
            _rename_term(stmt.condition, mapping, arrays),
            _rename_stmt(stmt.then, mapping, arrays),
            _rename_stmt(stmt.else_, mapping, arrays),
        )
    if isinstance(stmt, ast.While):
        return ast.While(
            _rename_term(stmt.condition, mapping, arrays),
            _rename_stmt(stmt.body, mapping, arrays),
        )
    if isinstance(stmt, ast.Atomic):
        return ast.Atomic(_rename_stmt(stmt.body, mapping, arrays))
    raise TypeError(f"unknown statement: {stmt!r}")


def instantiate(program: ast.ProgramDef) -> ConcurrentProgram:
    """Expand thread replication, rename locals, and compile all threads.

    * A thread template with ``count = n > 1`` yields replicas named
      ``Name1 .. Namen``.
    * Thread-local variables ``v`` become ``v$Replica`` per replica.
    * Initializers (globals and locals) become conjuncts of the
      precondition.
    """
    pre_parts: list[Term] = []
    for decl in program.decls:
        if decl.init is not None:
            pre_parts.append(eq(var(decl.name), decl.init))
    if program.pre is not None:
        pre_parts.append(program.pre)

    threads: list[ThreadCFG] = []
    index = 0
    for tdef in program.threads:
        for replica in range(tdef.count):
            label = tdef.name if tdef.count == 1 else f"{tdef.name}{replica + 1}"
            mapping = {decl.name: f"{decl.name}${label}" for decl in tdef.locals}
            local_arrays = frozenset(
                decl.name for decl in tdef.locals if decl.sort == "array"
            )
            body = _rename_stmt(tdef.body, mapping, local_arrays)
            for decl in tdef.locals:
                if decl.init is not None:
                    pre_parts.append(eq(var(mapping[decl.name]), decl.init))
            threads.append(compile_thread(body, name=label, index=index))
            index += 1

    return ConcurrentProgram(
        name=program.name,
        threads=threads,
        pre=and_(*pre_parts) if pre_parts else TRUE,
        post=program.post if program.post is not None else TRUE,
    )
