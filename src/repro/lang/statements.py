"""Program statements: the letters of the program alphabet.

Every letter is a *guarded parallel assignment* — the normal form

    assume g;  x₁, ..., xₖ := e₁, ..., eₖ

over the program variables plus a set of letter-local *choice variables*
(which model nondeterminism: ``havoc x`` is the update ``x := c`` for a
fresh choice ``c``).  Atomic blocks are symbolically executed by the
front-end into one such letter per path through the block.

This normal form gives exact, quantifier-free ``wp`` (for havoc-free
letters) and a cheap *semantic* commutativity check: the sequential
compositions ``a;b`` and ``b;a`` are again guarded assignments, and
their equivalence is a solver query (:mod:`repro.core.commutativity`).

Letters use identity-based equality: two syntactically identical
statements on different control-flow edges are different letters, which
realizes the paper's assumption Σᵢ ∩ Σⱼ = ∅ (§3) for free.  What they
share is a :attr:`Statement.content_id`: letters with the same id have
the same transition relation (thread copies of one statement, say), so
memos of relation-only facts — weakest preconditions, commutativity
conditions — are keyed by it and computed once per distinct content.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from ..logic import (
    TRUE,
    Term,
    and_,
    eliminate_exists,
    eliminate_forall,
    eq,
    implies,
    substitute,
    var,
)
from ..logic.arrays import contains_arrays
from ..logic.terms import AVar, Store

_uid_counter = itertools.count()

#: letter content ``(guard nid, sorted (target, rhs nid) pairs,
#: choices)`` -> dense id; process-wide and append-only.  Nids are never
#: reused, so one id never names two transition relations.
_content_ids: dict[tuple, int] = {}


class Statement:
    """One alphabet letter: ``assume guard; targets := values``.

    Attributes:
        thread: index of the owning thread (``Σᵢ`` membership).
        guard: a formula over program variables and :attr:`choices`.
        updates: mapping from assigned variable names to right-hand
            sides (terms over program variables and choices), applied
            simultaneously.
        choices: names of letter-local nondeterministic choice
            variables (fresh, disjoint from program variables).
        label: human-readable name for display and debugging.
        uid: globally unique integer; gives a stable default ordering.
        content_id: dense integer shared exactly by the letters with
            the same guard, updates and choices, whatever their thread
            and label (havoc copies differ: their choices are named per
            letter).
    """

    __slots__ = (
        "thread", "guard", "updates", "choices", "label", "uid",
        "content_id", "_read_vars", "_written_vars",
    )

    def __init__(
        self,
        thread: int,
        label: str,
        guard: Term = TRUE,
        updates: Mapping[str, Term] | None = None,
        choices: Iterable[str] = (),
    ) -> None:
        self.thread = thread
        self.label = label
        self.guard = guard
        self.updates: dict[str, Term] = dict(updates or {})
        self.choices: tuple[str, ...] = tuple(choices)
        self.uid = next(_uid_counter)
        overlap = set(self.updates) & set(self.choices)
        if overlap:
            raise ValueError(f"choice variables cannot be assigned: {overlap}")
        # letters are immutable after construction, so the variable
        # footprint is computed once (commutativity's hottest fast path)
        self._written_vars = frozenset(self.updates)
        names: set[str] = set(self.guard.free_vars)
        for rhs in self.updates.values():
            names |= rhs.free_vars
        self._read_vars = frozenset(names) - set(self.choices)
        content = (
            guard.nid,
            tuple(sorted((t, rhs.nid) for t, rhs in self.updates.items())),
            self.choices,
        )
        self.content_id = _content_ids.setdefault(content, len(_content_ids))

    # identity equality and hashing (letters are nominal)
    def __repr__(self) -> str:
        return f"<{self.label}#{self.uid}>"

    # -- variable footprint -------------------------------------------------

    def written_vars(self) -> frozenset[str]:
        """Program variables this letter may modify (precomputed)."""
        return self._written_vars

    def read_vars(self) -> frozenset[str]:
        """Program variables this letter reads (guard or right-hand sides)."""
        return self._read_vars

    def accessed_vars(self) -> frozenset[str]:
        return self._read_vars | self._written_vars

    @property
    def is_deterministic(self) -> bool:
        return not self.choices

    # -- predicate transformers ----------------------------------------------

    def wp(self, post: Term) -> Term:
        """Weakest precondition ``wp(post, self)``.

        Quantifier-free whenever the letter has no choices; otherwise
        choices are eliminated with :func:`eliminate_forall` (see that
        function's integer caveat).
        """
        substituted = substitute(post, self.updates)
        if self.choices:
            relevant = [c for c in self.choices if c in substituted.free_vars]
            substituted = eliminate_forall(relevant, substituted)
            guard = self.guard
            guard_choices = [c for c in self.choices if c in guard.free_vars]
            if guard_choices:
                # the statement can fire for ANY admissible choice; wp must
                # hold for all of them: forall c. guard -> post'
                return eliminate_forall(
                    guard_choices, implies(guard, substituted)
                )
            return implies(guard, substituted)
        return implies(self.guard, substituted)

    def sp(self, pre: Term) -> Term:
        """Strongest postcondition ``sp(pre, self)``.

        Implemented by SSA-ing the pre-state and existentially
        projecting the old values and choices (exact over the rationals;
        see :mod:`repro.logic.qe` for the integer caveat).  Quantifier
        elimination does not support array-sorted variables; use the
        SSA path formula machinery for array programs.
        """
        if contains_arrays(pre) or any(
            contains_arrays(rhs) for rhs in self.updates.values()
        ) or contains_arrays(self.guard):
            raise NotImplementedError(
                "sp with array variables is not supported; use path_formula"
            )
        old = {
            target: f"{target}!old!{self.uid}" for target in self.updates
        }
        renaming = {target: var(name) for target, name in old.items()}

        def pre_state(term: Term) -> Term:
            return substitute(term, renaming)

        parts = [pre_state(pre), pre_state(self.guard)]
        for target, rhs in self.updates.items():
            parts.append(eq(var(target), pre_state(rhs)))
        eliminated = list(old.values()) + list(self.choices)
        return eliminate_exists(eliminated, and_(*parts))

    def ssa_step(
        self, renaming: Mapping[str, Term], index: int
    ) -> tuple[Term, dict[str, Term]]:
        """One SSA unrolling step for path formulas.

        *renaming* maps each program variable to the term holding its
        current value (initially its own ``Var``/``AVar``).  Integer
        targets get a fresh SSA variable constrained by an equation;
        array targets are substituted forward as store-chains (an
        equation would need cross-base array equality, which is outside
        the solver's array fragment).  Choice variables are freshened
        with *index*.
        """
        def cur(term: Term) -> Term:
            mapping = {v: renaming[v] for v in term.free_vars if v in renaming}
            mapping.update(
                {c: var(f"{c}@{index}") for c in self.choices}
            )
            return substitute(term, mapping)

        constraint_parts = [cur(self.guard)]
        new_renaming = dict(renaming)
        for target, rhs in self.updates.items():
            rhs_now = cur(rhs)
            if isinstance(rhs_now, (AVar, Store)):
                new_renaming[target] = rhs_now
            else:
                fresh = var(f"{target}@{index}")
                constraint_parts.append(eq(fresh, rhs_now))
                new_renaming[target] = fresh
        return and_(*constraint_parts), new_renaming

    # -- composition ----------------------------------------------------------

    def compose(self, other: "Statement") -> "SymbolicAction":
        """The sequential composition ``self ; other`` as a symbolic action."""
        return SymbolicAction.of(self).then(SymbolicAction.of(other))


class SymbolicAction:
    """A guarded parallel assignment detached from any alphabet.

    Used to fold atomic blocks and to compare compositions ``a;b`` vs
    ``b;a`` for commutativity.  Unlike :class:`Statement`, equality is
    irrelevant — these are transient values.
    """

    __slots__ = ("guard", "updates", "choices")

    def __init__(
        self,
        guard: Term = TRUE,
        updates: Mapping[str, Term] | None = None,
        choices: Iterable[str] = (),
    ) -> None:
        self.guard = guard
        self.updates: dict[str, Term] = dict(updates or {})
        self.choices: tuple[str, ...] = tuple(choices)

    @staticmethod
    def of(statement: Statement) -> "SymbolicAction":
        return SymbolicAction(statement.guard, statement.updates, statement.choices)

    @staticmethod
    def identity() -> "SymbolicAction":
        return SymbolicAction()

    def then(self, other: "SymbolicAction") -> "SymbolicAction":
        """Sequential composition ``self ; other``."""
        def after(term: Term) -> Term:
            return substitute(term, self.updates)

        guard = and_(self.guard, after(other.guard))
        updates = dict(self.updates)
        for target, rhs in other.updates.items():
            updates[target] = after(rhs)
        return SymbolicAction(guard, updates, self.choices + other.choices)

    def __repr__(self) -> str:
        ups = ", ".join(f"{v} := {e!r}" for v, e in sorted(self.updates.items()))
        return f"[{self.guard!r}] {ups}"


def assume(thread: int, condition: Term, label: str | None = None) -> Statement:
    """An ``assume`` letter."""
    return Statement(thread, label or f"assume({condition!r})", guard=condition)


def assign(
    thread: int, target: str, value: Term, label: str | None = None
) -> Statement:
    """A single-variable assignment letter."""
    return Statement(
        thread, label or f"{target}:={value!r}", updates={target: value}
    )


def havoc(thread: int, target: str, label: str | None = None) -> Statement:
    """A havoc letter (assign a nondeterministic value)."""
    choice = f"choice!{next(_uid_counter)}"
    return Statement(
        thread,
        label or f"havoc({target})",
        updates={target: var(choice)},
        choices=(choice,),
    )


def skip(thread: int, label: str = "skip") -> Statement:
    return Statement(thread, label)
