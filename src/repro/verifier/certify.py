"""Independent proof certification.

``verify`` returns the predicate vocabulary of the discovered proof;
:func:`certify` re-validates such a proof *from scratch* — fresh solver,
fresh Floyd/Hoare automaton, a reduction mode of the caller's choice —
and :func:`certify_unreduced` does so against the **full interleaving
product** (no reduction at all), which gives an end-to-end soundness
check of the whole sequentialization pipeline: if a proof found on a
reduction certifies on the unreduced program, no unsound pruning
happened.

This mirrors the paper's separation between proof *finding* and proof
*checking* (§1): certification is a pure proof check.
"""

from __future__ import annotations

from typing import Sequence

from ..core.commutativity import (
    CommutativityRelation,
    ConditionalCommutativity,
)
from ..core.preference import PreferenceOrder, ThreadUniformOrder
from ..lang.program import ConcurrentProgram
from ..logic import Solver, Term
from .checkproof import ProofChecker
from .hoare import FloydHoareAutomaton


def certify(
    program: ConcurrentProgram,
    predicates: Sequence[Term],
    *,
    order: PreferenceOrder | None = None,
    commutativity: CommutativityRelation | None = None,
    mode: str = "combined",
    proof_sensitive: bool = True,
    max_states: int | None = 2_000_000,
) -> bool:
    """Does the predicate set prove the program correct (one proof check)?

    Returns True iff the Floyd/Hoare automaton over *predicates* covers
    every trace of the chosen reduction of *program*.
    """
    solver = Solver()
    order = order or ThreadUniformOrder()
    if commutativity is None:
        commutativity = ConditionalCommutativity(solver)
    checker = ProofChecker(
        program,
        order,
        commutativity,
        mode=mode,
        proof_sensitive=proof_sensitive,
        max_states=max_states,
    )
    fh = FloydHoareAutomaton(list(predicates), solver, incremental=False)
    outcome = checker.check(fh, program.pre, program.post)
    return outcome.covered


def certify_unreduced(
    program: ConcurrentProgram,
    predicates: Sequence[Term],
    *,
    max_states: int | None = 2_000_000,
) -> bool:
    """Certify against the full interleaving product (no reduction).

    A proof that certifies here covers *every* interleaving, with no
    commutativity assumption — an unconditional certificate.  Note the
    asymmetry: a perfectly sound reduction proof may still *fail* this
    check (it only needs to cover the representatives; the equivalence
    classes of the remaining interleavings are covered by the
    commutativity argument, not by the annotation itself — §2).
    """
    return certify(
        program,
        predicates,
        mode="none",
        proof_sensitive=False,
        max_states=max_states,
    )
