"""Integer fast path: the exploration core over dense ids and bitmasks.

The pure-python engine (:mod:`repro.automata.engine` plus the layer
stack of :mod:`repro.core.layers`) pushes rich objects — frozensets for
sleep sets, tuples of terms for Floyd/Hoare states — through every
expansion.  The paper's reduction rule operates over a small, finite,
per-program alphabet, so sets of letters are naturally machine words
and check states are naturally packed integer tuples.  This package is
the compiled counterpart of that stack:

* :mod:`~repro.fastpath.encoder` — the compilation step: dense integer
  statement ids (⋖-stable: sorted by uid), product states as
  mixed-radix integers over per-thread location digits, interned
  contexts / Floyd-Hoare states, preference orders as precomputed
  per-context rank arrays, letter sets ↔ int bitmasks;
* :mod:`~repro.fastpath.pipeline` — the fast layer pipeline: per
  ``(q, ctx)`` compiled ⋖-sorted edge tables with per-edge
  strictly-lower masks and ``q + delta`` successors, enabled masks,
  and the membrane folded into each table;
* :mod:`~repro.fastpath.engine` — the integer worklist engine: BFS/DFS
  over packed ``(q, φ, S, ctx)`` int tuples with the same budget,
  deadline-tick, and grey-cut-taint semantics as the pure engine;
* :mod:`~repro.fastpath.check` — the glue that runs one proof-check
  round on the fast engine for :class:`~repro.verifier.checkproof.
  ProofChecker`, owning the id↔object decode boundary (commutativity
  and Hoare queries are decoded and answered by the *same* caches as
  the pure path, counterexamples are decoded back to statements).

The encoding is a bijection and the fast loops replicate the pure
loops' visit order exactly, so verdicts, rounds, proofs,
counterexamples, and per-round state counts are bit-identical.  This is
the only production engine, for alphabets of any width; the pure stack
stays intact as the reference implementation, selected with
``VerifierConfig(engine="pure")`` by the differential tests and guards.
"""

from .encoder import ProgramEncoder
from .pipeline import FastPipeline
from .check import FastChecker

__all__ = [
    "ProgramEncoder",
    "FastPipeline",
    "FastChecker",
]
