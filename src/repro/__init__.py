"""Sound sequentialization for concurrent program verification.

A from-scratch Python reproduction of Farzan, Klumpp & Podelski,
"Sound Sequentialization for Concurrent Program Verification"
(PLDI 2022).  See DESIGN.md for the system inventory and EXPERIMENTS.md
for the evaluation reproduction.

Quickstart::

    from repro import parse, verify, Verdict

    program = parse('''
        var x: int = 0;
        thread A { x := x + 1; }
        thread B { x := x + 1; }
        post: x == 2;
    ''')
    result = verify(program)
    assert result.verdict == Verdict.CORRECT
"""

from ._lazy import lazy_exports
from .lang import ConcurrentProgram, parse, parse_program
from .core import (
    ConditionalCommutativity,
    FullCommutativity,
    LockstepOrder,
    RandomOrder,
    SemanticCommutativity,
    SyntacticCommutativity,
    ThreadUniformOrder,
)
from .delta import EditPlan, diff_programs
from .store import ProofStore, open_store
from .verifier import (
    Verdict,
    VerificationResult,
    VerifierConfig,
    verify,
    verify_portfolio,
)

__version__ = "1.0.0"

__all__ = [
    "ConcurrentProgram",
    "parse",
    "parse_program",
    "ConditionalCommutativity",
    "FullCommutativity",
    "LockstepOrder",
    "RandomOrder",
    "SemanticCommutativity",
    "SyntacticCommutativity",
    "ThreadUniformOrder",
    "EditPlan",
    "diff_programs",
    "ProofStore",
    "open_store",
    "Verdict",
    "VerificationResult",
    "VerifierConfig",
    "verify",
    "verify_portfolio",
    "__version__",
    # loaded on first use (see _LAZY)
    "ReducedProduct",
    "reduce_program",
]

_LAZY = {
    "ReducedProduct": ".core",
    "reduce_program": ".core",
}

lazy_exports(__name__)
