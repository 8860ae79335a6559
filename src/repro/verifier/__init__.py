"""The verification algorithm: Floyd/Hoare automata, Algorithm 2, CEGAR.

The production engine (:mod:`repro.fastpath`) loads with this package,
since every default run builds it.  The certificate checker and the
parallel runtime load on first use (``_LAZY``).
"""

from .._lazy import lazy_exports
from .checkproof import CheckDeadlineExceeded, CheckOutcome, ProofChecker, UselessStateCache
from .hoare import BOTTOM, FloydHoareAutomaton
from .interpolate import (
    annotate_trace,
    extract_predicates,
    path_formula,
    refutes,
    trace_feasible,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultSpecError,
    InjectedCrash,
    MemberFaultPlan,
)
from .portfolio import (
    DEFAULT_RANDOM_SEEDS,
    PortfolioResult,
    standard_orders,
    verify_member,
    verify_portfolio,
)
from .refinement import VerifierConfig, verify
from .stats import QueryStats, RoundStats, Verdict, VerificationResult
from .triage import (
    ProgramFeatures,
    RankedMember,
    TriagePlan,
    emulate_staged_wall,
    extract_features,
    ladder_stages,
    plan_portfolio,
    rank_members,
)

__all__ = [
    "CheckDeadlineExceeded",
    "CheckOutcome",
    "ProofChecker",
    "UselessStateCache",
    "BOTTOM",
    "FloydHoareAutomaton",
    "annotate_trace",
    "extract_predicates",
    "path_formula",
    "refutes",
    "trace_feasible",
    "FaultInjector",
    "FaultPlan",
    "FaultSpecError",
    "InjectedCrash",
    "MemberFaultPlan",
    "DEFAULT_RANDOM_SEEDS",
    "PortfolioResult",
    "standard_orders",
    "verify_member",
    "verify_portfolio",
    "VerifierConfig",
    "verify",
    "QueryStats",
    "RoundStats",
    "Verdict",
    "VerificationResult",
    "ProgramFeatures",
    "RankedMember",
    "TriagePlan",
    "emulate_staged_wall",
    "extract_features",
    "ladder_stages",
    "plan_portfolio",
    "rank_members",
    # loaded on first use (see _LAZY)
    "certify",
    "certify_unreduced",
    "run_parallel_portfolio",
]

_LAZY = {
    "certify": ".certify",
    "certify_unreduced": ".certify",
    "run_parallel_portfolio": ".runtime",
}

lazy_exports(__name__)
