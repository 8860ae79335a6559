"""The verification algorithm: Floyd/Hoare automata, Algorithm 2, CEGAR."""

from .certify import certify, certify_unreduced
from .compositional import (
    combine_verdicts,
    observer_threads,
    restrict_observer,
    verify_each_thread,
)
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
    verify_portfolio,
)
from .refinement import VerifierConfig, verify
from .runtime import (
    DegradingCommutativity,
    RetryPolicy,
    run_parallel_portfolio,
)
from .stats import QueryStats, RoundStats, Verdict, VerificationResult
from .triage import (
    MemberRanker,
    ProgramFeatures,
    ProgressMeter,
    RankedMember,
    TriagePlan,
    emulate_staged_wall,
    extract_features,
    ladder_stages,
    plan_portfolio,
    progress_dominated,
)

__all__ = [
    "certify",
    "combine_verdicts",
    "observer_threads",
    "restrict_observer",
    "verify_each_thread",
    "certify_unreduced",
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
    "verify_portfolio",
    "DegradingCommutativity",
    "RetryPolicy",
    "run_parallel_portfolio",
    "VerifierConfig",
    "verify",
    "QueryStats",
    "RoundStats",
    "Verdict",
    "VerificationResult",
    "MemberRanker",
    "ProgramFeatures",
    "ProgressMeter",
    "RankedMember",
    "TriagePlan",
    "emulate_staged_wall",
    "extract_features",
    "ladder_stages",
    "plan_portfolio",
    "progress_dominated",
]
