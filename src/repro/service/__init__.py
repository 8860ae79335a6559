"""Verification-as-a-service: the resilient asyncio job server.

``repro serve`` turns the crash-contained runtime (PR 2) and the
persistent proof store (PR 6) into a long-lived, fault-tolerant
system: a journaled crash-recoverable work queue, a worker-pool
scheduler over isolated processes, admission control with load
shedding, per-tenant budgets with weighted-fair scheduling, retries,
a circuit breaker, and graceful drain.  See ``docs/service.md``.

This ``__init__`` imports only :mod:`repro.service.policy` eagerly —
the policy layer is shared with the parallel runtime
(:mod:`repro.verifier.runtime`, which re-exports ``RetryPolicy``); the
server, client, queue, and journal load on first attribute access (see
:mod:`repro._lazy`).  ``import repro`` loads none of this package.
"""

from .._lazy import lazy_exports
from .policy import (
    AdmissionPolicy,
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
    ServicePolicies,
    TenantPolicy,
    TokenBudget,
)

__all__ = [
    "AdmissionPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "RetryPolicy",
    "ServicePolicies",
    "TenantPolicy",
    "TokenBudget",
    # loaded on first use (see _LAZY)
    "DEFAULT_SOCKET",
    "FairQueue",
    "Job",
    "JobJournal",
    "JobState",
    "ProtocolError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "VerificationService",
    "job_fingerprint",
    "result_payload",
    "serve",
    "serve_main",
    "wait_for_server",
]

_LAZY = {
    "DEFAULT_SOCKET": ".protocol",
    "ProtocolError": ".protocol",
    "JobJournal": ".journal",
    "FairQueue": ".queue",
    "Job": ".queue",
    "JobState": ".queue",
    "ServiceConfig": ".server",
    "VerificationService": ".server",
    "serve": ".server",
    "serve_main": ".server",
    "ServiceClient": ".client",
    "ServiceError": ".client",
    "wait_for_server": ".client",
    "job_fingerprint": ".worker",
    "result_payload": ".worker",
}

lazy_exports(__name__)
