"""The forked-worker module: every way a worker can fail reaches the
parallel portfolio as one formatted failure reason."""

from __future__ import annotations

import re

import pytest

from repro import VerifierConfig, parse
from repro.verifier import Verdict, run_parallel_portfolio
from repro.verifier.faults import FaultPlan

CORRECT_SRC = (
    "var x: int = 0; thread A { x := x + 1; } thread B { x := x + 1; } "
    "post: x == 2;"
)

#: (fault spec, verdict, failure_reason pattern)
CONTRACT = [
    (
        "seed=3;crash_at=0",
        Verdict.ERROR,
        r"worker crashed: InjectedCrash: injected crash "
        r"\(member '[^']+', query 0\)",
    ),
    (
        "seed=3;exit_at=0",
        Verdict.ERROR,
        r"worker died \(exit code 86\)",
    ),
    (
        "seed=3;hang_at=0;hang_s=60",
        Verdict.TIMEOUT,
        r"watchdog: killed after \d+\.\ds",
    ),
]


def _watchdog(faults: str) -> float | None:
    """A short watchdog for the hang; none for faults that end the
    attempt themselves, so a slow fork cannot turn them into timeouts."""
    return 0.5 if "hang_at" in faults else None


@pytest.mark.parametrize(
    "faults, verdict, reason",
    CONTRACT,
    ids=["crash", "hard-exit", "watchdog"],
)
def test_portfolio_reports_worker_failures(faults, verdict, reason):
    outcome = run_parallel_portfolio(
        parse(CORRECT_SRC, name="incr2"),
        VerifierConfig(max_rounds=20),
        seeds=(1,),
        member_timeout=_watchdog(faults),
        fault_plan=FaultPlan.parse(faults),
    )
    assert len(outcome.members) == 3
    for member in outcome.members:
        assert member.verdict is verdict
        assert re.fullmatch(reason, member.failure_reason), member.failure_reason
