"""Crash-contained parallel portfolio runtime.

The paper's GemCutter portfolio (§8) runs its five preference orders
*concurrently* and stops as soon as any member's analysis terminates.
This module provides that semantics for real: every member runs in an
isolated forked worker (:mod:`repro.verifier.pool`), the parent
enforces a hard per-member wall-clock watchdog (SIGKILL on overrun),
and the first member to return a solved verdict cancels the rest.  A
member that misbehaves — OOM, recursion blowup, unhandled exception,
hard ``os._exit``, killed by the watchdog — becomes a
``Verdict.ERROR``/``TIMEOUT`` :class:`VerificationResult` carrying its
failure reason; it can never take the harness down with it.

It is the paper's plain race: all five members spawn at once, in
:func:`~repro.verifier.portfolio.standard_orders` order, and each runs
once at its full budget.  A member is built by
:func:`~repro.verifier.portfolio.verify_member`, exactly as the
sequential race builds it, so a member that finishes returns what a
direct ``verify()`` of its order returns.  Triage (ranking, budget
slices) belongs to the sequential race only — with every member
already running, a budget slice could only kill a member and start it
again cold.  Faults injected by :mod:`repro.verifier.faults` (seeded,
scheduled by sat-query index) make every failure path testable.

The sequential emulation (`verify_portfolio(strategy="sequential")`)
remains the default so the paper-figure benchmarks stay exactly
reproducible; this runtime is opt-in via ``strategy="parallel"``,
``--parallel-portfolio`` on the CLI, or ``REPRO_PARALLEL=1`` for the
harness.
"""

from __future__ import annotations

import signal as signal_module
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from ..core.preference import PreferenceOrder
from ..lang.program import ConcurrentProgram
from . import pool
from .faults import FaultPlan
from .refinement import VerifierConfig
from .stats import Verdict, VerificationResult


@dataclass
class _Member:
    """Parent-side lifecycle record of one portfolio member."""

    order: PreferenceOrder
    worker: pool.Worker | None = None
    spawned_at: float = 0.0
    deadline: float | None = None
    final: VerificationResult | None = None

    @property
    def name(self) -> str:
        return self.order.name


def run_parallel_portfolio(
    program: ConcurrentProgram,
    config: VerifierConfig | None = None,
    *,
    seeds: Sequence[int] = (1, 2, 3),
    member_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
):
    """Run the standard portfolio with true parallel semantics.

    Returns a :class:`~repro.verifier.portfolio.PortfolioResult` whose
    ``strategy`` is ``"parallel"`` and whose ``wall_seconds`` is the
    actual end-to-end wall clock.  Every member slot is filled: a
    solving/exhausted result, a watchdog ``TIMEOUT``, a contained
    ``ERROR``, or a cancelled ``UNKNOWN`` once a winner emerged.
    """
    from .portfolio import PortfolioResult, standard_orders
    from ..logic import kernel_counters

    config = config or VerifierConfig()
    started = time.perf_counter()
    # terms crossing the worker→parent pipe re-intern into this process's
    # table via Term.__reduce__; snapshot the counter so the winner's
    # query_stats can report the parent-side share (the worker-side delta
    # it carries reflects the *worker* process, which saw none)
    reintern_baseline = kernel_counters()["reintern_count"]
    members = [_Member(order=o) for o in standard_orders(program, seeds)]
    outcome = PortfolioResult(program_name=program.name, strategy="parallel")

    def spawn(member: _Member) -> None:
        member.worker = pool.Worker(
            program,
            member.order,
            config,
            name=f"portfolio-{program.name}-{member.name}",
            fault_plan=fault_plan,
        )
        member.spawned_at = member.worker.started
        member.deadline = (
            member.spawned_at + member_timeout
            if member_timeout is not None
            else None
        )

    def reap(member: _Member) -> None:
        """Tear down the current worker (if any) without recording."""
        if member.worker is not None:
            member.worker.kill()
            member.worker = None

    def synthesize(verdict: Verdict, member: _Member, reason: str):
        return VerificationResult(
            program_name=program.name,
            verdict=verdict,
            order_name=member.name,
            mode=config.mode,
            time_seconds=time.perf_counter() - member.spawned_at,
            failure_reason=reason,
        )

    def finish(member: _Member, result: VerificationResult) -> None:
        reap(member)
        member.final = result

    def drain(member: _Member) -> None:
        """End the member on a result, a crash or a death."""
        for kind, payload in member.worker.events():
            if kind == "result":
                finish(member, payload)
            else:  # "crash" | "died"
                finish(member, synthesize(Verdict.ERROR, member, payload))

    def cancel(member: _Member, winner_name: str) -> None:
        if not member.worker.alive:
            # the worker exited on its own before the win was seen: that
            # is its outcome (a crash, or a message still queued), not a
            # cancellation
            drain(member)
            if member.final is not None:
                return
        finish(
            member,
            synthesize(
                Verdict.UNKNOWN,
                member,
                f"cancelled (portfolio winner: {winner_name})",
            ),
        )

    # graceful termination: a SIGTERM/SIGINT to the parent must cancel
    # and reap the workers (no orphan process trees) and still return a
    # complete PortfolioResult — every unfinished member becomes a
    # contained Verdict.ERROR.  Handlers can only be installed from the
    # main thread; elsewhere (e.g. a caller's worker thread) the
    # process-level handler owns the signal and this stays inert.
    received_signals: list[int] = []
    previous_handlers: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                previous_handlers[sig] = signal_module.signal(
                    sig, lambda signum, frame: received_signals.append(signum)
                )
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass

    def terminate(signum: int) -> None:
        """Cancel + reap every unfinished member after a signal."""
        name = signal_module.Signals(signum).name
        for member in members:
            if member.final is None:
                finish(
                    member,
                    synthesize(
                        Verdict.ERROR,
                        member,
                        f"terminated by {name}: worker cancelled and reaped",
                    ),
                )

    winner: VerificationResult | None = None
    try:
        for member in members:
            spawn(member)
        while winner is None and any(m.final is None for m in members):
            if received_signals:
                terminate(received_signals[0])
                break
            running = {m.worker: m for m in members if m.final is None}
            for worker in pool.wait(list(running)):
                drain(running[worker])

            now = time.perf_counter()
            for member in members:
                if (
                    member.final is None
                    and member.deadline is not None
                    and now > member.deadline
                ):
                    finish(
                        member,
                        synthesize(
                            Verdict.TIMEOUT,
                            member,
                            f"watchdog: killed after {member_timeout:.1f}s",
                        ),
                    )

            for member in members:
                if member.final is not None and member.final.verdict.solved:
                    winner = member.final
                    break
            if winner is not None:
                for member in members:
                    if member.final is None:
                        cancel(member, winner.order_name)
    finally:
        for member in members:
            reap(member)
        for sig, handler in previous_handlers.items():
            try:
                signal_module.signal(sig, handler)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass

    outcome.members = [m.final for m in members]
    outcome.wall_seconds = time.perf_counter() - started
    # attribute parent-side re-interning (deserialized predicates,
    # counterexample guards, ...) to the reported stats: prefer the
    # winner the aggregate reports (the fastest solver, not always the
    # first one this loop saw), else the first member that carried
    # query_stats across
    reintern_delta = kernel_counters()["reintern_count"] - reintern_baseline
    if reintern_delta:
        reported = outcome.winner
        carriers = [reported] if reported is not None else outcome.members
        for result in carriers:
            if result is not None and result.query_stats is not None:
                result.query_stats.reintern_count += reintern_delta
                break
    return outcome
