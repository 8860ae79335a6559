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
once at its full budget.  Triage (ranking, budget slices) belongs to the
sequential race only — with every member already running, a budget
slice could only kill a member and start it again cold.

Robustness policies on top of isolation:

* **Escalating-budget retries** (:class:`RetryPolicy`): members ending in
  UNKNOWN/TIMEOUT/ERROR are re-spawned with multiplied solver
  branch/node budgets and deadlines, a bounded number of times, with
  deterministic jittered backoff between respawns.
* **Graceful degradation**
  (:class:`~repro.verifier.pool.DegradingCommutativity`): a member
  whose conditional-commutativity checks keep ending in
  ``SolverUnknown`` falls back to syntactic commutativity for the rest
  of its run (sound — it only declares *less* commutativity) and records
  that it did (``VerificationResult.degraded``).
* **Deterministic fault injection** (:mod:`repro.verifier.faults`):
  the whole stack is testable because faults are seeded and scheduled
  by sat-query index.

The sequential emulation (`verify_portfolio(strategy="sequential")`)
remains the default so the paper-figure benchmarks stay exactly
reproducible; this runtime is opt-in via ``strategy="parallel"``,
``--parallel-portfolio`` on the CLI, or ``REPRO_PARALLEL=1`` for the
harness.
"""

from __future__ import annotations

import random
import signal as signal_module
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.preference import PreferenceOrder
from ..lang.program import ConcurrentProgram
from . import pool
from .faults import FaultPlan, derive_seed
from .refinement import VerifierConfig
from .stats import Verdict, VerificationResult


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, escalating, deterministically-jittered member retries.

    ``max_attempts`` counts total runs of a member (1 = never retry).
    Each retry multiplies the solver branch/node budgets, the
    verification time budget, and the watchdog deadline by
    ``budget_scale`` (cumulatively), and waits
    ``backoff_seconds * budget_scale**(attempt-1)`` plus a seeded jitter
    before respawning, so a crashing member cannot hot-loop.
    """

    max_attempts: int = 1
    budget_scale: float = 2.0
    backoff_seconds: float = 0.05
    jitter: float = 0.5
    seed: int = 0
    retry_on: frozenset = frozenset(
        {Verdict.UNKNOWN, Verdict.TIMEOUT, Verdict.ERROR}
    )

    def scale(self, attempt: int) -> float:
        """Budget multiplier for *attempt* (1-based; attempt 1 → 1.0)."""
        return self.budget_scale ** (attempt - 1)

    def backoff(self, member: str, attempt: int) -> float:
        """Deterministic jittered pause before respawning *member*."""
        rng = random.Random(derive_seed(self.seed, f"{member}#{attempt}"))
        base = self.backoff_seconds * self.scale(attempt)
        return base * (1.0 + self.jitter * rng.random())

    def schedule(self, member: str, attempts: int | None = None) -> list[float]:
        """The full backoff schedule for *member* (test/debug preview).

        Replays :meth:`backoff` for attempts ``1..attempts`` (default:
        ``max_attempts``), so two previews of the same policy and member
        always agree — the property the determinism tests pin.
        """
        n = self.max_attempts if attempts is None else attempts
        return [self.backoff(member, attempt) for attempt in range(1, n + 1)]

    def wants_retry(self, verdict: Verdict, attempt: int) -> bool:
        return verdict in self.retry_on and attempt < self.max_attempts


@dataclass
class _Member:
    """Parent-side lifecycle record of one portfolio member."""

    order: PreferenceOrder
    attempt: int = 0
    worker: pool.Worker | None = None
    spawned_at: float = 0.0
    deadline: float | None = None
    next_spawn: float = 0.0
    history: list = field(default_factory=list)
    final: VerificationResult | None = None

    @property
    def name(self) -> str:
        return self.order.name

    @property
    def running(self) -> bool:
        return self.worker is not None


def run_parallel_portfolio(
    program: ConcurrentProgram,
    config: VerifierConfig | None = None,
    *,
    seeds: Sequence[int] = (1, 2, 3),
    member_timeout: float | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    degrade_after: int = pool.DEFAULT_DEGRADE_AFTER,
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
    retry = retry or RetryPolicy()
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    started = time.perf_counter()
    # terms crossing the worker→parent pipe re-intern into this process's
    # table via Term.__reduce__; snapshot the counter so the winner's
    # query_stats can report the parent-side share (the worker-side delta
    # it carries reflects the *worker* process, which saw none)
    reintern_baseline = kernel_counters()["reintern_count"]
    members = [_Member(order=o) for o in standard_orders(program, seeds)]
    outcome = PortfolioResult(program_name=program.name, strategy="parallel")

    def spawn(member: _Member) -> None:
        member.attempt += 1
        scale = retry.scale(member.attempt)
        worker_config = replace(
            config,
            time_budget=(
                config.time_budget * scale
                if config.time_budget is not None
                else None
            ),
        )
        member.worker = pool.Worker(
            program,
            member.order,
            worker_config,
            attempt=member.attempt,
            name=f"portfolio-{program.name}-{member.name}-a{member.attempt}",
            scale=scale,
            fault_plan=(
                fault_plan.member_plan(member.name)
                if fault_plan is not None
                else None
            ),
            degrade_after=degrade_after,
        )
        member.spawned_at = member.worker.started
        member.deadline = (
            member.spawned_at + member_timeout * scale
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

    def finish_attempt(member: _Member, result: VerificationResult) -> None:
        result.attempts = member.attempt
        result.respawns = member.attempt - 1
        member.history.append(result)
        reap(member)
        if retry.wants_retry(result.verdict, member.attempt):
            member.next_spawn = time.perf_counter() + retry.backoff(
                member.name, member.attempt
            )
        else:
            member.final = result

    def drain(member: _Member) -> None:
        """End the attempt on a result, a crash or a death."""
        for kind, payload in member.worker.events():
            if kind == "result":
                finish_attempt(member, payload)
            else:  # "crash" | "died"
                finish_attempt(
                    member, synthesize(Verdict.ERROR, member, payload)
                )

    def cancel(member: _Member, winner_name: str) -> None:
        if member.running and not member.worker.alive:
            # the worker exited on its own before the win was seen: that
            # is its outcome (a crash, or a message still queued), not a
            # cancellation
            drain(member)
            if member.final is not None:
                return
        now = time.perf_counter()
        was_running = member.running
        reap(member)
        if member.history:
            # a cancelled retry keeps its last observed failure — that
            # is the honest record of what the member did
            result = member.history[-1]
            suffix = f"; cancelled (portfolio winner: {winner_name})"
            result.failure_reason = (result.failure_reason or "") + suffix
            result.attempts = member.attempt
            result.respawns = member.attempt - 1
        else:
            result = synthesize(
                Verdict.UNKNOWN,
                member,
                f"cancelled (portfolio winner: {winner_name})",
            )
            result.attempts = member.attempt
            result.respawns = member.attempt - 1
            if was_running:
                result.time_seconds = now - member.spawned_at
        member.final = result

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
            if member.final is not None:
                continue
            was_running = member.running
            reap(member)
            result = synthesize(
                Verdict.ERROR,
                member,
                f"terminated by {name}: worker cancelled and reaped",
            )
            result.attempts = max(member.attempt, 1)
            result.respawns = max(member.attempt - 1, 0)
            if not was_running:
                result.time_seconds = 0.0
            member.final = result

    winner: VerificationResult | None = None
    try:
        while winner is None and any(m.final is None for m in members):
            if received_signals:
                terminate(received_signals[0])
                break
            now = time.perf_counter()
            for member in members:
                if (
                    member.final is None
                    and not member.running
                    and now >= member.next_spawn
                ):
                    spawn(member)

            workers = [m.worker for m in members if m.running]
            if workers:
                ready = pool.wait(workers)
            else:
                # everyone alive is waiting out a retry backoff
                time.sleep(pool.POLL_INTERVAL)
                ready = []

            by_worker = {m.worker: m for m in members if m.running}
            for worker in ready:
                drain(by_worker[worker])

            now = time.perf_counter()
            for member in members:
                if not member.running:
                    continue
                if member.deadline is not None and now > member.deadline:
                    budget = member.deadline - member.spawned_at
                    finish_attempt(
                        member,
                        synthesize(
                            Verdict.TIMEOUT,
                            member,
                            f"watchdog: killed after {budget:.1f}s "
                            f"(attempt {member.attempt})",
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
