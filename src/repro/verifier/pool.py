"""One contained verification attempt in a forked worker process.

The parallel portfolio (:mod:`repro.verifier.runtime`) runs each attempt
of ``verify()`` in its own process, so an OOM, a recursion blowup, a
hard ``os._exit`` or a watchdog SIGKILL costs one attempt and never the
caller.  This module is that boundary: the child entry, the poll
cadence, the base solver budgets, and the parent-side :class:`Worker`
handle.  The runtime keeps its policies (retries, watchdog deadlines,
winner cancellation).

The child sends the parent exactly one message over a one-way pipe:

* ``("result", VerificationResult)`` — the verdict (terms re-intern in
  the parent through ``Term.__reduce__``);
* ``("crash", reason)`` — any Python-level failure, ``BaseException``
  included.

A pipe that closes (or a process that exits) without that message is a
hard death, which the parent reports as
``worker died (exit code N, attempt K)``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import connection as mp_connection

from ..core.commutativity import (
    ConditionalCommutativity,
    SyntacticCommutativity,
)
from ..core.preference import PreferenceOrder
from ..lang.program import ConcurrentProgram
from ..logic import Solver
from .faults import ENV_VAR, FaultInjector, MemberFaultPlan
from .refinement import VerifierConfig, verify

#: mirrors of Solver.__init__'s defaults — the base the retry policy's
#: budget escalation multiplies
BASE_BRANCH_BUDGET = 400
BASE_NODE_BUDGET = 200_000

#: how long a parent waits on its workers' pipes between checks
POLL_INTERVAL = 0.02

#: unknown-fallbacks threshold after which a portfolio member degrades
#: to syntactic commutativity
DEFAULT_DEGRADE_AFTER = 25


# prefer fork (no pickling of the program, cheap spawn); fall back to
# the platform default where fork is unavailable
try:
    CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    CONTEXT = multiprocessing.get_context()


class DegradingCommutativity(ConditionalCommutativity):
    """Conditional commutativity with a syntactic-only fallback mode.

    Once ``stats.unknown_fallbacks`` reaches *degrade_after*, every
    further question is answered by the syntactic check alone: no more
    solver queries, no more give-ups.  Sound by construction — the
    syntactic relation is a subset of the conditional one — and recorded
    in :attr:`degraded` / :attr:`degraded_after_queries` so results can
    report it.
    """

    def __init__(
        self,
        solver: Solver | None = None,
        *,
        memoize: bool = True,
        degrade_after: int = DEFAULT_DEGRADE_AFTER,
    ) -> None:
        super().__init__(solver, memoize=memoize)
        self.degrade_after = degrade_after
        self.degraded = False
        self.degraded_after_queries: int | None = None
        self._syntactic_fallback = SyntacticCommutativity()

    def _maybe_degrade(self) -> None:
        if (
            not self.degraded
            and self.stats.unknown_fallbacks >= self.degrade_after
        ):
            self.degraded = True
            self.degraded_after_queries = self.stats.queries

    def _degraded_answer(self, a, b) -> bool:
        self.stats.queries += 1
        if self._syntactic_fallback.commute(a, b):
            self.stats.syntactic_hits += 1
            return True
        return False

    def commute(self, a, b) -> bool:
        if self.degraded:
            return self._degraded_answer(a, b)
        result = super().commute(a, b)
        self._maybe_degrade()
        return result

    def commute_under(self, phi, a, b) -> bool:
        if self.degraded:
            return self._degraded_answer(a, b)
        result = super().commute_under(phi, a, b)
        self._maybe_degrade()
        return result


def run_attempt(
    conn,
    program: ConcurrentProgram,
    order: PreferenceOrder,
    config: VerifierConfig,
    scale: float,
    fault_plan: MemberFaultPlan | None,
    degrade_after: int,
) -> None:
    """Child-process entry point: run one attempt, contained.

    Everything short of a hard process death ends as exactly one
    message on *conn*.
    """
    # the parent resolved fault plans already; don't let the env var
    # re-attach a second injector inside verify()
    os.environ.pop(ENV_VAR, None)
    try:
        solver = Solver(
            branch_budget=int(BASE_BRANCH_BUDGET * scale),
            node_budget=int(BASE_NODE_BUDGET * scale),
        )
        if fault_plan is not None and fault_plan.active:
            solver.fault_injector = FaultInjector(fault_plan)
        commutativity = DegradingCommutativity(
            solver, degrade_after=degrade_after
        )
        final = (
            "result",
            verify(program, order, commutativity, config=config, solver=solver),
        )
    except BaseException as exc:  # noqa: BLE001 - crash containment
        final = ("crash", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(final)
    except Exception:  # pragma: no cover - pipe already gone
        pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


class Worker:
    """Parent-side handle of one forked attempt.

    Construction forks the child.  :meth:`events` reads what it has
    said, :func:`wait` blocks until some worker has something to say,
    and :meth:`kill` tears it down.
    """

    def __init__(
        self,
        program: ConcurrentProgram,
        order: PreferenceOrder,
        config: VerifierConfig,
        *,
        attempt: int,
        name: str,
        scale: float,
        fault_plan: MemberFaultPlan | None,
        degrade_after: int,
    ) -> None:
        self.attempt = attempt
        self.conn, child_conn = CONTEXT.Pipe(duplex=False)
        self.proc = CONTEXT.Process(
            target=run_attempt,
            args=(
                child_conn, program, order, config, scale, fault_plan,
                degrade_after,
            ),
            name=name,
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.started = time.perf_counter()

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def events(self):
        """Yield what the child has said, without blocking.

        At most one event: ``("result", VerificationResult)``, or
        ``("crash", reason)`` / ``("died", reason)`` with the failure
        reason already formatted.  A process that is gone with nothing
        left to read has died.
        """
        if self.conn.poll():
            try:
                kind, payload = self.conn.recv()
            except (EOFError, OSError):
                yield "died", self._death()
                return
            if kind == "crash":
                payload = f"worker crashed: {payload} (attempt {self.attempt})"
            yield kind, payload
        elif not self.proc.is_alive() and not self.conn.poll():
            yield "died", self._death()

    def _death(self) -> str:
        self.proc.join(timeout=1.0)
        return (
            f"worker died (exit code {self.proc.exitcode}, "
            f"attempt {self.attempt})"
        )

    def kill(self) -> None:
        """SIGKILL the child if it still runs, reap it, close the pipe."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.proc.close()
        self.conn.close()


def wait(workers: list[Worker]) -> list[Worker]:
    """Block up to :data:`POLL_INTERVAL` until a worker has something
    to report.

    Returns, in *workers* order, those with a message or EOF on their
    pipe, plus any whose process is already gone.
    """
    ready = set(mp_connection.wait([w.conn for w in workers], POLL_INTERVAL))
    return [w for w in workers if w.conn in ready or not w.alive]
