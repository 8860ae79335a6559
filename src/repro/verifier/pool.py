"""One contained verification attempt in a forked worker process.

The parallel portfolio (:mod:`repro.verifier.runtime`) and the job
service (:mod:`repro.service.server`) both run each attempt of
``verify()`` in its own process, so an OOM, a recursion blowup, a hard
``os._exit`` or a watchdog SIGKILL costs one attempt and never the
caller.  This module is that boundary, defined once: the child entry,
the heartbeat and poll cadences, the base solver budgets, and the
parent-side :class:`Worker` handle.  The callers keep their policies
(winner cancellation in the runtime; job specs, retries, breaker and
stats in the service, which streams the heartbeats to
``wait --stream``).

The child talks to the parent over a one-way pipe:

* ``("hb", progress)`` — every :data:`HB_INTERVAL` seconds from a
  daemon thread, if the caller asked for heartbeats: elapsed wall
  clock, solver queries, refinement rounds and states explored
  (:func:`progress_payload`).  The service asks for them; the parallel
  portfolio, which acts on nothing in them, does not;
* ``("result", VerificationResult)`` — the verdict (terms re-intern in
  the parent through ``Term.__reduce__``);
* ``("crash", reason)`` — any Python-level failure, ``BaseException``
  included.

The final message is sent only after the heartbeat thread has been
joined: ``Connection.send`` has no lock, and a large result written
while a heartbeat is mid-send would interleave the two frames.  A pipe
that closes (or a process that exits) without a final message is a hard
death, which the parent reports as
``worker died (exit code N, attempt K)``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Callable

from ..core.commutativity import (
    ConditionalCommutativity,
    SyntacticCommutativity,
)
from ..logic import Solver
from .faults import ENV_VAR, FaultInjector, MemberFaultPlan
from .refinement import VerifierConfig, verify

#: mirrors of Solver.__init__'s defaults — the base the retry policy's
#: budget escalation multiplies
BASE_BRANCH_BUDGET = 400
BASE_NODE_BUDGET = 200_000

#: cadence of the child's progress heartbeat
HB_INTERVAL = 0.25

#: how long a parent waits on its workers' pipes between checks
POLL_INTERVAL = 0.02

#: unknown-fallbacks threshold after which a portfolio member degrades
#: to syntactic commutativity (None disables degradation)
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
    report it.  With ``degrade_after=None`` it is exactly
    :class:`ConditionalCommutativity`.
    """

    def __init__(
        self,
        solver: Solver | None = None,
        *,
        memoize: bool = True,
        degrade_after: int | None = DEFAULT_DEGRADE_AFTER,
    ) -> None:
        super().__init__(solver, memoize=memoize)
        self.degrade_after = degrade_after
        self.degraded = False
        self.degraded_after_queries: int | None = None
        self._syntactic_fallback = SyntacticCommutativity()

    def _maybe_degrade(self) -> None:
        if (
            not self.degraded
            and self.degrade_after is not None
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


class ProgressMeter:
    """Mutable per-run progress counters the CEGAR loop updates.

    Attached to the run's solver (``solver.progress_meter``) so the
    heartbeat thread in a worker process can stream refinement rounds
    and states expanded without threading a new argument through
    ``verify()``.
    """

    __slots__ = ("rounds", "states")

    def __init__(self) -> None:
        self.rounds = 0
        self.states = 0

    def update(self, rounds: int, states: int) -> None:
        self.rounds = rounds
        self.states = states


def attach_progress_meter(solver) -> ProgressMeter:
    """Create a :class:`ProgressMeter` and attach it to *solver*."""
    meter = ProgressMeter()
    solver.progress_meter = meter
    return meter


def progress_payload(elapsed: float, solver, meter: ProgressMeter) -> dict:
    """One heartbeat message: elapsed wall clock, solver queries, and
    the meter's refinement rounds and states."""
    return {
        "elapsed": elapsed,
        "sat_queries": solver.stats.sat_queries,
        "rounds": meter.rounds,
        "states": meter.states,
    }


def prebuilt(program, order):
    """A :class:`Worker` job for a program the parent already built."""
    return program, order


def run_attempt(
    conn,
    job: Callable[[], tuple],
    config: VerifierConfig,
    scale: float,
    fault_plan: MemberFaultPlan | None,
    degrade_after: int | None,
    heartbeat: bool = True,
) -> None:
    """Child-process entry point: run one attempt, contained.

    ``job()`` builds ``(program, order)`` inside the child, so a bad
    program is a contained crash too.  Everything short of a hard
    process death ends as exactly one final message on *conn*.  With
    *heartbeat* false no heartbeat thread starts and no ``"hb"`` frame
    is sent.
    """
    # the parent resolved fault plans already; don't let the env var
    # re-attach a second injector inside verify()
    os.environ.pop(ENV_VAR, None)
    started = time.perf_counter()
    stop = threading.Event()
    beat = None
    try:
        program, order = job()
        solver = Solver(
            branch_budget=int(BASE_BRANCH_BUDGET * scale),
            node_budget=int(BASE_NODE_BUDGET * scale),
        )
        if fault_plan is not None and fault_plan.active:
            solver.fault_injector = FaultInjector(fault_plan)
        commutativity = DegradingCommutativity(
            solver, degrade_after=degrade_after
        )
        if heartbeat:
            meter = attach_progress_meter(solver)

            def beats() -> None:
                while not stop.wait(HB_INTERVAL):
                    try:
                        conn.send((
                            "hb",
                            progress_payload(
                                time.perf_counter() - started, solver, meter
                            ),
                        ))
                    except Exception:  # pipe gone: parent killed us or moved on
                        return

            beat = threading.Thread(target=beats, daemon=True)
            beat.start()
        final = (
            "result",
            verify(program, order, commutativity, config=config, solver=solver),
        )
    except BaseException as exc:  # noqa: BLE001 - crash containment
        final = ("crash", f"{type(exc).__name__}: {exc}")
    stop.set()
    if beat is not None:
        # unbounded on purpose: a heartbeat stuck in send() means the
        # final send would block on the same pipe anyway
        beat.join()
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
        job: Callable[[], tuple],
        config: VerifierConfig,
        *,
        attempt: int,
        name: str,
        scale: float,
        fault_plan: MemberFaultPlan | None,
        degrade_after: int | None,
        heartbeat: bool,
    ) -> None:
        self.attempt = attempt
        self.conn, child_conn = CONTEXT.Pipe(duplex=False)
        self.proc = CONTEXT.Process(
            target=run_attempt,
            args=(
                child_conn, job, config, scale, fault_plan, degrade_after,
                heartbeat,
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

        Any number of ``("hb", progress)`` events (none unless the
        worker was asked for heartbeats), then at most one
        final event: ``("result", VerificationResult)``, or
        ``("crash", reason)`` / ``("died", reason)`` with the failure
        reason already formatted.  A process that is gone with nothing
        left to read has died.
        """
        while self.conn.poll():
            try:
                kind, payload = self.conn.recv()
            except (EOFError, OSError):
                yield "died", self._death()
                return
            if kind == "crash":
                payload = f"worker crashed: {payload} (attempt {self.attempt})"
            yield kind, payload
            if kind != "hb":
                return
        if not self.proc.is_alive() and not self.conn.poll():
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
