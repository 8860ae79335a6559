"""One contained member run in a forked worker process.

The parallel portfolio (:mod:`repro.verifier.runtime`) runs each
member's ``verify()`` in its own process, so an OOM, a recursion
blowup, a hard ``os._exit`` or a watchdog SIGKILL costs one member and
never the caller.  This module is that boundary: the child entry, the
poll cadence, and the parent-side :class:`Worker` handle.  The runtime
keeps its policies (watchdog deadlines, winner cancellation).

The child runs :func:`repro.verifier.portfolio.verify_member`, the code
the sequential race runs too, so a member that finishes is exactly a
direct ``verify()`` of its order.  It sends the parent exactly one
message over a one-way pipe:

* ``("result", VerificationResult)`` — the verdict (terms re-intern in
  the parent through ``Term.__reduce__``);
* ``("crash", reason)`` — any Python-level failure, ``BaseException``
  included.

A pipe that closes (or a process that exits) without that message is a
hard death, which the parent reports as ``worker died (exit code N)``.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection as mp_connection

from ..core.preference import PreferenceOrder
from ..lang.program import ConcurrentProgram
from .faults import FaultPlan
from .portfolio import verify_member
from .refinement import VerifierConfig

#: how long a parent waits on its workers' pipes between checks
POLL_INTERVAL = 0.02


# prefer fork (no pickling of the program, cheap spawn); fall back to
# the platform default where fork is unavailable
try:
    CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    CONTEXT = multiprocessing.get_context()


def run_worker(
    conn,
    program: ConcurrentProgram,
    order: PreferenceOrder,
    config: VerifierConfig,
    fault_plan: FaultPlan | None,
) -> None:
    """Child-process entry point: run one member, contained.

    Everything short of a hard process death ends as exactly one
    message on *conn*.
    """
    try:
        final = (
            "result",
            verify_member(program, order, config, fault_plan=fault_plan),
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
    """Parent-side handle of one forked member.

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
        name: str,
        fault_plan: FaultPlan | None,
    ) -> None:
        self.conn, child_conn = CONTEXT.Pipe(duplex=False)
        self.proc = CONTEXT.Process(
            target=run_worker,
            args=(child_conn, program, order, config, fault_plan),
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
                payload = f"worker crashed: {payload}"
            yield kind, payload
        elif not self.proc.is_alive() and not self.conn.poll():
            yield "died", self._death()

    def _death(self) -> str:
        self.proc.join(timeout=1.0)
        return f"worker died (exit code {self.proc.exitcode})"

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
