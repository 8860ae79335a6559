"""The long-lived asyncio verification service (``repro serve``).

One process, one event loop, no threads on the hot path: an asyncio
Unix-socket front door speaking the NDJSON protocol
(:mod:`repro.service.protocol`), a journaled admission pipeline
(:mod:`repro.service.journal`), a weighted-fair queue
(:mod:`repro.service.queue`), and a pool of scheduler tasks that run
each job attempt in an isolated forked process
(:mod:`repro.verifier.pool` — the crash-containment boundary shared
with the parallel portfolio).

The robustness envelope, end to end:

* **Admission control** — bounded queue depth, per-tenant outstanding
  budgets, breaker quarantine and drain state are all checked *before*
  a job is journaled; a shed submit costs one reply line, nothing else.
* **Durability** — an accepted job is fsynced into the journal before
  the ack; SIGKILL the server at any point and a restart replays the
  journal: finished jobs keep their results, pending jobs re-enqueue in
  order, nothing is duplicated or lost.
* **Retries** — worker crashes, watchdog kills, and honest UNKNOWNs are
  retried per :class:`~repro.service.policy.RetryPolicy` with escalating
  budgets and seeded backoff.
* **Circuit breaker** — repeated worker-level failures quarantine the
  job's ``tenant/family`` key: new submits are shed, queued jobs fail
  fast, and after a cooldown a single probe decides reopen-vs-close.
* **Graceful drain** — SIGTERM/SIGINT (or the ``drain`` op) stops
  admission, finishes in-flight jobs, flushes the journal and any proof
  store, and exits 0; queued jobs stay journaled for the next start.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import random
import signal
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..verifier import pool
from ..verifier.faults import FaultPlan, derive_seed
from ..verifier.refinement import VerifierConfig
from ..verifier.stats import Verdict
from . import protocol
from .journal import JobJournal
from .policy import CircuitBreaker, ServicePolicies, TokenBudget
from .queue import FairQueue, Job, JobState
from .worker import build_job, job_config, result_payload

log = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` is configured with."""

    socket_path: str = protocol.DEFAULT_SOCKET
    journal_path: str = "repro-jobs.journal"
    workers: int = 4
    #: base verifier configuration applied to every job (job specs may
    #: override mode/search/max_rounds; the store path rides along)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    policies: ServicePolicies = field(default_factory=ServicePolicies)
    #: hard per-attempt wall-clock watchdog (scaled by the retry
    #: policy's escalation); None = no watchdog
    member_timeout: float | None = 60.0
    #: chaos: a seeded fault plan injected into a fraction of job
    #: attempts (attempts beyond ``fault_attempts`` run clean, so a
    #: faulted job always converges — transient-fault semantics)
    fault_plan: FaultPlan | None = None
    fault_fraction: float = 1.0
    fault_attempts: int = 1


class ServiceStats:
    """Service-level counters (the ``stats`` op; bench baselines)."""

    FIELDS = (
        "submitted",
        "accepted",
        "completed",
        "cancelled",
        "retries",
        "shed_queue_full",
        "shed_tenant_budget",
        "shed_breaker",
        "shed_draining",
        "rejected_bad_spec",
        "worker_crashes",
        "worker_timeouts",
        "breaker_fastfail",
        "faults_injected",
        "replayed_pending",
        "replayed_done",
        "journal_corrupt",
        "heartbeats",
    )

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)
        self.verdicts: dict[str, int] = {}

    @property
    def shed(self) -> int:
        return (
            self.shed_queue_full
            + self.shed_tenant_budget
            + self.shed_breaker
            + self.shed_draining
        )

    def count_verdict(self, verdict: str) -> None:
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1

    def counters(self) -> dict:
        out = {name: getattr(self, name) for name in self.FIELDS}
        out["shed"] = self.shed
        out["verdicts"] = dict(sorted(self.verdicts.items()))
        return out


class VerificationService:
    """See the module docstring.  One instance per server process."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.stats = ServiceStats()
        self.queue = FairQueue()
        self.journal = JobJournal(config.journal_path)
        self.breaker = CircuitBreaker(config.policies.breaker)
        self.jobs: dict[str, Job] = {}
        self.budgets: dict[str, TokenBudget] = {}
        self._seq = 0
        self._draining = False
        self._paused = False
        self._started_at = time.perf_counter()
        self._server: asyncio.AbstractServer | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._stop_dequeue = asyncio.Event()
        self._closed = asyncio.Event()
        self._running: dict[int, Job] = {}
        for tenant, policy in config.policies.tenants.items():
            self.queue.set_weight(tenant, policy.weight)

    # -- clock ---------------------------------------------------------------

    @staticmethod
    def _now() -> float:
        return time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Replay the journal, bind the socket, launch the pool."""
        replay = self.journal.replay()
        self._seq = replay.max_seq
        self.stats.journal_corrupt = replay.corrupt_records
        self.stats.replayed_done = len(replay.done)
        for job_id, payload in replay.done.items():
            job = Job(id=job_id, spec={"id": job_id}, seq=0)
            job.state = JobState.DONE
            job.result = payload
            job.finished.set()
            self.jobs[job_id] = job
        for spec in replay.pending:
            job = Job(
                id=spec["id"], spec=spec, seq=int(spec.get("seq", 0))
            )
            job.accepted_at = self._now()
            self.jobs[job.id] = job
            self._budget(job.tenant).acquire(job.cost)
            await self.queue.put(job)
            self.stats.replayed_pending += 1
        self.journal.compact(replay)
        socket_path = Path(self.config.socket_path)
        if socket_path.exists():
            socket_path.unlink()  # stale from a SIGKILLed predecessor
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=str(socket_path)
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    sig,
                    lambda s=sig: asyncio.ensure_future(
                        self.drain(f"signal {signal.Signals(s).name}")
                    ),
                )
        self._worker_tasks = [
            asyncio.create_task(
                self._worker_loop(i), name=f"repro-serve-worker-{i}"
            )
            for i in range(self.config.workers)
        ]
        log.info(
            "serving on %s (%d workers, %d replayed jobs)",
            socket_path, self.config.workers, self.stats.replayed_pending,
        )

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def drain(self, reason: str = "drain op") -> None:
        """Graceful shutdown: no new work, finish in-flight, flush, exit."""
        if self._draining:
            return
        self._draining = True
        log.info("draining (%s): %d queued, %d running",
                 reason, self.queue.depth, len(self._running))
        self._stop_dequeue.set()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        # flush the durable state: buffered journal records, then any
        # proof-store segments the parent process accumulated
        self.journal.close()
        if self.config.verifier.store_path:
            from ..store import open_store

            open_store(self.config.verifier.store_path).flush()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        with contextlib.suppress(OSError):
            Path(self.config.socket_path).unlink()
        self._closed.set()

    # -- admission -----------------------------------------------------------

    def _budget(self, tenant: str) -> TokenBudget:
        budget = self.budgets.get(tenant)
        if budget is None:
            budget = self.config.policies.budget_for(tenant)
            self.budgets[tenant] = budget
        return budget

    def _admit(
        self, raw_spec: dict, backlog_extra: int = 0
    ) -> tuple[Job | None, dict]:
        """One submit entry → (job, reply-entry).  Sheds never journal.

        *backlog_extra* counts jobs admitted earlier in the same batch
        but not yet enqueued (the batch enqueues only after every accept
        is journaled), so a single oversized batch cannot blow through
        the queue-depth bound.
        """
        admission = self.config.policies.admission
        self.stats.submitted += 1
        try:
            spec = protocol.normalize_job_spec(raw_spec)
            if spec.get("faults"):
                FaultPlan.parse(spec["faults"])  # validate before accept
        except (protocol.ProtocolError, ValueError) as exc:
            self.stats.rejected_bad_spec += 1
            return None, protocol.error_reply("bad_job", str(exc))
        if self._draining:
            self.stats.shed_draining += 1
            return None, protocol.error_reply(
                "shed", admission.SHED_DRAINING
            )
        if self.queue.depth + backlog_extra >= admission.max_queue_depth:
            self.stats.shed_queue_full += 1
            return None, protocol.error_reply(
                "shed", admission.SHED_QUEUE_FULL
            )
        self._seq += 1
        spec["seq"] = self._seq
        spec["id"] = f"j{self._seq:06d}"
        job = Job(id=spec["id"], spec=spec, seq=self._seq)
        if self.breaker.is_open(job.breaker_key, self._now()):
            self._seq -= 1
            self.stats.shed_breaker += 1
            return None, protocol.error_reply(
                "shed", admission.SHED_BREAKER_OPEN, key=job.breaker_key
            )
        if not self._budget(job.tenant).acquire(job.cost):
            self._seq -= 1
            self.stats.shed_tenant_budget += 1
            return None, protocol.error_reply(
                "shed", admission.SHED_TENANT_BUDGET, tenant=job.tenant
            )
        job.accepted_at = self._now()
        self.journal.accept(spec)
        self.jobs[job.id] = job
        self.stats.accepted += 1
        return job, {"ok": True, "id": job.id}

    # -- the scheduler -------------------------------------------------------

    async def _worker_loop(self, idx: int) -> None:
        while not self._draining:
            if self._paused:
                await asyncio.sleep(0.05)
                continue
            get_task = asyncio.create_task(self.queue.get(self._now))
            stop_task = asyncio.create_task(self._stop_dequeue.wait())
            done, _pending = await asyncio.wait(
                {get_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if get_task in done:
                stop_task.cancel()
                job = get_task.result()
                if self._draining:
                    await self.queue.put_front(job)  # journaled for later
                    break
                if self._paused:
                    # pause raced the dequeue: the worker was already
                    # parked in get() when the flag flipped
                    await self.queue.put_front(job)
                    await asyncio.sleep(0.05)
                    continue
                self._running[idx] = job
                try:
                    await self._run_job(job)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    # a scheduler bug must not strand the job (the ack
                    # promised a verdict) or silently kill the worker
                    log.exception("scheduler error on %s", job.id)
                    if not job.state.terminal:
                        self._finish_done(
                            job,
                            self._synthetic_payload(
                                job,
                                Verdict.ERROR,
                                "internal scheduler error "
                                "(see server log)",
                            ),
                        )
                finally:
                    self._running.pop(idx, None)
            else:
                get_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await get_task
                break

    def _fault_plan_for(self, job: Job, attempt: int):
        """The (deterministic) fault plan of this attempt, if any."""
        spec_faults = job.spec.get("faults")
        if spec_faults:
            # job-carried faults apply to every attempt (targeted tests)
            return FaultPlan.parse(spec_faults).member_plan(job.id)
        plan = self.config.fault_plan
        if plan is None or attempt > self.config.fault_attempts:
            return None
        rng = random.Random(derive_seed(plan.seed, f"victim:{job.id}"))
        if rng.random() >= self.config.fault_fraction:
            return None
        return plan.member_plan(job.id)

    async def _run_job(self, job: Job) -> None:
        """Drive one job to a terminal state (all attempts)."""
        if job.cancel_requested:
            self._finish_cancel(job)
            return
        retry = self.config.policies.retry
        if job.spec.get("max_attempts"):
            from dataclasses import replace

            retry = replace(retry, max_attempts=job.spec["max_attempts"])
        key = job.breaker_key
        if not self.breaker.allow(key, self._now()):
            # accepted before the trip: fail fast rather than sit in a
            # quarantined queue (the ack promised a verdict, not a slot)
            self.stats.breaker_fastfail += 1
            self._finish_done(
                job,
                self._synthetic_payload(
                    job,
                    Verdict.ERROR,
                    f"circuit breaker open for {key}",
                ),
            )
            return
        job.state = JobState.RUNNING
        job.started_at = job.started_at or self._now()
        while True:
            job.attempts += 1
            attempt = job.attempts
            job.publish(
                {"event": "attempt", "id": job.id, "attempt": attempt}
            )
            kind, payload = await self._execute_attempt(job, attempt, retry)
            if kind == "cancelled":
                self._finish_cancel(job)
                return
            if kind == "result":
                verdict = Verdict(payload["verdict"])
                self.breaker.record_success(key)
            else:  # crash | timeout: worker-level fault
                verdict = Verdict(payload["verdict"])
                if kind == "crash":
                    self.stats.worker_crashes += 1
                else:
                    self.stats.worker_timeouts += 1
                self.breaker.record_failure(key, self._now())
            if retry.wants_retry(verdict, attempt):
                self.stats.retries += 1
                delay = retry.backoff(job.id, attempt)
                job.publish(
                    {
                        "event": "retry",
                        "id": job.id,
                        "attempt": attempt,
                        "verdict": verdict.value,
                        "backoff_s": round(delay, 4),
                    }
                )
                await asyncio.sleep(delay)
                if job.cancel_requested:
                    self._finish_cancel(job)
                    return
                continue
            payload["attempts"] = attempt
            self._finish_done(job, payload)
            return

    async def _execute_attempt(
        self, job: Job, attempt: int, retry
    ) -> tuple[str, dict]:
        """One forked attempt → ("result"|"crash"|"timeout"|"cancelled",
        payload)."""
        scale = retry.scale(attempt)
        config = job_config(job.spec, self.config.verifier, scale)
        fault_plan = self._fault_plan_for(job, attempt)
        if fault_plan is not None and fault_plan.active:
            self.stats.faults_injected += 1
        timeout = job.spec.get("timeout", self.config.member_timeout)
        worker = pool.Worker(
            partial(build_job, job.spec),
            config,
            attempt=attempt,
            name=f"repro-serve-{job.id}-a{attempt}",
            scale=scale,
            fault_plan=fault_plan,
            degrade_after=None,
            heartbeat=True,
        )
        started = worker.started
        deadline = started + timeout * scale if timeout is not None else None
        try:
            while True:
                if job.cancel_requested:
                    return "cancelled", {}
                for kind, message in worker.events():
                    if kind == "hb":
                        self.stats.heartbeats += 1
                        job.progress = message
                        job.publish(
                            {"event": "progress", "id": job.id, **message}
                        )
                    elif kind == "result":
                        message.attempts = attempt
                        return "result", result_payload(message)
                    else:  # "crash" | "died"
                        return "crash", self._synthetic_payload(
                            job,
                            Verdict.ERROR,
                            message,
                            elapsed=self._now() - started,
                        )
                now = self._now()
                if deadline is not None and now > deadline:
                    return "timeout", self._synthetic_payload(
                        job,
                        Verdict.TIMEOUT,
                        f"watchdog: killed after {now - started:.1f}s "
                        f"(attempt {attempt})",
                        elapsed=now - started,
                    )
                await asyncio.sleep(pool.POLL_INTERVAL)
        finally:
            worker.kill()

    def _synthetic_payload(
        self,
        job: Job,
        verdict: Verdict,
        reason: str,
        *,
        elapsed: float = 0.0,
    ) -> dict:
        return {
            "program": job.spec.get("name", job.id),
            "verdict": verdict.value,
            "order": job.spec.get("order", "seq"),
            "mode": self.config.verifier.mode,
            "rounds": 0,
            "proof_size": 0,
            "num_predicates": 0,
            "states": 0,
            "time_s": round(elapsed, 6),
            "attempts": job.attempts,
            "counterexample": None,
            "failure_reason": reason,
        }

    def _attach_service_counters(self, payload: dict) -> None:
        """Fold the fleet counters into the result's query_stats so they
        ride the existing QueryStats CSV/JSON/--show-cache-stats paths."""
        qs = payload.setdefault("query_stats", {})
        qs["service_jobs"] = self.stats.completed
        qs["service_retries"] = self.stats.retries
        qs["service_shed"] = self.stats.shed
        qs["service_breaker_trips"] = self.breaker.trips

    def _finish_done(self, job: Job, payload: dict) -> None:
        job.state = JobState.DONE
        job.finished_at = self._now()
        payload["queue_seconds"] = round(
            (job.started_at or job.finished_at) - job.accepted_at, 6
        )
        payload["service_seconds"] = round(
            job.finished_at - job.accepted_at, 6
        )
        self.stats.completed += 1
        self.stats.count_verdict(payload["verdict"])
        self._attach_service_counters(payload)
        job.result = payload
        self.journal.done(job.id, payload)
        self._budget(job.tenant).release(job.cost)
        job.publish({"event": "done", "id": job.id, "result": payload})
        job.finished.set()

    def _finish_cancel(self, job: Job) -> None:
        job.state = JobState.CANCELLED
        job.finished_at = self._now()
        self.stats.cancelled += 1
        self.journal.cancel(job.id)
        self._budget(job.tenant).release(job.cost)
        job.publish({"event": "cancelled", "id": job.id})
        job.finished.set()

    # -- the front door ------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                try:
                    request = protocol.decode(line)
                    op = request.get("op")
                    if op not in protocol.OPS:
                        raise protocol.ProtocolError(f"unknown op {op!r}")
                    await getattr(self, f"_op_{op}")(request, writer)
                except protocol.ProtocolError as exc:
                    writer.write(
                        protocol.encode(
                            protocol.error_reply("protocol", str(exc))
                        )
                    )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-reply; jobs are unaffected
        except asyncio.CancelledError:
            pass  # event-loop shutdown during drain; nothing to flush
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _op_submit(self, request: dict, writer) -> None:
        raw_jobs = request.get("jobs")
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise protocol.ProtocolError("'jobs' must be a non-empty list")
        entries = []
        admitted = []
        for raw in raw_jobs:
            job, entry = self._admit(raw, backlog_extra=len(admitted))
            entries.append(entry)
            if job is not None:
                admitted.append(job)
        # the accept records are already fsynced one by one; enqueue
        # only after the whole batch is journaled so a crash mid-batch
        # can never run a job whose ack was not sent
        for job in admitted:
            await self.queue.put(job)
        writer.write(
            protocol.encode(
                {
                    "ok": True,
                    "accepted": len(admitted),
                    "shed": len(raw_jobs) - len(admitted),
                    "jobs": entries,
                }
            )
        )

    def _job_view(self, job: Job) -> dict:
        view = {
            "id": job.id,
            "state": job.state.value,
            "tenant": job.tenant,
            "family": job.family,
            "attempts": job.attempts,
        }
        if job.progress:
            view["progress"] = job.progress
        if job.result is not None:
            view["result"] = job.result
        return view

    async def _op_status(self, request: dict, writer) -> None:
        job_id = request.get("id")
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is None:
                writer.write(
                    protocol.encode(
                        protocol.error_reply("unknown_job", job_id)
                    )
                )
                return
            writer.write(
                protocol.encode({"ok": True, "job": self._job_view(job)})
            )
            return
        by_state: dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state.value] = by_state.get(job.state.value, 0) + 1
        writer.write(
            protocol.encode(
                {
                    "ok": True,
                    "jobs": len(self.jobs),
                    "by_state": by_state,
                    "queue_depth": self.queue.depth,
                    "running": len(self._running),
                }
            )
        )

    async def _op_wait(self, request: dict, writer) -> None:
        job_id = request.get("id")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            writer.write(
                protocol.encode(protocol.error_reply("unknown_job", job_id))
            )
            return
        timeout = request.get("timeout")
        if request.get("stream") and not job.finished.is_set():
            events: asyncio.Queue = asyncio.Queue(maxsize=256)
            job.subscribers.append(events)
            try:
                deadline = (
                    self._now() + float(timeout) if timeout else None
                )
                while not job.finished.is_set():
                    remaining = (
                        deadline - self._now() if deadline is not None else 1.0
                    )
                    if deadline is not None and remaining <= 0:
                        break
                    try:
                        event = await asyncio.wait_for(
                            events.get(), timeout=min(remaining, 1.0)
                        )
                    except asyncio.TimeoutError:
                        continue
                    writer.write(protocol.encode(event))
                    await writer.drain()
            finally:
                with contextlib.suppress(ValueError):
                    job.subscribers.remove(events)
        else:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    job.finished.wait(),
                    timeout=float(timeout) if timeout else None,
                )
        if job.finished.is_set():
            writer.write(
                protocol.encode({"ok": True, "job": self._job_view(job)})
            )
        else:
            writer.write(
                protocol.encode(
                    protocol.error_reply(
                        "timeout", f"job {job.id} still {job.state.value}"
                    )
                )
            )

    async def _op_cancel(self, request: dict, writer) -> None:
        job_id = request.get("id")
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            writer.write(
                protocol.encode(protocol.error_reply("unknown_job", job_id))
            )
            return
        if job.state.terminal:
            writer.write(
                protocol.encode(
                    {"ok": True, "id": job.id, "state": job.state.value}
                )
            )
            return
        job.cancel_requested = True
        if job.state is JobState.QUEUED and await self.queue.remove(job):
            self._finish_cancel(job)
        # a RUNNING job is killed by its scheduler task at the next poll
        writer.write(
            protocol.encode({"ok": True, "id": job.id, "cancelling": True})
        )

    async def _op_health(self, request: dict, writer) -> None:
        now = self._now()
        writer.write(
            protocol.encode(
                {
                    "ok": True,
                    "uptime_s": round(now - self._started_at, 3),
                    "draining": self._draining,
                    "paused": self._paused,
                    "workers": self.config.workers,
                    "running": len(self._running),
                    "queue_depth": self.queue.depth,
                    "jobs": len(self.jobs),
                    "open_breakers": self.breaker.open_keys(now),
                    "heartbeats": self.stats.heartbeats,
                }
            )
        )

    async def _op_stats(self, request: dict, writer) -> None:
        counters = self.stats.counters()
        counters["breaker_trips"] = self.breaker.trips
        counters["queue_depth"] = self.queue.depth
        counters["journal_appends"] = self.journal.appended
        writer.write(protocol.encode({"ok": True, "stats": counters}))

    async def _op_pause(self, request: dict, writer) -> None:
        self._paused = True
        writer.write(protocol.encode({"ok": True, "paused": True}))

    async def _op_resume(self, request: dict, writer) -> None:
        self._paused = False
        self.queue.kick()
        writer.write(protocol.encode({"ok": True, "paused": False}))

    async def _op_drain(self, request: dict, writer) -> None:
        writer.write(protocol.encode({"ok": True, "draining": True}))
        await writer.drain()
        asyncio.ensure_future(self.drain("drain op"))


async def serve(config: ServiceConfig) -> None:
    """Run a service until it drains (the ``repro serve`` entry point)."""
    service = VerificationService(config)
    await service.start()
    await service.wait_closed()


def serve_main(config: ServiceConfig) -> int:
    """Blocking wrapper with sane logging for the CLI."""
    logging.basicConfig(
        level=os.environ.get("REPRO_LOG_LEVEL", "INFO"),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    asyncio.run(serve(config))
    return 0
