"""The in-memory job table and weighted-fair work queue.

:class:`Job` is the server-side lifecycle record (the journal holds its
durable spec; this holds the live state machine).  :class:`FairQueue`
is the scheduler's dequeue discipline: start-time weighted fair queuing
across tenants — each tenant has a virtual-time account advanced by
``cost / weight`` per served job, and the dequeuer always serves the
eligible tenant with the smallest account.  A tenant submitting a
thousand jobs cannot starve one submitting two: under contention each
tenant's service rate converges to its weight share.

The queue is asyncio-native (one event loop) — no locks, just an
``asyncio.Condition`` for the worker-side ``get``.
"""

from __future__ import annotations

import asyncio
import enum
from collections import deque
from dataclasses import dataclass, field


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.CANCELLED)


@dataclass
class Job:
    """One accepted verification job, cradle to grave."""

    id: str
    spec: dict
    seq: int
    state: JobState = JobState.QUEUED
    attempts: int = 0
    #: perf_counter timestamps (server process local)
    accepted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: JSON result payload once DONE
    result: dict | None = None
    #: latest progress heartbeat payload from the worker
    progress: dict = field(default_factory=dict)
    #: set when a terminal state is reached (waiters release on it)
    finished: asyncio.Event = field(default_factory=asyncio.Event)
    #: live progress subscribers (wait --stream): per-subscriber queues
    subscribers: list[asyncio.Queue] = field(default_factory=list)
    #: earliest monotonic time the scheduler may start the next attempt
    #: (retry backoff; breaker deferral)
    not_before: float = 0.0
    #: a client asked for cancellation; the scheduler honors it at its
    #: next poll (queued jobs are removed immediately instead)
    cancel_requested: bool = False

    @property
    def tenant(self) -> str:
        return self.spec.get("tenant", "default")

    @property
    def family(self) -> str:
        return self.spec.get("family", self.tenant)

    @property
    def cost(self) -> int:
        return int(self.spec.get("cost", 1))

    @property
    def breaker_key(self) -> str:
        return f"{self.tenant}/{self.family}"

    def publish(self, event: dict) -> None:
        """Fan an event out to live subscribers (drop-on-full)."""
        for queue in list(self.subscribers):
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:  # slow consumer: drop, don't stall
                pass


class FairQueue:
    """Start-time weighted fair queuing over per-tenant FIFOs."""

    def __init__(self) -> None:
        self._queues: dict[str, deque[Job]] = {}
        self._virtual: dict[str, float] = {}
        self._weights: dict[str, float] = {}
        self._cond = asyncio.Condition()
        self._depth = 0

    def set_weight(self, tenant: str, weight: float) -> None:
        self._weights[tenant] = max(weight, 1e-6)

    def _weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    @property
    def depth(self) -> int:
        return self._depth

    async def put(self, job: Job) -> None:
        async with self._cond:
            queue = self._queues.setdefault(job.tenant, deque())
            if not queue:
                # a tenant re-entering after idling must not get a huge
                # catch-up burst from a stale (small) virtual account:
                # advance it to the current floor
                floor = min(
                    (
                        self._virtual.get(t, 0.0)
                        for t, q in self._queues.items()
                        if q
                    ),
                    default=0.0,
                )
                self._virtual[job.tenant] = max(
                    self._virtual.get(job.tenant, 0.0), floor
                )
            queue.append(job)
            self._depth += 1
            self._cond.notify()

    def _pick_tenant(self, now: float) -> str | None:
        best: str | None = None
        best_tag = 0.0
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            if queue[0].not_before > now:
                continue
            tag = self._virtual.get(tenant, 0.0)
            if best is None or tag < best_tag:
                best, best_tag = tenant, tag
        return best

    async def get(self, now_fn) -> Job:
        """Dequeue the next job by fair share.

        *now_fn* supplies the monotonic clock (jobs under retry backoff
        or breaker deferral carry a ``not_before`` gate).  Waits until
        an eligible job exists.
        """
        async with self._cond:
            while True:
                now = now_fn()
                tenant = self._pick_tenant(now)
                if tenant is not None:
                    queue = self._queues[tenant]
                    job = queue.popleft()
                    self._depth -= 1
                    self._virtual[tenant] = self._virtual.get(
                        tenant, 0.0
                    ) + job.cost / self._weight(tenant)
                    return job
                # nothing eligible: wake on the next gate expiry or on put
                gates = [
                    q[0].not_before
                    for q in self._queues.values()
                    if q and q[0].not_before > now
                ]
                timeout = min(gates) - now if gates else None
                try:
                    await asyncio.wait_for(
                        self._cond.wait(),
                        timeout=max(timeout, 0.01) if timeout else None,
                    )
                except asyncio.TimeoutError:
                    # re-acquire happens inside wait_for; loop re-checks
                    pass

    async def put_front(self, job: Job) -> None:
        """Return a dequeued job to the head of its tenant's FIFO,
        refunding the virtual-time charge (the pause/drain path: the
        job never ran, so it must not count against the tenant's
        share or lose its place)."""
        async with self._cond:
            self._queues.setdefault(job.tenant, deque()).appendleft(job)
            self._depth += 1
            self._virtual[job.tenant] = self._virtual.get(
                job.tenant, 0.0
            ) - job.cost / self._weight(job.tenant)
            self._cond.notify()

    async def remove(self, job: Job) -> bool:
        """Drop a queued job (cancellation); False if it was not queued."""
        async with self._cond:
            queue = self._queues.get(job.tenant)
            if queue is None:
                return False
            try:
                queue.remove(job)
            except ValueError:
                return False
            self._depth -= 1
            return True

    def kick(self) -> None:
        """Wake the dequeue loop (e.g. a pause was lifted)."""
        async def _notify():
            async with self._cond:
                self._cond.notify_all()

        asyncio.ensure_future(_notify())
