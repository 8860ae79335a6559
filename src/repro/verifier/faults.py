"""Deterministic fault injection for the portfolio runtime.

A :class:`FaultPlan` describes, reproducibly, *what goes wrong*: solver
give-ups (``SolverUnknown``), artificial per-query delays, one-shot
hangs, simulated memory pressure (``MemoryError``), worker crashes
(:class:`InjectedCrash`), and hard process exits (``os._exit``, which no
``except`` can contain — the parent's crash containment must catch it).
Plans are seeded: the same spec string yields the identical fault
schedule on every run, which is what makes the robustness test suite
deterministic.

Spec grammar (``REPRO_FAULTS`` env var / ``--inject-faults`` CLI flag)::

    clause (";" clause)*
    clause   ::= [member ":"] key "=" value
    member   ::= a preference-order name ("seq", "lockstep", "rand(1)",
                 ...) or "*" for every member

Keys: ``seed`` (int), ``p_unknown`` (probability of an injected
``SolverUnknown`` per sat query), ``delay_ms`` (sleep before every sat
query), ``unknown_at`` (``|``-separated explicit query indices),
``crash_at`` / ``oom_at`` / ``exit_at`` / ``hang_at`` (query index for
the one-shot fault), ``hang_s`` (duration of the ``hang_at`` sleep).

Example — crash the ``seq`` member immediately, hang ``lockstep``, and
make every member's solver flaky::

    REPRO_FAULTS="seed=7;p_unknown=0.05;seq:crash_at=0;lockstep:hang_at=0;lockstep:hang_s=60"

Injection happens at the top of ``Solver.is_sat`` via the solver's
``fault_injector`` hook, *before* any cache lookup, so the schedule is a
pure function of the sat-query index.  Injected ``SolverUnknown``\\ s take
the same code paths as genuine budget give-ups: commutativity soundly
answers "does not commute" and refinement degrades to UNKNOWN — a
verdict can be *lost* to UNKNOWN/TIMEOUT/ERROR but never flipped between
CORRECT and INCORRECT (covered by the differential fault tests).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field

from ..logic import SolverUnknown

ENV_VAR = "REPRO_FAULTS"

#: exit status used by ``exit_at`` hard kills; distinctive enough to
#: recognise in the parent's "worker died" failure reason
HARD_EXIT_CODE = 86


class FaultSpecError(ValueError):
    """A fault spec string could not be parsed."""


class InjectedCrash(RuntimeError):
    """A deliberately injected worker crash (``crash_at``)."""


_FLOAT_KEYS = frozenset({"p_unknown", "delay_ms", "hang_s"})
_INT_KEYS = frozenset({"seed", "crash_at", "oom_at", "exit_at", "hang_at"})
_LIST_KEYS = frozenset({"unknown_at"})
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS


@dataclass(frozen=True)
class MemberFaultPlan:
    """The resolved fault schedule of one portfolio member.

    All one-shot indices refer to the member's 0-based sat-query
    counter.  The plan is immutable and picklable, so the runtime can
    ship it into a worker process.
    """

    member: str = "*"
    seed: int = 0
    p_unknown: float = 0.0
    delay_ms: float = 0.0
    unknown_at: tuple[int, ...] = ()
    crash_at: int | None = None
    oom_at: int | None = None
    exit_at: int | None = None
    hang_at: int | None = None
    hang_s: float = 60.0

    @property
    def active(self) -> bool:
        return bool(
            self.p_unknown
            or self.delay_ms
            or self.unknown_at
            or self.crash_at is not None
            or self.oom_at is not None
            or self.exit_at is not None
            or self.hang_at is not None
        )

    def schedule(self, n: int) -> list[str]:
        """The first *n* query events, as labels (test/debug preview).

        This replays exactly the decision sequence a fresh
        :class:`FaultInjector` would take, so two previews (or a preview
        and a live run) of the same plan always agree.
        """
        injector = FaultInjector(self, dry_run=True)
        return [injector.step() for _ in range(n)]


class FaultInjector:
    """Stateful executor of a :class:`MemberFaultPlan`.

    Attach to a solver (``solver.fault_injector = injector``); the
    solver calls :meth:`before_query` once per sat-level query.  The
    pseudo-random component is seeded from the plan, so the injected
    schedule is a deterministic function of the query index.
    """

    def __init__(self, plan: MemberFaultPlan, *, dry_run: bool = False) -> None:
        import random

        self.plan = plan
        self.query_index = 0
        self.injected_unknowns = 0
        self.injected_delays = 0
        self._dry_run = dry_run
        self._rng = random.Random(derive_seed(plan.seed, plan.member))

    def step(self) -> str:
        """Advance one query; returns the event label ("ok", "unknown",
        "delay", "crash", "oom", "exit", "hang")."""
        plan = self.plan
        i = self.query_index
        self.query_index += 1
        # one-shot faults take precedence over the probabilistic layer
        event = "ok"
        if plan.exit_at is not None and i == plan.exit_at:
            event = "exit"
        elif plan.crash_at is not None and i == plan.crash_at:
            event = "crash"
        elif plan.oom_at is not None and i == plan.oom_at:
            event = "oom"
        elif plan.hang_at is not None and i == plan.hang_at:
            event = "hang"
        elif i in plan.unknown_at:
            event = "unknown"
        elif plan.p_unknown and self._rng.random() < plan.p_unknown:
            event = "unknown"
        if event == "ok" and plan.delay_ms:
            event = "delay"
        return event

    def before_query(self) -> None:
        """The solver-side hook: act out the next scheduled event."""
        event = self.step()
        if event == "ok":
            return
        if event == "delay":
            self.injected_delays += 1
            time.sleep(self.plan.delay_ms / 1000.0)
            return
        if event == "hang":
            self.injected_delays += 1
            time.sleep(self.plan.hang_s)
            return
        if event == "unknown":
            self.injected_unknowns += 1
            raise SolverUnknown(
                f"injected fault (member {self.plan.member!r}, "
                f"query {self.query_index - 1})"
            )
        if event == "oom":
            raise MemoryError(
                f"injected memory pressure (member {self.plan.member!r})"
            )
        if event == "crash":
            raise InjectedCrash(
                f"injected crash (member {self.plan.member!r}, "
                f"query {self.query_index - 1})"
            )
        if event == "exit":  # pragma: no cover - kills the process
            os._exit(HARD_EXIT_CODE)
        raise AssertionError(f"unknown fault event {event!r}")


def derive_seed(seed: int, member: str) -> int:
    """A stable per-member sub-seed (``hash()`` is salted per process,
    so it must not be used here)."""
    return zlib.crc32(f"{seed}:{member}".encode()) ^ seed


@dataclass
class FaultPlan:
    """A parsed fault spec: global defaults plus per-member overrides."""

    seed: int = 0
    defaults: dict = field(default_factory=dict)
    members: dict = field(default_factory=dict)
    source: str = ""

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        plan = cls(source=spec)
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise FaultSpecError(f"clause {clause!r} is not key=value")
            head, _, value = clause.partition("=")
            member = None
            key = head.strip()
            if ":" in key:
                member, _, key = key.rpartition(":")
                member = member.strip()
                key = key.strip()
            if key not in _ALL_KEYS:
                raise FaultSpecError(
                    f"unknown fault key {key!r} (known: {sorted(_ALL_KEYS)})"
                )
            try:
                if key in _FLOAT_KEYS:
                    parsed = float(value)
                elif key in _INT_KEYS:
                    parsed = int(value)
                else:
                    parsed = tuple(int(v) for v in value.split("|") if v)
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value {value!r} for {key!r}"
                ) from exc
            if key == "seed":
                plan.seed = parsed
            elif member is None or member == "*":
                plan.defaults[key] = parsed
            else:
                plan.members.setdefault(member, {})[key] = parsed
        return plan

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        spec = (environ if environ is not None else os.environ).get(ENV_VAR)
        if not spec:
            return None
        return cls.parse(spec)

    def member_plan(self, member: str) -> MemberFaultPlan:
        fields_ = dict(self.defaults)
        fields_.update(self.members.get(member, {}))
        return MemberFaultPlan(member=member, seed=self.seed, **fields_)

    def injector_for(self, member: str) -> FaultInjector | None:
        plan = self.member_plan(member)
        return FaultInjector(plan) if plan.active else None


def attach_env_faults(solver, member: str) -> FaultInjector | None:
    """Wire ``REPRO_FAULTS`` onto *solver* unless one is already attached.

    Called from ``verify()`` so fault injection reaches every entry point
    (CLI, harness, benchmarks) without each caller knowing about it; a
    portfolio member given an explicit plan already carries its
    injector, which this respects.
    """
    if getattr(solver, "fault_injector", None) is not None:
        return solver.fault_injector
    plan = FaultPlan.from_env()
    if plan is None:
        return None
    injector = plan.injector_for(member)
    if injector is not None:
        solver.fault_injector = injector
    return injector
