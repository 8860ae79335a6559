"""The service's isolated job worker (child-process side).

One job attempt = one forked process running ``verify()`` — the PR 2
crash-containment boundary, reused: an OOM, a recursion blowup, an
injected ``os._exit`` or a watchdog SIGKILL costs one attempt, never
the server.  The child talks to the scheduler over a one-way pipe:

* ``("hb", {...})`` — heartbeat/progress, every ``hb_interval``
  seconds from a daemon thread (elapsed wall clock, the process-wide
  solver query count, and the triage progress counters —
  refinement rounds + states explored), streamed on to
  ``wait --stream`` subscribers;
* ``("result", VerificationResult)`` — the verdict (pickled; terms
  re-intern in the parent via the PR 4 ``__reduce__`` hook);
* ``("crash", reason)`` — a contained Python-level failure.

``result_payload``/``job_fingerprint`` live here too: the JSON shape a
result takes on the wire, and the bit-identity fingerprint the chaos
harness compares against direct ``verify()`` runs.
"""

from __future__ import annotations

import os
import threading
import time

from ..core.commutativity import ConditionalCommutativity
from ..core.preference import (
    LockstepOrder,
    PreferenceOrder,
    RandomOrder,
    ThreadUniformOrder,
)
from ..lang import parse
from ..lang.program import ConcurrentProgram
from ..logic import Solver
from ..verifier.faults import ENV_VAR, FaultInjector, MemberFaultPlan
from ..verifier.refinement import VerifierConfig, verify
from ..verifier.runtime import BASE_BRANCH_BUDGET, BASE_NODE_BUDGET
from ..verifier.stats import VerificationResult
from ..verifier.triage import attach_progress_meter, progress_payload

#: heartbeat cadence of the worker-side progress thread
DEFAULT_HB_INTERVAL = 0.25


def build_program(spec: dict) -> ConcurrentProgram:
    """Materialize the job's program: inline source or registry name."""
    if spec.get("source") is not None:
        return parse(spec["source"], name=spec.get("name", "<submitted>"))
    from ..benchmarks import by_name

    return by_name(spec["bench"]).build()


def make_order(spec: str, program: ConcurrentProgram) -> PreferenceOrder:
    if spec == "seq":
        return ThreadUniformOrder()
    if spec == "lockstep":
        return LockstepOrder(len(program.threads))
    if spec.startswith("rand:"):
        return RandomOrder(program.alphabet(), int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown order {spec!r}")


def job_config(spec: dict, base: VerifierConfig, scale: float) -> VerifierConfig:
    """The per-attempt VerifierConfig: job overrides on the server base,
    with the retry policy's budget escalation applied."""
    from dataclasses import replace

    overrides: dict = {}
    if spec.get("mode"):
        overrides["mode"] = spec["mode"]
    if spec.get("search"):
        overrides["search"] = spec["search"]
    if spec.get("max_rounds"):
        overrides["max_rounds"] = spec["max_rounds"]
    if spec.get("baseline_digest"):
        overrides["baseline_digest"] = spec["baseline_digest"]
    if spec.get("triage") is not None:
        overrides["triage"] = bool(spec["triage"])
    config = replace(base, **overrides) if overrides else base
    if config.time_budget is not None and scale != 1.0:
        config = replace(config, time_budget=config.time_budget * scale)
    return config


def run_job_in_child(
    conn,
    spec: dict,
    config: VerifierConfig,
    scale: float,
    fault_plan: MemberFaultPlan | None,
    hb_interval: float = DEFAULT_HB_INTERVAL,
) -> None:
    """Child-process entry point: run one job attempt, contained."""
    # the parent resolved fault plans; the env var must not re-attach a
    # second injector inside verify()
    os.environ.pop(ENV_VAR, None)
    started = time.perf_counter()
    stop = threading.Event()

    def heartbeat(solver: Solver, meter) -> None:
        while not stop.wait(hb_interval):
            try:
                conn.send(
                    (
                        "hb",
                        progress_payload(
                            time.perf_counter() - started, solver, meter
                        ),
                    )
                )
            except Exception:  # pipe gone: parent killed us or moved on
                return

    try:
        program = build_program(spec)
        order = make_order(spec.get("order", "seq"), program)
        solver = Solver(
            branch_budget=int(BASE_BRANCH_BUDGET * scale),
            node_budget=int(BASE_NODE_BUDGET * scale),
        )
        if fault_plan is not None and fault_plan.active:
            solver.fault_injector = FaultInjector(fault_plan)
        meter = attach_progress_meter(solver)
        beat = threading.Thread(
            target=heartbeat, args=(solver, meter), daemon=True
        )
        beat.start()
        result = verify(
            program,
            order,
            ConditionalCommutativity(solver),
            config=config,
            solver=solver,
        )
        stop.set()
        conn.send(("result", result))
    except BaseException as exc:  # noqa: BLE001 - crash containment
        stop.set()
        try:
            conn.send(("crash", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


def result_payload(result: VerificationResult) -> dict:
    """The JSON shape of a result on the wire and in the journal."""
    payload = {
        "program": result.program_name,
        "verdict": result.verdict.value,
        "order": result.order_name,
        "mode": result.mode,
        "engine": result.engine,
        "rounds": result.rounds,
        "proof_size": result.proof_size,
        "num_predicates": result.num_predicates,
        "states": result.states_explored,
        "time_s": round(result.time_seconds, 6),
        "attempts": result.attempts,
        "counterexample": (
            [s.label for s in result.counterexample]
            if result.counterexample is not None
            else None
        ),
    }
    if result.failure_reason:
        payload["failure_reason"] = result.failure_reason
    if result.degraded:
        payload["degraded"] = True
    if result.query_stats is not None:
        payload["query_stats"] = result.query_stats.as_dict()
    return payload


def job_fingerprint(payload_or_result) -> dict:
    """The bit-identity core of a result: what must match a direct
    ``verify()`` run of the same spec, chaos or no chaos.

    Accepts either a wire payload dict or a
    :class:`VerificationResult` (which is converted first).  Time,
    attempt counts, and cache statistics are excluded — they legitimately
    differ between a loaded service and a quiet direct run.
    """
    if isinstance(payload_or_result, VerificationResult):
        payload_or_result = result_payload(payload_or_result)
    p = payload_or_result
    return {
        "program": p["program"],
        "verdict": p["verdict"],
        "order": p["order"],
        "rounds": p["rounds"],
        "proof_size": p["proof_size"],
        "num_predicates": p["num_predicates"],
        "states": p["states"],
        "counterexample": p["counterexample"],
    }
