"""What a service job attempt runs, and how its result looks on the wire.

Each job attempt runs in a forked worker of :mod:`repro.verifier.pool`
(the crash-containment boundary shared with the parallel portfolio;
the message protocol is documented there).  This module holds the
service's side of it: :func:`build_job` turns a job spec into the
``(program, order)`` the worker verifies, :func:`job_config` applies
the spec's overrides and the retry scale to the server's base config,
:func:`result_payload` is the JSON shape a result takes on the wire,
and :func:`job_fingerprint` is the bit-identity core the chaos harness
compares against direct ``verify()`` runs.
"""

from __future__ import annotations

from ..core.preference import (
    LockstepOrder,
    PreferenceOrder,
    RandomOrder,
    ThreadUniformOrder,
)
from ..lang import parse
from ..lang.program import ConcurrentProgram
from ..verifier.refinement import VerifierConfig
from ..verifier.stats import VerificationResult


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
    config = replace(base, **overrides) if overrides else base
    if config.time_budget is not None and scale != 1.0:
        config = replace(config, time_budget=config.time_budget * scale)
    return config


def build_job(spec: dict) -> tuple[ConcurrentProgram, PreferenceOrder]:
    """The pool job of a spec: its program and preference order (run
    in the worker, so a spec that fails to build is a contained crash)."""
    program = build_program(spec)
    return program, make_order(spec.get("order", "seq"), program)


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
