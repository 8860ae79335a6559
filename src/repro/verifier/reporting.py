"""Result reporting: CSV/JSON export and proof pretty-printing."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Sequence

from ..lang.program import ConcurrentProgram
from ..lang.statements import Statement
from ..logic import Term
from .stats import VerificationResult

_CSV_FIELDS = (
    "program",
    "verdict",
    "order",
    "mode",
    "engine",
    "rounds",
    "proof_size",
    "num_predicates",
    "states_explored",
    "time_seconds",
    "peak_memory_bytes",
    "solver_queries",
    "solver_decisions",
    "solver_hit_rate",
    "comm_queries",
    "comm_hit_rate",
    "edge_sort_hit_rate",
    "engine_deadline_ticks",
    "useless_cache_hits",
    "fh_step_delta_hits",
    "warm_start_reused",
    "warm_start_dirty",
    "fastpath_rounds",
    "fastpath_step_hits",
    "fastpath_commute_mask_hits",
    "intern_hit_rate",
    "substitute_hit_rate",
    "reintern_count",
    "store_hits",
    "store_hit_rate",
    "store_writes",
    "service_jobs",
    "service_retries",
    "service_shed",
    "service_breaker_trips",
    "delta_threads_unchanged",
    "delta_threads_edited",
    "delta_hoare_reused",
    "delta_comm_reused",
    "delta_fact_reuse_rate",
    "triage_ranker_hits",
    "triage_ladder_stages",
    "triage_preemptions",
    "triage_budget_saved_seconds",
    "failure_reason",
    "attempts",
    "respawns",
    "degraded",
)


def results_to_csv(results: Iterable[VerificationResult]) -> str:
    """Render results as CSV text (one row per run)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    for r in results:
        qs = r.query_stats
        writer.writerow(
            {
                "program": r.program_name,
                "verdict": r.verdict.value,
                "order": r.order_name,
                "mode": r.mode,
                "engine": r.engine,
                "rounds": r.rounds,
                "proof_size": r.proof_size,
                "num_predicates": r.num_predicates,
                "states_explored": r.states_explored,
                "time_seconds": f"{r.time_seconds:.4f}",
                "peak_memory_bytes": r.peak_memory_bytes,
                "solver_queries": qs.solver_sat_queries if qs else "",
                "solver_decisions": qs.solver_decisions if qs else "",
                "solver_hit_rate": f"{qs.solver_hit_rate:.4f}" if qs else "",
                "comm_queries": qs.comm_queries if qs else "",
                "comm_hit_rate": (
                    f"{qs.commutativity_hit_rate:.4f}" if qs else ""
                ),
                "edge_sort_hit_rate": (
                    f"{qs.edge_sort_hit_rate:.4f}" if qs else ""
                ),
                "engine_deadline_ticks": qs.engine_deadline_ticks if qs else "",
                "useless_cache_hits": qs.useless_cache_hits if qs else "",
                "fh_step_delta_hits": qs.fh_step_delta_hits if qs else "",
                "warm_start_reused": qs.warm_start_reused if qs else "",
                "warm_start_dirty": qs.warm_start_dirty if qs else "",
                "fastpath_rounds": qs.fastpath_rounds if qs else "",
                "fastpath_step_hits": qs.fastpath_step_hits if qs else "",
                "fastpath_commute_mask_hits": (
                    qs.fastpath_commute_mask_hits if qs else ""
                ),
                "intern_hit_rate": f"{qs.intern_hit_rate:.4f}" if qs else "",
                "substitute_hit_rate": (
                    f"{qs.substitute_hit_rate:.4f}" if qs else ""
                ),
                "reintern_count": qs.reintern_count if qs else "",
                "store_hits": qs.store_hits if qs else "",
                "store_hit_rate": f"{qs.store_hit_rate:.4f}" if qs else "",
                "store_writes": qs.store_writes if qs else "",
                "service_jobs": qs.service_jobs if qs else "",
                "service_retries": qs.service_retries if qs else "",
                "service_shed": qs.service_shed if qs else "",
                "service_breaker_trips": (
                    qs.service_breaker_trips if qs else ""
                ),
                "delta_threads_unchanged": (
                    qs.delta_threads_unchanged if qs else ""
                ),
                "delta_threads_edited": qs.delta_threads_edited if qs else "",
                "delta_hoare_reused": qs.delta_hoare_reused if qs else "",
                "delta_comm_reused": qs.delta_comm_reused if qs else "",
                "delta_fact_reuse_rate": (
                    f"{qs.delta_fact_reuse_rate:.4f}" if qs else ""
                ),
                "triage_ranker_hits": qs.triage_ranker_hits if qs else "",
                "triage_ladder_stages": (
                    qs.triage_ladder_stages if qs else ""
                ),
                "triage_preemptions": qs.triage_preemptions if qs else "",
                "triage_budget_saved_seconds": (
                    f"{qs.triage_budget_saved_seconds:.4f}" if qs else ""
                ),
                "failure_reason": r.failure_reason or "",
                "attempts": r.attempts,
                "respawns": r.respawns,
                "degraded": int(r.degraded),
            }
        )
    return buffer.getvalue()


def write_csv(results: Iterable[VerificationResult], path: str | Path) -> None:
    from ..harness import atomic_write_text

    atomic_write_text(Path(path), results_to_csv(results))


def results_to_json(results: Iterable[VerificationResult]) -> str:
    payload = []
    for r in results:
        payload.append(
            {
                "program": r.program_name,
                "verdict": r.verdict.value,
                "order": r.order_name,
                "mode": r.mode,
                "engine": r.engine,
                "rounds": r.rounds,
                "proof_size": r.proof_size,
                "num_predicates": r.num_predicates,
                "states_explored": r.states_explored,
                "time_seconds": r.time_seconds,
                "peak_memory_bytes": r.peak_memory_bytes,
                "counterexample": (
                    [s.label for s in r.counterexample]
                    if r.counterexample is not None
                    else None
                ),
                "predicates": [repr(p) for p in r.predicates],
                "query_stats": (
                    r.query_stats.as_dict() if r.query_stats is not None else None
                ),
                "failure_reason": r.failure_reason,
                "attempts": r.attempts,
                "respawns": r.respawns,
                "degraded": r.degraded,
            }
        )
    return json.dumps(payload, indent=2)


def render_counterexample(
    program: ConcurrentProgram, trace: Sequence[Statement]
) -> str:
    """A human-readable schedule for a counterexample trace.

    One line per step: the acting thread, the statement, and the
    per-thread control locations after the step.
    """
    lines = ["step  thread        statement"]
    state = program.initial_state()
    for i, statement in enumerate(trace, start=1):
        state = program.step(state, statement)
        thread = program.threads[statement.thread]
        locs = ",".join(str(l) for l in state)
        lines.append(
            f"{i:>4d}  {thread.name:12s}  {statement.label:30s}  @({locs})"
        )
    return "\n".join(lines)


def render_annotation(
    trace: Sequence[Statement], annotation: Sequence[Term]
) -> str:
    """A Floyd/Hoare-style rendering {I0} a1 {I1} a2 ... {In}."""
    if len(annotation) != len(trace) + 1:
        raise ValueError("annotation must have one assertion per location")
    lines = [f"{{ {annotation[0]!r} }}"]
    for statement, assertion in zip(trace, annotation[1:]):
        lines.append(f"    {statement.label}")
        lines.append(f"{{ {assertion!r} }}")
    return "\n".join(lines)
