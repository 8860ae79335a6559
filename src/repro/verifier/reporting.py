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
from .stats import CSV_ALIASES, CSV_COLUMNS, VerificationResult

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
    *CSV_COLUMNS,
    "failure_reason",
)


def _record(r: VerificationResult) -> dict:
    """One result as a JSON export row (the CSV reads its columns too)."""
    return {
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
    }


def _cell(value):
    """CSV text of a value: floats to 4 places, bools 0/1, None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.4f}"
    return value


def results_to_csv(results: Iterable[VerificationResult]) -> str:
    """Render results as CSV text (one row per run)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    for r in results:
        row, qs = _record(r), r.query_stats
        for column in CSV_COLUMNS:
            row[column] = (
                getattr(qs, CSV_ALIASES.get(column, column))
                if qs is not None
                else None
            )
        writer.writerow({column: _cell(row[column]) for column in _CSV_FIELDS})
    return buffer.getvalue()


def write_csv(results: Iterable[VerificationResult], path: str | Path) -> None:
    from ..harness import atomic_write_text

    atomic_write_text(Path(path), results_to_csv(results))


def results_to_json(results: Iterable[VerificationResult]) -> str:
    return json.dumps([_record(r) for r in results], indent=2)


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
