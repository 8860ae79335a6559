"""One timed public-API call in a fresh process.

Spawned by ``run.py`` with the job as a JSON argument; prints one JSON
result line.  The timed region is the single call to
``repro.verifier.verify`` or ``verify_portfolio``.  Building the
program, checking the outputs and computing digests happen outside it.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: the reference loop: this many iterations, timed in this many pieces
#: before the call and as many after it (see summarize.REFERENCE_S)
REFERENCE_ITERATIONS = 150_000
REFERENCE_PIECES = 3


def reference_pieces() -> list[float]:
    """Seconds each piece of a fixed pure-Python loop takes, scaled to
    the whole loop: the CPU's speed right now.

    Shared machines change speed for seconds to minutes at a time; the
    summary scales each call's times by the median piece, which a burst
    hitting one short piece does not move.
    """
    out = []
    for _ in range(REFERENCE_PIECES):
        started = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS // REFERENCE_PIECES):
            total += i * i % 7
        out.append((time.perf_counter() - started) * REFERENCE_PIECES)
    return out


def _build(job):
    import importlib

    import repro.lang

    if job["kind"] == "edit":
        return repro.lang.parse(job["source"], name=job["name"])
    module_name, fn_name = job["gen"].rsplit(".", 1)
    module = importlib.import_module(f"repro.benchmarks.{module_name}")
    kwargs = {} if job["correct"] else {"correct": False}
    return getattr(module, fn_name)(*job["args"], **kwargs)


def _call(job, program):
    """Run the job's API call; returns (result, portfolio result or None)."""
    import repro.verifier as api

    if job["kind"] == "portfolio":
        race = api.verify_portfolio(
            program, api.VerifierConfig(time_budget=job["budget"])
        )
        return race.aggregate(), race
    if job["kind"] == "edit":
        config = api.VerifierConfig(
            store_path=job["store"], baseline_digest=job["baseline"]
        )
        return api.verify(program, config=config), None
    return api.verify(program), None


def check_outputs(program, verdict: str, counterexample, expected: str) -> list:
    """Problems with a result, judged against the expected answer.

    A counterexample must be a path of the product automaton that ends
    in a violation or an exit state, and feasible under a fresh solver.
    """
    from repro.logic import TRUE, Solver
    from repro.verifier.interpolate import trace_feasible

    problems = []
    if verdict in ("correct", "incorrect") and verdict != expected:
        problems.append(f"verdict {verdict}, expected {expected}")
    if verdict != "incorrect":
        return problems
    if not counterexample:
        return problems + ["INCORRECT without a counterexample"]
    state = program.initial_state()
    for statement in counterexample:
        state = program.step(state, statement)
        if state is None:
            return problems + ["counterexample leaves the product"]
    violation = program.is_violation(state)
    if not violation and not program.is_exit(state):
        return problems + ["counterexample ends in neither a violation nor an exit"]
    post = TRUE if violation else program.post
    if not trace_feasible(Solver(), program.pre, counterexample, post=post):
        problems.append("counterexample is infeasible")
    return problems


def main() -> None:
    job = json.loads(sys.argv[1])
    started = time.perf_counter()
    import repro  # noqa: F401  (the import being timed)
    import repro.benchmarks  # noqa: F401

    import_s = time.perf_counter() - started
    tracer = None
    if job.get("trace_file"):
        from spans import Tracer, self_times, spans_nest

        tracer = Tracer()
        tracer.install()
        setup_span = tracer.begin("setup")
    program = _build(job)
    if tracer is not None:
        tracer.end(setup_span)
    ready_at = time.perf_counter()
    reference = reference_pieces()
    if tracer is not None:
        call_span = tracer.begin("call")
    call_started = time.perf_counter()
    result, race = _call(job, program)
    wall_s = time.perf_counter() - call_started
    if tracer is not None:
        tracer.end(call_span)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference += reference_pieces()

    row = {
        "label": job["label"],
        "kind": job["kind"],
        "ready_at": ready_at,
        "import_s": import_s,
        "wall_s": wall_s,
        "reference_s": statistics.median(reference),
        "peak_rss_mb": peak_rss_mb,
        "verdict": result.verdict.value,
        "expected": job["expected"],
        "engine": result.engine,
        "problems": check_outputs(
            program, result.verdict.value, result.counterexample,
            job["expected"],
        ),
    }
    if race is not None:
        winner = race.winner
        row["signature"] = [
            race.triage_counters["ladder_stages"],
            [
                [m.order_name, m.verdict.value, m.time_seconds > 0]
                for m in race.members
            ],
        ]
        row["emulated_wall_s"] = race.emulated_wall_seconds
        row["winner_s"] = winner.time_seconds if winner is not None else 0.0
    if job["kind"] == "edit":
        from repro.store import program_digest

        row["digest"] = program_digest(program).hex()
        row["store_bytes"] = sum(
            p.stat().st_size for p in Path(job["store"]).iterdir() if p.is_file()
        )
    if tracer is not None:
        spans = [tuple(s) for s in tracer.spans]
        row["layers"] = self_times(spans)
        row["counts"] = dict(tracer.counts)
        row["spans_nest"] = spans_nest(spans)
        tracer.write_ndjson(job["trace_file"], job["call_id"])
    print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
    # skip the interpreter's teardown, which frees every object the call
    # built: no metric covers it, and it took up to 60ms a call
    os._exit(0)
