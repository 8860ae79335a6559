"""Shared experiment runner for the evaluation harness (benchmarks/).

Provides named *tool configurations* matching the paper's §8 setups,
a process-wide result cache (so Figure 6/7 reuse Table 1's runs), and
table formatting/persistence helpers.

Environment knobs:

* ``REPRO_BUDGET``  — per-run time budget in seconds (default 20);
* ``REPRO_ROUNDS``  — refinement round cap (default 60);
* ``REPRO_FULL=1``  — run the larger instances (e.g. bluetooth up to 6
  threads in Figure 1c) at the cost of a longer wall-clock;
* ``REPRO_PARALLEL=1`` — run the portfolio tool through the parallel
  worker-process runtime (crash containment + watchdog) instead of the
  sequential emulation;
* ``REPRO_FAULTS``  — deterministic fault-injection spec (see
  repro.verifier.faults), applied to every verification run;
* ``REPRO_PROOF_STORE`` — directory of a persistent content-addressed
  proof store (repro.store); solved solver/Hoare/commutativity verdicts
  are reused across harness sessions;
* ``REPRO_TRIAGE=0`` — disable portfolio triage (feature-ranked member
  order, staged budget ladders, progress preemption; see
  repro.verifier.triage) and race all members flat.  Default on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .benchmarks import Benchmark, all_benchmarks
from .core.commutativity import ConditionalCommutativity, SyntacticCommutativity
from .core.preference import (
    LockstepOrder,
    PreferenceOrder,
    RandomOrder,
    ThreadUniformOrder,
)
from .lang.program import ConcurrentProgram
from .logic import Solver
from .verifier import (
    QueryStats,
    Verdict,
    VerificationResult,
    VerifierConfig,
    verify,
    verify_portfolio,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

TOOLS = (
    "baseline",       # Automizer stand-in: full product, no reduction
    "portfolio",      # GemCutter: best of 5 orders, combined reduction
    "seq",            # single-order members ...
    "lockstep",
    "rand(1)",
    "rand(2)",
    "rand(3)",
    "sleep",          # Table 2 ablations
    "persistent",
    "portfolio-nops", # portfolio without proof-sensitive commutativity
)


def time_budget() -> float:
    return float(os.environ.get("REPRO_BUDGET", "20"))


def round_budget() -> int:
    return int(os.environ.get("REPRO_ROUNDS", "60"))


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("0", "")


def parallel_portfolio() -> bool:
    return os.environ.get("REPRO_PARALLEL", "0") not in ("0", "")


def proof_store_path() -> str | None:
    return os.environ.get("REPRO_PROOF_STORE") or None


def triage_enabled() -> bool:
    return os.environ.get("REPRO_TRIAGE", "1") not in ("0", "")


def _config(**overrides) -> VerifierConfig:
    base = dict(
        max_rounds=round_budget(),
        time_budget=time_budget(),
        track_memory=True,
        store_path=proof_store_path(),
        triage=triage_enabled(),
    )
    base.update(overrides)
    return VerifierConfig(**base)


def _order_for(program: ConcurrentProgram, name: str) -> PreferenceOrder:
    if name == "seq":
        return ThreadUniformOrder()
    if name == "lockstep":
        return LockstepOrder(len(program.threads))
    if name.startswith("rand("):
        seed = int(name[5:-1])
        return RandomOrder(program.alphabet(), seed)
    raise ValueError(f"unknown order {name!r}")


def run_tool(program: ConcurrentProgram, tool: str) -> VerificationResult:
    """Run one tool configuration on one program (uncached)."""
    if tool == "baseline":
        return verify(
            program,
            ThreadUniformOrder(),
            SyntacticCommutativity(),
            config=_config(mode="none", proof_sensitive=False),
        )
    if tool == "portfolio":
        outcome = verify_portfolio(
            program,
            config=_config(),
            strategy="parallel" if parallel_portfolio() else "sequential",
            # hard watchdog slightly above the cooperative budget: kills
            # only members whose in-process deadline checks stopped firing
            member_timeout=(time_budget() * 1.5 if parallel_portfolio() else None),
        )
        # cache the members under their own tool names so the
        # order-comparison experiments (Fig 8, Table 2) reuse these runs
        # (solved runs only — an UNKNOWN/ERROR member must stay retryable)
        for member in outcome.members:
            if member.verdict.solved:
                _cache.setdefault((program.name, member.order_name), member)
        return outcome.aggregate()
    if tool == "portfolio-nops":
        return verify_portfolio(
            program,
            config=_config(proof_sensitive=False),
            commutativity_factory=lambda solver: ConditionalCommutativity(solver),
        ).aggregate()
    if tool in ("sleep", "persistent"):
        solver = Solver()
        return verify(
            program,
            ThreadUniformOrder(),
            ConditionalCommutativity(solver),
            config=_config(mode=tool),
            solver=solver,
        )
    # single preference order, combined reduction
    solver = Solver()
    return verify(
        program,
        _order_for(program, tool),
        ConditionalCommutativity(solver),
        config=_config(),
        solver=solver,
    )


_cache: dict[tuple[str, str], VerificationResult] = {}


def _log_progress(message: str) -> None:
    """Append to the progress log (benchmark runs are long; make them
    observable without relying on pytest's captured stdout)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / "progress.log", "a") as fh:
        import time as _time

        fh.write(f"{_time.strftime('%H:%M:%S')} {message}\n")


def run_cached(bench: Benchmark, tool: str) -> VerificationResult:
    """Memoized run — shared across all benchmark files in one session.

    Only solved verdicts are memoized: caching an ERROR/UNKNOWN/TIMEOUT
    would pin the failure for the whole session and defeat any retry
    with a bigger budget or after a transient fault.
    """
    key = (bench.name, tool)
    hit = _cache.get(key)
    if hit is None:
        _log_progress(f"run {tool:16s} {bench.name}")
        hit = run_tool(bench.build(), tool)
        if hit.verdict.solved:
            _cache[key] = hit
        qs = hit.query_stats
        cache_note = (
            f" solver_hit={qs.solver_hit_rate:.0%} comm_hit={qs.commutativity_hit_rate:.0%}"
            if qs is not None
            else ""
        )
        _log_progress(
            f"  -> {hit.verdict.value:9s} {hit.time_seconds:6.1f}s "
            f"rounds={hit.rounds}{cache_note}"
        )
    return hit


def run_suite(tool: str, benches: Sequence[Benchmark] | None = None):
    """Run *tool* over the registry; yields (benchmark, result)."""
    for bench in benches if benches is not None else all_benchmarks():
        yield bench, run_cached(bench, tool)


# ---------------------------------------------------------------------------
# Aggregation (the rows of Tables 1 and 2)
# ---------------------------------------------------------------------------

@dataclass
class SuiteAggregate:
    """One row group of Table 1."""

    label: str
    successful: int = 0
    correct: int = 0
    incorrect: int = 0
    time_seconds: float = 0.0
    memory_bytes: int = 0
    rounds: int = 0

    def add(self, bench: Benchmark, result: VerificationResult) -> None:
        if not result.verdict.solved:
            return
        self.successful += 1
        if result.verdict == Verdict.CORRECT:
            self.correct += 1
        else:
            self.incorrect += 1
        self.time_seconds += result.time_seconds
        self.memory_bytes += result.peak_memory_bytes
        self.rounds += result.rounds


def aggregate(
    pairs: Iterable[tuple[Benchmark, VerificationResult]], label: str
) -> SuiteAggregate:
    agg = SuiteAggregate(label)
    for bench, result in pairs:
        agg.add(bench, result)
    return agg


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def atomic_write_text(path: Path, text: str) -> None:
    """Crash-safe file write: temp file in the same directory, fsync,
    then an atomic ``os.replace``.  An interrupted or killed benchmark
    run leaves either the old content or the new — never a truncation.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a report and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    print(f"\n===== {name} =====\n{text}\n", flush=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, text + "\n")
    return text


def emit_timings(name: str, lines: Iterable[str]) -> str:
    """:func:`emit` into the git-ignored benchmarks/results/timings/:
    wall-clock figures change on every run, so they stay out of the
    tracked tables."""
    return emit(f"timings/{name}", lines)


def emit_json(name: str, payload) -> None:
    # serialize before touching the filesystem: a non-serializable
    # payload must not clobber a previous good result file
    text = json.dumps(payload, indent=2)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    atomic_write_text(RESULTS_DIR / f"{name}.json", text)


def result_row(result: VerificationResult) -> dict:
    row = {
        "program": result.program_name,
        "verdict": result.verdict.value,
        "rounds": result.rounds,
        "proof_size": result.proof_size,
        "states": result.states_explored,
        "time_s": round(result.time_seconds, 3),
        "memory_mb": round(result.peak_memory_bytes / 1e6, 2),
        "order": result.order_name,
    }
    if result.failure_reason:
        row["failure_reason"] = result.failure_reason
    if result.attempts > 1:
        row["attempts"] = result.attempts
    if result.degraded:
        row["degraded"] = True
    qs = result.query_stats
    if qs is not None:
        row["solver_queries"] = qs.solver_sat_queries
        row["solver_hit_rate"] = round(qs.solver_hit_rate, 4)
        row["comm_hit_rate"] = round(qs.commutativity_hit_rate, 4)
    return row


def cache_summary(
    pairs: Iterable[tuple[Benchmark, VerificationResult]]
) -> dict:
    """The summed :class:`QueryStats` of a set of runs, as
    ``as_dict()`` (fig7 reporting)."""
    return QueryStats.total(
        result.query_stats
        for _bench, result in pairs
        if result.query_stats is not None
    ).as_dict()
