"""Shared experiment runner for the evaluation harness (benchmarks/).

Provides named *tool configurations* matching the paper's §8 setups,
a process-wide result cache (so Figure 6/7 reuse Table 1's runs), and
table formatting/persistence helpers.

Environment knobs:

* ``REPRO_BUDGET``  — per-run time budget in seconds (default 45);
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
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
    return text


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
    """Aggregate cache behaviour over a set of runs (fig7 reporting)."""
    sat = hits = decisions = comm_asked = comm_hits = 0
    intern_hits = intern_misses = subst_hits = subst_misses = reinterned = 0
    fh_delta_hits = fh_delta_misses = warm_reused = warm_dirty = 0
    store_hits = store_misses = store_writes = 0
    fast_rounds = fast_step_hits = fast_cmask_hits = 0
    delta_hoare_reused = delta_hoare_missed = 0
    delta_comm_reused = delta_comm_missed = 0
    triage_ranker_hits = triage_ladder_stages = triage_preemptions = 0
    triage_budget_saved = 0.0
    solver_time = 0.0
    for _bench, result in pairs:
        qs = result.query_stats
        if qs is None:
            continue
        store_hits += qs.store_hits
        store_misses += qs.store_misses
        store_writes += qs.store_writes
        fh_delta_hits += qs.fh_step_delta_hits
        fh_delta_misses += qs.fh_step_delta_misses
        warm_reused += qs.warm_start_reused
        warm_dirty += qs.warm_start_dirty
        sat += qs.solver_sat_queries
        hits += (
            qs.solver_cache_hits
            + qs.solver_model_pool_hits
            + qs.solver_unknown_cache_hits
        )
        decisions += qs.solver_decisions
        comm_asked += (
            qs.comm_subsumption_hits + qs.comm_cache_hits + qs.comm_solver_checks
        )
        comm_hits += qs.comm_subsumption_hits + qs.comm_cache_hits
        solver_time += qs.solver_time_seconds
        intern_hits += qs.intern_hits
        intern_misses += qs.intern_misses
        subst_hits += qs.substitute_hits
        subst_misses += qs.substitute_misses
        reinterned += qs.reintern_count
        fast_rounds += qs.fastpath_rounds
        fast_step_hits += qs.fastpath_step_hits
        fast_cmask_hits += qs.fastpath_commute_mask_hits
        delta_hoare_reused += qs.delta_hoare_reused
        delta_hoare_missed += qs.delta_hoare_missed
        delta_comm_reused += qs.delta_comm_reused
        delta_comm_missed += qs.delta_comm_missed
        triage_ranker_hits += qs.triage_ranker_hits
        triage_ladder_stages += qs.triage_ladder_stages
        triage_preemptions += qs.triage_preemptions
        triage_budget_saved += qs.triage_budget_saved_seconds
    intern_asked = intern_hits + intern_misses
    delta_asked = (
        delta_hoare_reused + delta_hoare_missed
        + delta_comm_reused + delta_comm_missed
    )
    subst_asked = subst_hits + subst_misses
    return {
        "solver_sat_queries": sat,
        "solver_cache_hits": hits,
        "solver_decisions": decisions,
        "solver_hit_rate": round(hits / sat, 4) if sat else 0.0,
        "comm_questions": comm_asked,
        "comm_cache_hits": comm_hits,
        "comm_hit_rate": round(comm_hits / comm_asked, 4) if comm_asked else 0.0,
        "solver_time_seconds": round(solver_time, 3),
        "intern_hits": intern_hits,
        "intern_hit_rate": (
            round(intern_hits / intern_asked, 4) if intern_asked else 0.0
        ),
        "substitute_hit_rate": (
            round(subst_hits / subst_asked, 4) if subst_asked else 0.0
        ),
        "reintern_count": reinterned,
        "fh_step_delta_hits": fh_delta_hits,
        "fh_step_delta_misses": fh_delta_misses,
        "warm_start_reused": warm_reused,
        "warm_start_dirty": warm_dirty,
        "fastpath_rounds": fast_rounds,
        "fastpath_step_hits": fast_step_hits,
        "fastpath_commute_mask_hits": fast_cmask_hits,
        "store_hits": store_hits,
        "store_misses": store_misses,
        "store_writes": store_writes,
        "store_hit_rate": (
            round(store_hits / (store_hits + store_misses), 4)
            if store_hits + store_misses
            else 0.0
        ),
        "delta_hoare_reused": delta_hoare_reused,
        "delta_comm_reused": delta_comm_reused,
        "delta_fact_reuse_rate": (
            round((delta_hoare_reused + delta_comm_reused) / delta_asked, 4)
            if delta_asked
            else 0.0
        ),
        "triage_ranker_hits": triage_ranker_hits,
        "triage_ladder_stages": triage_ladder_stages,
        "triage_preemptions": triage_preemptions,
        "triage_budget_saved_seconds": round(triage_budget_saved, 3),
    }
