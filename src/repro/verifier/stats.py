"""Result and statistics records for verification runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..lang.statements import Statement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..logic import Solver
    from .checkproof import ProofChecker


class Verdict(enum.Enum):
    """Outcome of a verification run.

    ``ERROR`` is a *contained* failure: the member (or its worker
    process) crashed — OOM, recursion blowup, unhandled exception,
    killed by the runtime watchdog — and the portfolio runtime turned
    the crash into a result instead of letting it take down the
    harness.  The failure cause is in
    :attr:`VerificationResult.failure_reason`.
    """

    CORRECT = "correct"
    INCORRECT = "incorrect"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"
    ERROR = "error"

    @property
    def solved(self) -> bool:
        return self in (Verdict.CORRECT, Verdict.INCORRECT)


@dataclass
class RoundStats:
    """Per-refinement-round measurements.

    ``check_seconds`` is the proof-check phase (Algorithm 2),
    ``refine_seconds`` the counterexample analysis + interpolation phase;
    together they partition ``time_seconds`` up to loop overhead.
    """

    states_explored: int = 0
    time_seconds: float = 0.0
    check_seconds: float = 0.0
    refine_seconds: float = 0.0
    counterexample_length: int | None = None


@dataclass
class QueryStats:
    """Cache/query instrumentation aggregated over one verification run.

    Collected in ``verify()`` from the solver, the commutativity
    relation, and the proof checker; attached to every
    :class:`VerificationResult` (also on TIMEOUT/UNKNOWN paths) and
    surfaced by the CLI (``--show-cache-stats``), the CSV/JSON exports,
    and the benchmark harness.
    """

    # solver-level (repro.logic.Solver)
    solver_sat_queries: int = 0
    solver_cache_hits: int = 0
    solver_model_pool_hits: int = 0
    solver_unknown_cache_hits: int = 0
    solver_decisions: int = 0
    solver_unknowns: int = 0
    solver_time_seconds: float = 0.0
    solver_nodes_searched: int = 0
    # commutativity-relation level (repro.core.commutativity)
    comm_queries: int = 0
    comm_syntactic_hits: int = 0
    comm_cache_hits: int = 0
    comm_solver_checks: int = 0
    comm_unknown_fallbacks: int = 0
    # proof-checker level (monotone subsumption cache, §7.2)
    comm_subsumption_queries: int = 0
    comm_subsumption_hits: int = 0
    # worklist-engine level (repro.automata.engine + the layer stack)
    engine_states_explored: int = 0
    engine_deadline_ticks: int = 0
    edge_sort_hits: int = 0
    edge_sort_misses: int = 0
    useless_cache_hits: int = 0
    # incremental rounds (delta-aware Floyd/Hoare steps + warm starts)
    fh_step_hits: int = 0
    fh_step_delta_hits: int = 0
    fh_step_delta_misses: int = 0
    fh_initial_delta_hits: int = 0
    warm_start_reused: int = 0
    warm_start_dirty: int = 0
    # integer fast path (repro.fastpath); all zero on the pure engine
    fastpath_rounds: int = 0
    fastpath_edge_hits: int = 0
    fastpath_edge_misses: int = 0
    fastpath_step_hits: int = 0
    fastpath_step_misses: int = 0
    fastpath_commute_mask_hits: int = 0
    fastpath_commute_mask_misses: int = 0
    # term-kernel level (repro.logic.terms interning kernel); counters
    # are deltas over the run when a baseline snapshot is supplied to
    # :meth:`collect`, otherwise process-cumulative.  ``reintern_count``
    # is the number of nodes rebuilt through the pickle hook (portfolio
    # workers / parent-side result deserialization).
    intern_hits: int = 0
    intern_misses: int = 0
    intern_table_size: int = 0
    reintern_count: int = 0
    substitute_hits: int = 0
    substitute_misses: int = 0
    free_vars_calls: int = 0
    kernel_compactions: int = 0
    # persistent proof store (repro.store); deltas over this run when a
    # baseline snapshot is supplied (the store is shared process-wide).
    # ``store_entries`` is the absolute store size after the run.
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_entries: int = 0
    # verification service (repro.service); fleet-level counters folded
    # into each job's result by the server so they ride the existing
    # CSV/JSON/--show-cache-stats paths.  Zero outside service runs.
    service_jobs: int = 0
    service_retries: int = 0
    service_shed: int = 0
    service_breaker_trips: int = 0
    # delta verification (repro.delta); all zero outside delta runs.
    # The plan counters describe the edit; the reused/missed splits
    # count persistent-store probes for Hoare and commutativity facts
    # during the delta run.  ``digest_memo_evictions`` is the digest
    # memo cap pressure over this run (delta of the process counter).
    delta_threads_unchanged: int = 0
    delta_threads_edited: int = 0
    delta_statements_edited: int = 0
    delta_hoare_reused: int = 0
    delta_hoare_missed: int = 0
    delta_comm_reused: int = 0
    delta_comm_missed: int = 0
    digest_memo_evictions: int = 0
    # portfolio triage (repro.verifier.triage); filled in by the
    # portfolio strategies on the winner's stats, zero elsewhere.
    # ``triage_ranker_hits`` is 1 when the feature ranker's top pick won
    # the race; ``triage_ladder_stages`` counts budget-ladder rungs run;
    # ``triage_preemptions`` counts members cancelled/deferred before
    # their deadline (short-circuit + progress domination);
    # ``triage_budget_saved_seconds`` estimates the member-budget
    # seconds those cancellations avoided burning.
    triage_ranker_hits: int = 0
    triage_ladder_stages: int = 0
    triage_preemptions: int = 0
    triage_budget_saved_seconds: float = 0.0

    @property
    def solver_hit_rate(self) -> float:
        """Fraction of sat-level queries answered without a decision run."""
        if not self.solver_sat_queries:
            return 0.0
        saved = (
            self.solver_cache_hits
            + self.solver_model_pool_hits
            + self.solver_unknown_cache_hits
        )
        return saved / self.solver_sat_queries

    @property
    def edge_sort_hit_rate(self) -> float:
        """Fraction of edge-ordering requests served from the (q, ctx) memo."""
        asked = self.edge_sort_hits + self.edge_sort_misses
        if not asked:
            return 0.0
        return self.edge_sort_hits / asked

    @property
    def commutativity_hit_rate(self) -> float:
        """Fraction of memoizable commutativity questions answered cached."""
        asked = (
            self.comm_subsumption_hits + self.comm_cache_hits + self.comm_solver_checks
        )
        if not asked:
            return 0.0
        return (self.comm_subsumption_hits + self.comm_cache_hits) / asked

    @property
    def intern_hit_rate(self) -> float:
        """Fraction of constructor calls answered from the intern table."""
        asked = self.intern_hits + self.intern_misses
        if not asked:
            return 0.0
        return self.intern_hits / asked

    @property
    def substitute_hit_rate(self) -> float:
        """Fraction of substitution nodes served from the kernel memo."""
        asked = self.substitute_hits + self.substitute_misses
        if not asked:
            return 0.0
        return self.substitute_hits / asked

    @property
    def free_vars_hit_rate(self) -> float:
        """Always 1.0 once called: ``free_vars`` is precomputed per node."""
        return 1.0 if self.free_vars_calls else 0.0

    @property
    def store_hit_rate(self) -> float:
        """Fraction of persistent-store probes answered from disk."""
        asked = self.store_hits + self.store_misses
        if not asked:
            return 0.0
        return self.store_hits / asked

    @property
    def delta_fact_reuse_rate(self) -> float:
        """Fraction of Hoare + commutativity store probes served from
        the store during a delta run (the headline reuse metric)."""
        reused = self.delta_hoare_reused + self.delta_comm_reused
        asked = reused + self.delta_hoare_missed + self.delta_comm_missed
        if not asked:
            return 0.0
        return reused / asked

    @property
    def fastpath_fallbacks(self) -> int:
        """Always 0: the fast engine runs alphabets of any width.

        Not a counter field (it is in no export); a read-only attribute
        because the perf benchmark's span tracer
        (``benchmarks/perf/spans.py``) still reads it for its
        ``fastpath.fallback_calls`` layer metric.
        """
        return 0

    @classmethod
    def collect(
        cls,
        solver: "Solver | None" = None,
        commutativity=None,
        checker: "ProofChecker | None" = None,
        kernel_baseline: dict | None = None,
        store=None,
        store_baseline: dict | None = None,
        delta=None,
        digest_baseline: dict | None = None,
    ) -> "QueryStats":
        """Snapshot counters from the run's collaborators.

        *kernel_baseline* is a :func:`repro.logic.kernel_counters`
        snapshot taken at the start of the run; the term-kernel fields
        are reported as the delta against it (the kernel counters are
        process-wide, so the diff isolates this run's share).  Without a
        baseline the cumulative values are reported.  *delta* is the
        run's :class:`~repro.delta.DeltaTracker` (delta runs only);
        *digest_baseline* is a :func:`repro.store.digest_counters`
        snapshot, diffed the same way as the kernel baseline.
        """
        from ..logic import kernel_counters

        out = cls()
        now = kernel_counters()
        base = kernel_baseline or {}
        out.intern_hits = now["intern_hits"] - base.get("intern_hits", 0)
        out.intern_misses = now["intern_misses"] - base.get("intern_misses", 0)
        out.reintern_count = now["reintern_count"] - base.get("reintern_count", 0)
        out.substitute_hits = (
            now["substitute_hits"] - base.get("substitute_hits", 0)
        )
        out.substitute_misses = (
            now["substitute_misses"] - base.get("substitute_misses", 0)
        )
        out.free_vars_calls = (
            now["free_vars_calls"] - base.get("free_vars_calls", 0)
        )
        out.kernel_compactions = (
            now["kernel_compactions"] - base.get("kernel_compactions", 0)
        )
        out.intern_table_size = now["intern_table_size"]  # absolute
        if solver is not None and hasattr(solver, "stats"):
            s = solver.stats
            out.solver_sat_queries = s.sat_queries
            out.solver_cache_hits = s.cache_hits
            out.solver_model_pool_hits = s.model_pool_hits
            out.solver_unknown_cache_hits = s.unknown_cache_hits
            out.solver_decisions = s.decisions
            out.solver_unknowns = s.unknowns
            out.solver_time_seconds = s.time_seconds
            out.solver_nodes_searched = s.nodes_searched
        comm_stats = getattr(commutativity, "stats", None)
        if comm_stats is not None:
            out.comm_queries = comm_stats.queries
            out.comm_syntactic_hits = comm_stats.syntactic_hits
            out.comm_cache_hits = comm_stats.cache_hits
            out.comm_solver_checks = comm_stats.solver_checks
            out.comm_unknown_fallbacks = comm_stats.unknown_fallbacks
        if checker is not None:
            out.comm_subsumption_queries = checker.commute_queries
            out.comm_subsumption_hits = checker.commute_subsumption_hits
            out.engine_states_explored = checker.engine_states_explored
            out.engine_deadline_ticks = checker.engine_deadline_ticks
            out.edge_sort_hits = checker.edge_sort_hits
            out.edge_sort_misses = checker.edge_sort_misses
            if checker.useless_cache is not None:
                out.useless_cache_hits = checker.useless_cache.hits
            out.fh_step_hits = checker.fh_step_hits
            out.fh_step_delta_hits = checker.fh_step_delta_hits
            out.fh_step_delta_misses = checker.fh_step_delta_misses
            out.fh_initial_delta_hits = checker.fh_initial_delta_hits
            out.warm_start_reused = checker.warm_start_reused
            out.warm_start_dirty = checker.warm_start_dirty
            out.fastpath_rounds = getattr(checker, "fastpath_rounds", 0)
            out.fastpath_edge_hits = getattr(checker, "fastpath_edge_hits", 0)
            out.fastpath_edge_misses = getattr(
                checker, "fastpath_edge_misses", 0
            )
            out.fastpath_step_hits = getattr(checker, "fastpath_step_hits", 0)
            out.fastpath_step_misses = getattr(
                checker, "fastpath_step_misses", 0
            )
            out.fastpath_commute_mask_hits = getattr(
                checker, "fastpath_commute_mask_hits", 0
            )
            out.fastpath_commute_mask_misses = getattr(
                checker, "fastpath_commute_mask_misses", 0
            )
        if store is not None:
            counters = store.counters()
            base = store_baseline or {}
            out.store_hits = counters["store_hits"] - base.get("store_hits", 0)
            out.store_misses = (
                counters["store_misses"] - base.get("store_misses", 0)
            )
            out.store_writes = (
                counters["store_writes"] - base.get("store_writes", 0)
            )
            out.store_entries = counters["store_entries"]  # absolute
        if delta is not None:
            plan = delta.plan
            out.delta_threads_unchanged = plan.threads_unchanged
            out.delta_threads_edited = plan.threads_edited
            out.delta_statements_edited = plan.statements_edited
            out.delta_hoare_reused = delta.hoare_reused
            out.delta_hoare_missed = delta.hoare_missed
            out.delta_comm_reused = delta.comm_reused
            out.delta_comm_missed = delta.comm_missed
        if digest_baseline is not None:
            from ..store import digest_counters

            out.digest_memo_evictions = digest_counters()[
                "digest_memo_evictions"
            ] - digest_baseline.get("digest_memo_evictions", 0)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "QueryStats":
        """Rebuild from :meth:`as_dict` output (service result payloads
        cross a process + JSON boundary).  Unknown keys — the derived
        hit rates, forward-compat fields — are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["solver_hit_rate"] = round(self.solver_hit_rate, 4)
        out["commutativity_hit_rate"] = round(self.commutativity_hit_rate, 4)
        out["edge_sort_hit_rate"] = round(self.edge_sort_hit_rate, 4)
        out["intern_hit_rate"] = round(self.intern_hit_rate, 4)
        out["substitute_hit_rate"] = round(self.substitute_hit_rate, 4)
        out["free_vars_hit_rate"] = round(self.free_vars_hit_rate, 4)
        out["store_hit_rate"] = round(self.store_hit_rate, 4)
        out["delta_fact_reuse_rate"] = round(self.delta_fact_reuse_rate, 4)
        return out

    def summary(self) -> str:
        """A compact multi-line report (CLI ``--show-cache-stats``)."""
        lines = [
            "solver:        "
            f"{self.solver_sat_queries} sat queries, "
            f"{self.solver_decisions} decisions, "
            f"{self.solver_unknowns} unknowns, "
            f"hit rate {self.solver_hit_rate:.1%} "
            f"(cache {self.solver_cache_hits}, "
            f"model pool {self.solver_model_pool_hits}, "
            f"unknown cache {self.solver_unknown_cache_hits})",
            "               "
            f"{self.solver_nodes_searched} search nodes, "
            f"{self.solver_time_seconds:.3f}s in decisions",
            "commutativity: "
            f"{self.comm_queries} queries, "
            f"{self.comm_syntactic_hits} syntactic, "
            f"{self.comm_cache_hits} memoized, "
            f"{self.comm_solver_checks} solver checks "
            f"({self.comm_unknown_fallbacks} unknown fallbacks)",
            "proof checker: "
            f"{self.comm_subsumption_queries} proof-sensitive queries, "
            f"{self.comm_subsumption_hits} subsumption hits, "
            f"combined hit rate {self.commutativity_hit_rate:.1%}",
            "engine:        "
            f"{self.engine_states_explored} states, "
            f"{self.engine_deadline_ticks} deadline ticks, "
            f"edge-sort hit rate {self.edge_sort_hit_rate:.1%} "
            f"(hits {self.edge_sort_hits}, misses {self.edge_sort_misses}), "
            f"{self.useless_cache_hits} useless-state hits",
            "incremental:   "
            f"fh steps {self.fh_step_hits} hits / "
            f"{self.fh_step_delta_hits} delta hits / "
            f"{self.fh_step_delta_misses} misses, "
            f"{self.fh_initial_delta_hits} initial delta hits; "
            f"warm start {self.warm_start_reused} reused, "
            f"{self.warm_start_dirty} dirty seeds",
            "term kernel:   "
            f"intern hit rate {self.intern_hit_rate:.1%} "
            f"(hits {self.intern_hits}, misses {self.intern_misses}), "
            f"table size {self.intern_table_size}, "
            f"substitute hit rate {self.substitute_hit_rate:.1%}, "
            f"{self.free_vars_calls} free_vars calls (precomputed), "
            f"{self.reintern_count} re-interned",
            "proof store:   "
            f"hit rate {self.store_hit_rate:.1%} "
            f"(hits {self.store_hits}, misses {self.store_misses}), "
            f"{self.store_writes} writes, "
            f"{self.store_entries} entries on disk",
        ]
        if self.fastpath_rounds:
            lines.append(
                "fast path:     "
                f"{self.fastpath_rounds} rounds, "
                f"edge tables {self.fastpath_edge_hits} hits / "
                f"{self.fastpath_edge_misses} compiled, "
                f"steps {self.fastpath_step_hits} hits / "
                f"{self.fastpath_step_misses} misses, "
                f"commute masks {self.fastpath_commute_mask_hits} hits / "
                f"{self.fastpath_commute_mask_misses} misses"
            )
        if (
            self.delta_threads_unchanged
            or self.delta_threads_edited
            or self.delta_hoare_reused
        ):
            lines.append(
                "delta:         "
                f"{self.delta_threads_unchanged} threads unchanged / "
                f"{self.delta_threads_edited} edited "
                f"({self.delta_statements_edited} statements), "
                f"fact reuse {self.delta_fact_reuse_rate:.1%} "
                f"(hoare {self.delta_hoare_reused}/"
                f"{self.delta_hoare_reused + self.delta_hoare_missed}, "
                f"comm {self.delta_comm_reused}/"
                f"{self.delta_comm_reused + self.delta_comm_missed})"
            )
        if (
            self.service_jobs
            or self.service_retries
            or self.service_shed
            or self.service_breaker_trips
        ):
            lines.append(
                "service:       "
                f"{self.service_jobs} jobs completed, "
                f"{self.service_retries} retries, "
                f"{self.service_shed} shed, "
                f"{self.service_breaker_trips} breaker trips"
            )
        if (
            self.triage_ranker_hits
            or self.triage_ladder_stages
            or self.triage_preemptions
            or self.triage_budget_saved_seconds
        ):
            lines.append(
                "triage:        "
                f"{self.triage_ranker_hits} ranker hits, "
                f"{self.triage_ladder_stages} ladder stages, "
                f"{self.triage_preemptions} preemptions, "
                f"{self.triage_budget_saved_seconds:.1f}s budget saved"
            )
        return "\n".join(lines)


@dataclass
class VerificationResult:
    """The verdict plus everything the evaluation harness reports.

    ``proof_size`` counts the distinct Floyd/Hoare assertions (automaton
    states) reached during the final, successful proof check — the
    paper's proof-size metric.  ``num_predicates`` is the size of the
    underlying predicate vocabulary.

    Runtime provenance (filled in by the portfolio runtime): ``attempts``
    is how many times this member ran (1 = no retry), ``respawns`` how
    many worker processes were re-started after a crash/kill,
    ``failure_reason`` a human-readable cause for
    ERROR/TIMEOUT/cancelled outcomes, and ``degraded`` records that the
    member fell back from conditional to syntactic commutativity after
    too many solver give-ups.
    """

    program_name: str
    verdict: Verdict
    rounds: int = 0
    proof_size: int = 0
    num_predicates: int = 0
    states_explored: int = 0
    time_seconds: float = 0.0
    peak_memory_bytes: int = 0
    counterexample: tuple[Statement, ...] | None = None
    predicates: tuple = ()
    round_stats: list[RoundStats] = field(default_factory=list)
    query_stats: QueryStats | None = None
    order_name: str = ""
    mode: str = "combined"
    #: which exploration engine ran (``VerifierConfig.engine``)
    engine: str = "fast"
    failure_reason: str | None = None
    attempts: int = 1
    respawns: int = 0
    degraded: bool = False

    @property
    def time_per_round(self) -> float:
        return self.time_seconds / self.rounds if self.rounds else 0.0

    def summary(self) -> str:
        parts = [
            f"{self.program_name}: {self.verdict.value}",
            f"order={self.order_name}",
            f"rounds={self.rounds}",
            f"proof={self.proof_size}",
            f"states={self.states_explored}",
            f"time={self.time_seconds:.2f}s",
        ]
        if self.attempts > 1:
            parts.append(f"attempts={self.attempts}")
        if self.degraded:
            parts.append("degraded=syntactic")
        if self.failure_reason:
            parts.append(f"reason={self.failure_reason}")
        return "  ".join(parts)
