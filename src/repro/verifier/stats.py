"""Result and statistics records for verification runs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterable

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


class _Ratio:
    """A derived rate read like a field: summed *num* fields over summed
    *den* fields, 0.0 while the denominator is zero."""

    def __init__(self, num: tuple[str, ...], den: tuple[str, ...]) -> None:
        self.num = num
        self.den = den

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        asked = sum(getattr(obj, name) for name in self.den)
        if not asked:
            return 0.0
        return sum(getattr(obj, name) for name in self.num) / asked


@dataclass
class QueryStats:
    """Cache/query instrumentation aggregated over one verification run.

    Collected in ``verify()`` from the solver, the commutativity
    relation, and the proof checker; attached to every
    :class:`VerificationResult` (also on TIMEOUT/UNKNOWN paths) and
    surfaced by the CLI (``--show-cache-stats``), the CSV/JSON exports,
    and the benchmark harness.

    The fields are the only declaration of a counter: collection,
    :meth:`as_dict`, :meth:`total` and the CSV export loop over them,
    and :meth:`summary` formats them by name (see ``_SUMMARY`` /
    ``_SUMMARY_GATED``).
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
    # incremental rounds (delta-aware Floyd/Hoare steps)
    fh_step_hits: int = 0
    fh_step_delta_hits: int = 0
    fh_step_delta_misses: int = 0
    fh_initial_delta_hits: int = 0
    # integer fast path (repro.fastpath); all zero on the pure engine
    fastpath_rounds: int = 0
    fastpath_edge_hits: int = 0
    fastpath_edge_misses: int = 0
    fastpath_step_hits: int = 0
    fastpath_step_misses: int = 0
    fastpath_commute_mask_hits: int = 0
    fastpath_commute_mask_misses: int = 0
    # term-kernel level (repro.logic.terms interning kernel).
    # ``reintern_count`` is the number of nodes rebuilt through the
    # pickle hook (portfolio workers / parent-side deserialization).
    intern_hits: int = 0
    intern_misses: int = 0
    intern_table_size: int = 0
    reintern_count: int = 0
    substitute_hits: int = 0
    substitute_misses: int = 0
    free_vars_calls: int = 0
    kernel_compactions: int = 0
    # persistent proof store (repro.store); ``store_entries`` is the
    # absolute store size after the run.
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_entries: int = 0
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
    # sequential portfolio triage (repro.verifier.triage); folded into
    # the portfolio aggregate's stats (a copy of the winner's), zero
    # elsewhere, the parallel race included.  ``triage_ranker_hits`` is
    # 1 when the feature ranker's top pick won the race;
    # ``triage_ladder_stages`` counts budget-ladder rungs run;
    # ``triage_preemptions`` counts members a winner cancelled before
    # they completed; ``triage_budget_saved_seconds`` estimates the
    # member-budget seconds those cancellations avoided burning.
    triage_ranker_hits: int = 0
    triage_ladder_stages: int = 0
    triage_preemptions: int = 0
    triage_budget_saved_seconds: float = 0.0

    # derived rates: summed numerator fields over summed denominator
    # fields, exported after the counters rounded to 4 places
    #: sat-level queries answered without a decision run
    solver_hit_rate = _Ratio(
        (
            "solver_cache_hits",
            "solver_model_pool_hits",
            "solver_unknown_cache_hits",
        ),
        ("solver_sat_queries",),
    )
    #: memoizable commutativity questions answered cached
    commutativity_hit_rate = _Ratio(
        ("comm_subsumption_hits", "comm_cache_hits"),
        ("comm_subsumption_hits", "comm_cache_hits", "comm_solver_checks"),
    )
    #: edge-ordering requests served from the (q, ctx) memo
    edge_sort_hit_rate = _Ratio(
        ("edge_sort_hits",), ("edge_sort_hits", "edge_sort_misses")
    )
    #: constructor calls answered from the intern table
    intern_hit_rate = _Ratio(
        ("intern_hits",), ("intern_hits", "intern_misses")
    )
    #: substitution nodes served from the kernel memo
    substitute_hit_rate = _Ratio(
        ("substitute_hits",), ("substitute_hits", "substitute_misses")
    )
    #: always 1.0 once called: ``free_vars`` is precomputed per node
    free_vars_hit_rate = _Ratio(("free_vars_calls",), ("free_vars_calls",))
    #: persistent-store probes answered from disk
    store_hit_rate = _Ratio(("store_hits",), ("store_hits", "store_misses"))
    #: Hoare + commutativity store probes served from the store during a
    #: delta run (the headline reuse metric)
    delta_fact_reuse_rate = _Ratio(
        ("delta_hoare_reused", "delta_comm_reused"),
        (
            "delta_hoare_reused",
            "delta_comm_reused",
            "delta_hoare_missed",
            "delta_comm_missed",
        ),
    )

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

        Every source hands over its counters named as fields; keys that
        name no field are dropped.  *kernel_baseline* is a
        :func:`repro.logic.kernel_counters` snapshot taken at the start
        of the run; the term-kernel fields are reported as the delta
        against it (the kernel counters are process-wide, so the diff
        isolates this run's share).  Without a baseline the cumulative
        values are reported.  *store_baseline* (a store ``counters()``
        snapshot) and *digest_baseline* (a
        :func:`repro.store.digest_counters` snapshot) are diffed the same
        way; the :data:`ABSOLUTE` fields never are.  *delta* is the run's
        :class:`~repro.delta.DeltaTracker` (delta runs only).
        """
        from ..logic import kernel_counters

        sources = [(kernel_counters(), kernel_baseline)]
        if solver is not None and hasattr(solver, "stats"):
            sources.append((_prefixed("solver_", vars(solver.stats)), None))
        comm_stats = getattr(commutativity, "stats", None)
        if comm_stats is not None:
            sources.append((_prefixed("comm_", vars(comm_stats)), None))
        if checker is not None:
            sources.append((checker.counters(), None))
        if store is not None:
            sources.append((store.counters(), store_baseline))
        if delta is not None:
            # the tracker's probe counts plus the edit plan's sizes
            tracked = dict(vars(delta))
            for name in ("threads_unchanged", "threads_edited", "statements_edited"):
                tracked[name] = getattr(delta.plan, name)
            sources.append((_prefixed("delta_", tracked), None))
        if digest_baseline is not None:
            from ..store import digest_counters

            sources.append((digest_counters(), digest_baseline))
        values = {}
        for now, base in sources:
            base = base or {}
            for name, value in now.items():
                if name in ABSOLUTE:
                    values[name] = value
                elif name in _FIELD_SET:
                    values[name] = value - base.get(name, 0)
        return cls(**values)

    @classmethod
    def total(cls, items: Iterable["QueryStats"]) -> "QueryStats":
        """Field-wise sum over runs; the :data:`ABSOLUTE` fields stay 0."""
        runs = list(items)
        return cls(**{
            name: sum(getattr(qs, name) for qs in runs)
            for name in FIELDS
            if name not in ABSOLUTE
        })

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in FIELDS}
        out.update((name, round(getattr(self, name), 4)) for name in RATIOS)
        return out

    def summary(self) -> str:
        """A compact multi-line report (CLI ``--show-cache-stats``)."""
        values = {name: getattr(self, name) for name in (*FIELDS, *RATIOS)}
        values["delta_hoare_asked"] = (
            self.delta_hoare_reused + self.delta_hoare_missed
        )
        values["delta_comm_asked"] = (
            self.delta_comm_reused + self.delta_comm_missed
        )
        shown = list(_SUMMARY)
        shown.extend(
            template
            for gate, template in _SUMMARY_GATED
            if any(values[name] for name in gate)
        )
        return "\n".join(template.format_map(values) for template in shown)


#: counter field names, in declaration (= export) order
FIELDS = tuple(f.name for f in fields(QueryStats))
_FIELD_SET = frozenset(FIELDS)
#: derived rate names, in declaration (= export) order
RATIOS = tuple(
    name
    for name, value in vars(QueryStats).items()
    if isinstance(value, _Ratio)
)
#: absolute values: reported as-is by ``collect`` (never diffed against
#: a baseline) and left out of ``total``
ABSOLUTE = frozenset({"intern_table_size", "store_entries"})

#: the QueryStats columns of the CSV export, in column order
CSV_COLUMNS = (
    "solver_queries",
    "solver_decisions",
    "solver_hit_rate",
    "comm_queries",
    "comm_hit_rate",
    "edge_sort_hit_rate",
    "engine_deadline_ticks",
    "useless_cache_hits",
    "fh_step_delta_hits",
    "fastpath_rounds",
    "fastpath_step_hits",
    "fastpath_commute_mask_hits",
    "intern_hit_rate",
    "substitute_hit_rate",
    "reintern_count",
    "store_hits",
    "store_hit_rate",
    "store_writes",
    "delta_threads_unchanged",
    "delta_threads_edited",
    "delta_hoare_reused",
    "delta_comm_reused",
    "delta_fact_reuse_rate",
    "triage_ranker_hits",
    "triage_ladder_stages",
    "triage_preemptions",
    "triage_budget_saved_seconds",
)
#: CSV columns whose historical name differs from the attribute
CSV_ALIASES = {
    "solver_queries": "solver_sat_queries",
    "comm_hit_rate": "commutativity_hit_rate",
}

#: the ``summary()`` sections printed always, one template each
_SUMMARY = (
    "solver:        {solver_sat_queries} sat queries, "
    "{solver_decisions} decisions, {solver_unknowns} unknowns, "
    "hit rate {solver_hit_rate:.1%} (cache {solver_cache_hits}, "
    "model pool {solver_model_pool_hits}, "
    "unknown cache {solver_unknown_cache_hits})\n"
    "               {solver_nodes_searched} search nodes, "
    "{solver_time_seconds:.3f}s in decisions",
    "commutativity: {comm_queries} queries, "
    "{comm_syntactic_hits} syntactic, {comm_cache_hits} memoized, "
    "{comm_solver_checks} solver checks "
    "({comm_unknown_fallbacks} unknown fallbacks)",
    "proof checker: {comm_subsumption_queries} proof-sensitive queries, "
    "{comm_subsumption_hits} subsumption hits, "
    "combined hit rate {commutativity_hit_rate:.1%}",
    "engine:        {engine_states_explored} states, "
    "{engine_deadline_ticks} deadline ticks, "
    "edge-sort hit rate {edge_sort_hit_rate:.1%} "
    "(hits {edge_sort_hits}, misses {edge_sort_misses}), "
    "{useless_cache_hits} useless-state hits",
    "incremental:   fh steps {fh_step_hits} hits / "
    "{fh_step_delta_hits} delta hits / {fh_step_delta_misses} misses, "
    "{fh_initial_delta_hits} initial delta hits",
    "term kernel:   intern hit rate {intern_hit_rate:.1%} "
    "(hits {intern_hits}, misses {intern_misses}), "
    "table size {intern_table_size}, "
    "substitute hit rate {substitute_hit_rate:.1%}, "
    "{free_vars_calls} free_vars calls (precomputed), "
    "{reintern_count} re-interned",
    "proof store:   hit rate {store_hit_rate:.1%} "
    "(hits {store_hits}, misses {store_misses}), "
    "{store_writes} writes, {store_entries} entries on disk",
)
#: the optional sections as (gate fields, template); each prints only
#: when one of its gate fields is nonzero
_SUMMARY_GATED = (
    (
        ("fastpath_rounds",),
        "fast path:     {fastpath_rounds} rounds, "
        "edge tables {fastpath_edge_hits} hits / "
        "{fastpath_edge_misses} compiled, "
        "steps {fastpath_step_hits} hits / {fastpath_step_misses} misses, "
        "commute masks {fastpath_commute_mask_hits} hits / "
        "{fastpath_commute_mask_misses} misses",
    ),
    (
        (
            "delta_threads_unchanged",
            "delta_threads_edited",
            "delta_hoare_reused",
        ),
        "delta:         {delta_threads_unchanged} threads unchanged / "
        "{delta_threads_edited} edited "
        "({delta_statements_edited} statements), "
        "fact reuse {delta_fact_reuse_rate:.1%} "
        "(hoare {delta_hoare_reused}/{delta_hoare_asked}, "
        "comm {delta_comm_reused}/{delta_comm_asked})",
    ),
    (
        (
            "triage_ranker_hits",
            "triage_ladder_stages",
            "triage_preemptions",
            "triage_budget_saved_seconds",
        ),
        "triage:        {triage_ranker_hits} ranker hits, "
        "{triage_ladder_stages} ladder stages, "
        "{triage_preemptions} preemptions, "
        "{triage_budget_saved_seconds:.1f}s budget saved",
    ),
)


def _prefixed(prefix: str, counters: dict) -> dict:
    return {prefix + name: value for name, value in counters.items()}


@dataclass
class VerificationResult:
    """The verdict plus everything the evaluation harness reports.

    ``proof_size`` counts the distinct Floyd/Hoare assertions (automaton
    states) reached during the final, successful proof check — the
    paper's proof-size metric.  ``num_predicates`` is the size of the
    underlying predicate vocabulary.

    ``failure_reason`` is a human-readable cause for
    ERROR/TIMEOUT/cancelled outcomes (filled in by the portfolio races).
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

    def summary(self) -> str:
        parts = [
            f"{self.program_name}: {self.verdict.value}",
            f"order={self.order_name}",
            f"rounds={self.rounds}",
            f"proof={self.proof_size}",
            f"states={self.states_explored}",
            f"time={self.time_seconds:.2f}s",
        ]
        if self.failure_reason:
            parts.append(f"reason={self.failure_reason}")
        return "  ".join(parts)
