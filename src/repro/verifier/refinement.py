"""Trace abstraction refinement (the CEGAR loop of §1 / §7.2).

Each round runs the proof check (Algorithm 2).  An uncovered trace that
is *feasible* is a genuine counterexample (verdict INCORRECT); an
infeasible one is annotated with backward-wp interpolants whose
predicates augment the proof vocabulary.  The loop ends when the check
succeeds (CORRECT), a real bug is found (INCORRECT), refinement cannot
make progress or the solver gives up (UNKNOWN), or a resource budget is
exhausted (TIMEOUT).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

from ..automata.engine import BudgetExceeded
from ..core.commutativity import CommutativityRelation, ConditionalCommutativity
from ..core.preference import PreferenceOrder, ThreadUniformOrder
from ..lang.program import ConcurrentProgram
from ..logic import (
    FALSE,
    KERNEL_COMPACT_THRESHOLD,
    Solver,
    SolverUnknown,
    TRUE,
    compact_kernel,
    kernel_counters,
)
from .checkproof import CheckDeadlineExceeded, ProofChecker, UselessStateCache
from .faults import attach_env_faults
from .hoare import FloydHoareAutomaton
from .interpolate import annotate_trace, extract_predicates, refutes, trace_feasible
from .stats import QueryStats, RoundStats, Verdict, VerificationResult


@dataclass
class VerifierConfig:
    """Tunables of one verifier instantiation."""

    mode: str = "combined"  # combined | sleep | persistent | none
    proof_sensitive: bool = True
    search: str = "bfs"  # bfs | dfs
    use_useless_cache: bool = False  # dfs only
    max_rounds: int = 60
    max_states_per_round: int | None = 400_000
    time_budget: float | None = None  # seconds
    track_memory: bool = False
    simplify_proof: bool = False  # semantically clean the reported predicates
    #: disable the proof checker's cross-round commutativity subsumption
    #: cache (the differential test suite turns this off together with the
    #: solver/relation caches to prove memoization is semantically inert)
    memoize_commutativity: bool = True
    #: incremental CEGAR rounds: delta-aware Floyd/Hoare transitions on
    #: vocabulary growth plus warm-started proof checks (bfs).  Disable
    #: (``--no-incremental``) for bit-identical legacy behavior — the
    #: states-identity guard runs with this off.
    incremental: bool = True
    #: directory of the persistent content-addressed proof store
    #: (``--proof-store``); None disables persistence entirely — the
    #: disabled path is byte-identical to not having the feature.
    #: Solver verdicts, Hoare triples, and commutativity facts are
    #: looked up after every in-memory cache misses and written back
    #: (definite verdicts only).  A corrupt or version-skewed store
    #: degrades to a cold start with a logged warning, never a wrong
    #: verdict.
    store_path: str | None = None
    #: exploration engine.  Production runs always use ``"fast"``, the
    #: integer fast path of :mod:`repro.fastpath`.  ``"pure"`` selects
    #: the rich-object reference stack: the differential oracle the
    #: tests and guards compare the fast path against (bit-identical
    #: verdicts, rounds, proofs, counterexamples, per-round states).
    engine: str = "fast"
    #: delta verification: the content digest (hex) of a previously
    #: verified program version whose stored shape this run's program is
    #: an *edit* of.  Requires ``store_path``.  The pipeline's delta
    #: stage diffs the two versions into an edit plan and attributes
    #: persistent-store reuse of Hoare and commutativity facts to it
    #: (the ``delta_*`` counters).  A missing or unreadable baseline
    #: degrades to a plain run.  Verdicts are never affected: every
    #: reused fact is definite (see :mod:`repro.delta`).
    baseline_digest: str | None = None
    #: portfolio triage (:mod:`repro.verifier.triage`): feature-ranked
    #: member order, staged budget ladders, and progress-based loser
    #: preemption.  Only read by the portfolio strategies — a single
    #: ``verify()`` call ignores it.  Triage chooses *who runs first
    #: and on how much budget*, never what a member computes, so
    #: verdicts stay bit-identical to ``--no-triage``.
    triage: bool = True


@dataclass
class _PipelineState:
    """Mutable context threaded through the staged ``verify()`` pipeline.

    Each stage reads what earlier stages produced and fills in its own
    fields; the stages themselves are plain functions, so each piece of
    the historical monolith (store wiring, budgets, the delta layer,
    checker construction, the CEGAR loop) is testable and readable on
    its own.
    """

    program: ConcurrentProgram
    order: PreferenceOrder
    commutativity: CommutativityRelation
    config: VerifierConfig
    solver: Solver
    # -- attach_store stage
    store: object | None = None
    store_baseline: dict | None = None
    # -- clocks stage
    started: float = 0.0
    deadline: float | None = None
    kernel_baseline: dict | None = None
    digest_baseline: dict | None = None
    tracking: bool = False
    # -- delta stage
    tracker: object | None = None  # repro.delta.DeltaTracker
    # -- build stage
    fh: FloydHoareAutomaton | None = None
    checker: ProofChecker | None = None


def verify(
    program: ConcurrentProgram,
    order: PreferenceOrder | None = None,
    commutativity: CommutativityRelation | None = None,
    config: VerifierConfig | None = None,
    solver: Solver | None = None,
) -> VerificationResult:
    """Verify *program* against its pre/post spec and assert statements.

    Returns a :class:`VerificationResult`; see :class:`VerifierConfig`
    for the reduction mode and search options.  The default
    configuration is the paper's GemCutter: combined sleep + persistent
    reduction, proof-sensitive conditional commutativity, sequential
    ("seq") preference order.

    Internally a staged pipeline: prepare → attach store → clocks →
    **delta** (diff against ``config.baseline_digest``, attach reuse
    attribution) → build (Floyd/Hoare automaton + proof checker) →
    refine (the CEGAR loop).  Every stage before *refine* only wires
    caches and observers, so a degraded stage (no store, unreadable
    baseline) can never change a verdict — at worst the run is cold.
    """
    ps = _stage_prepare(program, order, commutativity, config, solver)
    _stage_attach_store(ps)
    _stage_clocks(ps)
    _stage_delta(ps)
    _stage_build(ps)
    return _stage_refine(ps)


def _stage_prepare(
    program: ConcurrentProgram,
    order: PreferenceOrder | None,
    commutativity: CommutativityRelation | None,
    config: VerifierConfig | None,
    solver: Solver | None,
) -> _PipelineState:
    """Fill in defaults and wire environment-driven fault injection."""
    config = config or VerifierConfig()
    order = order or ThreadUniformOrder()
    solver = solver or Solver()
    if commutativity is None:
        commutativity = ConditionalCommutativity(solver)
    # REPRO_FAULTS wires deterministic fault injection onto the solver
    # (no-op when unset or when the caller attached an injector already)
    attach_env_faults(solver, member=order.name)
    return _PipelineState(program, order, commutativity, config, solver)


def _stage_attach_store(ps: _PipelineState) -> None:
    """Attach the persistent proof store at every rekeyed cache boundary.

    The store is shared process-wide per path, so counters are reported
    as the delta over this run (``store_baseline``).
    """
    if not ps.config.store_path:
        return
    from ..store import open_store

    ps.store = open_store(ps.config.store_path)
    ps.solver.proof_store = ps.store
    attach = getattr(ps.commutativity, "attach_store", None)
    if attach is not None:
        attach(ps.store)
    ps.store_baseline = ps.store.counters()


def _stage_clocks(ps: _PipelineState) -> None:
    """Start the run clock, budgets, and per-run counter baselines."""
    from ..store import digest_counters

    ps.started = time.perf_counter()
    # the kernel counters are process-wide; snapshot them so this run's
    # query_stats report the per-run delta, not the process cumulative
    ps.kernel_baseline = kernel_counters()
    ps.digest_baseline = digest_counters()
    ps.deadline = _deadline_epoch(ps.started, ps.config.time_budget)
    # long individual solver queries must also respect the budget; always
    # assign (even None) so a reused solver starts a fresh deadline epoch
    # and stale budget-limited UNKNOWNs from a previous run cannot leak
    ps.solver.deadline = ps.deadline
    ps.tracking = ps.config.track_memory
    if ps.tracking:
        tracemalloc.start()


def _stage_delta(ps: _PipelineState) -> None:
    """The delta layer: diff against the baseline, attribute reuse.

    Always persists this program's structural shape (any store-backed
    run can serve as a future baseline).  With a ``baseline_digest``
    configured, loads the baseline's stored shape, computes the
    :class:`~repro.delta.EditPlan`, and attaches a
    :class:`~repro.delta.DeltaTracker` to the Hoare/commutativity store
    probes (pure observation).  Every failure mode degrades to a plain
    run.
    """
    if ps.store is None:
        return
    from ..delta import DeltaTracker, EditPlan, load_shape, store_shape

    store_shape(ps.store, ps.program)
    if not ps.config.baseline_digest:
        return
    shape = load_shape(ps.store, ps.config.baseline_digest)
    if shape is None:
        return
    ps.tracker = DeltaTracker(
        EditPlan.compute(
            shape, ps.program, baseline_digest=ps.config.baseline_digest
        )
    )
    attach = getattr(ps.commutativity, "attach_delta", None)
    if attach is not None:
        attach(ps.tracker)
    elif hasattr(ps.commutativity, "delta_tracker"):
        ps.commutativity.delta_tracker = ps.tracker


def _stage_build(ps: _PipelineState) -> None:
    """Construct the Floyd/Hoare automaton and the proof checker."""
    config = ps.config
    ps.fh = FloydHoareAutomaton(
        [],
        ps.solver,
        incremental=config.incremental,
        proof_store=ps.store,
        delta_tracker=ps.tracker,
    )
    cache = UselessStateCache() if (
        config.use_useless_cache and config.search == "dfs"
    ) else None
    ps.checker = ProofChecker(
        ps.program,
        ps.order,
        ps.commutativity,
        mode=config.mode,
        proof_sensitive=config.proof_sensitive,
        search=config.search,
        useless_cache=cache,
        max_states=config.max_states_per_round,
        deadline=ps.deadline,
        memoize_commutativity=config.memoize_commutativity,
        incremental=config.incremental,
        engine=config.engine,
    )


def _stage_refine(ps: _PipelineState) -> VerificationResult:
    """The CEGAR loop (§7.2) over the pipeline's assembled state."""
    program, order, config = ps.program, ps.order, ps.config
    solver, commutativity = ps.solver, ps.commutativity
    store, fh, checker = ps.store, ps.fh, ps.checker

    def elapsed() -> float:
        return time.perf_counter() - ps.started

    def finish(result: VerificationResult) -> VerificationResult:
        result.time_seconds = elapsed()
        # the vocabulary size is meaningful on every exit path, including
        # TIMEOUT/UNKNOWN (how far refinement got before giving up)
        result.num_predicates = len(fh.predicates)
        if store is not None:
            store.flush()
        result.query_stats = QueryStats.collect(
            solver, commutativity, checker,
            kernel_baseline=ps.kernel_baseline,
            store=store, store_baseline=ps.store_baseline,
            delta=ps.tracker,
            digest_baseline=ps.digest_baseline,
        )
        # verify() boundary is the kernel's compaction point: clear the
        # process-wide derived memos once they outgrow their budget so
        # long portfolio runs do not leak term references across
        # independent queries (the intern table itself is weak)
        compact_kernel(KERNEL_COMPACT_THRESHOLD)
        # degradation flag from a DegradingCommutativity (runtime policy)
        if getattr(commutativity, "degraded", False):
            result.degraded = True
        if ps.tracking:
            _, peak = tracemalloc.get_traced_memory()
            result.peak_memory_bytes = peak
            tracemalloc.stop()
        return result

    result = VerificationResult(
        program_name=program.name,
        verdict=Verdict.UNKNOWN,
        order_name=order.name,
        mode=config.mode,
        engine=config.engine,
    )

    for round_index in range(config.max_rounds):
        if config.time_budget is not None and elapsed() > config.time_budget:
            result.verdict = Verdict.TIMEOUT
            return finish(result)
        round_started = time.perf_counter()
        try:
            outcome = checker.check(fh, program.pre, program.post)
        except CheckDeadlineExceeded:
            result.verdict = Verdict.TIMEOUT
            return finish(result)
        except (BudgetExceeded, MemoryError, SolverUnknown):
            result.verdict = Verdict.UNKNOWN
            return finish(result)
        check_done = time.perf_counter()
        result.rounds += 1
        result.states_explored += outcome.states_explored
        # triage progress metering: a worker's heartbeat thread reads the
        # meter attached to this run's solver (repro.verifier.triage)
        meter = getattr(solver, "progress_meter", None)
        if meter is not None:
            meter.update(result.rounds, result.states_explored)
        round_stats = RoundStats(
            states_explored=outcome.states_explored,
            check_seconds=check_done - round_started,
            counterexample_length=(
                len(outcome.counterexample)
                if outcome.counterexample is not None
                else None
            ),
        )
        result.round_stats.append(round_stats)

        def close_round() -> None:
            now = time.perf_counter()
            round_stats.time_seconds = now - round_started
            round_stats.refine_seconds = now - check_done

        if outcome.covered:
            close_round()
            result.verdict = Verdict.CORRECT
            result.proof_size = outcome.assertions_seen
            result.predicates = fh.predicates
            if config.simplify_proof:
                from ..logic.simplify import simplify_all

                result.predicates = tuple(
                    simplify_all(fh.predicates, solver)
                )
            return finish(result)

        trace = outcome.counterexample
        is_violation = program.is_violation(_final_state(program, trace))
        obligation = FALSE if is_violation else program.post
        try:
            feasible = trace_feasible(
                solver, program.pre, trace,
                post=TRUE if is_violation else program.post,
            )
        except SolverUnknown:
            close_round()
            result.verdict = Verdict.UNKNOWN
            result.counterexample = trace
            return finish(result)
        if feasible:
            close_round()
            result.verdict = Verdict.INCORRECT
            result.counterexample = trace
            return finish(result)

        annotation = annotate_trace(trace, obligation)
        try:
            if not refutes(solver, program.pre, annotation):
                # wp annotation failed to refute (havoc projection too
                # coarse): no sound progress possible
                close_round()
                result.verdict = Verdict.UNKNOWN
                result.counterexample = trace
                return finish(result)
        except SolverUnknown:
            close_round()
            result.verdict = Verdict.UNKNOWN
            return finish(result)
        progress = False
        for predicate in extract_predicates(annotation):
            progress |= fh.add_predicate(predicate)
        close_round()
        if not progress:
            # the vocabulary already contains all predicates, yet the
            # proof check still reported this trace: abstraction too weak
            result.verdict = Verdict.UNKNOWN
            result.counterexample = trace
            return finish(result)
        # monotone invalidation: the vocabulary grew, compact the
        # predicate-set-keyed commutativity caches to their frontier
        checker.note_vocabulary_grown()

    result.verdict = Verdict.TIMEOUT
    return finish(result)


def _deadline_epoch(started: float, time_budget: float | None) -> float | None:
    """The absolute ``time.perf_counter()`` deadline for a wall budget.

    The one place the epoch arithmetic lives: the solver and the proof
    checker must share the same instant or a slow round could satisfy one
    budget while the other has already expired.
    """
    return started + time_budget if time_budget is not None else None


def _final_state(program: ConcurrentProgram, trace) -> tuple:
    state = program.initial_state()
    for statement in trace:
        nxt = program.step(state, statement)
        if nxt is None:  # pragma: no cover - checker produces valid traces
            raise AssertionError("counterexample trace leaves the product")
        state = nxt
    return state
