"""Portfolio verification over preference orders (§8).

The paper's GemCutter data points aggregate, per benchmark, the best of
five preference orders — ``seq``, ``lockstep``, and three seeded random
orders — with the portfolio terminating as soon as any order's analysis
terminates.  Two strategies implement this:

* ``strategy="sequential"`` (default): members run one after another in
  this process and the parallel wall-clock is *emulated*.  Deterministic
  and cheap — the benchmark figures use it so the paper-reproduction
  numbers stay stable.  Member exceptions are contained: a member that
  raises (OOM, recursion blowup, injected crash) is recorded as
  ``Verdict.ERROR`` instead of killing the run.  The race is always
  triaged (:mod:`repro.verifier.triage`): the feature ranker picks the
  start order, the budget ladder runs a short slice before the full
  budget, and the first winner short-circuits the rest.  Triage only
  decides *who runs when and on how much budget* — a member that
  completes runs under exactly the configuration given (the ladder's
  final rung is the full budget), so each completed member's result is
  bit-identical to a direct ``verify()`` of its order.
* ``strategy="parallel"``: the paper's plain race — all five members in
  isolated worker processes at once, each run once at the full budget,
  with hard watchdog deadlines and first-winner cancellation.  See
  :mod:`repro.verifier.runtime`.

Both races build a member with :func:`verify_member`, so a member that
finishes is the same run in either race.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.commutativity import ConditionalCommutativity
from ..core.preference import (
    LockstepOrder,
    PreferenceOrder,
    RandomOrder,
    ThreadUniformOrder,
)
from ..lang.program import ConcurrentProgram
from ..logic import Solver
from .faults import FaultPlan
from .refinement import VerifierConfig, verify
from .stats import QueryStats, Verdict, VerificationResult
from .triage import (
    TriagePlan,
    emulate_staged_wall,
    plan_portfolio,
)

DEFAULT_RANDOM_SEEDS = (1, 2, 3)


def standard_orders(
    program: ConcurrentProgram,
    seeds: Sequence[int] = DEFAULT_RANDOM_SEEDS,
) -> list[PreferenceOrder]:
    """The five orders evaluated in the paper (§8)."""
    orders: list[PreferenceOrder] = [
        ThreadUniformOrder(),
        LockstepOrder(len(program.threads)),
    ]
    alphabet = program.alphabet()
    orders.extend(RandomOrder(alphabet, seed) for seed in seeds)
    return orders


@dataclass
class PortfolioResult:
    """The aggregated result plus every member's individual result.

    ``strategy`` records how the members were executed; ``wall_seconds``
    is the measured end-to-end wall clock when the parallel runtime ran
    (``None`` under sequential emulation).  ``emulated_wall_seconds`` is
    the sequential strategy's model of the parallel wall clock: it
    follows the staged ladder schedule (rungs are barriers, a winner
    cancels everything at its finish instant).  ``triage`` carries the
    deterministic plan the sequential race used (None for the parallel
    race).
    """

    program_name: str
    members: list[VerificationResult] = field(default_factory=list)
    strategy: str = "sequential"
    wall_seconds: float | None = None
    emulated_wall_seconds: float | None = None
    triage: TriagePlan | None = None
    #: sequential-race observability: ranker hits / ladder stages /
    #: cancellations / budget saved, folded into the aggregate's
    #: query_stats
    triage_counters: dict | None = None

    @property
    def solved(self) -> bool:
        return any(m.verdict.solved for m in self.members)

    @property
    def winner(self) -> VerificationResult | None:
        """The fastest solving member (the portfolio's effective run)."""
        solving = [m for m in self.members if m.verdict.solved]
        if not solving:
            return None
        return min(solving, key=lambda m: m.time_seconds)

    @property
    def verdict(self) -> Verdict:
        best = self.winner
        return best.verdict if best is not None else Verdict.UNKNOWN

    def elapsed_seconds(self) -> float:
        """Total elapsed wall clock attributable to the portfolio.

        The measured wall clock when available (parallel runtime), then
        the staged-schedule emulation (sequential race), otherwise the
        slowest member — under parallel semantics the portfolio gives up
        only when its last member does.
        """
        if self.wall_seconds is not None:
            return self.wall_seconds
        if self.emulated_wall_seconds is not None:
            return self.emulated_wall_seconds
        return max((m.time_seconds for m in self.members), default=0.0)

    def _apply_triage_counters(self, out: VerificationResult) -> None:
        # fold into a copy: *out* may share the winner's own stats, and
        # the race's triage work is not that member's
        if self.triage_counters:
            out.query_stats = replace(
                out.query_stats or QueryStats(),
                **{f"triage_{k}": v for k, v in self.triage_counters.items()},
            )

    def aggregate(self) -> VerificationResult:
        """A single result reflecting parallel portfolio execution."""
        best = self.winner
        if best is None:
            # no member solved: report how many members ran (zero is a
            # configuration error worth surfacing, not an instantaneous
            # UNKNOWN) and the total elapsed time
            count = len(self.members)
            if count:
                breakdown = ", ".join(
                    f"{m.order_name or '?'}={m.verdict.value}"
                    for m in self.members
                )
                reason = f"no member solved ({count} members: {breakdown})"
            else:
                reason = "empty portfolio (0 members)"
            out = VerificationResult(
                program_name=self.program_name,
                verdict=Verdict.UNKNOWN,
                order_name="portfolio",
                time_seconds=self.elapsed_seconds(),
                failure_reason=reason,
            )
            self._apply_triage_counters(out)
            return out
        out = VerificationResult(
            program_name=self.program_name,
            verdict=best.verdict,
            rounds=best.rounds,
            proof_size=best.proof_size,
            num_predicates=best.num_predicates,
            states_explored=best.states_explored,
            time_seconds=(
                self.emulated_wall_seconds
                if self.emulated_wall_seconds is not None
                else best.time_seconds
            ),
            peak_memory_bytes=best.peak_memory_bytes,
            counterexample=best.counterexample,
            query_stats=best.query_stats,
            order_name=f"portfolio[{best.order_name}]",
            mode=best.mode,
            engine=best.engine,
        )
        self._apply_triage_counters(out)
        return out


def verify_portfolio(
    program: ConcurrentProgram,
    config: VerifierConfig | None = None,
    *,
    seeds: Sequence[int] = DEFAULT_RANDOM_SEEDS,
    strategy: str = "sequential",
    member_timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
) -> PortfolioResult:
    """Run the standard five-order portfolio on *program*.

    ``strategy="parallel"`` delegates to
    :func:`repro.verifier.runtime.run_parallel_portfolio` (isolated
    workers, watchdog ``member_timeout``, optional ``fault_plan``); the
    default sequential emulation runs the triaged race in-process with
    per-member crash containment — see the module docstring.
    """
    if strategy == "parallel":
        from .runtime import run_parallel_portfolio

        return run_parallel_portfolio(
            program,
            config,
            seeds=seeds,
            member_timeout=member_timeout,
            fault_plan=fault_plan,
        )
    if strategy != "sequential":
        raise ValueError(
            f"unknown portfolio strategy {strategy!r} "
            "(use 'sequential' or 'parallel')"
        )
    return _sequential_triaged(
        program,
        standard_orders(program, seeds),
        config or VerifierConfig(),
        fault_plan=fault_plan,
    )


def verify_member(
    program: ConcurrentProgram,
    order: PreferenceOrder,
    config: VerifierConfig,
    *,
    fault_plan: FaultPlan | None = None,
) -> VerificationResult:
    """One portfolio member, as both races run it.

    A fresh default :class:`Solver`, the member's fault injector if
    *fault_plan* names it, and :class:`ConditionalCommutativity`.
    Without faults this is exactly a direct ``verify()`` of *order*
    under *config*.  Exceptions propagate: each race contains them its
    own way.
    """
    solver = Solver()
    if fault_plan is not None:
        injector = fault_plan.injector_for(order.name)
        if injector is not None:
            solver.fault_injector = injector
    return verify(
        program,
        order,
        ConditionalCommutativity(solver),
        config=config,
        solver=solver,
    )


def _run_member(
    program: ConcurrentProgram,
    order: PreferenceOrder,
    config: VerifierConfig,
    fault_plan: FaultPlan | None,
) -> VerificationResult:
    """One sequential member: :func:`verify_member` with crash
    containment."""
    try:
        return verify_member(program, order, config, fault_plan=fault_plan)
    except Exception as exc:  # crash containment (parity with the
        # parallel runtime: a misbehaving member must not kill the
        # portfolio; KeyboardInterrupt etc. still propagate)
        return VerificationResult(
            program_name=program.name,
            verdict=Verdict.ERROR,
            order_name=order.name,
            mode=config.mode,
            failure_reason=f"member crashed: {type(exc).__name__}: {exc}",
        )


def _sequential_triaged(
    program: ConcurrentProgram,
    orders: list[PreferenceOrder],
    config: VerifierConfig,
    fault_plan: FaultPlan | None,
) -> PortfolioResult:
    """The triaged sequential race: rank, ladder, short-circuit.

    Members run best-ranked first on successive-halving budget slices;
    the first solved member cancels everything still pending (mirroring
    the parallel runtime's winner cancellation), and members that
    survive every slice re-run at the *full* budget on the final rung
    with a fresh solver — so each member's final result is exactly a
    direct ``verify()`` of its order.  Slice attempts that time out are
    discarded, never reported.
    """
    plan = plan_portfolio(program, orders, time_budget=config.time_budget)
    order_by_name = {order.name: order for order in orders}
    ranked = plan.order_names()
    rank_index = {name: i for i, name in enumerate(ranked)}
    stages = plan.stage_budgets
    final_stage = len(stages) - 1

    finished: dict[str, VerificationResult] = {}
    slice_rounds: dict[str, int] = {}  # escalation order within rungs
    spent: dict[str, float] = {name: 0.0 for name in ranked}
    stage_runs: list[list[float]] = []
    pending = list(ranked)
    winner_name: str | None = None
    winner_at: tuple[int, float] | None = None
    ladder_stages_run = 0

    for stage_index, slice_budget in enumerate(stages):
        if not pending:
            break
        ladder_stages_run += 1
        is_final = stage_index == final_stage
        stage_config = (
            config
            if is_final or slice_budget is None
            else replace(config, time_budget=slice_budget)
        )
        if stage_index > 0:
            # survivors escalate most-promising first: descending slice
            # progress (refinement rounds), rank as the tiebreak
            pending.sort(
                key=lambda n: (-slice_rounds.get(n, 0), rank_index[n])
            )
        runs: list[float] = []
        stage_runs.append(runs)
        survivors: list[str] = []
        for name in pending:
            member = _run_member(
                program, order_by_name[name], stage_config, fault_plan
            )
            runs.append(member.time_seconds)
            spent[name] += member.time_seconds
            if member.verdict.solved or is_final:
                finished[name] = member
            else:
                # slice exhausted: discard the budget-truncated result
                # (never reported) and remember its progress
                slice_rounds[name] = member.rounds
                survivors.append(name)
            if member.verdict.solved:
                winner_name = name
                winner_at = (stage_index, member.time_seconds)
                break
        if winner_name is not None:
            break
        pending = survivors

    members: list[VerificationResult] = []
    preemptions = 0
    budget_saved = 0.0
    for name in ranked:
        if name in finished:
            members.append(finished[name])
            continue
        # cancelled before completing: same synthesized shape as the
        # parallel runtime's winner cancellation
        preemptions += 1
        if config.time_budget is not None:
            budget_saved += max(0.0, config.time_budget - spent[name])
        members.append(
            VerificationResult(
                program_name=program.name,
                verdict=Verdict.UNKNOWN,
                order_name=name,
                mode=config.mode,
                time_seconds=spent[name],
                failure_reason=(
                    f"cancelled (portfolio winner: {winner_name})"
                ),
            )
        )
    result = PortfolioResult(
        program_name=program.name,
        members=members,
        triage=plan,
        emulated_wall_seconds=emulate_staged_wall(stage_runs, winner_at),
        triage_counters={
            "ranker_hits": int(winner_name == ranked[0]) if ranked else 0,
            "ladder_stages": ladder_stages_run,
            "preemptions": preemptions,
            "budget_saved_seconds": round(budget_saved, 4),
        },
    )
    return result
