"""Portfolio triage: who runs first, and on how much budget.

After the integer fast path the portfolio's wall clock is
dominated by *losers*: members that burn their whole budget by design
while some other member already holds the verdict.  This module is the
triage layer the sequential race
(:func:`~repro.verifier.portfolio.verify_portfolio`) is built on; the
parallel race runs every member at once and needs none of it:

* **Feature ranker** — cheap structural features of the program
  (:class:`ProgramFeatures`) scored by a fixed, hand-tuned linear model
  per member kind (:data:`DEFAULT_WEIGHTS`, :func:`rank_members`),
  seeding the race with the likely-best order first.  Like the paper's
  five-order portfolio it learns nothing between runs.  Ranking
  chooses *start order and budget shares only* — it can never change a
  verdict.
* **Staged budget ladder** (:func:`ladder_stages`) — successive-halving
  budget slices (:data:`LADDER_FRACTIONS` of the full budget): every
  member gets a small slice first, survivors escalate, and the final
  rung always runs at the *full* budget, so an unsolved member's final
  result is bit-identical to a direct ``verify()`` of its order.
  :func:`emulate_staged_wall` models the ladder's parallel wall clock.
* **The plan** (:func:`plan_portfolio`, :class:`TriagePlan`) — the
  deterministic ranking and ladder one race uses (``repro orders``).

The soundness argument for bit-identity is in one line: a deterministic
``verify()`` run that finishes without its deadline firing behaves
identically under any budget at least as large, so a slice-solved
result equals the full-budget result, and every unsolved member's final
ladder rung *is* the full-budget run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.commutativity import SyntacticCommutativity
from ..core.preference import PreferenceOrder
from ..lang.program import ConcurrentProgram
from ..logic import TRUE

#: the ladder's rung budgets as fractions of the full budget; the last
#: is always 1.0, so an unsolved member's final rung is the full run
LADDER_FRACTIONS = (0.25, 1.0)

#: cap on the O(n^2) conflict-density scan; larger alphabets are
#: sampled with a deterministic stride
MAX_CONFLICT_PAIRS = 4000


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramFeatures:
    """Cheap structural features of one program (deterministic).

    ``conflict_density`` is the fraction of cross-thread statement pairs
    that do *not* syntactically commute (write/access overlap) — the
    knob that separates lock-free counters from guard-spinning mutual
    exclusion.  ``dispersion`` maps each order name to the fraction of
    uid-adjacent alphabet letters whose ranks invert under that order:
    0.0 for thread-blocked orders like ``seq``, ~0.5 for random ones.
    """

    num_threads: int
    alphabet_size: int
    conflict_density: float
    guard_density: float
    dispersion: dict[str, float] = field(default_factory=dict)

    def vector(self, order_name: str) -> tuple[float, ...]:
        """The model input for one member: (1, conflict, guard,
        threads/8 capped, dispersion-of-this-order)."""
        return (
            1.0,
            self.conflict_density,
            self.guard_density,
            min(self.num_threads, 8) / 8.0,
            self.dispersion.get(order_name, 0.0),
        )


def extract_features(
    program: ConcurrentProgram, orders: Sequence[PreferenceOrder]
) -> ProgramFeatures:
    """Extract :class:`ProgramFeatures` for *program* under *orders*.

    Pure structure: no solver, no exploration — a few thousand
    set-disjointness checks at most, microseconds next to one
    refinement round.
    """
    alphabet = sorted(program.alphabet(), key=lambda s: s.uid)
    n = len(alphabet)
    guarded = sum(1 for s in alphabet if s.guard is not TRUE)
    syntactic = SyntacticCommutativity()
    cross = conflicts = 0
    pairs = ((a, b) for i, a in enumerate(alphabet)
             for b in alphabet[i + 1:] if a.thread != b.thread)
    for a, b in pairs:
        cross += 1
        if not syntactic.commute(a, b):
            conflicts += 1
        if cross >= MAX_CONFLICT_PAIRS:
            break
    dispersion: dict[str, float] = {}
    for order in orders:
        context = order.initial_context()
        ranks = [order.key(context, s)[0] for s in alphabet]
        inversions = sum(
            1 for r1, r2 in zip(ranks, ranks[1:]) if r1 > r2
        )
        dispersion[order.name] = inversions / (n - 1) if n > 1 else 0.0
    return ProgramFeatures(
        num_threads=len(program.threads),
        alphabet_size=n,
        conflict_density=conflicts / cross if cross else 0.0,
        guard_density=guarded / n if n else 0.0,
        dispersion=dispersion,
    )


def order_kind(order_name: str) -> str:
    """The weight bucket of a member: ``seq``, ``lockstep``, ``rand``."""
    if order_name.startswith("rand"):
        return "rand"
    if order_name == "lockstep":
        return "lockstep"
    return "seq"


# ---------------------------------------------------------------------------
# The ranker
# ---------------------------------------------------------------------------

#: per-kind weights over ProgramFeatures.vector(), hand-tuned against
#: the ``benchmarks/results/table1.json`` portfolio winner rows
#: (time-weighted, so the expensive programs dominate): seq is the
#: empirical winner on wide low-guard pipelines (token rings, handoff
#: chains — its thread-count term is strongly positive); lockstep takes
#: the guard-spinning 2-thread protocols (peterson, ticket locks,
#: shared buffers); the random orders take high-guard-density drivers
#: (bluetooth, dekker), tie-broken by dispersion so distinct seeds stay
#: distinct.  Time-weighted top-1 on the tuning set: ~82% exact member,
#: ~92% member kind, with every >1s program ranked right.
DEFAULT_WEIGHTS: dict[str, tuple[float, ...]] = {
    "seq": (-0.083, 0.003, -0.704, 1.557, 0.0),
    "lockstep": (0.784, -0.163, -0.260, -0.943, 0.0),
    "rand": (-0.161, 0.096, 0.598, -0.287, 0.554),
}


@dataclass(frozen=True)
class RankedMember:
    """One portfolio member with its triage score (``repro orders``)."""

    order_name: str
    score: float
    kind: str


def rank_members(
    features: ProgramFeatures, orders: Sequence[PreferenceOrder]
) -> list[RankedMember]:
    """Members best-first by their kind's :data:`DEFAULT_WEIGHTS` score;
    ties keep the canonical member order (seq, lockstep, rand(1..)), so
    the ranking is total and stable."""
    members = []
    for order in orders:
        kind = order_kind(order.name)
        x = features.vector(order.name)
        score = sum(wi * xi for wi, xi in zip(DEFAULT_WEIGHTS[kind], x))
        members.append(RankedMember(order.name, score, kind))
    return sorted(members, key=lambda member: -member.score)


# ---------------------------------------------------------------------------
# The budget ladder
# ---------------------------------------------------------------------------

def ladder_stages(full_budget: float | None) -> list[float | None]:
    """Successive-halving rung budgets, smallest first, full budget last.

    Rung *i* gets ``full * LADDER_FRACTIONS[i]``; the final fraction is
    1.0, so the final rung is always exactly the full budget — the
    invariant that keeps unsolved members bit-identical to a direct
    ``verify()`` of their order.  Without a full budget there is
    nothing to slice: one unbounded rung.
    """
    if full_budget is None:
        return [None]
    return [full_budget * fraction for fraction in LADDER_FRACTIONS]


def emulate_staged_wall(
    stage_runs: Sequence[Sequence[float]],
    winner: tuple[int, float] | None = None,
) -> float:
    """Emulated parallel wall clock of a staged (barrier) schedule.

    ``stage_runs[s]`` holds the member run times of rung *s*; rungs are
    barriers (survivors escalate together), so rung ``s+1`` starts when
    the slowest rung-``s`` run finishes.  A ``winner`` ``(stage, t)``
    cancels everything at ``start_of(stage) + t``.  This replaces the
    pre-triage plain max-over-members emulation, which ignored that a
    ladder member's clock *includes* the slices it burned first.
    """
    start = 0.0
    for stage_index, runs in enumerate(stage_runs):
        if winner is not None and winner[0] == stage_index:
            return start + winner[1]
        start += max(runs, default=0.0)
    return start


# ---------------------------------------------------------------------------
# The triage plan (CLI `repro orders`, tests)
# ---------------------------------------------------------------------------

@dataclass
class TriagePlan:
    """The deterministic part of a triaged portfolio run."""

    features: ProgramFeatures
    ranked: list[RankedMember]
    stage_budgets: list[float | None]

    def order_names(self) -> list[str]:
        return [m.order_name for m in self.ranked]


def plan_portfolio(
    program: ConcurrentProgram,
    orders: Sequence[PreferenceOrder],
    *,
    time_budget: float | None = None,
) -> TriagePlan:
    """Rank *orders* for *program* and lay out the budget ladder."""
    features = extract_features(program, orders)
    return TriagePlan(
        features=features,
        ranked=rank_members(features, orders),
        stage_budgets=ladder_stages(time_budget),
    )
