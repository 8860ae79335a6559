"""The benchmark's four workloads: instance pools and the seeded call plan.

Every instance comes from a :mod:`repro.benchmarks` generator, and its
expected verdict is the generator's ``correct`` flag.  The pools are
fixed; the seed shuffles the call order within each round and picks the
constants of the edit chains.  A seed that picked the instances would
make the spread between seeds measure the pool, not the code.

This module does not import :mod:`repro`: ``run.py`` only builds job
descriptions, and the child process that runs a job builds its program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One generator call: ``repro.benchmarks.<gen>(*args, correct=...)``."""

    gen: str
    args: tuple = ()
    correct: bool = True
    #: portfolio time budget in seconds (``portfolio-race`` only)
    budget: float | None = None
    #: calls per round
    weight: int = 1

    @property
    def label(self) -> str:
        name = self.gen.rsplit(".", 1)[-1].replace("_", "-")
        args = ",".join(str(a) for a in self.args)
        return f"{name}({args}){'' if self.correct else '-bug'}"

    def job(self, kind: str) -> dict:
        return {
            "kind": kind,
            "label": self.label,
            "gen": self.gen,
            "args": list(self.args),
            "correct": self.correct,
            "expected": "correct" if self.correct else "incorrect",
            "budget": self.budget,
        }


# Each pool is ordered by the instance's median wall at reference speed
# and makes ten calls a round: four instances once each, the median's
# instance twice, the 75th percentile's instance three times, and one
# instance above it.  Over r rounds the median's instance then holds the
# sorted walls from 0.4 to 0.6 and the 75th percentile's those from 0.6
# to 0.9, so each percentile is the middle of 2r or 3r samples of one
# instance, and four rounds make the 40 timed calls a run needs.  Each
# call of one instance varies by about 10% at reference speed, so a
# percentile needs that many samples to hold still: with one call of
# the 75th percentile's instance a round, its spread over ten seeds
# reached 8-14%.  The two instances are kept at least 1.25x away from
# their neighbours, so the percentiles do not jump between instances
# from run to run.

# explore-heavy: exploration self time is 51-90% of each narrow
# instance's wall, more the larger the instance.  The narrow alphabets
# (9-63 letters) fit the fast engine's 64-bit word; counter-sum(65)
# overflows it and falls back to the pure engine (AlphabetOverflow),
# which is where lifting the word size would show.  Other wide instances
# were left out: chunked-sum(66) spends half its wall in the solver under
# the pure engine, and mutex-atomic(10)-bug takes 3.7s.  mutex-atomic(9)
# and (9)-bug (0.9s each) were dropped so that a run's 40 timed calls
# fit in its time.
EXPLORE_HEAVY = (
    Instance("svcomp.counter_sum", (8,), correct=False),      # 0.06s
    Instance("svcomp.mutex_atomic", (6,)),                    # 0.09s
    Instance("svcomp.counter_sum", (9,), correct=False),      # 0.10s
    Instance("bluetooth.bluetooth", (4,), correct=False),     # 0.12s
    Instance("svcomp.mutex_atomic", (7,), weight=2),          # 0.19s p50
    Instance("svcomp.mutex_atomic", (8,), weight=3),          # 0.42s p75
    Instance("svcomp.counter_sum", (65,)),                    # 0.57s
)

# refine-heavy: many refinement rounds over few states, so the solver
# (52-91%) and the Floyd/Hoare steps take most of the wall and
# exploration little.  bluetooth(2) was left out: it takes the same time
# as peterson, so the 75th percentile would fall between the two.
# shared-buffer(2)-bug (99% solver) takes 2-3s.
REFINE_HEAVY = (
    Instance("svcomp.peterson", correct=False),               # 0.02s
    Instance("bluetooth.bluetooth", (3,), correct=False),     # 0.06s
    Instance("svcomp.ticket_lock", (2,), correct=False),      # 0.07s
    Instance("mutex.dekker"),                                 # 0.07s
    Instance("svcomp.ticket_lock", (2,), weight=2),           # 0.12s p50
    Instance("svcomp.peterson", weight=3),                    # 0.39s p75
    Instance("bluetooth.bluetooth", (3,)),                    # 0.97s
)

# portfolio-race: sequential triaged verify_portfolio.  On the first
# six the first-ranked member wins inside the first rung of the ladder,
# 2s of the 8s budget.  On ticket-lock(5)-bug the ladder engages: at a
# 2s budget seq, rand(1) and rand(2) are cut at their 0.5s slice and
# rand(3) wins in 0.15s.  No member time lies within 25% of a rung
# boundary, so the member-call sequence repeats exactly; an instance
# that flips (portfolio.unstable_instances) must leave this pool.  The
# ladder instance sits far above the percentiles: its wall is mostly
# fixed-length slices, which the reference-speed scaling does not apply
# to.  ticket-lock(4)-bug at a 1s budget, a second ladder instance, was
# left out for that reason: its 0.4-0.6s wall overlapped the 75th
# percentile's instance.  The ladder instance's peak memory follows the
# machine's speed too (40-46MB: a faster machine gets further before each
# cut), so the
# 75th percentile's instance is mutex-atomic(8)-bug, whose 51MB stays
# the workload's peak.  With bluetooth(3) (30MB) in its place the
# ladder set peak_rss_mb, which spread by 9.5% over ten seeds.
# producer-consumer(7) at a 16s budget (0.85s) was left out so that a
# run's 40 timed calls fit in its time.
PORTFOLIO_RACE = (
    Instance("svcomp.ticket_lock", (3,), correct=False, budget=8.0),  # 0.03s
    Instance("mutex.dekker", budget=8.0),                     # 0.06s
    Instance("arrays.shared_buffer", (2,), correct=False, budget=8.0),  # 0.12s
    Instance("svcomp.peterson", budget=8.0),                  # 0.12s
    Instance("bluetooth.bluetooth", (2,), budget=8.0, weight=2),  # 0.22s p50
    Instance("svcomp.mutex_atomic", (8,), correct=False, budget=8.0, weight=3),  # 0.56s p75
    Instance("svcomp.ticket_lock", (5,), correct=False, budget=2.0),  # 1.3s
)

# edit-reverify: the two scenarios of benchmarks/bench_patchstream.py.
# The bluetooth program (UserMon, User[k], Stop) has a proof-irrelevant
# completion marker; the mutex has a bookkeeping variable outside the
# lock/critical proof core.  An edit changes only that constant.  The
# three bases' edits take about 0.02s, 0.10s and 0.24s, and their chains
# have 6, 4 and 6 edits: of a round's 16 timed calls the middle base
# holds ranks 7-10, centred on the median, and the top base ranks 11-16,
# a third of the way into which the 75th percentile falls.  Three rounds
# make the 40 timed calls a run needs with only three cold runs of each
# base.  User[3] was left out: its cold run takes 2-4s and each edit 1s.
BLUETOOTH_TEMPLATE = """
var pendingIo: int = 1;
var stoppingFlag: bool = false;
var stoppingEvent: bool = false;
var stopped: bool = false;
var done: int = 0;

thread UserMon {
  while (*) {
    atomic { assume !stoppingFlag; pendingIo := pendingIo + 1; }
    assert !stopped;
    atomic { pendingIo := pendingIo - 1; if (pendingIo == 0) { stoppingEvent := true; } }
  }
}

thread User[%(users)d] {
  while (*) {
    atomic { assume !stoppingFlag; pendingIo := pendingIo + 1; }
    atomic { pendingIo := pendingIo - 1; if (pendingIo == 0) { stoppingEvent := true; } }
  }
}

thread Stop {
  stoppingFlag := true;
  atomic { pendingIo := pendingIo - 1; if (pendingIo == 0) { stoppingEvent := true; } }
  assume stoppingEvent;
  stopped := true;
  done := %(marker)d;
}
"""
MUTEX_TEMPLATE = """
var lock: bool = false;
var critical: int = 0;
var aux: int = 0;

thread First {
    atomic { assume !lock; lock := true; }
    critical := critical + 1;
    assert critical == 1;
    critical := critical - 1;
    lock := false;
}

thread Second {
    atomic { assume !lock; lock := true; }
    critical := critical + 1;
    assert critical == 1;
    critical := critical - 1;
    lock := false;
    aux := %(marker)d;
}
"""
#: (base, template, fields, edits in its chain)
EDIT_BASES = (
    ("mutex-patch", MUTEX_TEMPLATE, {}, 6),
    ("bluetooth-patch(U1)", BLUETOOTH_TEMPLATE, {"users": 1}, 4),
    ("bluetooth-patch(U2)", BLUETOOTH_TEMPLATE, {"users": 2}, 6),
)


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    kind: str  # verify | portfolio | edit
    instances: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("explore-heavy", "verify", EXPLORE_HEAVY),
        Workload("refine-heavy", "verify", REFINE_HEAVY),
        Workload("portfolio-race", "portfolio", PORTFOLIO_RACE),
        Workload("edit-reverify", "edit"),
    )
}


def units(workload: Workload, rng: random.Random, limit: int | None = None):
    """The workload's units: lists of jobs that run in order.

    A round runs every unit once, in an order the caller shuffles.  An
    edit chain is one unit (cold run, then its edits); every other
    instance is a unit of one job.  *limit* keeps the first few units.
    """
    if workload.kind != "edit":
        out = [
            [inst.job(workload.kind)]
            for inst in workload.instances for _ in range(inst.weight)
        ]
        return out[:limit]
    out = []
    for base, template, fields, edits in EDIT_BASES[:limit]:
        markers = rng.sample(range(2, 10_000), edits + 1)
        chain = []
        for index, marker in enumerate(markers):
            chain.append({
                "kind": "edit",
                "label": f"{base}/{'cold' if index == 0 else f'edit{index}'}",
                "base": base,
                "cold": index == 0,
                "source": template % dict(fields, marker=marker),
                "name": f"{base}#{index}",
                "expected": "correct",
            })
        out.append(chain)
    return out
