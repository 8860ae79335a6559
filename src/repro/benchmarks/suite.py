"""The benchmark registry: the corpora used by the evaluation harness.

Two suites, mirroring §8 of the paper:

* ``svcomp`` — SV-COMP-like, dominated by incorrect (bug-finding) tasks;
* ``weaver`` — Weaver-like, almost entirely correct, proof-heavy.

Each entry records the *expected* verdict, used both as test oracle and
to split result tables into correct/incorrect rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..lang import ConcurrentProgram
from . import arrays, mutex, svcomp, weaver
from .bluetooth import bluetooth


@dataclass(frozen=True)
class Benchmark:
    """A named program instance with its ground-truth verdict."""

    name: str
    suite: str  # "svcomp" | "weaver"
    expected: str  # "correct" | "incorrect"
    factory: Callable[[], ConcurrentProgram]

    def build(self) -> ConcurrentProgram:
        return self.factory()


def _entry(suite: str, expected: str, factory: Callable[[], ConcurrentProgram]) -> Benchmark:
    program = factory()
    return Benchmark(program.name, suite, expected, factory)


def _svcomp_entries() -> list[Benchmark]:
    correct: list[Callable[[], ConcurrentProgram]] = [
        lambda: svcomp.mutex_atomic(2),
        lambda: svcomp.mutex_atomic(3),
        lambda: svcomp.counter_sum(2),
        lambda: svcomp.counter_sum(3),
        lambda: svcomp.producer_consumer(2),
        lambda: svcomp.producer_consumer(3),
        lambda: svcomp.bank_account(2),
        lambda: svcomp.peterson(),
        lambda: svcomp.ticket_lock(2),
        lambda: svcomp.flag_barrier(2),
        lambda: svcomp.reorder(1),
        lambda: svcomp.reorder(2),
        lambda: svcomp.increment_decrement(2),
        lambda: svcomp.mutex_atomic(4),
        lambda: svcomp.counter_sum(4),
        lambda: svcomp.flag_barrier(3),
        lambda: bluetooth(2),
        lambda: bluetooth(3),
        lambda: bluetooth(4),
        lambda: arrays.parallel_init(2),
        lambda: arrays.parallel_init(3),
        lambda: arrays.pointer_handoff(),
        lambda: mutex.dekker(),
        lambda: mutex.readers_writer(2),
        lambda: mutex.readers_writer(3),
        lambda: mutex.double_observer(),
    ]
    incorrect: list[Callable[[], ConcurrentProgram]] = [
        lambda: svcomp.mutex_atomic(2, correct=False),
        lambda: svcomp.mutex_atomic(3, correct=False),
        lambda: svcomp.counter_sum(2, correct=False),
        lambda: svcomp.counter_sum(3, correct=False),
        lambda: svcomp.counter_sum(4, correct=False),
        lambda: svcomp.producer_consumer(2, correct=False),
        lambda: svcomp.producer_consumer(3, correct=False),
        lambda: svcomp.producer_consumer(4, correct=False),
        lambda: svcomp.bank_account(2, correct=False),
        lambda: svcomp.bank_account(3, correct=False),
        lambda: svcomp.peterson(correct=False),
        lambda: svcomp.ticket_lock(2, correct=False),
        lambda: svcomp.ticket_lock(3, correct=False),
        lambda: svcomp.flag_barrier(2, correct=False),
        lambda: svcomp.flag_barrier(3, correct=False),
        lambda: svcomp.reorder(1, correct=False),
        lambda: svcomp.reorder(2, correct=False),
        lambda: svcomp.reorder(3, correct=False),
        lambda: svcomp.increment_decrement(2, correct=False),
        lambda: svcomp.increment_decrement(3, correct=False),
        lambda: bluetooth(2, correct=False),
        lambda: bluetooth(3, correct=False),
        lambda: arrays.parallel_init(3, correct=False),
        lambda: arrays.pointer_handoff(correct=False),
        lambda: arrays.shared_buffer(2, correct=False),
        lambda: mutex.dekker(correct=False),
        lambda: mutex.readers_writer(2, correct=False),
        lambda: mutex.double_observer(correct=False),
    ]
    return [_entry("svcomp", "correct", f) for f in correct] + [
        _entry("svcomp", "incorrect", f) for f in incorrect
    ]


def _weaver_entries() -> list[Benchmark]:
    correct: list[Callable[[], ConcurrentProgram]] = [
        lambda: weaver.token_ring(3),
        lambda: weaver.token_ring(4),
        lambda: weaver.token_ring(5),
        lambda: weaver.lockstep_counters(2),
        lambda: weaver.lockstep_counters(3),
        lambda: weaver.phase_protocol(2),
        lambda: weaver.phase_protocol(3),
        lambda: weaver.chunked_sum(3),
        lambda: weaver.chunked_sum(4),
        lambda: weaver.max_of_proposals(3),
        lambda: weaver.max_of_proposals(4),
        lambda: weaver.handoff_chain(3),
        lambda: weaver.handoff_chain(4),
        lambda: weaver.handoff_chain(5),
        lambda: weaver.balanced_workers(1),
        lambda: weaver.balanced_workers(2),
        lambda: weaver.token_ring(6),
        lambda: weaver.handoff_chain(6),
        lambda: weaver.lockstep_counters(4),
        lambda: weaver.phase_protocol(4),
    ]
    incorrect = [lambda: weaver.token_ring(3, correct=False)]
    return [_entry("weaver", "correct", f) for f in correct] + [
        _entry("weaver", "incorrect", f) for f in incorrect
    ]


_ALL: list[Benchmark] | None = None


def all_benchmarks() -> list[Benchmark]:
    """The full registry (cached)."""
    global _ALL
    if _ALL is None:
        _ALL = _svcomp_entries() + _weaver_entries()
        names = [b.name for b in _ALL]
        if len(names) != len(set(names)):  # pragma: no cover - sanity
            raise AssertionError("duplicate benchmark names in the registry")
    return _ALL


def suite(name: str) -> list[Benchmark]:
    """Benchmarks of one suite ("svcomp" or "weaver")."""
    entries = [b for b in all_benchmarks() if b.suite == name]
    if not entries:
        raise ValueError(f"unknown suite {name!r}")
    return entries


def by_name(name: str) -> Benchmark:
    for b in all_benchmarks():
        if b.name == name:
            return b
    raise KeyError(name)
