"""Benchmark registry tests: ground-truth verdicts and generator sanity.

Every registry entry is verified end-to-end against its expected
verdict.  Heavier instances (bluetooth n >= 3) run under the ``slow``
marker; enable with ``pytest -m slow``.
"""

import pytest

from repro import VerifierConfig, verify
from repro.benchmarks import all_benchmarks, bluetooth, by_name, suite
from repro.benchmarks import svcomp, weaver
from repro.lang import explore_concrete

_SLOW = {"bluetooth(3)", "bluetooth(4)", "bluetooth(3)-bug"}


def _config():
    return VerifierConfig(max_rounds=60, time_budget=120)


@pytest.mark.parametrize(
    "name",
    [b.name for b in all_benchmarks() if b.name not in _SLOW],
)
def test_expected_verdict(name):
    bench = by_name(name)
    result = verify(bench.build(), config=_config())
    assert result.verdict.value == bench.expected, result.summary()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(_SLOW))
def test_expected_verdict_slow(name):
    bench = by_name(name)
    result = verify(bench.build(), config=_config())
    assert result.verdict.value == bench.expected, result.summary()


class TestRegistry:
    def test_suites_partition(self):
        entries = all_benchmarks()
        assert {b.suite for b in entries} == {"svcomp", "weaver"}
        assert len(suite("svcomp")) + len(suite("weaver")) == len(entries)

    def test_names_unique(self):
        names = [b.name for b in all_benchmarks()]
        assert len(names) == len(set(names))

    def test_svcomp_mostly_incorrect(self):
        """Mirrors the real SV-COMP distribution (847 of 1050 incorrect)."""
        entries = suite("svcomp")
        incorrect = [b for b in entries if b.expected == "incorrect"]
        assert len(incorrect) > len(entries) / 2

    def test_weaver_mostly_correct(self):
        """Mirrors the Weaver distribution (182 of 183 correct)."""
        entries = suite("weaver")
        correct = [b for b in entries if b.expected == "correct"]
        assert len(correct) >= len(entries) - 1

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError):
            suite("nope")

    def test_by_name_missing_raises(self):
        with pytest.raises(KeyError):
            by_name("no-such-benchmark")

    def test_factories_are_deterministic(self):
        bench = by_name("peterson")
        p1, p2 = bench.build(), bench.build()
        assert p1.size == p2.size
        assert len(p1.alphabet()) == len(p2.alphabet())


class TestGroundTruthConcrete:
    """Seeded bugs must be concretely reachable (not just solver-claimed)."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: svcomp.mutex_atomic(2, correct=False),
            lambda: svcomp.counter_sum(2, correct=False),
            lambda: svcomp.producer_consumer(2, correct=False),
            lambda: svcomp.peterson(correct=False),
            lambda: svcomp.reorder(1, correct=False),
            lambda: svcomp.flag_barrier(2, correct=False),
            lambda: weaver.token_ring(3, correct=False),
        ],
    )
    def test_bug_concretely_reachable(self, factory):
        program = factory()
        if program.has_asserts():
            result = explore_concrete(program, max_states=40_000)
            assert result.found_violation, program.name
        else:
            # post-condition bugs: some completed store violates the post
            from repro.logic import evaluate

            result = explore_concrete(program, max_states=40_000)
            assert any(
                not evaluate(program.post, env)
                for env in result.completed_stores
            ), program.name

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: svcomp.mutex_atomic(2),
            lambda: svcomp.peterson(),
            lambda: svcomp.ticket_lock(2),
            lambda: weaver.token_ring(3),
        ],
    )
    def test_correct_no_concrete_violation(self, factory):
        program = factory()
        result = explore_concrete(program, max_states=40_000)
        assert not result.found_violation, program.name


class TestBluetoothGenerator:
    def test_thread_count(self):
        prog = bluetooth(3)
        # UserMon + 2 plain users + Stop
        assert len(prog.threads) == 4

    def test_single_user(self):
        prog = bluetooth(1)
        assert len(prog.threads) == 2

    def test_rejects_zero_users(self):
        with pytest.raises(ValueError):
            bluetooth(0)

    def test_buggy_variant_named(self):
        assert bluetooth(2, correct=False).name.endswith("-bug")
