"""Experiment harness tests (tool configs, caching, aggregation)."""

import pytest

from repro.benchmarks import by_name
from repro.harness import (
    SuiteAggregate,
    aggregate,
    cache_summary,
    emit,
    result_row,
    run_cached,
    run_tool,
    time_budget,
)
from repro.verifier import Verdict, VerificationResult
from test_report_golden import QUERY_STATS_DICT, golden_results


FAST_BENCH = "counter-sum(2)"


class TestRunTool:
    def test_baseline(self):
        result = run_tool(by_name(FAST_BENCH).build(), "baseline")
        assert result.verdict == Verdict.CORRECT
        assert result.mode == "none"

    def test_single_order(self):
        result = run_tool(by_name(FAST_BENCH).build(), "lockstep")
        assert result.verdict == Verdict.CORRECT
        assert result.order_name == "lockstep"

    def test_random_order(self):
        result = run_tool(by_name(FAST_BENCH).build(), "rand(2)")
        assert result.order_name == "rand(2)"

    def test_ablation_modes(self):
        for tool in ("sleep", "persistent"):
            result = run_tool(by_name(FAST_BENCH).build(), tool)
            assert result.verdict == Verdict.CORRECT
            assert result.mode == tool

    def test_portfolio(self):
        result = run_tool(by_name(FAST_BENCH).build(), "portfolio")
        assert result.verdict == Verdict.CORRECT
        assert result.order_name.startswith("portfolio[")

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError):
            run_tool(by_name(FAST_BENCH).build(), "magic")


class TestCaching:
    def test_cached_identity(self):
        bench = by_name(FAST_BENCH)
        r1 = run_cached(bench, "baseline")
        r2 = run_cached(bench, "baseline")
        assert r1 is r2

    def test_triaged_portfolio_caches_winner_only(self):
        from repro import harness

        bench = by_name(FAST_BENCH)
        for order in ("seq", "lockstep", "portfolio"):
            harness._cache.pop((bench.name, order), None)
        result = run_cached(bench, "portfolio")
        assert result.verdict == Verdict.CORRECT
        winner = result.order_name[len("portfolio["):-1]
        # the winner completed for real and is reusable; cancelled
        # members were never run, so they must stay uncached/retryable
        assert (bench.name, winner) in harness._cache


class TestAggregation:
    def _result(self, verdict, time_s=1.0, rounds=2):
        return VerificationResult(
            program_name="p",
            verdict=verdict,
            rounds=rounds,
            time_seconds=time_s,
            peak_memory_bytes=1000,
        )

    def test_counts_solved_only(self):
        bench = by_name(FAST_BENCH)
        agg = SuiteAggregate("t")
        agg.add(bench, self._result(Verdict.CORRECT))
        agg.add(bench, self._result(Verdict.INCORRECT))
        agg.add(bench, self._result(Verdict.TIMEOUT))
        assert agg.successful == 2
        assert agg.correct == 1
        assert agg.incorrect == 1
        assert agg.time_seconds == pytest.approx(2.0)

    def test_aggregate_function(self):
        bench = by_name(FAST_BENCH)
        pairs = [(bench, self._result(Verdict.CORRECT, 0.5, 3))]
        agg = aggregate(pairs, "label")
        assert agg.label == "label"
        assert agg.rounds == 3

    def test_cache_summary_sums_runs(self):
        runs = [(None, r) for r in golden_results() * 2]
        expected = {
            name: 2 * value
            for name, value in QUERY_STATS_DICT.items()
            if not name.endswith("_rate")
        }
        # absolute values are not summed
        expected.update(intern_table_size=0, store_entries=0)
        # doubling every numerator and denominator keeps each rate
        expected.update(
            (name, value)
            for name, value in QUERY_STATS_DICT.items()
            if name.endswith("_rate")
        )
        summary = cache_summary(runs)
        assert list(summary.items()) == list(expected.items())


class TestOutput:
    def test_emit_persists(self, tmp_path, monkeypatch):
        import repro.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = emit("unit-test", ["row1", "row2"])
        assert "row1" in text
        assert (tmp_path / "unit-test.txt").read_text() == "row1\nrow2\n"

    def test_result_row_shape(self):
        result = VerificationResult(
            program_name="p", verdict=Verdict.CORRECT, rounds=2,
            proof_size=5, states_explored=10, time_seconds=0.25,
            peak_memory_bytes=2_000_000, order_name="seq",
        )
        row = result_row(result)
        assert row["program"] == "p"
        assert row["memory_mb"] == 2.0
        assert row["verdict"] == "correct"

    def test_budget_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET", "7.5")
        assert time_budget() == 7.5


class TestCachePolicy:
    """Only solved verdicts are memoized — a transient failure must stay
    retryable within the session."""

    def _fake_run(self, monkeypatch, verdicts):
        import repro.harness as harness

        calls = []

        def fake(program, tool, **kw):
            calls.append(tool)
            return VerificationResult(
                program_name=program.name,
                verdict=verdicts[min(len(calls), len(verdicts)) - 1],
            )

        monkeypatch.setattr(harness, "run_tool", fake)
        return calls

    def test_unsolved_verdicts_not_cached(self, monkeypatch):
        calls = self._fake_run(
            monkeypatch, [Verdict.UNKNOWN, Verdict.CORRECT]
        )
        bench = by_name(FAST_BENCH)
        first = run_cached(bench, "flaky-tool")
        assert first.verdict == Verdict.UNKNOWN
        second = run_cached(bench, "flaky-tool")
        assert second.verdict == Verdict.CORRECT  # re-ran, not pinned
        assert len(calls) == 2
        third = run_cached(bench, "flaky-tool")
        assert third is second  # solved result is memoized
        assert len(calls) == 2

    def test_error_verdict_not_cached(self, monkeypatch):
        calls = self._fake_run(monkeypatch, [Verdict.ERROR, Verdict.ERROR])
        bench = by_name(FAST_BENCH)
        run_cached(bench, "error-tool")
        run_cached(bench, "error-tool")
        assert len(calls) == 2


class TestAtomicWrites:
    def test_atomic_write_replaces_content(self, tmp_path):
        from repro.harness import atomic_write_text

        target = tmp_path / "out.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        # no temp-file litter
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_emit_json_keeps_old_file(self, tmp_path, monkeypatch):
        import repro.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        harness.emit_json("report", {"ok": True})
        good = (tmp_path / "report.json").read_text()
        with pytest.raises(TypeError):
            harness.emit_json("report", {"bad": object()})
        assert (tmp_path / "report.json").read_text() == good
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
