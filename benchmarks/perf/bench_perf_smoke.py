"""Smoke and unit tests for the cold-process benchmark.

    PYTHONPATH=src python -m pytest benchmarks/perf/bench_perf_smoke.py -q

The smoke test runs one unit of every workload once untraced and once
traced (a few seconds); the unit tests cover the statistics and
span helpers the metrics rest on.
"""

from __future__ import annotations

import json
import math
import sys
import types

import pytest

import pools
import run
import spans
import summarize


# -- statistics ---------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond_it():
    assert summarize.supported_percentile(40) == 0.75
    assert summarize.supported_percentile(100) == 0.9
    assert summarize.supported_percentile(10) is None
    assert summarize.supported_percentile(20, beyond=5) == 0.75
    minimum = summarize.MIN_TIMED_CALLS
    assert summarize.supported_percentile(minimum) >= 0.75
    assert summarize.supported_percentile(minimum - 1) < 0.75


def test_geomean():
    assert summarize.geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert summarize.geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        summarize.geomean([1.0, 0.0])


def test_quartiles_match_the_statistics_module():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = summarize.quartiles(values)
    assert median == 5.5
    assert (q1, q3) == (2.75, 8.25)
    assert summarize.quartiles([2.0]) == (2.0, 2.0, 2.0)
    # the verdict percentiles interpolate between ranks over the whole range
    assert summarize.quartiles([4.0, 1.0, 3.0, 2.0], method="inclusive") == (
        pytest.approx(1.75), 2.5, pytest.approx(3.25),
    )
    assert summarize.quartiles([7.0], method="inclusive") == (7.0, 7.0, 7.0)


def _row(label, verdict="correct", wall_s=0.5):
    return {
        "label": label, "kind": "verify", "verdict": verdict,
        "expected": "correct", "engine": "fast", "problems": [],
        "wall_s": wall_s, "setup_s": 0.2, "peak_rss_mb": 30.0,
    }


def test_failed_calls_count_against_decided_frac():
    rows = [_row("a"), _row("b", verdict="unknown")]
    assert summarize.end_to_end(rows)["decided_frac"] == 0.5
    assert summarize.end_to_end(rows, failed_calls=2)["decided_frac"] == 0.25


def test_a_crashed_call_keeps_its_round_and_fails_the_run(monkeypatch):
    calls = []

    def fake_spawn(job, timeout):
        calls.append(job["label"])
        if len(calls) == 4:  # the warm-up, two calls, then a crash
            raise run.ChildFailed(f"{job['label']}: child exited -9")
        return _row(job["label"])

    monkeypatch.setattr(run, "spawn", fake_spawn)
    benchmark = run.Run(pools.WORKLOADS["refine-heavy"], seed=0, seconds=0, trace=False)
    benchmark.execute()
    summary = benchmark.summary()
    assert len(summary["failures"]) == 1
    assert summary["calls"] == 2 and summary["attempted"] == 3
    assert summary["metrics"]["decided_frac"] == pytest.approx(2 / 3)
    assert summary["too_few_calls"]


def test_an_untraced_run_makes_enough_calls_for_its_tail(monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda job, timeout: _row(job["label"]))
    benchmark = run.Run(pools.WORKLOADS["refine-heavy"], seed=0, seconds=0, trace=False)
    benchmark.execute()
    summary = benchmark.summary()
    assert summary["timed_calls"] >= summarize.MIN_TIMED_CALLS
    assert summary["timed_calls"] < summarize.MIN_TIMED_CALLS + len(benchmark.units)
    assert not summary["too_few_calls"]


def test_reference_speed_scales_every_time():
    row = {
        "reference_s": 2 * summarize.REFERENCE_S, "wall_s": 1.0,
        "setup_s": 0.2, "import_s": 0.1, "peak_rss_mb": 30.0,
        "layers": {"solver.is_sat": [3, 0.4, 0.6]},
    }
    scaled = summarize.at_reference_speed(row)
    assert scaled["wall_s"] == 0.5 and scaled["setup_s"] == 0.1
    assert scaled["import_s"] == 0.05 and scaled["peak_rss_mb"] == 30.0
    assert scaled["layers"]["solver.is_sat"] == [3, 0.2, 0.3]
    assert row["wall_s"] == 1.0


# -- spans --------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_overlapping_children():
    spans_ = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),   # overlaps a: [3, 4] counts once
        ("c", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        ("a", 1.5, 2.0, 1),   # grandchild: only a's self time shrinks
    ]
    times = spans.self_times(spans_)
    assert times["root"][1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert times["a"] == pytest.approx([2, 3.0 - 0.5 + 0.5, 3.5])
    assert times["b"][1] == pytest.approx(3.0)
    assert times["c"][1] == pytest.approx(4.0)


def test_spans_nest():
    assert spans.spans_nest([("r", 0.0, 2.0, -1), ("x", 0.5, 1.0, 0)])
    assert not spans.spans_nest([("r", 0.0, 2.0, -1), ("x", 1.5, 2.5, 0)])


class _Fake:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)


def _plain(x):
    return 2 * x


def test_tracer_wraps_and_restores_functions_methods_and_classmethods():
    module = types.ModuleType("fake_layer")
    module.Fake, module.plain = _Fake, _plain
    sys.modules["fake_layer"] = module
    method, build = _Fake.__dict__["method"], _Fake.__dict__["build"]
    try:
        tracer = spans.Tracer()
        tracer.install((
            ("m", "fake_layer", "Fake.method"),
            ("b", "fake_layer", "Fake.build"),
            ("p", "fake_layer", "plain"),
        ))
        root = tracer.begin("root")
        assert module.Fake().method(1) == 2
        assert module.Fake.build(3) == (_Fake, 3)
        assert module.plain(4) == 8
        tracer.end(root)
        tracer.uninstall()
        assert [s[0] for s in tracer.spans] == ["root", "m", "b", "p"]
        assert all(s[3] == 0 for s in tracer.spans[1:])
        assert module.plain is _plain
        assert _Fake.__dict__["method"] is method
        assert _Fake.__dict__["build"] is build
    finally:
        del sys.modules["fake_layer"]


# -- the whole benchmark ---------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code(benchmark_spec):
    assert [w["name"] for w in benchmark_spec["workloads"]] == list(pools.WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in benchmark_spec["end_to_end"]
    } == summarize.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in benchmark_spec["per_layer"]
    } == summarize.PER_LAYER


@pytest.mark.parametrize("name", list(pools.WORKLOADS))
def test_one_unit_per_workload(name, benchmark_spec):
    benchmark = run.Run(
        pools.WORKLOADS[name], seed=0, seconds=0, trace=True, limit=1
    )
    benchmark.execute()
    summary = benchmark.summary()
    assert not summary["failures"]
    assert summary["wrong_verdicts"] == 0
    assert summary["undecided"] == 0
    # one untraced round, then one traced round
    assert [traced for traced, _rows in benchmark.rounds] == [False, True]
    assert all(r["spans_nest"] for r in benchmark.rows(True))
    assert math.isclose(sum(summary["layer_shares"].values()), 1.0, rel_tol=0.01)
    per_layer = summary["metrics"]
    end_to_end = summarize.end_to_end(benchmark.rows(False))
    assert set(per_layer) == {m["name"] for m in benchmark_spec["per_layer"]}
    assert set(end_to_end) == {m["name"] for m in benchmark_spec["end_to_end"]}
    assert all(value > 0 for value in end_to_end.values())
    assert per_layer["checkproof.check.calls"] > 0
    assert per_layer["solver.is_sat.calls"] > 0
