"""Reporting/export tests."""

import csv
import io
import json

import pytest

from repro import VerifierConfig, parse, verify
from repro.verifier import annotate_trace
from repro.verifier.reporting import (
    render_annotation,
    render_counterexample,
    results_to_csv,
    results_to_json,
    write_csv,
)


@pytest.fixture(scope="module")
def results():
    good = parse(
        "var x: int = 0; thread A { x := x + 1; } post: x == 1;",
        name="good",
    )
    bad = parse(
        "var x: int = 0; thread A { assert x == 1; }", name="bad"
    )
    config = VerifierConfig(max_rounds=10)
    return [verify(good, config=config), verify(bad, config=config)]


class TestCsv:
    def test_roundtrip(self, results):
        text = results_to_csv(results)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["program"] == "good"
        assert rows[0]["verdict"] == "correct"
        assert rows[1]["verdict"] == "incorrect"

    def test_write_csv(self, results, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(results, path)
        assert path.read_text().startswith("program,")


class TestJson:
    def test_structure(self, results):
        payload = json.loads(results_to_json(results))
        assert payload[0]["predicates"]
        assert payload[1]["counterexample"] is not None
        assert all("time_seconds" in row for row in payload)


class TestRenderers:
    def test_counterexample_rendering(self, results):
        bad = parse(
            "var x: int = 0; thread A { assert x == 1; }", name="bad"
        )
        result = verify(bad, config=VerifierConfig(max_rounds=10))
        text = render_counterexample(bad, result.counterexample)
        assert "assert-fail" in text
        assert text.splitlines()[0].startswith("step")

    def test_annotation_rendering(self):
        from repro.lang import assign
        from repro.logic import add, ge, intc, var

        trace = [assign(0, "x", add(var("x"), intc(1)))]
        annotation = annotate_trace(trace, ge(var("x"), intc(1)))
        text = render_annotation(trace, annotation)
        assert text.count("{") == 2
        assert "x:=" in text

    def test_annotation_length_mismatch(self):
        from repro.lang import skip
        from repro.logic import TRUE

        with pytest.raises(ValueError):
            render_annotation([skip(0)], [TRUE])
