"""Test configuration: make tests/ importable for shared helpers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _harness_results_in_tmp(tmp_path, monkeypatch):
    """Keep harness output (``progress.log``, emitted tables) out of the
    checked-in ``benchmarks/results/``."""
    from repro import harness

    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
