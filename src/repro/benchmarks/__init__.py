"""Benchmark program generators (the evaluation corpora substitute)."""

from .bluetooth import bluetooth
from .suite import Benchmark, all_benchmarks, by_name, suite

__all__ = [
    "bluetooth",
    "Benchmark",
    "all_benchmarks",
    "by_name",
    "suite",
]
