"""Term-kernel guard: construct/equality/substitute workload vs baseline.

A deterministic workload exercises the three hot paths of the interning
kernel — node construction, equality (pointer identity), and memoized
substitution — and compares the kernel counters it produces against
``benchmarks/terms_baseline.json``, which is checked in.  Any drift in
intern hits/misses or substitute hits/misses means the kernel's
canonicalization or memoization behavior changed; throughput numbers are
printed for inspection but not asserted (machine-dependent).

To regenerate the baseline after an *intentional* kernel change::

    REPRO_REGEN_BASELINE=1 PYTHONPATH=src \
        python -m pytest benchmarks/bench_terms.py -q --benchmark-disable
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.harness import atomic_write_text, emit, emit_timings
from repro.logic import (
    add,
    and_,
    compact_kernel,
    intc,
    kernel_counters,
    le,
    mul,
    or_,
    substitute,
    var,
)

BASELINE_PATH = Path(__file__).resolve().parent / "terms_baseline.json"

#: deterministic workload shape; variable names are prefixed ``bt_`` so
#: the structures are fresh regardless of what ran earlier in-process
#: (the workload compacts the kernel and collects before measuring)
N_VARS = 24
N_ATOMS = 3000
N_CLAUSES = 150
N_SUBST = 400

_COUNTER_KEYS = (
    "intern_hits",
    "intern_misses",
    "substitute_hits",
    "substitute_misses",
)


def _atom(i: int, variables: list):
    a = variables[i % N_VARS]
    b = variables[(7 * i + 3) % N_VARS]
    # constants stay in the strongly-pinned small-int range so the
    # constant hits are deterministic across processes
    return le(add(a, mul((i % 5) - 2, b)), intc(i % 97))


def _workload() -> dict:
    compact_kernel(0)
    gc.collect()
    base = kernel_counters()
    timings: dict[str, float] = {}

    started = time.perf_counter()
    variables = [var(f"bt_v{i}") for i in range(N_VARS)]
    atoms = [_atom(i, variables) for i in range(N_ATOMS)]
    # second pass over identical structures: pure intern-table hits
    atoms += [_atom(i, variables) for i in range(N_ATOMS)]
    timings["construct"] = time.perf_counter() - started

    started = time.perf_counter()
    identical = sum(
        1 for i in range(N_ATOMS) if atoms[i] is atoms[N_ATOMS + i]
    )
    timings["equality"] = time.perf_counter() - started

    clauses = [
        or_(*(atoms[j] for j in range(i, i + 5)))
        for i in range(0, N_CLAUSES * 5, 5)
    ]
    phi = and_(*clauses)

    started = time.perf_counter()
    for i in range(N_SUBST):
        substitute(phi, {f"bt_v{i % N_VARS}": intc(i % 50)})
    timings["substitute"] = time.perf_counter() - started

    now = kernel_counters()
    counters = {k: now[k] - base[k] for k in _COUNTER_KEYS}
    counters["identical_pairs"] = identical
    return {"counters": counters, "timings": timings}


def test_term_kernel_counters_match_baseline(benchmark):
    observed = benchmark.pedantic(_workload, rounds=1, iterations=1)
    counters, timings = observed["counters"], observed["timings"]
    if os.environ.get("REPRO_REGEN_BASELINE"):
        atomic_write_text(
            BASELINE_PATH,
            json.dumps({"counters": counters}, indent=2) + "\n",
        )
    baseline = json.loads(BASELINE_PATH.read_text())
    lines = [
        f"{'counter':20s} {'observed':>10s} {'baseline':>10s}",
    ]
    for key in (*_COUNTER_KEYS, "identical_pairs"):
        lines.append(
            f"{key:20s} {counters[key]:>10d} {baseline['counters'][key]:>10d}"
        )
    emit("bench_terms", lines)
    emit_timings("bench_terms", [
        "throughput: "
        f"construct {2 * N_ATOMS / timings['construct']:.0f} atoms/s, "
        f"equality {N_ATOMS / timings['equality']:.0f} cmp/s, "
        f"substitute {N_SUBST / timings['substitute']:.0f} subst/s"
    ])
    # identity equality must hold for every rebuilt structure
    assert counters["identical_pairs"] == N_ATOMS
    assert counters == baseline["counters"], (
        "term-kernel counters drifted from the checked-in baseline "
        "(intentional kernel change? regenerate with REPRO_REGEN_BASELINE=1)"
    )
