"""Account for the wall of ``benchmarks/bench_fig7.py`` by measurement.

    python3 benchmarks/perf/fig7_gap.py            # about 5 minutes

fig7 runs ``harness.run_tool(bench, "baseline")`` and then
``run_tool(bench, "portfolio")`` for every registry program in one
process, at ``REPRO_BUDGET=10`` and with ``track_memory=True``.  This
script repeats that pass in two fresh processes, with tracemalloc on (as
fig7 runs) and off, and splits each wall into:

* the times the results report (``time_seconds``: for a portfolio, the
  *emulated* parallel wall of the triaged ladder);
* the real wall of the portfolio calls, which includes every member
  slice the emulation overlaps or discards;
* baseline runs held at the budget (verdict TIMEOUT or UNKNOWN);
* a second pass over the unsolved calls only: what fig7 costs when
  ``bench_fig6.py`` ran first in the same pytest run and ``run_cached`` serves
  every solved result from its memo.

It edits neither ``harness.py`` nor ``bench_fig7.py``; the
tracemalloc-off pass rebinds the harness's ``_config`` function.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def one_pass(track_memory: bool) -> dict:
    from repro import harness
    from repro.benchmarks import all_benchmarks

    if not track_memory:
        build = harness._config

        def _config(**overrides):
            config = build(**overrides)
            config.track_memory = False
            return config

        harness._config = _config
    out = {"calls": 0, "reported_s": {"baseline": 0.0, "portfolio": 0.0},
           "real_s": {"baseline": 0.0, "portfolio": 0.0},
           "budget_bound": 0, "budget_bound_s": 0.0}
    unsolved = []
    started = time.perf_counter()
    for bench in all_benchmarks():
        for tool in ("baseline", "portfolio"):
            call_started = time.perf_counter()
            # run_tool, not run_cached: the latter appends to the
            # checked-in benchmarks/results/progress.log
            result = harness.run_tool(bench.build(), tool)
            real = time.perf_counter() - call_started
            out["calls"] += 1
            out["real_s"][tool] += real
            out["reported_s"][tool] += result.time_seconds
            if not result.verdict.solved:
                unsolved.append((bench, tool))
                if tool == "baseline":
                    out["budget_bound"] += 1
                    out["budget_bound_s"] += real
    out["wall_s"] = time.perf_counter() - started
    # run_cached memoizes solved results only, so after bench_fig6 (same
    # tools, same registry, earlier in a pytest run) fig7 re-runs just these
    memo_started = time.perf_counter()
    for bench, tool in unsolved:
        harness.run_tool(bench.build(), tool)
    out["after_fig6_s"] = time.perf_counter() - memo_started
    return out


def main() -> int:
    if sys.argv[1:2] == ["--pass"]:
        print(json.dumps(one_pass(sys.argv[2] == "on")))
        return 0
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_BUDGET="10")
    for mode in ("on", "off"):
        proc = subprocess.run(
            [sys.executable, __file__, "--pass", mode], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"tracemalloc {mode}: {json.dumps(result)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
