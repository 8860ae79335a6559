"""Figure 6: quantile plots of CPU time and memory.

A point (x, y) means the x-th fastest successfully analysed program
took y seconds (resp. the x-th smallest peak memory was y MB).  The
paper's shape: the GemCutter curve lies below/right of Automizer's.

This bench prints both sorted series (plot-ready data).
"""

from repro.harness import emit, emit_json, run_suite


def _series(tool):
    times, mems = [], []
    for _bench, result in run_suite(tool):
        if result.verdict.solved:
            times.append(result.time_seconds)
            mems.append(result.peak_memory_bytes / 1e6)
    return sorted(times), sorted(mems)


def _run():
    return {tool: _series(tool) for tool in ("baseline", "portfolio")}


def test_fig6_quantile_plots(benchmark):
    data = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = ["CPU time quantiles (s):", f"{'x':>4s} {'Automizer':>10s} {'GemCutter':>10s}"]
    bt, bm = data["baseline"]
    gt, gm = data["portfolio"]
    for i in range(max(len(bt), len(gt))):
        b = f"{bt[i]:>10.2f}" if i < len(bt) else f"{'--':>10s}"
        g = f"{gt[i]:>10.2f}" if i < len(gt) else f"{'--':>10s}"
        lines.append(f"{i + 1:>4d} {b} {g}")
    lines.append("")
    lines.append("Memory quantiles (MB):")
    lines.append(f"{'x':>4s} {'Automizer':>10s} {'GemCutter':>10s}")
    for i in range(max(len(bm), len(gm))):
        b = f"{bm[i]:>10.2f}" if i < len(bm) else f"{'--':>10s}"
        g = f"{gm[i]:>10.2f}" if i < len(gm) else f"{'--':>10s}"
        lines.append(f"{i + 1:>4d} {b} {g}")
    emit("fig6", lines)
    emit_json(
        "fig6",
        {
            "baseline": {"time_s": bt, "memory_mb": bm},
            "portfolio": {"time_s": gt, "memory_mb": gm},
        },
    )
    assert gt, "portfolio solved nothing"
    # headline: GemCutter's worst-case solved time is no worse than
    # baseline's (it solves a superset within the same budget)
    assert len(gt) >= len(bt)
