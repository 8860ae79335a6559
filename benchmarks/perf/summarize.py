"""Metric definitions and the statistics behind them.

Rows are the JSON lines the child processes print, one per call; a
round is the list of rows of one pass over the workload's units.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

#: end-to-end metrics: name -> unit (bounds live in BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_p75_s": "s",
    "verdict_geomean_s": "s",
    "peak_rss_mb": "MB",
    "decided_frac": "ratio",
}

#: per-layer metrics from the traced run: name -> (unit, better)
PER_LAYER = {
    "checkproof.check.calls": ("count", "lower"),
    "checkproof.check.self_s": ("s", "lower"),
    "checkproof.states": ("count", "lower"),
    "checkproof.states_per_s": ("1/s", "higher"),
    "fastpath.fallback_calls": ("count", "lower"),
    "commutativity.calls": ("count", "lower"),
    "commutativity.self_s": ("s", "lower"),
    "commutativity.hit_ratio": ("ratio", "higher"),
    "hoare.step.calls": ("count", "lower"),
    "hoare.step.self_s": ("s", "lower"),
    "hoare.step.hit_ratio": ("ratio", "higher"),
    "solver.is_sat.calls": ("count", "lower"),
    "solver.is_sat.self_s": ("s", "lower"),
    "solver.cache_hit_ratio": ("ratio", "higher"),
    "solver.decisions": ("count", "lower"),
    "interpolate.calls": ("count", "lower"),
    "interpolate.self_s": ("s", "lower"),
    "refinement.rounds": ("count", "lower"),
    "refinement.verify.self_s": ("s", "lower"),
    "stats.collect.self_s": ("s", "lower"),
    "store.open.self_s": ("s", "lower"),
    "store.get.calls": ("count", "lower"),
    "store.get.self_s": ("s", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.put.calls": ("count", "lower"),
    "store.put.self_s": ("s", "lower"),
    "store.flush.self_s": ("s", "lower"),
    "store.bytes": ("bytes", "lower"),
    "store.cold_s": ("s", "lower"),
    "delta.plan.self_s": ("s", "lower"),
    "delta.fact_reuse_ratio": ("ratio", "higher"),
    "digest.program.self_s": ("s", "lower"),
    "triage.plan.self_s": ("s", "lower"),
    "portfolio.member_calls": ("count", "lower"),
    "portfolio.useful_ratio": ("ratio", "higher"),
    "portfolio.self_s": ("s", "lower"),
    "portfolio.emulated_wall_s": ("s", "lower"),
    "portfolio.unstable_instances": ("count", "lower"),
    "lang.parse.self_s": ("s", "lower"),
    "process.import_s": ("s", "lower"),
    "trace.call_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

UNITS = {**END_TO_END, **{name: unit for name, (unit, _b) in PER_LAYER.items()}}

#: a tail percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10
#: timed calls an untraced run makes at least, so that ``verdict_p75_s``
#: has TAIL_SAMPLES beyond it (``supported_percentile(40) == 0.75``)
MIN_TIMED_CALLS = 40

#: the median piece ``child.reference_pieces()`` measures on the reference
#: machine, a 2.1 GHz Xeon, in its fast state.  Every time is reported at
#: that speed.
REFERENCE_S = 0.0098

_TIME_FIELDS = ("wall_s", "setup_s", "import_s", "emulated_wall_s", "winner_s")


def at_reference_speed(row: dict) -> dict:
    """*row* with its times scaled by the CPU speed its call ran at.

    The child times a fixed loop around the call; a machine running at
    half speed doubles that loop's time and the call's alike, so the
    ratio cancels the drift that would otherwise dominate the spread
    between runs.  ``reference_s`` stays in the row, so the raw times
    can be recovered.
    """
    scale = REFERENCE_S / row["reference_s"]
    out = dict(row)
    for key in _TIME_FIELDS:
        if out.get(key) is not None:
            out[key] *= scale
    if "layers" in out:
        out["layers"] = {
            name: [calls, self_s * scale, total_s * scale]
            for name, (calls, self_s, total_s) in out["layers"].items()
        }
    return out


# -- statistics ---------------------------------------------------------------

def supported_percentile(n: int, beyond: int = TAIL_SAMPLES) -> float | None:
    """The highest quantile with at least *beyond* of *n* samples above it.

    ``None`` when *n* is too small for any tail.  At n = 40 this is the
    75th percentile.
    """
    if n <= beyond:
        return None
    return 1.0 - beyond / n


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values, method: str = "exclusive") -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by ``statistics.quantiles``.

    The verdict percentiles of a run's calls use the ``inclusive``
    method, which interpolates between ranks over the whole range.
    Spreads across runs use the module's default, ``exclusive``, which
    over ten runs gives the wider, more cautious quartiles; the
    stability figures in the README are computed the same way.
    """
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, q2, q3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- end-to-end ------------------------------------------------------------------

def timed_rows(rows):
    """The rows the verdict metrics cover: all but the edit chains' cold runs."""
    return [r for r in rows if not r.get("cold")]


def end_to_end(rows, failed_calls: int = 0) -> dict[str, float]:
    """End-to-end metrics over the *rows* of the calls that returned;
    *failed_calls* crashed or hung and count against ``decided_frac``."""
    timed = timed_rows(rows)
    walls = [r["wall_s"] for r in timed]
    by_instance: dict[str, list[float]] = {}
    for r in timed:
        by_instance.setdefault(r["label"], []).append(r["wall_s"])
    _q1, p50, p75 = quartiles(walls, method="inclusive")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rows),
        "verdicts_per_s": len(walls) / sum(walls),
        "verdict_p50_s": p50,
        "verdict_p75_s": p75,
        "verdict_geomean_s": geomean(
            statistics.median(v) for v in by_instance.values()
        ),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rows),
        "decided_frac": _ratio(
            sum(r["verdict"] in ("correct", "incorrect") for r in rows),
            len(rows) + failed_calls,
        ),
    }


def wrong_verdicts(rows) -> int:
    """Rows whose verdict or counterexample failed the output check,
    plus edits whose verdict differs from their chain's cold run."""
    wrong = sum(bool(r["problems"]) for r in rows)
    base_verdict = {r["base"]: r["verdict"] for r in rows if r.get("cold")}
    wrong += sum(
        1 for r in rows
        if r.get("base") and not r.get("cold")
        and r["verdict"] != base_verdict.get(r["base"])
    )
    return wrong


def unstable_instances(rows) -> int:
    """Portfolio instances whose member-call sequence changed across repeats."""
    seen: dict[str, set] = {}
    for r in rows:
        if "signature" in r:
            seen.setdefault(r["label"], set()).add(repr(r["signature"]))
    return sum(len(signatures) > 1 for signatures in seen.values())


# -- per-layer ----------------------------------------------------------------

def _layer_round(rows) -> dict[str, float]:
    """Per-layer totals over one traced round."""
    layers: dict[str, list] = {}
    counts: Counter = Counter()
    for r in rows:
        counts.update(r["counts"])
        for name, (calls, self_s, total_s) in r["layers"].items():
            row = layers.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[1]

    races = [r for r in rows if r["kind"] == "portfolio"]
    member_s = sum(r["layers"]["refinement.verify"][2] for r in races)
    stores: dict[str, int] = {}
    for r in rows:
        if "store_bytes" in r:
            stores[r["base"]] = max(stores.get(r["base"], 0), r["store_bytes"])
    comm_hits = counts["comm_subsumption_hits"] + counts["comm_cache_hits"]
    solver_hits = (
        counts["solver_cache_hits"] + counts["solver_model_pool_hits"]
        + counts["solver_unknown_cache_hits"]
    )
    reused = counts["delta_hoare_reused"] + counts["delta_comm_reused"]
    return {
        "checkproof.check.calls": calls("checkproof.check"),
        "checkproof.check.self_s": self_s("checkproof.check"),
        "checkproof.states": counts["states"],
        "checkproof.states_per_s": _ratio(
            counts["states"], self_s("checkproof.check")
        ),
        "fastpath.fallback_calls": counts["fastpath_fallbacks"],
        "commutativity.calls": calls("commutativity"),
        "commutativity.self_s": self_s("commutativity"),
        "commutativity.hit_ratio": _ratio(
            comm_hits, comm_hits + counts["comm_solver_checks"]
        ),
        "hoare.step.calls": calls("hoare.step"),
        "hoare.step.self_s": self_s("hoare.step"),
        "hoare.step.hit_ratio": _ratio(counts["fh_step_hits"], calls("hoare.step")),
        "solver.is_sat.calls": calls("solver.is_sat"),
        "solver.is_sat.self_s": self_s("solver.is_sat"),
        "solver.cache_hit_ratio": _ratio(solver_hits, counts["solver_sat_queries"]),
        "solver.decisions": counts["solver_decisions"],
        "interpolate.calls": calls("interpolate"),
        "interpolate.self_s": self_s("interpolate"),
        "refinement.rounds": counts["rounds"],
        "refinement.verify.self_s": self_s("refinement.verify"),
        "stats.collect.self_s": self_s("stats.collect"),
        "store.open.self_s": self_s("store.open"),
        "store.get.calls": calls("store.get"),
        "store.get.self_s": self_s("store.get"),
        "store.hit_ratio": _ratio(
            counts["store_hits"], counts["store_hits"] + counts["store_misses"]
        ),
        "store.put.calls": calls("store.put"),
        "store.put.self_s": self_s("store.put"),
        "store.flush.self_s": self_s("store.flush"),
        "store.bytes": sum(stores.values()),
        "delta.plan.self_s": self_s("delta.plan"),
        "delta.fact_reuse_ratio": _ratio(
            reused,
            reused + counts["delta_hoare_missed"] + counts["delta_comm_missed"],
        ),
        "digest.program.self_s": self_s("digest.program"),
        "triage.plan.self_s": self_s("triage.plan"),
        "portfolio.member_calls": sum(
            r["layers"]["refinement.verify"][0] for r in races
        ),
        "portfolio.useful_ratio": _ratio(
            sum(r["winner_s"] for r in races), member_s
        ),
        "portfolio.self_s": self_s("portfolio"),
        "lang.parse.self_s": self_s("lang.parse"),
        "trace.call_s": sum(r["wall_s"] for r in rows),
    }


def _cold_store_s(rows) -> float:
    """Summed per-base median wall of the cold runs that fill the store."""
    by_base: dict[str, list[float]] = {}
    for r in rows:
        if r.get("cold"):
            by_base.setdefault(r["base"], []).append(r["wall_s"])
    return sum(statistics.median(v) for v in by_base.values())


def per_layer(traced_rounds, plain_rounds) -> dict[str, float]:
    """Per-layer metrics: medians over traced rounds of per-round totals,
    plus what the interleaved untraced rounds give (the cold store
    writes, the emulated portfolio wall and the tracing overhead)."""
    per_round = [_layer_round(rows) for rows in traced_rounds]
    out = {
        name: statistics.median(m[name] for m in per_round)
        for name in per_round[0]
    }
    plain = [r for rows in plain_rounds for r in rows]
    out["store.cold_s"] = _cold_store_s(plain)
    out["portfolio.emulated_wall_s"] = statistics.median(
        sum(r.get("emulated_wall_s") or 0.0 for r in rows) for rows in plain_rounds
    )
    every = plain + [r for rows in traced_rounds for r in rows]
    out["portfolio.unstable_instances"] = unstable_instances(every)
    out["process.import_s"] = statistics.median(r["import_s"] for r in every)
    plain_wall = statistics.median(
        sum(r["wall_s"] for r in rows) for rows in plain_rounds
    )
    out["trace.overhead_frac"] = out["trace.call_s"] / plain_wall - 1.0
    return {name: out[name] for name in PER_LAYER}


def layer_shares(traced_rounds) -> dict[str, float]:
    """Each span name's self time as a share of the traced call wall.

    Spans under the ``setup`` root (program building) are excluded, so
    the shares of one round add up to 1 when the spans nest.
    """
    self_s: Counter = Counter()
    wall = 0.0
    for rows in traced_rounds:
        for r in rows:
            wall += r["wall_s"]
            for name, (_calls, seconds, _total) in r["layers"].items():
                if name not in ("setup", "lang.parse"):
                    self_s[name] += seconds
    return {name: seconds / wall for name, seconds in self_s.most_common()}
