"""Cold-process verification benchmark.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--out FILE]
    python3 benchmarks/perf/run.py compare A B

Each timed call is one public-API call (``repro.verifier.verify`` or
``verify_portfolio``) in a fresh child process, with the ``REPRO_*``
environment cleared so every call runs the default configuration.  Calls
run one at a time, so at most two processes (this one and one child)
are alive.  A round runs every unit of the workload once in a seeded
order; another round starts while it should end within half a round of
``--seconds`` (by default ``run_seconds`` in BENCHMARK.json), or while
an untraced run has fewer than 40 timed calls, the sample count its 75th
percentile needs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics).  The command exits non-zero
if any verdict or counterexample is wrong, a call fails, or an untraced
run ends with fewer than 40 timed calls.  ``compare`` takes two result
files or directories of them, from runs of the same length, and flags
every end-to-end metric whose median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pools
import summarize

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
RESULTS = PERF / "results"
CHILD = PERF / "child.py"

#: no call outlives the measured window by more than this many seconds,
#: so a hung call cannot hold a run past its time limit
OVERRUN_S = 120.0
#: compiles the package's bytecode before anything is timed
WARMUP = pools.Instance("svcomp.counter_sum", (2,)).job("verify")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # string hashing order is fixed so that repeats run the same work
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job: dict, timeout: float) -> dict:
    """Run *job* in a fresh child process and return its result row."""
    spawned_at = time.perf_counter()
    try:
        # -S: the package needs nothing from site-packages, and importing
        # `site` (with whatever .pth files the installation has) would
        # put the installation's start-up cost into setup_s
        proc = subprocess.run(
            [sys.executable, "-S", str(CHILD), json.dumps(job)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{job['label']}: no result within {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(
            f"{job['label']}: child exited {proc.returncode}: " + " | ".join(tail)
        )
    row = json.loads(lines[-1])
    # perf_counter is the system-wide monotonic clock, shared with the child
    row["setup_s"] = row.pop("ready_at") - spawned_at
    for key in ("base", "cold"):
        if key in job:
            row[key] = job[key]
    return summarize.at_reference_speed(row)


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 limit: int | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.units = pools.units(workload, self.rng, limit)
        self.rounds: list[tuple[bool, list[dict]]] = []
        self.failures: list[str] = []
        self.trace_file = RESULTS / f"trace-{workload.name}.ndjson"

    def execute(self) -> None:
        """Run rounds until the time is up; the first failed call ends
        the run, and the rows of the round it broke off are kept."""
        self.hard_deadline = time.perf_counter() + self.seconds + OVERRUN_S
        RESULTS.mkdir(exist_ok=True)
        if self.trace:
            self.trace_file.write_text("")
        work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
        try:
            spawn(WARMUP, self.hard_deadline - time.perf_counter())
            self._rounds(work)
        except ChildFailed as exc:
            self.failures.append(str(exc))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _enough(self) -> bool:
        """Whether the rounds so far can stop: a traced run needs one
        round of each kind, an untraced one MIN_TIMED_CALLS timed calls."""
        if self.trace:
            return len(self.rounds) >= 2
        timed = summarize.timed_rows(self.rows())
        return len(timed) >= summarize.MIN_TIMED_CALLS

    def _rounds(self, work: Path) -> None:
        deadline = time.perf_counter() + self.seconds
        last = {False: 0.0, True: 0.0}  # last round's duration per kind
        while True:
            traced = self.trace and len(self.rounds) % 2 == 1
            # a round starts if it should end within half a round of the
            # deadline, so runs last --seconds on average
            if self._enough() and time.perf_counter() + last[traced] / 2 > deadline:
                return
            order = list(self.units)
            self.rng.shuffle(order)
            started = time.perf_counter()
            rows: list[dict] = []
            index = len(self.rounds)
            self.rounds.append((traced, rows))
            for unit in order:
                self._unit(unit, traced, work / f"r{index}", rows)
            last[traced] = time.perf_counter() - started

    def _unit(self, unit, traced, round_dir: Path, rows) -> None:
        baseline = None
        for job in unit:
            job = dict(job)
            if job["kind"] == "edit":
                job["store"] = str(round_dir / job["base"])
                job["baseline"] = baseline
            if traced:
                job["trace_file"] = str(self.trace_file)
                job["call_id"] = f"{round_dir.name}/{job['label']}"
            row = spawn(job, self.hard_deadline - time.perf_counter())
            rows.append(row)
            baseline = row.get("digest")

    # -- results ------------------------------------------------------------

    def rows(self, traced: bool | None = None) -> list[dict]:
        return [
            r for t, rows in self.rounds for r in rows
            if traced is None or t == traced
        ]

    def metrics(self) -> dict[str, float]:
        """The run's metrics; none if a call failed before there were
        rows to compute them from."""
        if self.trace:
            traced = [rows for t, rows in self.rounds if t and rows]
            plain = [rows for t, rows in self.rounds if not t and rows]
            if not traced or not plain:
                return {}
            return summarize.per_layer(traced, plain)
        if not summarize.timed_rows(self.rows()):
            return {}
        return summarize.end_to_end(self.rows(), len(self.failures))

    def summary(self) -> dict:
        rows = self.rows()
        undecided = sum(r["verdict"] not in ("correct", "incorrect") for r in rows)
        wrong = summarize.wrong_verdicts(rows)
        instances: dict[str, dict] = {}
        for r in rows:
            entry = instances.setdefault(r["label"], {
                "expected": r["expected"], "verdicts": [], "engine": r["engine"],
                "wall_s": [], "setup_s": [], "traced_wall_s": [], "problems": [],
            })
            entry["verdicts"].append(r["verdict"])
            entry["problems"].extend(r["problems"])
            if "layers" in r:
                entry["traced_wall_s"].append(r["wall_s"])
            else:
                entry["wall_s"].append(r["wall_s"])
                entry["setup_s"].append(r["setup_s"])
        timed = len(summarize.timed_rows(self.rows(False)))
        return {
            "rounds": len(self.rounds),
            "calls": len(rows),
            "timed_calls": timed,
            "tail_percentile": summarize.supported_percentile(timed),
            # too few samples for verdict_p75_s: the run does not count
            "too_few_calls": not self.trace and timed < summarize.MIN_TIMED_CALLS,
            "attempted": len(rows) + len(self.failures),
            "failed": wrong + undecided + len(self.failures),
            "wrong_verdicts": wrong,
            "undecided": undecided,
            "failures": self.failures,
            "unstable_instances": summarize.unstable_instances(rows),
            "metrics": self.metrics(),
            "layer_shares": summarize.layer_shares(
                [rows for t, rows in self.rounds if t]
            ),
            "instances": instances,
        }


def _git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "nogit"
    return lines[1][:12]


def _print_workload(name: str, summary: dict, trace: bool) -> None:
    print(
        f"== {name}: {summary['calls']} calls in {summary['rounds']} rounds, "
        f"{summary['timed_calls']} timed untraced "
        f"(highest percentile with {summarize.TAIL_SAMPLES} beyond it: "
        f"{summary['tail_percentile'] or 0:.0%}), "
        f"wrong_verdicts={summary['wrong_verdicts']} "
        f"undecided={summary['undecided']} "
        f"unstable_instances={summary['unstable_instances']}"
    )
    for failure in summary["failures"]:
        print(f"   FAILED {failure}")
    if summary["too_few_calls"]:
        print(
            f"   FAILED {summary['timed_calls']} timed calls; verdict_p75_s "
            f"needs {summarize.MIN_TIMED_CALLS}"
        )
    for metric, value in summary["metrics"].items():
        print(f"   {metric:32s} {value:14.6g} {summarize.UNITS[metric]}")
    if trace and summary["layer_shares"]:
        print("   self time as a share of the traced call wall:")
        for span, share in summary["layer_shares"].items():
            print(f"     {span:30s} {share:7.1%}")


def measure(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(pools.WORKLOADS)
    load_start = os.getloadavg()
    summaries = {}
    for name in names:
        run = Run(pools.WORKLOADS[name], args.seed, args.seconds, args.trace)
        run.execute()
        summaries[name] = run.summary()
        _print_workload(name, summaries[name], args.trace)
    sha = _git_sha()
    record = {
        "sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workloads": summaries,
    }
    scope = args.workload or "all"
    out = Path(args.out) if args.out else RESULTS / (
        f"{sha}-{args.seed}-{scope}{'-trace' if args.trace else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    failed = sum(s["failed"] for s in summaries.values())
    broken = sum(
        s["wrong_verdicts"] + len(s["failures"]) + s["too_few_calls"]
        for s in summaries.values()
    )
    metrics = {}
    for name, summary in summaries.items():
        for metric, value in summary["metrics"].items():
            key = metric if len(summaries) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": summarize.UNITS[metric]}
    print(json.dumps({
        "correct": broken == 0,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if broken == 0 else 1


# -- compare ----------------------------------------------------------------------

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _samples(path: Path, lengths: set) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: [value per result file]}} under *path*; adds
    each file's run length in seconds to *lengths*."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict[str, dict[str, list[float]]] = {}
    for file in files:
        record = json.loads(file.read_text())
        lengths.add(record["seconds"])
        for workload, summary in record.get("workloads", {}).items():
            for metric, value in summary["metrics"].items():
                out.setdefault(workload, {}).setdefault(metric, []).append(value)
    return out


def compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path, help="result file or directory (before)")
    parser.add_argument("b", type=Path, help="result file or directory (after)")
    args = parser.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in _spec()["end_to_end"]}
    lengths: set = set()
    a, b = _samples(args.a, lengths), _samples(args.b, lengths)
    if len(lengths) > 1:
        print(
            f"runs of different lengths ({', '.join(map(str, sorted(lengths)))} s) "
            "are not comparable", file=sys.stderr,
        )
        return 2
    worse = 0
    print(
        f"{'workload':16s} {'metric':18s} {'A median [q1, q3]':>30s} "
        f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict"
    )
    for workload in sorted(set(a) & set(b)):
        for metric, (bound, better) in bounds.items():
            if metric not in a[workload] or metric not in b[workload]:
                continue
            qa = summarize.quartiles(a[workload][metric])
            qb = summarize.quartiles(b[workload][metric])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            signed = change if better == "lower" else -change
            spread = max(
                (q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)
            )
            if spread > bound:
                verdict = "unresolved"
            elif signed > bound:
                verdict = "WORSE"
                worse += 1
            elif signed < -bound:
                verdict = "better"
            else:
                verdict = "ok"
            cells = [
                f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)
            ]
            print(
                f"{workload:16s} {metric:18s} {cells[0]:>30s} {cells[1]:>30s} "
                f"{change:+8.1%}  {verdict} (bound {bound:.0%})"
            )
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(pools.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measured time per workload (default: run_seconds in BENCHMARK.json); "
        "compare refuses results of different lengths",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced calls",
    )
    parser.add_argument("--out", help="result file (default: under results/)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
