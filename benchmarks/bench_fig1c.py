"""Figure 1(c): proof size over the number of threads (bluetooth).

The paper plots proof sizes for bluetooth instances (2–10 threads) under
the sequential-composition order (red circles), lockstep (blue +), and
three random preference orders (×): different reductions admit wildly
different proof sizes.  We regenerate the same series at laptop scale
(2–4 threads by default, 2–6 with REPRO_FULL=1).
"""

import os

from repro import VerifierConfig, verify
from repro.benchmarks import bluetooth
from repro.core import LockstepOrder, RandomOrder, ThreadUniformOrder
from repro.core.commutativity import ConditionalCommutativity
from repro.harness import emit, emit_json, full_scale, round_budget, time_budget
from repro.logic import Solver
from repro.verifier.faults import ENV_VAR as FAULTS_ENV

ORDERS = ("seq", "lockstep", "rand(1)", "rand(2)", "rand(3)")


def _order(name, program):
    if name == "seq":
        return ThreadUniformOrder()
    if name == "lockstep":
        return LockstepOrder(len(program.threads))
    return RandomOrder(program.alphabet(), int(name[5:-1]))


def _run_figure():
    sizes = range(2, 7 if full_scale() else 5)
    rows = []
    for n in sizes:
        row = {"threads": n}
        for name in ORDERS:
            program = bluetooth(n)
            solver = Solver()
            result = verify(
                program,
                _order(name, program),
                ConditionalCommutativity(solver),
                config=VerifierConfig(
                    max_rounds=round_budget(),
                    time_budget=time_budget(),
                ),
                solver=solver,
            )
            row[name] = result.proof_size if result.verdict.solved else None
        rows.append(row)
    return rows


def test_fig1c_proof_size_over_threads(benchmark):
    rows = benchmark.pedantic(_run_figure, rounds=1, iterations=1)
    lines = ["threads  " + "  ".join(f"{o:>9s}" for o in ORDERS)]
    for row in rows:
        cells = "  ".join(
            f"{row[o]:>9}" if row[o] is not None else f"{'--':>9}"
            for o in ORDERS
        )
        lines.append(f"{row['threads']:>7d}  {cells}")
    lines.append("")
    lines.append("Paper shape: proof size varies strongly with the order;")
    lines.append("no single order dominates across instances.")
    if os.environ.get(FAULTS_ENV):
        # a fault-injection pass checks that no verdict flips; the
        # instances it loses are not the figure, so the record stays
        print("\n".join(lines))
    else:
        emit("fig1c", lines)
        emit_json("fig1c", rows)
    solved = [row[o] for row in rows for o in ORDERS if row[o] is not None]
    assert solved, "no bluetooth instance solved"
    # the qualitative claim: different orders give different proof sizes
    spread = {row["threads"]: {row[o] for o in ORDERS if row[o]} for row in rows}
    assert any(len(v) > 1 for v in spread.values())
