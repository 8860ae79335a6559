"""§8 ablation: the impact of proof-sensitive commutativity.

The paper reports that without proof-sensitivity, 8 fewer programs are
analysed, average proof size increases (by 2.5% / 5.0% on SV-COMP /
Weaver), and total refinement rounds increase slightly, at roughly the
same time per round.

This bench compares the portfolio with conditional commutativity
(a ↷↷_φ b, Def. 7.3) against the same portfolio restricted to
unconditional commutativity.
"""

from repro.harness import emit, emit_json, run_suite
from repro.verifier import Verdict


def _collect(tool):
    solved = 0
    proof_sizes = []
    rounds = 0
    states = 0
    for _bench, result in run_suite(tool):
        if result.verdict.solved:
            solved += 1
            rounds += result.rounds
            states += result.states_explored
            if result.verdict == Verdict.CORRECT:
                proof_sizes.append(result.proof_size)
    return {
        "solved": solved,
        "rounds": rounds,
        "states": states,
        "avg_proof": sum(proof_sizes) / len(proof_sizes) if proof_sizes else 0,
    }


def _run():
    return {
        "proof-sensitive": _collect("portfolio"),
        "plain": _collect("portfolio-nops"),
    }


def test_proof_sensitivity_ablation(benchmark):
    data = benchmark.pedantic(_run, rounds=1, iterations=1)
    ps, plain = data["proof-sensitive"], data["plain"]
    lines = [
        f"{'':16s} {'proof-sensitive':>16s} {'plain':>12s}",
        f"{'solved':16s} {ps['solved']:>16d} {plain['solved']:>12d}",
        f"{'total rounds':16s} {ps['rounds']:>16d} {plain['rounds']:>12d}",
        f"{'states explored':16s} {ps['states']:>16d} {plain['states']:>12d}",
        f"{'avg proof size':16s} {ps['avg_proof']:>16.2f} {plain['avg_proof']:>12.2f}",
    ]
    if plain["avg_proof"]:
        delta = 100 * (plain["avg_proof"] - ps["avg_proof"]) / plain["avg_proof"]
        lines.append(f"proof size delta: {delta:+.2f}% (paper: +2.5%..+5.0% without)")
    emit("proof_sensitivity", lines)
    emit_json("proof_sensitivity", data)
    # paper shape: proof-sensitivity never hurts the solved count
    assert ps["solved"] >= plain["solved"]
