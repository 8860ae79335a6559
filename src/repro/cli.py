"""Command-line interface.

Usage (after installation)::

    python -m repro verify FILE [--order seq|lockstep|rand:N] [--mode ...]
    python -m repro portfolio FILE
    python -m repro reduce FILE [--order ...] [--dot out.dot]
    python -m repro check FILE          # parse + static sanity only
    python -m repro bench-list          # registry overview

``FILE`` contains a program in the mini concurrent language (see
README.md / `examples/`).  Use ``-`` for stdin.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    ConditionalCommutativity,
    LockstepOrder,
    RandomOrder,
    SyntacticCommutativity,
    ThreadUniformOrder,
)
from .lang import ConcurrentProgram, ParseError, parse
from .logic import Solver
from .verifier import VerifierConfig, verify, verify_portfolio


def _read_program(path: str) -> ConcurrentProgram:
    if path == "-":
        source = sys.stdin.read()
        name = "<stdin>"
    else:
        source = Path(path).read_text()
        name = Path(path).stem
    return parse(source, name=name)


def _make_order(spec: str, program: ConcurrentProgram):
    if spec == "seq":
        return ThreadUniformOrder()
    if spec == "lockstep":
        return LockstepOrder(len(program.threads))
    if spec.startswith("rand:"):
        return RandomOrder(program.alphabet(), int(spec.split(":", 1)[1]))
    raise SystemExit(f"unknown order {spec!r} (use seq, lockstep, or rand:N)")


def _store_path(args: argparse.Namespace) -> str | None:
    """Resolve the proof-store path: flag wins, then the env knob."""
    import os

    if args.no_proof_store:
        return None
    return args.proof_store or os.environ.get("REPRO_PROOF_STORE") or None


def _cmd_verify(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    order = _make_order(args.order, program)
    solver = Solver()
    fault_plan = _parse_fault_plan(args.inject_faults)
    if fault_plan is not None:
        injector = fault_plan.injector_for(order.name)
        if injector is not None:
            solver.fault_injector = injector
    config = VerifierConfig(
        mode=args.mode,
        proof_sensitive=not args.no_proof_sensitive,
        search=args.search,
        use_useless_cache=args.useless_cache,
        max_rounds=args.max_rounds,
        time_budget=args.timeout,
        simplify_proof=args.show_proof,
        incremental=not args.no_incremental,
        store_path=_store_path(args),
    )
    result = verify(
        program, order, ConditionalCommutativity(solver), config=config,
        solver=solver,
    )
    print(result.summary())
    if result.counterexample is not None:
        print("counterexample:")
        for statement in result.counterexample:
            print(f"  {statement.label}")
    if args.show_proof and result.predicates:
        print("proof predicates:")
        for predicate in result.predicates:
            print(f"  {predicate!r}")
    if args.show_cache_stats:
        _print_cache_stats(result.query_stats)
    return 0 if result.verdict.solved else 1


def _cmd_diff_verify(args: argparse.Namespace) -> int:
    """Verify NEW as an edit against OLD, reusing unchanged-thread facts.

    Requires a persistent proof store: the baseline's program shape and
    Hoare/commutativity facts live there.  If the
    store has no record of OLD yet, OLD is verified first (a normal
    store-backed run) and NEW is then verified with
    ``baseline_digest`` pointing at it.
    """
    from .delta import diff_programs
    from .store import KIND_SHAPE, ProofStore, program_digest

    store_path = _store_path(args)
    if store_path is None:
        raise SystemExit(
            "diff-verify needs a persistent proof store "
            "(--proof-store PATH or REPRO_PROOF_STORE)"
        )
    old_program = _read_program(args.old)
    new_program = _read_program(args.new)
    baseline_hex = program_digest(old_program).hex()
    plan = diff_programs(old_program, new_program)
    print(f"baseline: {old_program.name} [{baseline_hex[:12]}]")
    print(f"edit plan: {plan.summary()}")

    solver = Solver()

    def config_for(baseline: str | None) -> VerifierConfig:
        return VerifierConfig(
            mode=args.mode,
            search=args.search,
            max_rounds=args.max_rounds,
            time_budget=args.timeout,
            incremental=not args.no_incremental,
            store_path=store_path,
            baseline_digest=baseline,
        )

    store = ProofStore(store_path)
    if store.get(KIND_SHAPE, program_digest(old_program)) is None:
        print("baseline not in store; verifying OLD first")
        base_result = verify(
            old_program,
            _make_order(args.order, old_program),
            ConditionalCommutativity(solver),
            config=config_for(None),
            solver=solver,
        )
        print(f"  {base_result.summary()}")
    result = verify(
        new_program,
        _make_order(args.order, new_program),
        ConditionalCommutativity(Solver()),
        config=config_for(baseline_hex),
    )
    print(result.summary())
    if result.counterexample is not None:
        print("counterexample:")
        for statement in result.counterexample:
            print(f"  {statement.label}")
    if args.show_cache_stats:
        _print_cache_stats(result.query_stats)
    return 0 if result.verdict.solved else 1


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from .store import ProofStore

    if args.store_command == "inspect":
        info = ProofStore(args.path).inspect()
        if args.json:
            print(json.dumps(info, indent=2))
            return 0
        print(f"store {info['path']} (format {info['format']}, "
              f"max_records {info['max_records']})")
        print(f"entries: {info['total_entries']}")
        for kind, count in sorted(info["entries_by_kind"].items()):
            print(f"  {kind:8s} {count}")
        segments = info["segments"]
        total = sum(s["bytes"] for s in segments)
        print(f"segments: {len(segments)} ({total} bytes)")
        for segment in segments:
            print(f"  {segment['name']:32s} {segment['bytes']:>10d} bytes")
        if info["load_warnings"]:
            print(f"load warnings: {info['load_warnings']}")
        return 0
    raise SystemExit(f"unknown store command {args.store_command!r}")


def _print_cache_stats(stats) -> None:
    if stats is None:
        print("cache stats: unavailable for this run")
        return
    print("cache stats:")
    for line in stats.summary().splitlines():
        print(f"  {line}")


def _parse_fault_plan(spec: str | None):
    if not spec:
        return None
    from .verifier import FaultPlan, FaultSpecError

    try:
        return FaultPlan.parse(spec)
    except FaultSpecError as exc:
        raise SystemExit(f"bad --inject-faults spec: {exc}")


def _cmd_portfolio(args: argparse.Namespace) -> int:
    if args.member_timeout is not None and not args.parallel_portfolio:
        print(
            "portfolio: --member-timeout needs --parallel-portfolio "
            "(the sequential race has no worker to kill)",
            file=sys.stderr,
        )
        return 1
    program = _read_program(args.file)
    config = VerifierConfig(
        max_rounds=args.max_rounds,
        time_budget=args.timeout,
        incremental=not args.no_incremental,
        store_path=_store_path(args),
    )
    outcome = verify_portfolio(
        program,
        config=config,
        strategy="parallel" if args.parallel_portfolio else "sequential",
        member_timeout=args.member_timeout,
        fault_plan=_parse_fault_plan(args.inject_faults),
    )
    for member in outcome.members:
        print(f"  {member.summary()}")
    aggregated = outcome.aggregate()
    print(aggregated.summary())
    if outcome.wall_seconds is not None:
        print(f"wall clock: {outcome.wall_seconds:.2f}s ({outcome.strategy})")
    if args.show_cache_stats:
        _print_cache_stats(aggregated.query_stats)
    return 0 if aggregated.verdict.solved else 1


def _cmd_orders(args: argparse.Namespace) -> int:
    """Print the triage plan without running anything."""
    from .verifier import plan_portfolio, standard_orders

    program = _read_program(args.file)
    plan = plan_portfolio(
        program, standard_orders(program), time_budget=args.timeout
    )
    feats = plan.features
    print(f"{program.name}: threads={feats.num_threads}  "
          f"|Σ|={feats.alphabet_size}")
    print(f"features: conflict_density={feats.conflict_density:.3f}  "
          f"guard_density={feats.guard_density:.3f}")
    print("ranked members:")
    for i, member in enumerate(plan.ranked, start=1):
        dispersion = feats.dispersion.get(member.order_name, 0.0)
        print(f"  {i}. {member.order_name:12s} score={member.score:+.3f}  "
              f"kind={member.kind}  dispersion={dispersion:.3f}")
    stages = ", ".join(
        "full" if b is None else f"{b:.2f}s" for b in plan.stage_budgets
    )
    print(f"budget ladder: [{stages}]")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .automata import ExplorationLimit, count_reachable_states, materialize
    from .automata.dot import to_dot
    from .core import reduce_program

    program = _read_program(args.file)
    order = _make_order(args.order, program)
    relation = SyntacticCommutativity()
    try:
        full = count_reachable_states(
            program.product_view("both"), max_states=args.max_states
        )
        print(f"program size (locations): {program.size}")
        print(f"full product states:      {full}")
        for mode in ("sleep", "persistent", "combined"):
            reduced = reduce_program(program, order, relation, mode=mode)
            states = count_reachable_states(reduced, max_states=args.max_states)
            print(f"{mode:10s} reduction:     {states}")
        if args.dot:
            reduced = reduce_program(program, order, relation, mode="combined")
            dfa = materialize(
                reduced, program.alphabet(), max_states=args.max_states
            )
            dot = to_dot(
                dfa,
                name=program.name,
                state_label=lambda s: str(s[0]),
                letter_label=lambda a: a.label,
            )
            Path(args.dot).write_text(dot)
            print(f"wrote {args.dot}")
    except ExplorationLimit:
        print(
            f"reduce: more than {args.max_states} states; "
            "raise --max-states to explore further",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    print(f"{program.name}: {len(program.threads)} threads, "
          f"size {program.size}, |Σ| = {len(program.alphabet())}, "
          f"asserts: {'yes' if program.has_asserts() else 'no'}")
    return 0


def _cmd_bench_list(_args: argparse.Namespace) -> int:
    from .benchmarks import all_benchmarks

    for bench in all_benchmarks():
        print(f"{bench.suite:8s} {bench.expected:10s} {bench.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sound sequentialization for concurrent program verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p):
        p.add_argument("--max-rounds", type=int, default=60)
        p.add_argument("--timeout", type=float, default=None, help="seconds")
        p.add_argument(
            "--show-cache-stats", action="store_true",
            help="report solver/commutativity query counts and cache hit rates",
        )
        p.add_argument(
            "--no-incremental", action="store_true",
            help="disable incremental CEGAR rounds (this toggles only "
                 "the delta-aware Floyd/Hoare step cache); restores "
                 "bit-identical pre-incremental exploration",
        )
        p.add_argument(
            "--inject-faults", metavar="SPEC", default=None,
            help="deterministic fault-injection spec, e.g. "
                 "'seed=7;p_unknown=0.05;seq:crash_at=0' "
                 "(see docs/runtime.md; REPRO_FAULTS is the env equivalent)",
        )
        p.add_argument(
            "--proof-store", metavar="PATH", default=None,
            help="persistent content-addressed proof store directory; "
                 "solved solver/Hoare/commutativity verdicts are reused "
                 "across runs (REPRO_PROOF_STORE is the env equivalent; "
                 "the flag wins when both are set)",
        )
        p.add_argument(
            "--no-proof-store", action="store_true",
            help="ignore --proof-store and REPRO_PROOF_STORE; run cold",
        )

    def common(p):
        p.add_argument("file", help="program file ('-' for stdin)")
        common_flags(p)

    p_verify = sub.add_parser("verify", help="verify a program")
    common(p_verify)
    p_verify.add_argument("--order", default="seq")
    p_verify.add_argument(
        "--mode", default="combined",
        choices=("combined", "sleep", "persistent", "none"),
    )
    p_verify.add_argument("--search", default="bfs", choices=("bfs", "dfs"))
    p_verify.add_argument(
        "--useless-cache", action="store_true",
        help="cross-round useless-state cache (dfs search only)",
    )
    p_verify.add_argument("--no-proof-sensitive", action="store_true")
    p_verify.add_argument("--show-proof", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_diff = sub.add_parser(
        "diff-verify",
        help="verify NEW as an edit of OLD, reusing unchanged-thread "
             "facts from the proof store",
    )
    p_diff.add_argument("old", help="baseline program file")
    p_diff.add_argument("new", help="edited program file")
    common_flags(p_diff)
    p_diff.add_argument("--order", default="seq")
    p_diff.add_argument(
        "--mode", default="combined",
        choices=("combined", "sleep", "persistent", "none"),
    )
    p_diff.add_argument("--search", default="bfs", choices=("bfs", "dfs"))
    p_diff.set_defaults(func=_cmd_diff_verify)

    p_store = sub.add_parser(
        "store", help="inspect a persistent proof store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_inspect = store_sub.add_parser(
        "inspect", help="print per-kind entry counts and segment sizes"
    )
    p_inspect.add_argument("path", help="proof store directory")
    p_inspect.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_inspect.set_defaults(func=_cmd_store)

    p_portfolio = sub.add_parser(
        "portfolio", help="verify with the 5-order portfolio"
    )
    common(p_portfolio)
    p_portfolio.add_argument(
        "--parallel-portfolio", action="store_true",
        help="run members in isolated worker processes with crash "
             "containment, watchdog deadlines, and first-winner "
             "cancellation (default: sequential emulation)",
    )
    p_portfolio.add_argument(
        "--member-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-member wall-clock watchdog; overrunning workers "
             "are SIGKILLed and recorded as TIMEOUT (needs "
             "--parallel-portfolio)",
    )
    p_portfolio.set_defaults(func=_cmd_portfolio)

    p_orders = sub.add_parser(
        "orders",
        help="print the triage plan: ranked portfolio members with "
             "feature scores and the staged budget ladder",
    )
    p_orders.add_argument("file", help="program file ('-' for stdin)")
    p_orders.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="member budget the ladder is derived from (no ladder "
             "when omitted)",
    )
    p_orders.set_defaults(func=_cmd_orders)

    p_reduce = sub.add_parser(
        "reduce", help="report reduction automaton sizes"
    )
    p_reduce.add_argument("file")
    p_reduce.add_argument("--order", default="seq")
    p_reduce.add_argument("--max-states", type=int, default=200_000)
    p_reduce.add_argument("--dot", help="write the reduction DFA as DOT")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_check = sub.add_parser("check", help="parse and report program stats")
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_list = sub.add_parser("bench-list", help="list the benchmark registry")
    p_list.set_defaults(func=_cmd_bench_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"no such file: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
