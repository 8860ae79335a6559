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

from .automata import count_reachable_states, materialize
from .automata.dot import to_dot
from .core import (
    ConditionalCommutativity,
    LockstepOrder,
    RandomOrder,
    SyntacticCommutativity,
    ThreadUniformOrder,
    reduce_program,
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
    if args.per_thread:
        from .verifier import combine_verdicts, verify_each_thread

        results = verify_each_thread(
            program, order, ConditionalCommutativity(solver), config=config
        )
        for member in results:
            print(f"  {member.summary()}")
        verdict = combine_verdicts(results)
        print(f"combined: {verdict.value}")
        if args.show_cache_stats:
            for member in results:
                _print_cache_stats(member)
        return 0 if verdict.solved else 1
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
        _print_cache_stats(result)
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
        _print_cache_stats(result)
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
        if info.get("outcome_families"):
            print("outcome rows (triage advisory):")
            for family, count in sorted(info["outcome_families"].items()):
                print(f"  {family:24s} {count}")
        if info["load_warnings"]:
            print(f"load warnings: {info['load_warnings']}")
        return 0
    raise SystemExit(f"unknown store command {args.store_command!r}")


def _print_cache_stats(result) -> None:
    if result.query_stats is None:
        print("cache stats: unavailable for this run")
        return
    print("cache stats:")
    for line in result.query_stats.summary().splitlines():
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
    program = _read_program(args.file)
    config = VerifierConfig(
        max_rounds=args.max_rounds,
        time_budget=args.timeout,
        incremental=not args.no_incremental,
        store_path=_store_path(args),
        triage=args.triage,
    )
    if args.parallel_portfolio:
        from .verifier import RetryPolicy

        outcome = verify_portfolio(
            program,
            config=config,
            strategy="parallel",
            member_timeout=args.member_timeout,
            retry=RetryPolicy(max_attempts=1 + args.max_retries),
            fault_plan=_parse_fault_plan(args.inject_faults),
        )
    else:
        outcome = verify_portfolio(
            program,
            config=config,
            fault_plan=_parse_fault_plan(args.inject_faults),
        )
    for member in outcome.members:
        print(f"  {member.summary()}")
    aggregated = outcome.aggregate()
    print(aggregated.summary())
    if outcome.wall_seconds is not None:
        print(f"wall clock: {outcome.wall_seconds:.2f}s ({outcome.strategy})")
    if args.show_cache_stats:
        _print_cache_stats(aggregated)
    return 0 if aggregated.verdict.solved else 1


def _cmd_orders(args: argparse.Namespace) -> int:
    """Print the triage plan without running anything."""
    from .store import ProofStore
    from .verifier import plan_portfolio, standard_orders

    program = _read_program(args.file)
    store_path = _store_path(args)
    store = ProofStore(store_path) if store_path else None
    plan = plan_portfolio(
        program,
        standard_orders(program),
        time_budget=args.timeout,
        store=store,
    )
    feats = plan.features
    print(f"{program.name}: family={plan.family}  threads={feats.num_threads}  "
          f"|Σ|={feats.alphabet_size}")
    print(f"features: conflict_density={feats.conflict_density:.3f}  "
          f"guard_density={feats.guard_density:.3f}")
    print("ranked members:")
    for i, member in enumerate(plan.ranked, start=1):
        tag = " (refit)" if member.fitted else ""
        dispersion = feats.dispersion.get(member.order_name, 0.0)
        print(f"  {i}. {member.order_name:12s} score={member.score:+.3f}  "
              f"kind={member.kind}{tag}  dispersion={dispersion:.3f}")
    stages = ", ".join(
        "full" if b is None else f"{b:.2f}s" for b in plan.stage_budgets
    )
    print(f"budget ladder: [{stages}]")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    order = _make_order(args.order, program)
    relation = SyntacticCommutativity()
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
        dfa = materialize(reduced, program.alphabet(), max_states=args.max_states)
        dot = to_dot(
            dfa,
            name=program.name,
            state_label=lambda s: str(s[0]),
            letter_label=lambda a: a.label,
        )
        Path(args.dot).write_text(dot)
        print(f"wrote {args.dot}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        program = _read_program(args.file)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    print(f"{program.name}: {len(program.threads)} threads, "
          f"size {program.size}, |Σ| = {len(program.alphabet())}, "
          f"asserts: {'yes' if program.has_asserts() else 'no'}")
    return 0


def _cmd_bench_list(_args: argparse.Namespace) -> int:
    from .benchmarks import all_benchmarks

    for bench in all_benchmarks():
        print(f"{bench.suite:8s} {bench.expected:10s} {bench.name}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.policy import (
        AdmissionPolicy,
        BreakerPolicy,
        RetryPolicy,
        ServicePolicies,
    )
    from .service.server import ServiceConfig, serve_main

    config = ServiceConfig(
        socket_path=args.socket,
        journal_path=args.journal,
        workers=args.workers,
        verifier=VerifierConfig(
            max_rounds=args.max_rounds,
            time_budget=args.timeout,
            store_path=_store_path(args),
        ),
        policies=ServicePolicies(
            admission=AdmissionPolicy(
                max_queue_depth=args.max_queue_depth,
                max_tenant_outstanding=args.max_tenant_outstanding,
            ),
            retry=RetryPolicy(max_attempts=args.max_attempts),
            breaker=BreakerPolicy(
                threshold=args.breaker_threshold,
                cooldown_seconds=args.breaker_cooldown,
            ),
        ),
        member_timeout=args.member_timeout,
        fault_plan=_parse_fault_plan(args.inject_faults),
        fault_fraction=args.fault_fraction,
        fault_attempts=args.fault_attempts,
    )
    return serve_main(config)


def _submit_spec(args: argparse.Namespace, *, bench=None, path=None) -> dict:
    spec: dict = {"order": args.order, "tenant": args.tenant}
    if bench is not None:
        spec["bench"] = bench
    else:
        spec["source"] = Path(path).read_text()
        spec["name"] = Path(path).stem
    if args.job_timeout is not None:
        spec["timeout"] = args.job_timeout
    if args.max_attempts is not None:
        spec["max_attempts"] = args.max_attempts
    if args.cost != 1:
        spec["cost"] = args.cost
    if getattr(args, "baseline_digest", None):
        spec["baseline_digest"] = args.baseline_digest
    if getattr(args, "no_triage", False):
        spec["triage"] = False
    return spec


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError
    from .verifier.stats import QueryStats

    if not args.files and not args.bench:
        raise SystemExit("nothing to submit (give FILEs and/or --bench)")
    specs = [_submit_spec(args, bench=b) for b in args.bench or ()]
    specs += [_submit_spec(args, path=f) for f in args.files]
    exit_code = 0
    with ServiceClient(args.socket, timeout=args.wait_timeout) as client:
        reply = client.submit(specs)
        ids = []
        for spec, entry in zip(specs, reply["jobs"]):
            label = spec.get("bench") or spec.get("name")
            if "id" in entry:
                ids.append((label, entry["id"]))
                print(f"accepted {entry['id']}  {label}")
            else:
                print(f"shed     {label}: {entry.get('reason')}")
                exit_code = 1
        if args.no_wait:
            return exit_code
        on_event = None
        if args.stream:
            def on_event(event):  # noqa: E306 - tiny CLI callback
                print(f"  [{event.get('id')}] {event}")
        for label, job_id in ids:
            try:
                view = client.wait(
                    job_id, timeout=args.wait_timeout, on_event=on_event
                )
            except ServiceError as exc:
                print(f"{job_id}  {label}: {exc}")
                exit_code = 1
                continue
            result = view.get("result") or {}
            verdict = result.get("verdict", view["state"])
            print(
                f"{job_id}  {label}: {verdict}  "
                f"rounds={result.get('rounds', 0)}  "
                f"attempts={view.get('attempts', 0)}  "
                f"time={result.get('time_s', 0.0):.2f}s"
            )
            if verdict not in ("correct", "incorrect"):
                exit_code = 1
            if args.show_cache_stats and result.get("query_stats"):
                stats = QueryStats.from_dict(result["query_stats"])
                print("cache stats:")
                for line in stats.summary().splitlines():
                    print(f"  {line}")
    return exit_code


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceClient

    with ServiceClient(args.socket) as client:
        if args.cancel:
            print(json.dumps(client.cancel(args.cancel), indent=2))
            return 0
        if args.drain:
            print(json.dumps(client.drain(), indent=2))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.job_id:
            print(json.dumps(client.status(args.job_id)["job"], indent=2))
            return 0
        health = client.health()
        status = client.status()
        health.pop("ok", None)
        status.pop("ok", None)
        print(json.dumps({**health, **status}, indent=2))
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
            help="disable incremental CEGAR rounds (delta-aware "
                 "Floyd/Hoare steps and warm-started proof checks); "
                 "restores bit-identical pre-incremental exploration",
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
    p_verify.add_argument(
        "--per-thread", action="store_true",
        help="analyse each thread's asserts separately (footnote 4)",
    )
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
             "are SIGKILLed and recorded as TIMEOUT",
    )
    p_portfolio.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="respawn UNKNOWN/TIMEOUT/ERROR members up to N times with "
             "doubled solver budgets and deadlines",
    )
    p_portfolio.add_argument(
        "--triage", dest="triage", action="store_true", default=True,
        help="feature-ranked member order, staged budget ladder, and "
             "progress-based loser preemption (default: on)",
    )
    p_portfolio.add_argument(
        "--no-triage", dest="triage", action="store_false",
        help="flat portfolio: canonical member order, full budgets, no "
             "preemption",
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
    p_orders.add_argument("--proof-store", metavar="PATH", default=None)
    p_orders.add_argument("--no-proof-store", action="store_true")
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

    def socket_flag(p):
        from .service.protocol import DEFAULT_SOCKET

        p.add_argument(
            "--socket", default=DEFAULT_SOCKET, metavar="PATH",
            help="service Unix socket path",
        )

    p_serve = sub.add_parser(
        "serve", help="run the resilient verification service"
    )
    socket_flag(p_serve)
    p_serve.add_argument(
        "--journal", default="repro-jobs.journal", metavar="PATH",
        help="crash-recoverable job journal (replayed on restart)",
    )
    p_serve.add_argument("--workers", type=int, default=4)
    p_serve.add_argument("--max-rounds", type=int, default=60)
    p_serve.add_argument(
        "--timeout", type=float, default=None,
        help="base per-job verifier time budget (seconds)",
    )
    p_serve.add_argument(
        "--member-timeout", type=float, default=60.0, metavar="SECONDS",
        help="hard per-attempt watchdog; overrunning workers are killed",
    )
    p_serve.add_argument("--max-queue-depth", type=int, default=256)
    p_serve.add_argument(
        "--max-tenant-outstanding", type=int, default=64,
        help="per-tenant admission budget (outstanding job cost)",
    )
    p_serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per job (escalating budgets, seeded backoff)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="worker-level faults per tenant/family before quarantine",
    )
    p_serve.add_argument("--breaker-cooldown", type=float, default=5.0)
    p_serve.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="chaos: seeded fault plan injected into worker attempts",
    )
    p_serve.add_argument(
        "--fault-fraction", type=float, default=1.0,
        help="fraction of jobs whose first attempts get the fault plan",
    )
    p_serve.add_argument(
        "--fault-attempts", type=int, default=1,
        help="inject only into attempts <= N (transient-fault model)",
    )
    p_serve.add_argument("--proof-store", metavar="PATH", default=None)
    p_serve.add_argument("--no-proof-store", action="store_true")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit jobs to a running service"
    )
    socket_flag(p_submit)
    p_submit.add_argument(
        "files", nargs="*", help="program files to verify"
    )
    p_submit.add_argument(
        "--bench", action="append", metavar="NAME",
        help="registry benchmark to verify (repeatable)",
    )
    p_submit.add_argument("--order", default="seq")
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--cost", type=int, default=1)
    p_submit.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt watchdog override for these jobs",
    )
    p_submit.add_argument(
        "--max-attempts", type=int, default=None,
        help="retry-budget override for these jobs",
    )
    p_submit.add_argument(
        "--no-wait", action="store_true",
        help="return after the admission ack instead of waiting",
    )
    p_submit.add_argument(
        "--stream", action="store_true",
        help="print progress/attempt/retry events while waiting",
    )
    p_submit.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS",
    )
    p_submit.add_argument("--show-cache-stats", action="store_true")
    p_submit.add_argument(
        "--baseline-digest", metavar="HEX", default=None,
        help="program digest of a previously verified baseline; the "
             "worker serves unchanged-thread facts from its proof store "
             "(delta verification of an edit against a prior job)",
    )
    p_submit.add_argument(
        "--no-triage", action="store_true",
        help="disable portfolio triage for these jobs (worker-side "
             "VerifierConfig override)",
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="inspect or administer a running service"
    )
    socket_flag(p_status)
    p_status.add_argument("job_id", nargs="?", help="job id to inspect")
    p_status.add_argument(
        "--stats", action="store_true", help="print service counters"
    )
    p_status.add_argument(
        "--drain", action="store_true",
        help="graceful shutdown: finish in-flight jobs, flush, exit",
    )
    p_status.add_argument(
        "--cancel", metavar="JOB_ID", help="cancel a queued/running job"
    )
    p_status.set_defaults(func=_cmd_status)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
