"""Command-line interface.

Usage (installed as module)::

    python -m repro.cli solve problem.json [--method auto] [--json] [--trace]
    python -m repro.cli solve problem.json [--deadline 0.5] [--retries 2]
                                           [--fallback claim1,greedy-min-damage]
                                           [--seed 42]
    python -m repro.cli solve problem.json --portfolio [--methods a,b] [--jobs N]
    python -m repro.cli classify problem.json
    python -m repro.cli repairs problem.json -k 3
    python -m repro.cli render problem.json
    python -m repro.cli sql problem.json
    python -m repro.cli stats problem.json
    python -m repro.cli insert problem.json Q4 Ada TODS XML
    python -m repro.cli example fig1 > problem.json
    python -m repro.cli experiments [--out EXPERIMENTS.md]
    python -m repro.cli fuzz [--seed 0] [--iterations 100] [--budget-seconds 60]
                             [--corpus tests/corpus] [--kinds chain,star] [--no-shrink]
    python -m repro.cli serve [--port 7341] [--unix PATH] [--jobs N]
                              [--preload problem.json] [--state-dir DIR]
                              [--drain-seconds 5]
    python -m repro.cli client ping|stats|health|register|solve|shutdown
                               [TARGET] [--connect host:port]
                               [--deletions JSON|@file] [--deadline 0.5]
                               [--shutdown-mode now|drain]
                               [--retry-overloaded N]

``solve`` loads a JSON problem document (see :mod:`repro.io.serialize`),
dispatches to the requested algorithm, and prints the deletion
suggestion; ``classify`` reports the structural flags and the complexity
rows that apply; ``repairs`` enumerates the cheapest distinct repairs;
``example`` emits ready-made documents for the paper's examples.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.core.classify import classification_flags, verdict
from repro.core.registry import available_solvers, solve, solve_report
from repro.io.serialize import (
    dump_problem,
    load_problem,
    problem_to_dict,
    solution_to_dict,
)

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int, what: str):
    """``argparse`` type for a count that must be ``>= minimum``: a
    degenerate value exits 2 with a one-line usage error instead of
    starting something that can never work."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a {what} integer, got {text!r}"
            )
        return value

    return parse


def _seconds(positive: bool):
    """``argparse`` type for a finite number of seconds: ``positive``
    for a deadline (a zero budget could never answer), else >= 0 for a
    backoff or drain budget.  NaN and infinity never pass: a NaN
    deadline never expires, and the server refuses both on the wire."""
    what = "positive" if positive else "non-negative"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value) or value < 0 or (
            positive and value == 0
        ):
            raise argparse.ArgumentTypeError(
                f"expected a finite, {what} number of seconds, got {text!r}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Deletion propagation for multiple key-preserving conjunctive "
            "queries (ICDE 2019 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_cmd = sub.add_parser("solve", help="solve a problem document")
    solve_cmd.add_argument("problem", help="path to a JSON problem document")
    solve_cmd.add_argument(
        "--method",
        default="auto",
        choices=["auto"] + available_solvers(),
        help="solver to use (default: structure-aware auto dispatch)",
    )
    solve_cmd.add_argument(
        "--json", action="store_true", help="emit the solution as JSON"
    )
    solve_cmd.add_argument(
        "--explain",
        action="store_true",
        help="explain each deletion's coverage and collateral",
    )
    solve_cmd.add_argument(
        "--trace",
        action="store_true",
        help=(
            "print the dispatch route, the structure profile, and "
            "per-stage solver timings (ignored with --portfolio)"
        ),
    )
    solve_cmd.add_argument(
        "--portfolio",
        action="store_true",
        help=(
            "solve with several strategies concurrently and keep the "
            "best feasible propagation (see --methods / --jobs)"
        ),
    )
    solve_cmd.add_argument(
        "--methods",
        default=None,
        help=(
            "comma-separated strategy list for --portfolio "
            "(default: claim1,greedy-min-damage,greedy-max-coverage)"
        ),
    )
    solve_cmd.add_argument(
        "--jobs",
        type=_int_at_least(0, "non-negative"),
        default=None,
        help=(
            "worker processes for --portfolio (default: one per "
            "strategy capped at CPU count; 0 forces serial)"
        ),
    )
    solve_cmd.add_argument(
        "--deadline",
        type=_seconds(positive=True),
        default=None,
        metavar="SECONDS",
        help=(
            "per-request wall-clock deadline; a solver that exceeds it "
            "degrades to its best-so-far feasible answer when one "
            "exists (route 'degraded:<method>')"
        ),
    )
    solve_cmd.add_argument(
        "--retries",
        type=_int_at_least(0, "non-negative"),
        default=0,
        help=(
            "extra attempts per method for transient failures, with "
            "exponential backoff (default: 0)"
        ),
    )
    solve_cmd.add_argument(
        "--fallback",
        default=None,
        metavar="M1,M2,...",
        help=(
            "ordered fallback methods tried when the requested method "
            "is inapplicable or out of retries, e.g. "
            "'claim1,greedy-min-damage'; the alias 'exact-chain' "
            "expands to the exact-ilp route's chain "
            "(exact-bnb,greedy-min-damage)"
        ),
    )
    solve_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "seed for the retry backoff jitter (default: a stable "
            "digest of the request, so repeated runs draw the same "
            "delays)"
        ),
    )
    solve_cmd.add_argument(
        "--no-trace-store",
        action="store_true",
        help=(
            "do not append this dispatch to the solve trace store "
            "(equivalent to REPRO_TRACE=off)"
        ),
    )

    classify_cmd = sub.add_parser(
        "classify", help="report structure and complexity landscape rows"
    )
    classify_cmd.add_argument("problem", help="path to a JSON problem document")

    route_cmd = sub.add_parser(
        "route",
        help=(
            "inspect dispatch: 'explain' prints the route-table entry "
            "an auto dispatch of the problem takes"
        ),
    )
    route_cmd.add_argument("action", choices=["explain"])
    route_cmd.add_argument("problem", help="path to a JSON problem document")

    repairs_cmd = sub.add_parser(
        "repairs", help="enumerate the k cheapest distinct repairs"
    )
    repairs_cmd.add_argument("problem", help="path to a JSON problem document")
    repairs_cmd.add_argument("-k", type=int, default=3)

    render_cmd = sub.add_parser(
        "render", help="pretty-print a problem document (data + views)"
    )
    render_cmd.add_argument("problem", help="path to a JSON problem document")

    sql_cmd = sub.add_parser(
        "sql", help="emit a SQL script (DDL, data, view SELECTs)"
    )
    sql_cmd.add_argument("problem", help="path to a JSON problem document")

    stats_cmd = sub.add_parser(
        "stats", help="summarize a problem's workload statistics"
    )
    stats_cmd.add_argument("problem", help="path to a JSON problem document")

    insert_cmd = sub.add_parser(
        "insert", help="plan the insertion of a tuple into a view"
    )
    insert_cmd.add_argument("problem", help="path to a JSON problem document")
    insert_cmd.add_argument("view", help="target view name")
    insert_cmd.add_argument(
        "values", nargs="+", help="the view tuple's values"
    )

    example_cmd = sub.add_parser(
        "example", help="emit a ready-made problem document"
    )
    example_cmd.add_argument(
        "name", choices=["fig1", "fig1-q4", "chain", "star"],
    )
    example_cmd.add_argument("--seed", type=int, default=0)
    example_cmd.add_argument("--out", default=None)

    experiments_cmd = sub.add_parser(
        "experiments", help="run E1–E12 and write EXPERIMENTS.md"
    )
    experiments_cmd.add_argument("--out", default="EXPERIMENTS.md")

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help=(
            "differential fuzzing: random instances through every solver "
            "route, both verifier backends, and the exact ILP"
        ),
    )
    fuzz_cmd.add_argument("--seed", type=int, default=0)
    fuzz_cmd.add_argument("--iterations", type=int, default=100)
    fuzz_cmd.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="stop early after this much wall time",
    )
    fuzz_cmd.add_argument(
        "--corpus",
        default="tests/corpus",
        help=(
            "directory for shrunken failing cases (replayed as "
            "regression tests); 'none' disables persistence"
        ),
    )
    fuzz_cmd.add_argument(
        "--kinds",
        default=None,
        help="comma-separated case kinds (default: all)",
    )
    fuzz_cmd.add_argument(
        "--no-shrink",
        action="store_true",
        help="persist failing cases without shrinking them",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help=(
            "run the solve service: JSON lines over TCP or a unix "
            "socket, instances registered by content hash"
        ),
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=7341,
        help="TCP port (0 picks a free one; printed on startup)",
    )
    serve_cmd.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    serve_cmd.add_argument(
        "--jobs",
        type=_int_at_least(0, "non-negative"),
        default=None,
        help=(
            "accepted for compatibility; the server solves every "
            "batch in-process"
        ),
    )
    serve_cmd.add_argument(
        "--max-pending",
        type=_int_at_least(1, "positive"),
        default=1024,
        help="per-instance queue depth before solves are rejected",
    )
    serve_cmd.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="PROBLEM",
        help="problem document(s) to register before listening",
    )
    serve_cmd.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "durable registration journal directory: registrations are "
            "fsynced before acknowledgement and replayed on restart "
            "(default: memory-only)"
        ),
    )
    serve_cmd.add_argument(
        "--drain-seconds",
        type=_seconds(positive=False),
        default=5.0,
        help=(
            "graceful-drain budget for SIGTERM and shutdown "
            "mode=drain (default: 5)"
        ),
    )

    client_cmd = sub.add_parser(
        "client", help="talk to a running solve service"
    )
    client_cmd.add_argument(
        "action",
        choices=["ping", "stats", "health", "register", "solve",
                 "shutdown"],
    )
    client_cmd.add_argument(
        "target",
        nargs="?",
        help=(
            "problem document path (register, or solve — registers "
            "then solves its own ΔV) or instance hash (solve with "
            "--deletions)"
        ),
    )
    client_cmd.add_argument(
        "--connect",
        default="127.0.0.1:7341",
        help="server address: host:port or unix:<path>",
    )
    client_cmd.add_argument(
        "--deletions",
        default=None,
        help="ΔV as inline JSON ({view: [row, ...]}) or @file.json",
    )
    client_cmd.add_argument("--method", default=None)
    client_cmd.add_argument(
        "--deadline", type=_seconds(positive=True), default=None,
        help="per-request deadline in seconds (SolvePolicy)",
    )
    client_cmd.add_argument(
        "--retries", type=_int_at_least(0, "non-negative"), default=0,
        help="per-request retries for transient failures",
    )
    client_cmd.add_argument(
        "--fallback", default=None,
        help="comma-separated fallback methods",
    )
    client_cmd.add_argument(
        "--shutdown-mode",
        choices=["now", "drain"],
        default="now",
        help=(
            "shutdown action only: 'drain' finishes in-flight work "
            "under the server's drain budget first (default: now)"
        ),
    )
    client_cmd.add_argument(
        "--retry-overloaded",
        type=_int_at_least(0, "non-negative"),
        default=0,
        metavar="N",
        help=(
            "retry overload-class rejections up to N times, honoring "
            "the server's retry_after_ms hint with seeded jitter"
        ),
    )
    client_cmd.add_argument(
        "--backoff-seconds",
        type=_seconds(positive=False),
        default=0.05,
        help="base of the client retry backoff schedule (default: 0.05)",
    )
    client_cmd.add_argument(
        "--backoff-seed",
        type=int,
        default=None,
        help="override the derived backoff jitter seed",
    )

    return parser


def _build_policy(args: argparse.Namespace):
    """The :class:`SolvePolicy` implied by --deadline/--retries/--fallback
    (``None`` when none are set, keeping the plain dispatch path)."""
    fallback = args.fallback
    if args.deadline is None and not args.retries and not fallback:
        return None
    from repro.core.resilience import SolvePolicy, parse_fallback

    return SolvePolicy(
        deadline_seconds=args.deadline,
        retries=args.retries,
        fallback=parse_fallback(fallback),
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.no_trace_store:
        import os

        from repro.core.tracestore import TRACE_ENV

        os.environ[TRACE_ENV] = "off"
    problem = load_problem(args.problem)
    policy = _build_policy(args)
    rng = None
    if policy is not None and args.seed is not None:
        from repro.core.resilience import derive_backoff_rng

        rng = derive_backoff_rng(args.method, policy, seed=args.seed)
    report = None
    if args.portfolio:
        from repro.core.portfolio import DEFAULT_PORTFOLIO, solve_portfolio

        methods = (
            [m.strip() for m in args.methods.split(",") if m.strip()]
            if args.methods
            else DEFAULT_PORTFOLIO
        )
        solution = solve_portfolio(
            problem, methods=methods, max_workers=args.jobs, policy=policy
        )
    else:
        report = solve_report(
            problem,
            method=args.method,
            policy=policy,
            rng=rng,
        )
        solution = report.propagation
    if args.json:
        doc = solution_to_dict(solution)
        if report is not None and report.attempts:
            doc["attempts"] = [
                record.as_dict() for record in report.attempts
            ]
        if args.trace and report is not None:
            doc["route"] = report.route
            doc["profile"] = report.profile.as_dict()
            doc["trace"] = [stage.as_dict() for stage in report.trace]
        json.dump(doc, sys.stdout, indent=2)
        print()
    elif args.explain:
        from repro.core.explain import explain_solution

        print(explain_solution(solution))
    else:
        if args.trace and report is not None:
            print(report.summary())
            print("  profile:")
            for name, value in report.profile.as_dict().items():
                print(f"    {name}: {value}")
        else:
            print(solution.summary())
        for fact in sorted(solution.deleted_facts):
            print(f"  delete {fact!r}")
        if solution.collateral:
            print("  collateral:")
            for vt in sorted(solution.collateral):
                print(f"    - {vt!r}")
    return 0 if solution.is_feasible() else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    # Classify the problem itself (not its bare query list): the flags
    # then come off the session's StructureProfile — the same single
    # scan auto dispatch uses.
    flags = classification_flags(problem)
    print(f"{problem!r}")
    print("structure:")
    for name, value in sorted(flags.items()):
        print(f"  {name}: {value}")
    print("complexity landscape rows that apply:")
    for row in verdict(problem):
        print(f"  [{row.table}] {row.complexity} — {row.query_class} "
              f"({row.citation})")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.core.registry import ILP_ROUTE_MAX_NORM_V, ROUTE_TABLE, route_plan
    from repro.core.session import SolveSession

    session = SolveSession.of(load_problem(args.problem))
    weights = "integer" if session.integer_weights() else "non-integer"
    print(f"route: {route_plan(session).name}")
    print(f"route order: {' > '.join(route.name for route in ROUTE_TABLE)}")
    print(
        f"exact-ilp gate: norm_v <= {ILP_ROUTE_MAX_NORM_V} "
        f"(norm_v = {session.problem.norm_v})"
    )
    print(
        "forest duel: Algorithm 1, then Algorithm 3 unless Algorithm 1's "
        "side effect <= ceil(dual) (integer weights) or <= dual (other "
        f"weights); this instance has {weights} weights"
    )
    return 0


def _cmd_repairs(args: argparse.Namespace) -> int:
    from repro.apps.debugging import top_k_repairs

    problem = load_problem(args.problem)
    deletions = {
        name: sorted(problem.deletion.on(name))
        for name in problem.views.names
        if problem.deletion.on(name)
    }
    repairs = top_k_repairs(
        problem.instance, list(problem.queries), deletions, k=args.k
    )
    for suggestion in repairs:
        print(suggestion.explain())
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.relational.render import (
        render_instance,
        render_queries,
        render_view,
    )

    problem = load_problem(args.problem)
    print(render_queries(problem.queries))
    print()
    print(render_instance(problem.instance))
    for view in problem.views:
        print()
        print(render_view(view))
    deletions = problem.deleted_view_tuples()
    if deletions:
        print("\nΔV (requested deletions):")
        for vt in deletions:
            print(f"  - {vt!r}")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.io.sqlgen import create_table_sql, insert_sql, query_sql

    problem = load_problem(args.problem)

    def literal(value: object) -> str:
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return repr(value)

    for relation in problem.instance.schema:
        print(create_table_sql(relation) + ";")
    for relation in problem.instance.schema:
        template = insert_sql(relation)
        for fact in sorted(problem.instance.relation(relation.name)):
            rendered = template
            for value in fact.values:
                rendered = rendered.replace("?", literal(value), 1)
            print(rendered + ";")
    for query in problem.queries:
        sql, parameters = query_sql(query)
        for value in parameters:
            sql = sql.replace("?", literal(value), 1)
        print(f"-- view {query.name}: {query!r}")
        print(sql + ";")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.core.statistics import workload_statistics

    problem = load_problem(args.problem)
    stats = workload_statistics(problem)
    print(format_table(stats.as_rows(), title=repr(problem)))
    print()
    print(
        format_table(
            [
                {"view": name, "tuples": size}
                for name, size in stats.view_sizes.items()
            ],
            title="view sizes",
        )
    )
    return 0


def _cmd_insert(args: argparse.Namespace) -> int:
    from repro.apps.view_update import propagate_insertion

    problem = load_problem(args.problem)
    plan = propagate_insertion(
        problem.instance,
        list(problem.queries),
        args.view,
        tuple(args.values),
    )
    status = "feasible" if plan.feasible else "CONFLICTS"
    print(f"insert {plan.values!r} into {plan.view}: {status}")
    for fact in plan.new_facts:
        print(f"  + {fact!r}")
    for fact in plan.reused_facts:
        print(f"  = {fact!r} (already present)")
    for required, existing in plan.conflicts:
        print(f"  ! {required!r} conflicts with {existing!r}")
    if plan.side_effects:
        print("  side-effects:")
        for vt in plan.side_effects:
            print(f"    -> {vt!r}")
    return 0 if plan.feasible else 1


def _cmd_example(args: argparse.Namespace) -> int:
    import random

    from repro.workloads import (
        figure1_problem,
        figure1_problem_q4,
        random_chain_problem,
        random_star_problem,
    )

    makers = {
        "fig1": figure1_problem,
        "fig1-q4": figure1_problem_q4,
        "chain": lambda: random_chain_problem(random.Random(args.seed)),
        "star": lambda: random_star_problem(random.Random(args.seed)),
    }
    problem = makers[args.name]()
    if args.out:
        dump_problem(problem, args.out)
        print(f"wrote {args.out}")
    else:
        json.dump(problem_to_dict(problem), sys.stdout, indent=2)
        print()
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench.markdown import write_experiments_md

    print(f"wrote {write_experiments_md(args.out)}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import CASE_KINDS, run_fuzz

    kinds = None
    if args.kinds:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        unknown = set(kinds) - set(CASE_KINDS)
        if unknown:
            print(
                f"unknown kinds {sorted(unknown)}; "
                f"known: {', '.join(CASE_KINDS)}",
                file=sys.stderr,
            )
            return 2
    corpus_dir = None if args.corpus == "none" else args.corpus
    stats = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        budget_seconds=args.budget_seconds,
        kinds=kinds,
        corpus_dir=corpus_dir,
        shrink=not args.no_shrink,
        on_event=print,
    )
    print(
        f"fuzz: {stats.iterations} iterations, {stats.routes} route runs, "
        f"{len(stats.failures)} disagreement(s), "
        f"{stats.wall_seconds:.1f}s wall"
    )
    if stats.failures:
        for entry in stats.failures:
            print(f"  - [{entry['kind']}] {entry['detail']}")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import SolveServer

    async def run() -> int:
        server = SolveServer(
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            max_pending=args.max_pending,
            state_dir=args.state_dir,
            drain_seconds=args.drain_seconds,
        )
        await server.start()
        # SIGTERM means "stop taking work, finish what you hold" —
        # the graceful half of the shutdown contract.  SIGINT (^C)
        # keeps its abrupt KeyboardInterrupt path.
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(
            signal.SIGTERM,
            lambda: asyncio.ensure_future(server.drain()),
        )
        try:
            for path in args.preload:
                with open(path, encoding="utf-8") as handle:
                    doc = json.load(handle)
                instance_id, cached = server.register_document(doc)
                suffix = " (cached)" if cached else ""
                print(f"preloaded {path}: instance {instance_id}{suffix}")
            if server.stats.replayed:
                print(
                    f"replayed {server.stats.replayed} instance(s) "
                    f"from {args.state_dir}"
                )
            print(f"repro serve: listening on {server.address}")
            sys.stdout.flush()
            await server.serve_until_closed()
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            await server.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    policy = _build_policy(args)
    policy_doc = policy.as_dict() if policy is not None else None

    def load_deletions() -> dict:
        spec = args.deletions
        if spec.startswith("@"):
            with open(spec[1:], encoding="utf-8") as handle:
                return json.load(handle)
        return json.loads(spec)

    with ServeClient.connect(
        args.connect,
        retries=args.retry_overloaded,
        backoff_seconds=args.backoff_seconds,
        backoff_seed=args.backoff_seed,
    ) as client:
        if args.action == "ping":
            print("pong" if client.ping() else "no pong")
            return 0
        if args.action == "stats":
            json.dump(client.stats(), sys.stdout, indent=2)
            print()
            return 0
        if args.action == "health":
            health = client.health()
            json.dump(health, sys.stdout, indent=2)
            print()
            return 0 if health.get("ready") else 1
        if args.action == "shutdown":
            client.shutdown(mode=args.shutdown_mode)
            print(f"server stopping (mode={args.shutdown_mode})")
            return 0
        if args.action == "register":
            if not args.target:
                print("register needs a problem document path",
                      file=sys.stderr)
                return 2
            with open(args.target, encoding="utf-8") as handle:
                doc = json.load(handle)
            info = client.register_info(doc)
            json.dump(info, sys.stdout, indent=2)
            print()
            return 0
        # solve: target is an instance hash, or a problem document that
        # is registered first and solved for its own ΔV.
        if not args.target:
            print("solve needs an instance hash or a problem path",
                  file=sys.stderr)
            return 2
        import os.path

        if os.path.exists(args.target):
            with open(args.target, encoding="utf-8") as handle:
                doc = json.load(handle)
            instance = client.register(doc)
            deletions = (
                load_deletions() if args.deletions else doc.get(
                    "deletions", {}
                )
            )
        else:
            instance = args.target
            if not args.deletions:
                print("solving by instance hash needs --deletions",
                      file=sys.stderr)
                return 2
            deletions = load_deletions()
        result = client.solve(
            instance, deletions, method=args.method, policy=policy_doc
        )
        json.dump(result, sys.stdout, indent=2)
        print()
        return 0 if result["solution"]["feasible"] else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "route": _cmd_route,
    "repairs": _cmd_repairs,
    "render": _cmd_render,
    "sql": _cmd_sql,
    "stats": _cmd_stats,
    "insert": _cmd_insert,
    "example": _cmd_example,
    "experiments": _cmd_experiments,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "client": _cmd_client,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    from repro.errors import ReproError

    # A typed error is a one-line verdict, not a traceback; main() itself
    # still raises so library callers and tests see the exception.
    try:
        sys.exit(main())
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
