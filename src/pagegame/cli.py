"""Command-line driver: solve, enumerate, check, and report.

Exit codes:

* 0: success (``solve`` additionally requires convergence)
* 1: usage error, malformed instance/report file, malformed embedded
  document, or an output file that cannot be written
* 2: semantic validation failure (negative or non-finite cost, cost
  factor or delta, cycle, missing path, invalid profile, unreachable
  component)
* 3: dynamics did not converge within the iteration budget
* 4: ``enumerate``'s profile space or ``check``'s deviation sweep exceeds
  the cap
* 5: a ``check`` assertion failed

Engine errors carry their exit code as ``EngineError.exit_code``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import oracle
from .dynamics import Schedule, improving_move, is_nash, run_dynamics
from .errors import EngineError, MalformedInstance, SearchSpaceTooLarge, printable
from .game import (
    TOLERANCE,
    GameInstance,
    StrategyProfile,
    Tally,
    cost_report,
    ordered_sum,
    slack,
    validate_profile,
)
from .instance import collector_paused, load_instance, number
from .reporting import (
    canonical_json,
    load_report,
    profile_from_json,
    profile_summary,
    render_dot,
    run_report,
    trace_to_lines,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 3
EXIT_CHECK_FAILED = 5


class _UsageError(EngineError):
    exit_code = EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this engine reserves 2, so use 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pagegame", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--instance", required=True, help="instance file (JSON)")
        p.add_argument("--delta", type=float, default=None,
                       help="override the instance file's delta")
        p.add_argument("--output", default=None, help="write result here instead of stdout")

    solve = sub.add_parser("solve", help="run best-response dynamics to equilibrium")
    common(solve)
    solve.add_argument("--seed", type=int, default=0, help="seed for ties and shuffles")
    solve.add_argument("--schedule", choices=["round-robin", "random"],
                       default="round-robin")
    solve.add_argument("--max-iters", type=int, default=10000,
                       help="maximum full passes over the players")
    solve.add_argument("--trace", default=None, help="write per-step records here")

    enum = sub.add_parser("enumerate", help="brute-force the full equilibrium catalog")
    common(enum)
    enum.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                      help="largest profile space the search will touch")

    check = sub.add_parser("check", help="re-verify a run report against its instance")
    common(check)
    check.add_argument("--report", required=True, help="run report to verify")
    check.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                       help="largest potential-identity sweep (deviations) to run")

    rep = sub.add_parser("report", help="render a run report (DOT or JSON summary)")
    common(rep)
    rep.add_argument("--report", required=True, help="run report to render")
    rep.add_argument("--format", choices=["dot", "json"], default="dot")

    return parser


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write output file: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write(output, text)


def _load(args) -> GameInstance:
    instance = load_instance(args.instance)
    if args.delta is not None:
        instance = dataclasses.replace(instance, delta=args.delta)
    return instance


def _cmd_solve(args) -> int:
    if args.max_iters < 1:
        raise _UsageError("--max-iters must be >= 1")
    if not 0 <= args.seed < 2**64:  # the generator keeps a seed mod 2**64
        raise _UsageError("--seed must be in [0, 2**64)")
    instance = _load(args)
    schedule = Schedule(kind=args.schedule, seed=args.seed)
    trace = run_dynamics(
        instance.graph,
        instance.players,
        instance.delta,
        schedule=schedule,
        max_iters=args.max_iters,
    )
    if args.trace is not None:
        _write(args.trace, trace_to_lines(trace))
    report = run_report(
        command="solve",
        delta=instance.delta,
        seed=args.seed,
        schedule=args.schedule,
        converged=trace.converged,
        iterations=trace.passes,
        final_profile=trace.final_profile,
        cost=cost_report(instance.graph, trace.final_profile, instance.delta),
        trace_path=args.trace,
    )
    _emit(canonical_json(report), args.output)
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _require_positive_cap(args) -> None:
    if args.cap < 1:
        raise _UsageError("--cap must be >= 1")


def _cmd_enumerate(args) -> int:
    _require_positive_cap(args)
    instance = _load(args)
    catalog = oracle.analyze(instance.graph, instance.players, instance.delta, args.cap)
    report = run_report(
        command="enumerate",
        delta=instance.delta,
        seed=None,
        schedule=None,
        catalog=catalog,
    )
    _emit(canonical_json(report), args.output)
    return EXIT_OK


def _report_profile(args) -> tuple[GameInstance, StrategyProfile]:
    """The instance at the delta in use (``--delta``, else the report's), so
    its overflow guard covers that delta, and the report's final profile,
    validated against it."""
    instance = _load(args)
    report = load_report(args.report)
    if report.get("final_profile") is None:
        raise MalformedInstance("report holds no final profile")
    profile = profile_from_json(report["final_profile"])
    if args.delta is None:
        delta = number(report.get("delta", 0.0), "report delta must be a number")
        if delta != instance.delta:
            instance = dataclasses.replace(instance, delta=delta)
    validate_profile(instance.graph, instance.players, profile)
    return instance, profile


def _cmd_check(args) -> int:
    _require_positive_cap(args)
    instance, profile = _report_profile(args)
    graph, delta = instance.graph, instance.delta
    deviations = sum(graph.path_count(p.root, p.leaf) - 1 for p in instance.players)
    if deviations > args.cap:
        raise SearchSpaceTooLarge(deviations, args.cap, "potential-identity sweep")

    results: list[tuple[str, bool, str]] = []
    tally = Tally(graph, profile, delta)
    page, phi = tally.page(), tally.potential()
    player_costs = {pid: tally.cost(pid) for pid in tally.paths}
    # Shares summed over every path; each float comparison below allows the
    # rounding of sums of about this many terms (see game.slack).
    terms = sum(len(path) for _, path in profile.items())

    costs, loads = graph.costs, tally.loads
    total_shares = ordered_sum(
        [costs[e] / loads[e] for path in tally.paths.values() for e in path])
    balanced = abs(total_shares - page) <= slack(page, terms)
    results.append(
        ("budget-balance", balanced,
         "" if balanced else f"shares sum to {total_shares}, page cost {page}")
    )

    k = len(instance.players)
    total_player = ordered_sum(player_costs.values())
    expected = page * (1.0 + delta * k)
    aggregated = abs(total_player - expected) <= slack(expected, terms + k)
    results.append(
        ("cost-aggregation", aggregated,
         "" if aggregated else f"player costs sum to {total_player}, expected {expected}")
    )

    # Each deviation moves the one tally; the own path goes back after them.
    # Every deviation is scored against the player's cost, as the move test
    # would (``improves``), even after the identity's first FAIL.
    identity_detail, undercut = "", None
    used = len(tally.used) if delta else 0
    for player, paths in zip(instance.players, oracle.pair_paths(graph, instance.players)):
        if len(paths) == 1:
            continue
        pid = player.player_id
        own, current = tally.paths[pid], player_costs[pid]
        cut = current - slack(current, len(graph.between(player.root, player.leaf)) + used)
        for deviation in paths:
            if deviation == own:
                continue
            tally.move(pid, deviation)
            cost = tally.cost(pid)
            if undercut is None and cost < cut:
                undercut = pid, [graph.edge_ids[e] for e in deviation]
            if identity_detail:
                continue
            moved = tally.potential()
            d_phi = phi - moved
            d_cost = current - cost
            gap = abs(d_phi - d_cost)
            # slack() is never below TOLERANCE; most deviations stop here.
            if gap > TOLERANCE and gap > slack(max(phi, moved), 2 * (terms + len(deviation) + 2)):
                alt = ", ".join(printable(graph.edge_ids[e]) for e in deviation)
                identity_detail = (
                    f"player {pid} via [{alt}]: "
                    f"potential moved {d_phi}, cost moved {d_cost}"
                )
        tally.move(pid, own)

    # Stable only if the move test and the sweep, from the definition, agree.
    stable = is_nash(graph, profile, delta)
    move = None if stable else improving_move(graph, profile, delta)
    detail = ""
    if move or undercut:
        pid, path = move or undercut
        detail = f"player {pid} can switch to [{', '.join(map(printable, path))}]"
        if not undercut:
            detail += " by the move test, but no deviation undercuts its cost"
        elif not move:
            detail += ", which the move test misses"
    results.insert(0, ("nash-stability", stable and not undercut, detail))
    results.append(("potential-identity", not identity_detail, identity_detail))

    lines = [f"PASS {name}\n" if ok else f"FAIL {name}: {info}\n" for name, ok, info in results]
    _emit("".join(lines), args.output)
    return EXIT_OK if all(passed for _, passed, _ in results) else EXIT_CHECK_FAILED


def _cmd_report(args) -> int:
    instance, profile = _report_profile(args)
    graph = instance.graph
    if args.format == "dot":
        _emit(render_dot(graph, profile), args.output)
    else:
        _emit(canonical_json(profile_summary(graph, profile, instance.delta)), args.output)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "check": _cmd_check,
    "report": _cmd_report,
}


@collector_paused
def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except EngineError as exc:
        print(f"pagegame: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
