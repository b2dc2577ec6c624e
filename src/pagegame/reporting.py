"""Run report and trace serialization plus the DOT rendering of a profile.

Reports and traces are plain JSON with a fixed layout; the encoder alone
orders keys, and a trace record is its ``Step``'s fields, so identical
inputs produce byte-identical files. Output is standard JSON: an unbounded
price ratio (a zero-cost optimum) is written as ``null``. Player ids become
string keys in JSON; on load only the spelling ``str(id)`` parses back. The
JSON profile summary reads one ``Tally`` and sums no potential. DOT quotes
every node and edge id, escaping ``\\`` and ``"`` with a backslash.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .dynamics import DynamicsTrace
from .errors import MalformedInstance
from .game import CostReport, GameGraph, StrategyProfile, Tally
from .instance import refuse_lone_surrogates
from .oracle import EquilibriumCatalog

FORMAT_VERSION = 1


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def profile_to_json(profile: StrategyProfile) -> dict[str, tuple[str, ...]]:
    return {str(pid): path for pid, path in profile.paths.items()}


def profile_from_json(obj: Any) -> StrategyProfile:
    if not isinstance(obj, dict):
        raise MalformedInstance("profile must be an object of player -> edge list")
    paths: dict[int, tuple[str, ...]] = {}
    for key, value in obj.items():
        try:
            pid = int(key)
            if key != str(pid):  # "02", " 2" and "+2" would alias player 2
                raise ValueError(key)
        except ValueError:
            raise MalformedInstance(f"profile key {key!r} is not a player id") from None
        if not isinstance(value, list) or not all(isinstance(e, str) for e in value):
            raise MalformedInstance(f"profile entry for player {key} must be an edge-id list")
        paths[pid] = tuple(value)
    return StrategyProfile(paths)


def cost_report_to_json(report: CostReport) -> dict[str, Any]:
    return {
        "page_cost": report.page_cost,
        "player_costs": {str(pid): cost for pid, cost in report.player_costs.items()},
        "shares": report.shares,
        "potential": report.potential,
        "delta": report.delta,
    }


def catalog_to_json(catalog: EquilibriumCatalog) -> dict[str, Any]:
    return {
        "equilibria": [
            {
                "profile": profile_to_json(entry.profile),
                "cost_report": cost_report_to_json(entry.report),
                "is_forest": entry.is_forest,
            }
            for entry in catalog.equilibria
        ],
        "optimum": {
            "profile": profile_to_json(catalog.optimum),
            "page_cost": catalog.optimum_cost,
        },
        "poa": _ratio(catalog.poa),
        "pos": _ratio(catalog.pos),
    }


def _ratio(value: float) -> float | None:
    """An unbounded price ratio (``math.inf``) is written as JSON ``null``."""
    return None if value == math.inf else value


#: ``json.dumps(obj, sort_keys=True)`` without building an encoder per call.
_STEP_ENCODER = json.JSONEncoder(sort_keys=True)


def trace_to_lines(trace: DynamicsTrace) -> str:
    """One JSON record per step, its ``Step`` fields, newline-delimited."""
    lines = [_STEP_ENCODER.encode(step._asdict()) for step in trace.steps]
    return "".join(line + "\n" for line in lines)


def run_report(
    command: str,
    delta: float,
    seed: int | None,
    schedule: str | None,
    converged: bool | None = None,
    iterations: int | None = None,
    final_profile: StrategyProfile | None = None,
    cost: CostReport | None = None,
    trace_path: str | None = None,
    catalog: EquilibriumCatalog | None = None,
) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "run-report",
        "command": command,
        "delta": delta,
        "seed": seed,
        "schedule": schedule,
        "converged": converged,
        "iterations": iterations,
        "final_profile": profile_to_json(final_profile) if final_profile else None,
        "cost_report": cost_report_to_json(cost) if cost else None,
        "trace": trace_path,
        "catalog": catalog_to_json(catalog) if catalog else None,
    }


def load_report(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        obj = json.loads(text)
    except OSError as exc:
        raise MalformedInstance(f"cannot read report file: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise MalformedInstance(f"report is not valid JSON: {exc}") from None
    refuse_lone_surrogates(text, obj)
    if not isinstance(obj, dict) or obj.get("kind") != "run-report":
        raise MalformedInstance("file is not a run report")
    version = obj.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise MalformedInstance("unsupported report format_version")
    return obj


def _used_edges(tally: Tally):
    """``(edge, load, share)`` for each edge some player uses, by edge id."""
    graph = tally.graph
    edges, costs, loads = graph.edges, graph.costs, tally.loads
    for e in sorted(tally.used, key=graph.edge_ids.__getitem__):
        yield edges[e], loads[e], costs[e] / loads[e]


def _quoted(text: str) -> str:
    """``text`` as a DOT quoted string; distinct ids stay distinct."""
    if '"' in text or "\\" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def render_dot(graph: GameGraph, profile: StrategyProfile) -> str:
    """DOT rendering of the chosen tree, edges annotated with load and share;
    an unknown edge id raises ``GraphError``."""
    used_nodes: set[str] = set()
    edge_lines: list[str] = []
    for (edge_id, src, dst, cost), count, share in _used_edges(Tally(graph, profile)):
        used_nodes.update((src, dst))
        label = _quoted(f"{edge_id} c={cost:g} x={count} share={share:g}")
        edge_lines.append(f"  {_quoted(src)} -> {_quoted(dst)} [label={label}];")
    node_lines = [f"  {_quoted(node_id)};" for node_id in sorted(used_nodes)]
    body = "\n".join(node_lines + edge_lines)
    if body:
        return "digraph chosen_tree {\n  rankdir=LR;\n" + body + "\n}\n"
    return "digraph chosen_tree {\n}\n"


def profile_summary(
    graph: GameGraph, profile: StrategyProfile, delta: float = 0.0
) -> dict[str, Any]:
    """Machine-readable companion to the DOT rendering, read off one tally."""
    tally = Tally(graph, profile, delta)
    edges = [
        {"id": edge_id, "src": src, "dst": dst, "cost": cost, "load": count, "share": share}
        for (edge_id, src, dst, cost), count, share in _used_edges(tally)
    ]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "profile-summary",
        "page_cost": tally.page(),
        "delta": delta,
        "edges": edges,
        "player_costs": {str(pid): tally.cost(pid) for pid in tally.paths},
    }
