"""Per-layer measurements for the traced run.

Spans are recorded by the benchmark's own wrappers around the public
functions of each pagegame module, installed only for a traced repetition.
A function is wrapped where its callers look it up (the calling module's
globals), so the engine runs unchanged. A span's self time is its duration
minus the time its child spans cover.

Counts come from the outputs and from the benchmark's own walks over the
loaded graph, never from timers, so they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

from pagegame import cli, dom, dynamics, game, instance, oracle
from pagegame.game import StrategyProfile

# (module whose globals hold the name, attribute, span name)
WRAP_POINTS = (
    (cli, "main", "cli.main"),
    (instance, "load_instance", "instance.load_instance"),
    (cli, "load_instance", "instance.load_instance"),
    (instance, "instance_from_text", "instance.instance_from_text"),
    (instance, "parse_instance", "instance.parse_instance"),
    (instance, "parse_document", "dom.parse_document"),
    (instance, "build_game", "dom.build_game"),
    (instance, "build_graph", "game.build_graph"),
    (dom, "build_graph", "game.build_graph"),
    (game, "validate_players", "game.validate_players"),
    (cli, "cost_report", "game.cost_report"),
    (cli, "run_dynamics", "dynamics.run_dynamics"),
    (cli, "is_nash", "dynamics.is_nash"),
    (oracle, "analyze", "oracle.analyze"),
    (oracle, "enumerate_paths", "oracle.enumerate_paths"),
    (oracle, "brute_force_equilibria", "oracle.brute_force_equilibria"),
    (oracle, "social_optimum", "oracle.social_optimum"),
    (cli, "trace_to_lines", "reporting.trace_to_lines"),
    (cli, "canonical_json", "reporting.canonical_json"),
    (cli, "render_dot", "reporting.render_dot"),
)

# Reported metric -> span whose self time it is. ``instance_from_text`` does
# the JSON decode and calls ``parse_instance``, so its self time is the decode.
SPAN_METRICS = {
    "instance.json_decode_s": "instance.instance_from_text",
    "instance.parse_instance_s": "instance.parse_instance",
    "dom.parse_document_s": "dom.parse_document",
    "dom.build_game_s": "dom.build_game",
    "game.build_graph_s": "game.build_graph",
    "game.validate_players_s": "game.validate_players",
    "game.cost_report_s": "game.cost_report",
    "dynamics.run_dynamics_s": "dynamics.run_dynamics",
    "dynamics.is_nash_s": "dynamics.is_nash",
    "oracle.enumerate_paths_s": "oracle.enumerate_paths",
    "oracle.brute_force_equilibria_s": "oracle.brute_force_equilibria",
    "oracle.social_optimum_s": "oracle.social_optimum",
    "reporting.trace_to_lines_s": "reporting.trace_to_lines",
    "reporting.canonical_json_s": "reporting.canonical_json",
    "reporting.render_dot_s": "reporting.render_dot",
}


class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def __enter__(self):
        self.spans, self._stack = [], []
        for module, attr, name in WRAP_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals


# ------------------------------------------------------------ graph counts

def path_count(graph, root: str, leaf: str) -> int:
    """Root-leaf paths, counted by DP over the topological order."""
    counts = {root: 1}
    for node in graph.topo_order:
        c = counts.get(node)
        if c:
            for edge in graph.out_edges(node):
                counts[edge.dst] = counts.get(edge.dst, 0) + c
    return counts.get(leaf, 0)


def tight_path_count(graph, weights: dict[str, float], root: str, leaf: str,
                     tol: float = 1e-9) -> int:
    """Cheapest root-leaf paths under ``weights``, within ``tol`` (computed).

    An edge is tight when the cheapest root distance of its tail plus its
    weight plus the cheapest leaf distance of its head stays within ``tol``
    of the optimum; the tight paths are counted by DP. The engine's tie
    walk compares each path's accumulated weight instead, so near-ties can
    be classified differently; exact ties are counted the same.
    """
    order = graph.topo_order
    inf = math.inf
    from_root = {root: 0.0}
    for node in order:
        d = from_root.get(node, inf)
        if d < inf:
            for edge in graph.out_edges(node):
                if d + weights[edge.edge_id] < from_root.get(edge.dst, inf):
                    from_root[edge.dst] = d + weights[edge.edge_id]
    to_leaf = {leaf: 0.0}
    for node in reversed(order):
        for edge in graph.out_edges(node):
            through = weights[edge.edge_id] + to_leaf.get(edge.dst, inf)
            if through < to_leaf.get(node, inf):
                to_leaf[node] = through
    best = from_root.get(leaf, inf)
    counts = {root: 1}
    for node in order:
        c = counts.get(node)
        if not c:
            continue
        for edge in graph.out_edges(node):
            slack = from_root[node] + weights[edge.edge_id] + to_leaf.get(edge.dst, inf)
            if slack <= best + tol:
                counts[edge.dst] = counts.get(edge.dst, 0) + c
    return counts.get(leaf, 0)


def largest_tie(inst, trace) -> int:
    """Largest tied-path count over every best response of one run: the
    greedy placements, then each recorded activation, replayed in order."""
    players = inst.players
    start = trace.initial_profile
    largest = 0
    for i, player in enumerate(players):
        placed = StrategyProfile({p.player_id: start.path(p.player_id) for p in players[: i + 1]})
        weights = dynamics.reweight(inst.graph, placed, player.player_id, inst.delta)
        largest = max(largest, tight_path_count(inst.graph, weights, player.root, player.leaf))
    by_id = {p.player_id: p for p in players}
    profile = start
    for step in trace.steps:
        player = by_id[step.player_id]
        weights = dynamics.reweight(inst.graph, profile, player.player_id, inst.delta)
        largest = max(largest, tight_path_count(inst.graph, weights, player.root, player.leaf))
        if step.path_changed:
            profile = profile.replace(step.player_id, step.path)
    return largest


# ------------------------------------------------------------ per-call timings

def per_call(fn, calls) -> float:
    """Median wall time of ``fn(*args)`` over the argument tuples in ``calls``."""
    samples = []
    for args in calls:
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def sample_players(players, limit: int = 40):
    """At most ``limit`` players, evenly spread over the id order."""
    if len(players) <= limit:
        return list(players)
    step = len(players) / limit
    return [players[int(i * step)] for i in range(limit)]
