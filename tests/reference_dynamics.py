"""Full-rebuild best-response dynamics, kept as a reference for the tests.

This is the straightforward form of :mod:`pagegame.dynamics`: every best
response tallies the other players' loads and page cost from scratch,
weighs all edges, relaxes the whole graph and lists the tied paths with a
recursive walk. The engine keeps its loads across activations and relaxes
only each player's root-leaf subgraph; the tests require both to produce
the same traces, answers and floats bit for bit.

Comparisons allow the engine's ``game.slack``, with the engine's term
counts: the nodes on some root-leaf path (leaf excluded), found here from
the definition, plus the loaded edges when ``delta > 0``.
"""

from __future__ import annotations

import math

from pagegame.dynamics import DynamicsTrace, Schedule, Step
from pagegame.errors import NoPath
from pagegame.game import (
    Player,
    StrategyProfile,
    cost_report,
    page_cost,
    slack,
    validate_profile,
)
from pagegame.rng import SplitMix64


def load_map(profile):
    """Per-edge usage counts by edge id; edges outside every path are absent."""
    loads = {}
    for _, path in profile.items():
        for edge_id in path:
            loads[edge_id] = loads.get(edge_id, 0) + 1
    return loads


def without(profile, player_id):
    """The paths of every player except ``player_id``."""
    return StrategyProfile({pid: path for pid, path in profile.items() if pid != player_id})


def weights_from_loads(graph, other_loads, delta):
    weights = {}
    for edge in graph.edges:
        k = other_loads.get(edge.edge_id, 0)
        if k:
            weights[edge.edge_id] = edge.cost / (k + 1)
        else:
            weights[edge.edge_id] = edge.cost * (delta + 1.0)
    return weights


def distance_to(graph, weights, target):
    """Cheapest-path weight from every node to ``target`` (DAG relaxation)."""
    dist = {nid: math.inf for nid in graph.topo_order}
    dist[target] = 0.0
    for nid in reversed(graph.topo_order):
        for edge in graph.out_edges(nid):
            through = weights[edge.edge_id] + dist[edge.dst]
            if through < dist[nid]:
                dist[nid] = through
    return dist


def plan_size(graph, root, leaf):
    """Number of nodes on some ``root``-``leaf`` path, the leaf excluded."""
    below = {root}
    for nid in graph.topo_order:
        if nid in below:
            below.update(edge.dst for edge in graph.out_edges(nid))
    above = {leaf}
    for nid in reversed(graph.topo_order):
        if any(edge.dst in above for edge in graph.out_edges(nid)):
            above.add(nid)
    return len(below & above) - 1 if leaf in below else 0


def improves(graph, profile, root, leaf, attainable, current, delta):
    terms = plan_size(graph, root, leaf) + (len(load_map(profile)) if delta else 0)
    return attainable < current - slack(current, terms)


def cheapest_paths(graph, weights, root, leaf):
    """Minimum root-leaf weight and every path within the slack of it, in
    lexicographic edge-id order with its accumulated weight."""
    to_leaf = distance_to(graph, weights, leaf)
    best = to_leaf[root]
    if math.isinf(best):
        return best, []
    bound = best + slack(best, plan_size(graph, root, leaf))
    ties = []
    stack = []

    def walk(node, acc):
        if node == leaf:
            ties.append((tuple(stack), acc))
            return
        for edge in graph.out_edges(node):
            through = acc + weights[edge.edge_id]
            if through + to_leaf[edge.dst] <= bound:
                stack.append(edge.edge_id)
                walk(edge.dst, through)
                stack.pop()

    walk(root, 0.0)
    return best, ties


def respond(graph, profile, player, delta, rng):
    others = without(profile, player.player_id)
    weights = weights_from_loads(graph, load_map(others), delta)
    best, ties = cheapest_paths(graph, weights, player.root, player.leaf)
    if not ties:
        raise NoPath(player.player_id, player.root, player.leaf)
    path, weight = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
    others_cost = page_cost(graph, others) if delta else 0.0
    return path, weight + delta * others_cost, best + delta * others_cost


def best_response(graph, profile, player_id, delta=0.0, seed=0):
    current = profile.path(player_id)
    player = Player(player_id, graph.edge(current[0]).src, graph.edge(current[-1]).dst)
    path, _, _ = respond(graph, profile, player, delta, SplitMix64(seed))
    return path


def is_nash(graph, profile, delta=0.0):
    costs = cost_report(graph, profile, delta).player_costs
    for pid, path in profile.items():
        others = without(profile, pid)
        weights = weights_from_loads(graph, load_map(others), delta)
        root, leaf = graph.edge(path[0]).src, graph.edge(path[-1]).dst
        best = distance_to(graph, weights, leaf)[root]
        if delta:
            best += delta * page_cost(graph, others)
        if improves(graph, profile, root, leaf, best, costs[pid], delta):
            return False
    return True


def run_dynamics(graph, players, delta=0.0, schedule=None, max_iters=10000, initial=None):
    schedule = schedule or Schedule()
    players = tuple(players)
    rng = SplitMix64(schedule.seed)
    if initial is None:
        profile = StrategyProfile({})
        for player in players:
            path, _, _ = respond(graph, profile, player, delta, rng)
            profile = profile.replace(player.player_id, path)
    else:
        validate_profile(graph, players, initial)
        profile = initial
    initial_profile = profile

    steps = []
    report = cost_report(graph, profile, delta)
    converged = False
    passes = 0
    for pass_no in range(1, max_iters + 1):
        passes = pass_no
        order = list(players)
        if schedule.kind == "random":
            rng.shuffle(order)
        moved = False
        for player in order:
            pid = player.player_id
            previous = report.player_costs[pid]
            path, new_cost, attainable = respond(graph, profile, player, delta, rng)
            if improves(graph, profile, player.root, player.leaf, attainable, previous, delta):
                profile = profile.replace(pid, path)
                report = cost_report(graph, profile, delta)
                steps.append(
                    Step(pass_no, pid, previous, new_cost, report.potential, True, path)
                )
                moved = True
            else:
                steps.append(
                    Step(pass_no, pid, previous, previous, report.potential, False, None)
                )
        if not moved:
            converged = True
            break

    return DynamicsTrace(
        steps=tuple(steps),
        converged=converged,
        final_profile=profile,
        initial_profile=initial_profile,
        passes=passes,
    )
