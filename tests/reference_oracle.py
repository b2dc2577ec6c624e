"""Per-profile brute-force oracle, kept as a reference for the tests.

This is the straightforward form of :mod:`pagegame.oracle`: every path of
every player is listed before the cap is checked, and every profile is
checked on its own, each player re-tallying the others' loads and page
cost and re-scoring every alternative path against its current one. An
alternative must beat the current cost by ``game.slack`` over the terms the
README counts, taken from this module's own path lists. Paths
are listed by walking every node below the root, not the engine's plan.
Cost reports, forest flags and the prices of anarchy and stability are
computed here from their definitions, with every sum left to right in the
canonical order (edges in declaration order, a player's shares along its
path). The engine sweeps the players widest first over the combinations
of the others' paths that still have a profile standing, scores each load
pattern of the others once per sweep, and scores from a share table; the
tests require both to produce the same catalogs, floats bit for bit.
"""

from __future__ import annotations

import itertools
import math

from pagegame.errors import NoEquilibria, NoPath, SearchSpaceTooLarge
from pagegame.game import TOLERANCE, CostReport, StrategyProfile, ordered_sum, slack
from pagegame.oracle import DEFAULT_CAP, EquilibriumCatalog, EquilibriumEntry


def list_paths(graph, node, leaf, prefix=()):
    """Every ``node``-``leaf`` path in lexicographic edge-id order, walking
    every node below ``node``."""
    for edge in graph.out_edges(node) if node in graph else ():
        path = prefix + (edge.edge_id,)
        if edge.dst == leaf:
            yield path
        else:
            yield from list_paths(graph, edge.dst, leaf, path)


def candidate_paths(graph, players, cap):
    path_sets = []
    size = 1
    for player in players:
        paths = list(list_paths(graph, player.root, player.leaf))
        if not paths:
            raise NoPath(player.player_id, player.root, player.leaf)
        path_sets.append(paths)
        size *= len(paths)
    if size > cap:
        raise SearchSpaceTooLarge(size, cap)
    return path_sets


def deviation_cost(graph, candidate, other_loads, others_cost, delta):
    """Cost of one candidate path straight from the sharing definitions."""
    shared = 0.0
    added = 0.0
    for edge_id in candidate:
        k = other_loads.get(edge_id, 0)
        cost = graph.edge(edge_id).cost
        shared += cost / (k + 1)
        if k == 0:
            added += cost
    return shared + delta * (others_cost + added)


def profile_is_equilibrium(graph, players, path_sets, profile, delta):
    for player, candidates in zip(players, path_sets):
        pid = player.player_id
        other_loads = {}
        others_used = set()
        for other_id, path in profile.items():
            if other_id == pid:
                continue
            others_used.update(path)
            for edge_id in path:
                other_loads[edge_id] = other_loads.get(edge_id, 0) + 1
        others_cost = ordered_sum(
            edge.cost for edge in graph.edges if edge.edge_id in others_used
        )
        current = deviation_cost(graph, profile.path(pid), other_loads, others_cost, delta)
        # Terms: the nodes on the player's paths other than its root, and,
        # with delta, the edges the profile uses.
        terms = len({graph.edge(e).dst for path in candidates for e in path})
        if delta:
            terms += len(others_used.union(profile.path(pid)))
        for candidate in candidates:
            if candidate == profile.path(pid):
                continue
            alt = deviation_cost(graph, candidate, other_loads, others_cost, delta)
            if alt < current - TOLERANCE and alt < current - slack(current, terms):
                return False
    return True


def cost_report(graph, profile, delta):
    """Page cost, player costs, shares and potential from the sharing
    definitions: an edge's share is its cost over its load, a player pays
    its shares plus ``delta`` times the page cost, and the potential adds
    ``cost / x`` for each load ``x`` up to an edge's, plus ``delta`` times
    the page cost."""
    loads = {}
    for path in profile.paths.values():
        for edge_id in path:
            loads[edge_id] = loads.get(edge_id, 0) + 1
    used = [edge for edge in graph.edges if edge.edge_id in loads]
    page = ordered_sum((edge.cost for edge in used), 0.0)
    shares = {edge.edge_id: edge.cost / loads[edge.edge_id] for edge in used}
    player_costs = {}
    for pid, path in profile.paths.items():
        own = ordered_sum(shares[edge_id] for edge_id in path)
        player_costs[pid] = own + delta * page if delta else own
    potential = 0.0
    for edge in used:
        for x in range(1, loads[edge.edge_id] + 1):
            potential += edge.cost / x
    if delta:
        potential += delta * page
    return CostReport(page, player_costs, shares, potential, delta)


def is_forest(graph, profile):
    """Whether the used edges, undirected and parallel ones counted apart,
    hold no cycle: a forest has one edge fewer than nodes in each connected
    component."""
    used = set().union(*profile.paths.values())
    neighbours = {}
    for edge in graph.edges:
        if edge.edge_id in used:
            neighbours.setdefault(edge.src, []).append(edge.dst)
            neighbours.setdefault(edge.dst, []).append(edge.src)
    components = 0
    seen = set()
    for start in neighbours:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            for node in neighbours[stack.pop()]:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
    return len(used) == len(neighbours) - components


def brute_force_equilibria(graph, players, delta=0.0, cap=DEFAULT_CAP):
    players = tuple(players)
    path_sets = candidate_paths(graph, players, cap)
    entries = []
    for combo in itertools.product(*path_sets):
        profile = StrategyProfile(
            {player.player_id: path for player, path in zip(players, combo)}
        )
        if profile_is_equilibrium(graph, players, path_sets, profile, delta):
            entries.append(
                EquilibriumEntry(
                    profile=profile,
                    report=cost_report(graph, profile, delta),
                    is_forest=is_forest(graph, profile),
                )
            )
    return tuple(entries)


def social_optimum(graph, players, cap=DEFAULT_CAP):
    players = tuple(players)
    path_sets = candidate_paths(graph, players, cap)
    best_profile = None
    best_cost = math.inf
    for combo in itertools.product(*path_sets):
        used = set()
        for path in combo:
            used.update(path)
        cost = ordered_sum((edge.cost for edge in graph.edges if edge.edge_id in used), 0.0)
        if cost < best_cost:
            best_cost = cost
            best_profile = StrategyProfile(
                {player.player_id: path for player, path in zip(players, combo)}
            )
    return best_profile


def analyze(graph, players, delta=0.0, cap=DEFAULT_CAP):
    """The catalog. The price of anarchy is the largest ratio of an
    equilibrium's page cost to the optimum's, and the price of stability
    the smallest; over a zero-cost optimum an equilibrium's ratio is 1 when
    it is free too, and infinite otherwise."""
    entries = brute_force_equilibria(graph, players, delta, cap)
    if not entries:
        raise NoEquilibria()
    optimum = social_optimum(graph, players, cap)
    optimum_cost = cost_report(graph, optimum, 0.0).page_cost

    def ratio(entry):
        cost = entry.report.page_cost
        if optimum_cost == 0.0:
            return 1.0 if cost == 0.0 else math.inf
        return cost / optimum_cost

    ratios = [ratio(entry) for entry in entries]
    return EquilibriumCatalog(entries, optimum, optimum_cost, max(ratios), min(ratios))
