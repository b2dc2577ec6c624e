"""Per-profile brute-force oracle, kept as a reference for the tests.

This is the straightforward form of :mod:`pagegame.oracle`: every path of
every player is listed before the cap is checked, and every profile is
checked on its own, each player re-tallying the others' loads and page
cost and re-scoring every alternative path against its current one. An
alternative must beat the current cost by ``game.slack`` over the terms the
README counts, taken from this module's own path lists. Paths
are listed by walking every node below the root, not the engine's plan. The
engine sweeps the players widest first over the combinations of the
others' paths that still have a profile standing, scores each load pattern
of the others once per sweep, and scores from a share table; the tests
require both to produce the same catalogs, floats bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

from pagegame.errors import NoPath, SearchSpaceTooLarge
from pagegame.game import (
    TOLERANCE,
    StrategyProfile,
    cost_report,
    ordered_sum,
    page_cost,
    slack,
)
from pagegame.oracle import (
    DEFAULT_CAP,
    EquilibriumCatalog,
    EquilibriumEntry,
    efficiency_metrics,
    union_is_forest,
)


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
                    is_forest=union_is_forest(graph, profile),
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
        cost = ordered_sum(edge.cost for edge in graph.edges if edge.edge_id in used)
        if cost < best_cost:
            best_cost = cost
            best_profile = StrategyProfile(
                {player.player_id: path for player, path in zip(players, combo)}
            )
    return best_profile


def analyze(graph, players, delta=0.0, cap=DEFAULT_CAP):
    entries = brute_force_equilibria(graph, players, delta, cap)
    optimum = social_optimum(graph, players, cap)
    catalog = EquilibriumCatalog(
        equilibria=entries,
        optimum=optimum,
        optimum_cost=page_cost(graph, optimum),
        poa=math.nan,
        pos=math.nan,
    )
    poa, pos = efficiency_metrics(catalog)
    return replace(catalog, poa=poa, pos=pos)
