"""Exhaustive ground truth at desk scale.

Everything here works by enumeration straight from the cost definitions:
candidate paths are listed explicitly, profiles come from the Cartesian
product, and a profile counts as an equilibrium only if no player has any
listed alternative path that beats its current cost. None of it reuses the
reweighting shortcut from :mod:`pagegame.dynamics`, so agreement between
the two routes is a real check, not a tautology.

The product enumeration is capped (default one million profiles) and
refuses larger inputs with :class:`SearchSpaceTooLarge`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import NoEquilibria, NoPath, SearchSpaceTooLarge
from .game import (
    TOLERANCE,
    CostReport,
    GameGraph,
    Player,
    StrategyProfile,
    cost_report,
    page_cost,
)

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class EquilibriumEntry:
    profile: StrategyProfile
    report: CostReport
    is_forest: bool


@dataclass(frozen=True)
class EquilibriumCatalog:
    """All pure equilibria of an instance plus the social optimum and ratios."""

    equilibria: tuple[EquilibriumEntry, ...]
    optimum: StrategyProfile
    optimum_cost: float
    poa: float
    pos: float


def enumerate_paths(graph: GameGraph, root: str, leaf: str) -> list[tuple[str, ...]]:
    """All simple directed root-leaf paths, lexicographic by edge-id sequence.

    The graph is acyclic so every directed path is simple; the list is empty
    when the leaf is unreachable.
    """
    if root not in graph:
        return []
    if root == leaf:
        return [()]
    paths: list[tuple[str, ...]] = []
    # frames[d] runs over the out-edges of the node that prefix[:d] reaches.
    frames: list = [None] * len(graph.nodes)
    prefix: list = [None] * len(graph.nodes)
    frames[0] = iter(graph.out_edges(root))
    depth = 0
    while depth >= 0:
        for edge in frames[depth]:
            prefix[depth] = edge.edge_id
            if edge.dst == leaf:
                paths.append(tuple(prefix[: depth + 1]))
            elif below := graph.out_edges(edge.dst):  # dead ends are skipped
                depth += 1
                frames[depth] = iter(below)
                break
        else:
            depth -= 1
    return paths


def _candidate_paths(
    graph: GameGraph, players: Sequence[Player], cap: int
) -> list[list[tuple[str, ...]]]:
    path_sets = []
    size = 1
    for player in players:
        paths = enumerate_paths(graph, player.root, player.leaf)
        if not paths:
            raise NoPath(player.player_id, player.root, player.leaf)
        path_sets.append(paths)
        size *= len(paths)
    if size > cap:
        raise SearchSpaceTooLarge(size, cap)
    return path_sets


def _deviation_cost(
    graph: GameGraph,
    candidate: tuple[str, ...],
    other_loads: dict[str, int],
    others_cost: float,
    delta: float,
) -> float:
    """Cost of one candidate path straight from the sharing definitions.

    Joining an edge already used by ``k`` others makes its load ``k + 1``;
    the page cost is the others' page cost plus every newly used edge.
    """
    shared = 0.0
    added = 0.0
    for edge_id in candidate:
        k = other_loads.get(edge_id, 0)
        cost = graph.edge(edge_id).cost
        shared += cost / (k + 1)
        if k == 0:
            added += cost
    return shared + delta * (others_cost + added)


def _profile_is_equilibrium(
    graph: GameGraph,
    players: Sequence[Player],
    path_sets: list[list[tuple[str, ...]]],
    profile: StrategyProfile,
    delta: float,
) -> bool:
    for player, candidates in zip(players, path_sets):
        pid = player.player_id
        other_loads: dict[str, int] = {}
        others_used: set[str] = set()
        for other_id, path in profile.items():
            if other_id == pid:
                continue
            others_used.update(path)
            for edge_id in path:
                other_loads[edge_id] = other_loads.get(edge_id, 0) + 1
        others_cost = sum(
            edge.cost for edge in graph.edges if edge.edge_id in others_used
        )
        current = _deviation_cost(
            graph, profile.path(pid), other_loads, others_cost, delta
        )
        for candidate in candidates:
            if candidate == profile.path(pid):
                continue
            alt = _deviation_cost(graph, candidate, other_loads, others_cost, delta)
            if alt < current - TOLERANCE:
                return False
    return True


def union_is_forest(graph: GameGraph, profile: StrategyProfile) -> bool:
    """Whether the union of all chosen paths is cycle-free when undirected.

    Parallel edges count separately: two players on parallel edges between
    the same nodes already form an undirected cycle.
    """
    used = profile.used_edges()
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in graph.edges:
        if edge.edge_id not in used:
            continue
        parent.setdefault(edge.src, edge.src)
        parent.setdefault(edge.dst, edge.dst)
        a, b = find(edge.src), find(edge.dst)
        if a == b:
            return False
        parent[a] = b
    return True


def brute_force_equilibria(
    graph: GameGraph,
    players: Sequence[Player],
    delta: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> tuple[EquilibriumEntry, ...]:
    """Every pure equilibrium, in product-enumeration order."""
    players = tuple(players)
    path_sets = _candidate_paths(graph, players, cap)
    entries: list[EquilibriumEntry] = []
    for combo in itertools.product(*path_sets):
        profile = StrategyProfile(
            {player.player_id: path for player, path in zip(players, combo)}
        )
        if _profile_is_equilibrium(graph, players, path_sets, profile, delta):
            entries.append(
                EquilibriumEntry(
                    profile=profile,
                    report=cost_report(graph, profile, delta),
                    is_forest=union_is_forest(graph, profile),
                )
            )
    return tuple(entries)


def social_optimum(
    graph: GameGraph, players: Sequence[Player], cap: int = DEFAULT_CAP
) -> StrategyProfile:
    """The profile with minimum page cost; first in enumeration order wins ties."""
    players = tuple(players)
    path_sets = _candidate_paths(graph, players, cap)
    best_profile: StrategyProfile | None = None
    best_cost = math.inf
    for combo in itertools.product(*path_sets):
        used: set[str] = set()
        for path in combo:
            used.update(path)
        cost = sum(edge.cost for edge in graph.edges if edge.edge_id in used)
        if cost < best_cost:
            best_cost = cost
            best_profile = StrategyProfile(
                {player.player_id: path for player, path in zip(players, combo)}
            )
    assert best_profile is not None
    return best_profile


def efficiency_metrics(catalog: EquilibriumCatalog) -> tuple[float, float]:
    """Price of anarchy and price of stability from a populated catalog.

    A zero-cost optimum yields ratio 1 when the equilibrium is also free,
    and infinity otherwise.
    """
    if not catalog.equilibria:
        raise NoEquilibria()

    def ratio(cost: float) -> float:
        if catalog.optimum_cost > 0.0:
            return cost / catalog.optimum_cost
        return 1.0 if cost <= TOLERANCE else math.inf

    costs = [entry.report.page_cost for entry in catalog.equilibria]
    return ratio(max(costs)), ratio(min(costs))


def analyze(
    graph: GameGraph,
    players: Sequence[Player],
    delta: float = 0.0,
    cap: int = DEFAULT_CAP,
) -> EquilibriumCatalog:
    """Full catalog: equilibria, social optimum, and efficiency ratios."""
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
