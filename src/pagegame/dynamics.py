"""Best-response computation and the improvement loop that reaches equilibrium.

For a fixed player the cost of any candidate path splits into a per-edge
weight plus a constant, so the best response is a cheapest root-leaf path
under reweighted costs:

* an edge already carried by ``k`` other players weighs ``cost / (k + 1)``
  (the share the player would pay after joining it);
* a fresh edge weighs ``cost * (delta + 1)`` (its full share plus the page
  cost it newly adds, scaled by the cooperation weight).

The leftover term, ``delta`` times the other players' page cost, does not
depend on the candidate path, hence cheapest-path minimization is exact.

Randomness is confined to tie-breaking among cheapest paths and to the
optional random activation order; both draw from one ``SplitMix64`` stream
seeded by the schedule, and the stream is consulted only when there are at
least two tied candidates, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NoPath, UnknownPlayer
from .game import (
    TOLERANCE,
    GameGraph,
    Player,
    StrategyProfile,
    load_map,
    page_cost,
    player_cost,
    potential,
    validate_profile,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class Schedule:
    """Player activation order: fixed round-robin or a seeded shuffle per pass."""

    kind: str = "round-robin"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("round-robin", "random"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")


@dataclass(frozen=True)
class Step:
    """One player activation inside the improvement loop."""

    iteration: int
    player_id: int
    previous_cost: float
    new_cost: float
    potential_after: float
    path_changed: bool
    path: tuple[str, ...] | None = None


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple[Step, ...]
    converged: bool
    final_profile: StrategyProfile
    initial_profile: StrategyProfile
    passes: int


def _weights_from_loads(
    graph: GameGraph, other_loads: dict[str, int], delta: float
) -> dict[str, float]:
    weights: dict[str, float] = {}
    for edge in graph.edges:
        k = other_loads.get(edge.edge_id, 0)
        if k:
            weights[edge.edge_id] = edge.cost / (k + 1)
        else:
            weights[edge.edge_id] = edge.cost * (delta + 1.0)
    return weights


def reweight(
    graph: GameGraph, profile: StrategyProfile, player_id: int, delta: float = 0.0
) -> dict[str, float]:
    """Per-edge weights seen by one player given everyone else's paths."""
    if player_id not in profile.paths:
        raise UnknownPlayer(player_id)
    return _weights_from_loads(graph, load_map(profile.without(player_id)), delta)


def _distance_to(
    graph: GameGraph, weights: dict[str, float], target: str
) -> dict[str, float]:
    """Cheapest-path weight from every node to ``target`` (DAG relaxation)."""
    dist = {nid: math.inf for nid in graph.topo_order}
    dist[target] = 0.0
    for nid in reversed(graph.topo_order):
        for edge in graph.out_edges(nid):
            through = weights[edge.edge_id] + dist[edge.dst]
            if through < dist[nid]:
                dist[nid] = through
    return dist


def _cheapest_paths(
    graph: GameGraph,
    weights: dict[str, float],
    root: str,
    leaf: str,
    tol: float = TOLERANCE,
) -> tuple[float, list[tuple[tuple[str, ...], float]]]:
    """Minimum root-leaf weight and all paths within ``tol`` of it.

    Paths come out in lexicographic edge-id order together with their exact
    accumulated weights. Returns ``(inf, [])`` when the leaf is unreachable.
    """
    to_leaf = _distance_to(graph, weights, leaf)
    best = to_leaf[root]
    if math.isinf(best):
        return best, []
    ties: list[tuple[tuple[str, ...], float]] = []
    stack: list[str] = []

    def walk(node: str, acc: float) -> None:
        if node == leaf:
            ties.append((tuple(stack), acc))
            return
        for edge in graph.out_edges(node):
            through = acc + weights[edge.edge_id]
            if through + to_leaf[edge.dst] <= best + tol:
                stack.append(edge.edge_id)
                walk(edge.dst, through)
                stack.pop()

    walk(root, 0.0)
    return best, ties


def _best_response(
    graph: GameGraph,
    other_loads: dict[str, int],
    root: str,
    leaf: str,
    delta: float,
    rng: SplitMix64,
) -> tuple[tuple[str, ...], float, float]:
    """Chosen path, its exact weight, and the minimum weight.

    The RNG is consulted only when two or more paths tie for cheapest.
    """
    weights = _weights_from_loads(graph, other_loads, delta)
    best, ties = _cheapest_paths(graph, weights, root, leaf)
    if not ties:
        raise NoPath("?", root, leaf)
    if len(ties) == 1:
        path, weight = ties[0]
    else:
        path, weight = ties[rng.randrange(len(ties))]
    return path, weight, best


def _endpoints(graph: GameGraph, path: Sequence[str]) -> tuple[str, str]:
    return graph.edge(path[0]).src, graph.edge(path[-1]).dst


def best_response(
    graph: GameGraph,
    profile: StrategyProfile,
    player_id: int,
    delta: float = 0.0,
    seed: int = 0,
) -> tuple[str, ...]:
    """A path minimizing the player's cost against everyone else's paths.

    The player's root and leaf are read off its current path. Ties within
    ``TOLERANCE`` are drawn uniformly from the seeded generator.
    """
    current = profile.path(player_id)
    root, leaf = _endpoints(graph, current)
    rng = SplitMix64(seed)
    try:
        path, _, _ = _best_response(
            graph, load_map(profile.without(player_id)), root, leaf, delta, rng
        )
    except NoPath:
        raise NoPath(player_id, root, leaf) from None
    return path


def is_nash(graph: GameGraph, profile: StrategyProfile, delta: float = 0.0) -> bool:
    """True iff no player can cut its cost by more than ``TOLERANCE``."""
    for pid, path in profile.items():
        root, leaf = _endpoints(graph, path)
        others = profile.without(pid)
        weights = _weights_from_loads(graph, load_map(others), delta)
        best = _distance_to(graph, weights, leaf)[root]
        attainable = best
        if delta:
            attainable = best + delta * page_cost(graph, others)
        if attainable < player_cost(graph, profile, pid, delta) - TOLERANCE:
            return False
    return True


def _greedy_initial(
    graph: GameGraph, players: Sequence[Player], delta: float, rng: SplitMix64
) -> StrategyProfile:
    """Each player best-responds to the players placed before it."""
    placed: dict[str, int] = {}
    paths: dict[int, tuple[str, ...]] = {}
    for player in players:
        try:
            path, _, _ = _best_response(graph, placed, player.root, player.leaf, delta, rng)
        except NoPath:
            raise NoPath(player.player_id, player.root, player.leaf) from None
        paths[player.player_id] = path
        for edge_id in path:
            placed[edge_id] = placed.get(edge_id, 0) + 1
    return StrategyProfile(paths)


def run_dynamics(
    graph: GameGraph,
    players: Sequence[Player],
    delta: float = 0.0,
    schedule: Schedule | None = None,
    max_iters: int = 10000,
    initial: StrategyProfile | None = None,
) -> DynamicsTrace:
    """Iterate best responses until a full pass makes no move.

    One iteration is a full pass over all players. A player moves only when
    its best response improves its cost by more than ``TOLERANCE``; the move
    test compares against the exact cheapest-path value, the same quantity
    ``is_nash`` checks, so a converged profile is always an equilibrium.
    When ``max_iters`` passes end without a quiet pass the trace is returned
    with ``converged=False``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    schedule = schedule or Schedule()
    players = tuple(players)
    rng = SplitMix64(schedule.seed)

    if initial is None:
        profile = _greedy_initial(graph, players, delta, rng)
    else:
        validate_profile(graph, players, initial)
        profile = initial
    initial_profile = profile

    steps: list[Step] = []
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
            previous = player_cost(graph, profile, pid, delta)
            others = profile.without(pid)
            path, weight, best = _best_response(
                graph, load_map(others), player.root, player.leaf, delta, rng
            )
            others_cost = page_cost(graph, others) if delta else 0.0
            attainable = best + delta * others_cost
            if attainable < previous - TOLERANCE:
                profile = profile.replace(pid, path)
                new_cost = weight + delta * others_cost
                steps.append(
                    Step(pass_no, pid, previous, new_cost,
                         potential(graph, profile, delta), True, path)
                )
                moved = True
            else:
                steps.append(
                    Step(pass_no, pid, previous, previous,
                         potential(graph, profile, delta), False, None)
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
