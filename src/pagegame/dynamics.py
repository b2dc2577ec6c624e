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
    cost_report,
    load_map,
    page_cost,
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


def _respond(
    graph: GameGraph,
    profile: StrategyProfile,
    player: Player,
    delta: float,
    rng: SplitMix64,
) -> tuple[tuple[str, ...], float, float]:
    """Chosen path, its cost, and the least attainable cost for ``player``.

    Costs are taken against every other player's path in ``profile``. The
    RNG is consulted only when two or more paths tie for cheapest.
    """
    others = profile.without(player.player_id)
    weights = _weights_from_loads(graph, load_map(others), delta)
    best, ties = _cheapest_paths(graph, weights, player.root, player.leaf)
    if not ties:
        raise NoPath(player.player_id, player.root, player.leaf)
    path, weight = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
    others_cost = page_cost(graph, others) if delta else 0.0
    return path, weight + delta * others_cost, best + delta * others_cost


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
    player = Player(player_id, graph.edge(current[0]).src, graph.edge(current[-1]).dst)
    path, _, _ = _respond(graph, profile, player, delta, SplitMix64(seed))
    return path


def is_nash(graph: GameGraph, profile: StrategyProfile, delta: float = 0.0) -> bool:
    """True iff no player can cut its cost by more than ``TOLERANCE``."""
    costs = cost_report(graph, profile, delta).player_costs
    for pid, path in profile.items():
        others = profile.without(pid)
        weights = _weights_from_loads(graph, load_map(others), delta)
        root, leaf = graph.edge(path[0]).src, graph.edge(path[-1]).dst
        best = _distance_to(graph, weights, leaf)[root]
        if delta:
            best += delta * page_cost(graph, others)
        if best < costs[pid] - TOLERANCE:
            return False
    return True


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
        # Greedy start: each player best-responds to those placed before it.
        profile = StrategyProfile({})
        for player in players:
            path, _, _ = _respond(graph, profile, player, delta, rng)
            profile = profile.replace(player.player_id, path)
    else:
        validate_profile(graph, players, initial)
        profile = initial
    initial_profile = profile

    steps: list[Step] = []
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
            path, new_cost, attainable = _respond(graph, profile, player, delta, rng)
            if attainable < previous - TOLERANCE:
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
