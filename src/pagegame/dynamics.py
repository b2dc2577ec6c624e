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

Each call of ``run_dynamics``, ``best_response`` or ``is_nash`` keeps one
private state for all its best responses; only the graph's memos outlive it:

* the edge loads of the current profile. A best response lifts the
  player's own path off them and puts it back; a move swaps the old path
  for the new one, so each costs O(path length);
* the graph's plan of each root-leaf pair (``GameGraph.between``). A best
  response relaxes only its plan, weighing each out-edge inline in edge-id
  order; distances stay infinite outside it;
* the loaded edges in declaration order and the ``ordered_sum`` of their
  costs. That is the others' page cost unless one of the player's own edges
  drops to load 0, when the sum skips those edges.

The relaxation does the same float operations and ``<`` comparisons as one
over the whole graph with freshly tallied loads. The tie walk goes through
the tied paths in lexicographic edge-id order with an explicit stack,
accumulating each path's weight from the root; it counts them and keeps
the first, and only when the draw picks another does a second walk stop at
it, so a large tie set is never held in memory. Distances, tie sets,
accumulated weights, RNG draws and traces are therefore bit-identical to
rebuilding everything for each best response.

Randomness is confined to tie-breaking among cheapest paths and to the
optional random activation order; both draw from one ``SplitMix64`` stream
seeded by the schedule, and the stream is consulted only when there are at
least two tied candidates, so runs are bit-reproducible.
"""

from __future__ import annotations

import bisect
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
    ordered_sum,
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


def reweight(
    graph: GameGraph, profile: StrategyProfile, player_id: int, delta: float = 0.0
) -> dict[str, float]:
    """Per-edge weights seen by one player given everyone else's paths."""
    if player_id not in profile.paths:
        raise UnknownPlayer(player_id)
    loads = load_map(profile.without(player_id))
    weights: dict[str, float] = {}
    for edge in graph.edges:
        k = loads.get(edge.edge_id, 0)
        weights[edge.edge_id] = edge.cost / (k + 1) if k else edge.cost * (delta + 1.0)
    return weights


class _State:
    """The per-call best-response state described in the module docstring."""

    def __init__(self, graph: GameGraph, profile: StrategyProfile, delta: float):
        self.graph = graph
        self.delta = delta
        self.index = index = graph.index
        self.fresh = [cost * (delta + 1.0) for cost in index.costs]
        self.loads = loads = [0] * len(index.costs)
        self.paths = {pid: index.positions(path) for pid, path in profile.items()}
        for path in self.paths.values():
            for e in path:
                loads[e] += 1
        self.used = [e for e, load in enumerate(loads) if load]
        self.page: float | None = None
        self.weights = [0.0] * len(loads)
        # All infinite between best responses: a relaxation writes only its
        # plan, so every edge leaving the plan reads an infinite distance.
        self.dist = [math.inf] * len(graph.nodes)
        self.frames: list = [None] * len(graph.nodes)
        self.prefix: list = [None] * len(graph.nodes)
        self.accs = [0.0] * len(graph.nodes)

    def place(self, player_id: int, path: Sequence[str]) -> None:
        """Move a player from its current path (if any) onto ``path``."""
        new = self.index.positions(path)
        loads, used = self.loads, self.used
        for e in self.paths.get(player_id, ()):
            loads[e] -= 1
            if not loads[e]:
                del used[bisect.bisect_left(used, e)]
                self.page = None
        for e in new:
            if not loads[e]:
                bisect.insort(used, e)
                self.page = None
            loads[e] += 1
        self.paths[player_id] = new

    def _lift(self, own: Sequence[int], by: int) -> None:
        loads = self.loads
        for e in own:
            loads[e] += by

    def _relax(self, root: str, leaf: str) -> tuple[tuple[int, ...], int]:
        """Cheapest weight to ``leaf`` from every node between ``root`` and
        it, into ``dist``, and the weights of their out-edges into
        ``weights``. Returns the plan and the leaf's position."""
        plan = self.graph.between(root, leaf)
        loads, fresh, weights, dist = self.loads, self.fresh, self.weights, self.dist
        costs, heads, outs = self.index.costs, self.index.heads, self.index.outs
        target = self.index.node_position[leaf]
        dist[target] = 0.0
        for node in plan:
            best = math.inf
            for e in outs[node]:
                k = loads[e]
                weight = weights[e] = costs[e] / (k + 1) if k else fresh[e]
                through = weight + dist[heads[e]]
                if through < best:
                    best = through
            dist[node] = best
        return plan, target

    def _clear(self, plan: tuple[int, ...], target: int) -> None:
        dist = self.dist
        dist[target] = math.inf
        for node in plan:
            dist[node] = math.inf

    def _others_page(self, own: Sequence[int]) -> float:
        """Page cost of the other players, with ``own`` lifted off."""
        costs = self.index.costs
        dropped = {e for e in own if not self.loads[e]}
        if dropped:
            return ordered_sum(costs[e] for e in self.used if e not in dropped)
        if self.page is None:
            self.page = ordered_sum(costs[e] for e in self.used)
        return self.page

    def attainable(self, player_id: int, root: str, leaf: str) -> float:
        """Least cost the player can reach against the others' paths."""
        own = self.paths.get(player_id, ())
        self._lift(own, -1)
        plan, target = self._relax(root, leaf)
        best = self.dist[self.index.node_position[root]]
        self._clear(plan, target)
        if self.delta:
            best += self.delta * self._others_page(own)
        self._lift(own, 1)
        return best

    def _ties(
        self, root: int, target: int, bound: float, index: int, stop: bool
    ) -> tuple[int, tuple[tuple[str, ...], float] | None]:
        """Walk the root-target paths whose weight stays within ``bound``, in
        lexicographic edge-id order: their count, and the ``index``-th with
        its accumulated weight. With ``stop`` the walk ends at that path."""
        heads, outs, ids = self.index.heads, self.index.outs, self.index.edge_ids
        weights, dist = self.weights, self.dist
        # frames[d] runs over the out-edges of the node that prefix[:d]
        # reaches, and accs[d] is the weight accumulated on the way there.
        frames, prefix, accs = self.frames, self.prefix, self.accs
        frames[0] = iter(outs[root])
        depth = count = 0
        chosen = None
        while depth >= 0:
            acc = accs[depth]
            for e in frames[depth]:
                through = acc + weights[e]
                head = heads[e]
                if through + dist[head] <= bound:
                    prefix[depth] = ids[e]
                    if head != target:
                        depth += 1
                        accs[depth] = through
                        frames[depth] = iter(outs[head])
                        break
                    if count == index:
                        chosen = (tuple(prefix[: depth + 1]), through)
                        if stop:
                            return count + 1, chosen
                    count += 1
            else:
                depth -= 1
        return count, chosen

    def respond(self, player: Player, rng: SplitMix64) -> tuple[tuple[str, ...], float, float]:
        """Chosen path, its cost, and the least attainable cost for ``player``
        against the others' paths.

        Paths within ``TOLERANCE`` of the cheapest weight tie. The RNG is
        consulted only when two or more tie, to draw one by its lexicographic
        rank.
        """
        if not self.graph.between(player.root, player.leaf):
            raise NoPath(player.player_id, player.root, player.leaf)
        own = self.paths.get(player.player_id, ())
        self._lift(own, -1)
        plan, target = self._relax(player.root, player.leaf)
        root = self.index.node_position[player.root]
        best = self.dist[root]
        chosen = None
        if not math.isinf(best):
            bound = best + TOLERANCE
            count, chosen = self._ties(root, target, bound, 0, False)
            if count > 1:
                index = rng.randrange(count)
                if index:
                    _, chosen = self._ties(root, target, bound, index, True)
        self._clear(plan, target)
        if chosen is None:
            raise NoPath(player.player_id, player.root, player.leaf)
        path, weight = chosen
        others_cost = self._others_page(own) if self.delta else 0.0
        self._lift(own, 1)
        return path, weight + self.delta * others_cost, best + self.delta * others_cost


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
    path, _, _ = _State(graph, profile, delta).respond(player, SplitMix64(seed))
    return path


def is_nash(graph: GameGraph, profile: StrategyProfile, delta: float = 0.0) -> bool:
    """True iff no player can cut its cost by more than ``TOLERANCE``."""
    costs = cost_report(graph, profile, delta).player_costs
    state = _State(graph, profile, delta)
    for pid, path in profile.items():
        root, leaf = graph.edge(path[0]).src, graph.edge(path[-1]).dst
        if state.attainable(pid, root, leaf) < costs[pid] - TOLERANCE:
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
        state = _State(graph, StrategyProfile({}), delta)
        paths: dict[int, tuple[str, ...]] = {}
        for player in players:
            path, _, _ = state.respond(player, rng)
            state.place(player.player_id, path)
            paths[player.player_id] = path
        profile = StrategyProfile(paths)
    else:
        validate_profile(graph, players, initial)
        profile = initial
        state = _State(graph, profile, delta)
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
            path, new_cost, attainable = state.respond(player, rng)
            if attainable < previous - TOLERANCE:
                state.place(pid, path)
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
