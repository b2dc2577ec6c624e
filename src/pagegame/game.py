"""Directed multigraph model of a page build and its cost-sharing rules.

A page build is a DAG whose nodes are document objects and whose edges are
construction steps with finite non-negative costs. Each player (a
browser/device routing a component into its page) picks one simple
root-to-leaf path; the cost of every edge is split equally among the
players using it, and a player may additionally carry a ``delta``-weighted
copy of the whole page cost as a cooperative term.

Outside the oracle's sweeps, costs, potentials and page costs are read from
a ``Tally`` of a profile's edge loads, the only type here that changes after
construction (``move`` moves a player). A tally keeps its loaded edges'
costs beside the edges, so the page cost is one sum over a ready list. A
graph builds its integer view (nodes by topological position, edges by
declaration position) once, when constructed, and only fills its in-edge
index, root masks (which registered roots reach each node, from one pass
in topological order), root-leaf plans, the paths of pairs that have only
one, and the potential terms ``cost / x`` of each edge at each load a
potential sums, idempotently, on first use. The terms take one tuple per ``(edge, load)``
summed, at most E x P for E edges and P players, and live as long as the
graph.
Floating-point sums always run left to right (``ordered_sum``) in a
canonical order (edge declaration order, player id order), so results are
reproducible across processes and Python versions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    CycleDetected,
    DanglingEndpoint,
    DuplicateEdgeId,
    GraphError,
    InvalidProfile,
    NegativeCost,
    NegativeDelta,
    NoPath,
    UnknownPlayer,
    ZeroLoad,
)

NODE_KINDS = frozenset({"document-root", "element", "attribute", "text", "abstract"})

#: Tolerance of every floating-point comparison in the engine, widened by
#: ``slack`` only where the values compared are large.
TOLERANCE = 1e-9


def slack(value: float, terms: int) -> float:
    """Comparison slack for sums of ``terms`` floats of magnitude ``value``:
    ``TOLERANCE``, or more where two orders of summing can round further apart."""
    return max(TOLERANCE, terms * math.ulp(value))


def _fold(values: Iterable[float], start: float = 0) -> float:
    return functools.reduce(operator.add, values, start)


#: Left-to-right sum from ``start`` (``0`` unless given). From Python 3.12
#: ``sum()`` compensates float rounding, which changes the last bits of
#: outputs; up to 3.11 it is this fold, three to five times faster than
#: ``_fold``.
ordered_sum = sum if sys.version_info < (3, 12) else _fold


class Node(NamedTuple):
    node_id: str
    kind: str


class Edge(NamedTuple):
    edge_id: str
    src: str
    dst: str
    cost: float


class Player(NamedTuple):
    """A browser/device instance routing one component, as a root-leaf pair."""

    player_id: int
    root: str
    leaf: str
    label: str = ""


#: A graph's registered roots with their bits, and each node's mask of the
#: roots that reach it, by position (``GameGraph.root_masks``).
_Masks = tuple[dict[str, int], list[int]]


class _Harmonic(dict):
    """A graph's potential terms of an edge at a load, ``(e, k)`` to
    ``(cost / 1, ..., cost / k)``: each stored on first use, as one
    assignment of an immutable value, so a racing store only stores it
    again."""

    def __init__(self, costs: tuple[float, ...]):
        super().__init__()
        self.costs = costs

    def __missing__(self, key: tuple[int, int]) -> tuple[float, ...]:
        e, k = key
        cost = self.costs[e]
        terms = self[key] = tuple([cost / x for x in range(1, k + 1)])
        return terms


class GameGraph:
    """Validated directed acyclic multigraph with finite non-negative edge
    costs whose total is finite.

    Parallel edges between the same node pair are allowed and are told apart
    by their edge ids. Nodes and edges never change once constructed.

    Construction numbers the nodes by topological position (``topo_order``,
    ``node_position``) and the edges by declaration position (``edges``,
    ``edge_position``, ``edge_ids``, ``costs``): ``heads[e]`` is edge ``e``'s
    head, and ``outs[v]`` node ``v``'s out-edges in edge-id order, which
    fixes the traversal order everywhere. The in-edge index ``ins[v]``
    holds an ``(edge position, tail position)`` pair for each in-edge of
    ``v``, in declaration order; plans (``between``), path counts and best
    responses read it, and like the plans it is built on first use. A
    best-response state (``dynamics._State``) keeps beside it one distance
    list for each leaf of a pair with several paths, of the same order as
    the plan cache: at most V entries per leaf, as a plan holds at most V
    nodes per pair.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge]):
        node_map: dict[str, Node] = {}
        for node in nodes:
            node_id, kind = node
            if kind not in NODE_KINDS:
                raise GraphError(f"node {node_id!r} has unknown kind {kind!r}")
            if node_id in node_map:
                raise GraphError(f"node id {node_id!r} declared more than once")
            node_map[node_id] = node

        # Nodes by declaration position until the topological order is known.
        declared = {nid: v for v, nid in enumerate(node_map)}
        edge_position: dict[str, int] = {}
        edge_list: list[Edge] = []
        costs: list[float] = []
        tails: list[int] = []
        heads: list[int] = []
        for edge in edges:
            edge_id, src, dst, cost = edge
            if edge_id in edge_position:
                raise DuplicateEdgeId(edge_id)
            if src not in declared:
                raise DanglingEndpoint(edge_id, src)
            if dst not in declared:
                raise DanglingEndpoint(edge_id, dst)
            if not (0.0 <= cost < math.inf):
                raise NegativeCost(edge_id, cost)
            # -0.0 passes the check above; +0.0 keeps its sign out of every output.
            if not cost and math.copysign(1.0, cost) < 0.0:
                cost, edge = 0.0, Edge(edge_id, src, dst, 0.0)
            edge_position[edge_id] = len(edge_list)
            edge_list.append(edge)
            costs.append(cost)
            tails.append(declared[src])
            heads.append(declared[dst])
        # Past the float range, best responses and the oracle find no path.
        if math.isinf(ordered_sum(costs)):
            raise GraphError("edge costs too large: their total overflows")

        self.nodes: Mapping[str, Node] = node_map
        self.edges = tuple(edge_list)
        self.edge_position = edge_position
        self.edge_ids = tuple(edge_position)
        self.costs = tuple(costs)
        outs: list[list[int]] = [[] for _ in declared]
        for edge_id in sorted(edge_position):
            e = edge_position[edge_id]
            outs[tails[e]].append(e)
        order = self._toposort(outs, heads)
        position = [0] * len(order)
        for p, v in enumerate(order):
            position[v] = p
        names = tuple(node_map)
        self.topo_order = tuple([names[v] for v in order])
        self.node_position = {nid: p for p, nid in enumerate(self.topo_order)}
        self.heads = tuple([position[v] for v in heads])
        self.outs = tuple([tuple(outs[v]) for v in order])
        self._masks: _Masks = ({}, [])
        self._plans: dict[tuple[str, str], tuple[int, ...]] = {}
        self._lines: dict[tuple[str, str], dict[int, tuple[int]]] = {}  # {} for none or several
        self._harmonic = _Harmonic(self.costs)

    def _toposort(self, outs: list[list[int]], heads: list[int]) -> list[int]:
        """Declaration positions in Kahn's order: the sources stacked in
        declaration order and popped last first, each node's out-edges taken
        in edge-id order."""
        pending = [0] * len(outs)
        for head in heads:
            pending[head] += 1
        stack = [v for v, count in enumerate(pending) if not count]
        order: list[int] = []
        while stack:
            v = stack.pop()
            order.append(v)
            for e in outs[v]:
                head = heads[e]
                pending[head] -= 1
                if not pending[head]:
                    stack.append(head)
        if len(order) < len(outs):
            names = tuple(self.nodes)
            raise CycleDetected(self._find_cycle(
                {names[v] for v, count in enumerate(pending) if count}))
        return order

    def _find_cycle(self, candidates: set[str]) -> list[str]:
        # Every leftover node keeps an in-edge from another leftover node, so
        # walking backward must revisit some node; that loop is a cycle.
        preds = {nid: [] for nid in candidates}
        for edge in self.edges:
            if edge.src in candidates and edge.dst in candidates:
                preds[edge.dst].append(edge.src)
        seen: dict[str, int] = {}  # node -> its position in the walk
        current = min(candidates)
        while current not in seen:
            seen[current] = len(seen)
            current = min(preds[current])
        cycle = list(seen)[seen[current]:] + [current]
        cycle.reverse()
        return cycle

    def positions(self, path: Iterable[str]) -> tuple[int, ...]:
        """Declaration positions of a path's edges."""
        try:
            return tuple(map(self.edge_position.__getitem__, path))
        except KeyError as exc:
            raise GraphError(f"unknown edge id {exc.args[0]!r}") from None

    def root_masks(self, roots: Iterable[str]) -> _Masks:
        """Each registered root's bit and each node position's mask of the
        bits of the roots that reach it (its own included), after registering
        those of ``roots`` in the graph. New roots rerun the one pass
        (``_extend``), stored with their bits as one snapshot: a racing store
        can only drop the other call's new roots, which their next lookup
        registers again."""
        snapshot = self._masks
        new = [root for root in roots if root not in snapshot[0] and root in self.node_position]
        if new:
            snapshot = self._masks = self._extend(snapshot, new)
        return snapshot

    def _extend(self, snapshot: _Masks, roots: Iterable[str]) -> _Masks:
        """A new snapshot: ``roots`` on new bits after the old ones, and the
        masks of all, from one pass in topological order that ORs each
        node's mask into the heads of its out-edges."""
        bits = dict(snapshot[0])
        for root in roots:
            bits.setdefault(root, 1 << len(bits))
        masks = [0] * len(self.outs)
        position = self.node_position
        for root, bit in bits.items():
            masks[position[root]] = bit
        heads = self.heads
        for v, out in enumerate(self.outs):
            mask = masks[v]
            if mask:
                for e in out:
                    masks[heads[e]] |= mask
        return bits, masks

    @functools.cached_property
    def ins(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The in-edge index: each node position's in-edges as ``(edge
        position, tail position)`` pairs, in declaration order. Built on
        first use and stored as one immutable value."""
        tails = [0] * len(self.heads)
        for v, out in enumerate(self.outs):
            for e in out:
                tails[e] = v
        ins: list[list[tuple[int, int]]] = [[] for _ in self.outs]
        for e, head in enumerate(self.heads):
            ins[head].append((e, tails[e]))
        return tuple(map(tuple, ins))

    def between(self, root: str, leaf: str) -> tuple[int, ...]:
        """Positions of the nodes on some ``root``-``leaf`` path, leaf
        excluded, in reversed topological order; empty when there is no path
        or an endpoint is not in the graph. Searched once per pair and graph:
        back from the leaf over in-edges, through the nodes whose mask
        (``root_masks``) holds the root's bit."""
        key = (root, leaf)
        position = self.node_position
        if key not in self._plans and root in position and leaf in position:
            bits, masks = self.root_masks((root,))
            bit, ins = bits[root], self.ins
            target = position[leaf]
            live = {target}
            stack = [target] if masks[target] & bit else []
            while stack:
                for _, node in ins[stack.pop()]:
                    if node not in live and masks[node] & bit:
                        live.add(node)
                        stack.append(node)
            live.discard(target)
            self._plans[key] = tuple(sorted(live, reverse=True))
        return self._plans.get(key, ())

    def path_count(self, root: str, leaf: str) -> int:
        """The exact number of ``root``-``leaf`` paths: 1 when they coincide,
        0 when there is none or an endpoint is not in the graph. Pushed back
        from the leaf along the in-edge index (``ins``) over the pair's plan
        (``between``): the leaf counts 1, and each node adds its count to its
        in-plan tails."""
        if root == leaf:
            return int(root in self)
        plan = self.between(root, leaf)
        if not plan:
            return 0
        target, ins = self.node_position[leaf], self.ins
        counts = dict.fromkeys(plan, 0)
        counts[target] = 1
        for node in (target, *plan):
            count = counts[node]
            for _, tail in ins[node]:
                if tail in counts:
                    counts[tail] += count
        return counts[plan[-1]]

    def only_path(self, root: str, leaf: str) -> dict[int, tuple[int]] | None:
        """The one ``root``-``leaf`` path as out-edges, when the pair has
        exactly one: each node position on it, leaf excluded, mapped to a
        1-tuple of its edge position on the path; ``None`` otherwise. Found
        once per pair, on the first call: a walk from the root along the
        out-edges into the plan (``between``) or to the leaf, which stops at
        the first node with none or with two or more, parallel edges
        included. The mapping is stored whole and shared: callers must not
        change it."""
        key = (root, leaf)
        line = self._lines.get(key)
        if line is None:
            line = {}
            plan = self.between(root, leaf)
            if plan:
                position, heads, outs = self.node_position, self.heads, self.outs
                node, target = position[root], position[leaf]
                live = {*plan, target}
                walked = {}
                while node != target:
                    out = tuple([e for e in outs[node] if heads[e] in live])
                    if len(out) != 1:
                        break
                    walked[node] = out
                    node = heads[out[0]]
                else:
                    line = walked
            self._lines[key] = line
        return line or None

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self.edge_position[edge_id]]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def out_edges(self, node_id: str) -> tuple[Edge, ...]:
        edges = self.edges
        return tuple([edges[e] for e in self.outs[self.node_position[node_id]]])

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.node_position


def build_graph(nodes: Iterable, edges: Iterable) -> GameGraph:
    """Build and validate a GameGraph from node and edge records.

    Accepts ``Node``/``Edge`` instances or plain ``(id, kind)`` and
    ``(id, src, dst, cost)`` tuples.
    """
    node_objs = [n if isinstance(n, Node) else Node(*n) for n in nodes]
    edge_objs = [
        e if isinstance(e, Edge) else Edge(e[0], e[1], e[2], float(e[3])) for e in edges
    ]
    return GameGraph(node_objs, edge_objs)


@dataclass(frozen=True)
class StrategyProfile:
    """One chosen path per player, each path a sequence of edge ids."""

    paths: dict[int, tuple[str, ...]]

    def __post_init__(self):
        frozen = {int(pid): tuple(path) for pid, path in self.paths.items()}
        object.__setattr__(self, "paths", frozen)

    def path(self, player_id: int) -> tuple[str, ...]:
        try:
            return self.paths[player_id]
        except KeyError:
            raise UnknownPlayer(player_id) from None

    def items(self) -> Iterator[tuple[int, tuple[str, ...]]]:
        """Pairs sorted by player id, so float accumulation order is fixed."""
        return iter(sorted(self.paths.items()))

    def replace(self, player_id: int, path: Sequence[str]) -> StrategyProfile:
        updated = dict(self.paths)
        updated[player_id] = tuple(path)
        return StrategyProfile(updated)


@dataclass(frozen=True)
class CostReport:
    """Everything the engine knows about one profile's costs."""

    page_cost: float
    player_costs: dict[int, float]
    shares: dict[str, float]
    potential: float
    delta: float


@dataclass(frozen=True)
class GameInstance:
    """A complete game: graph, players, and the cooperation weight delta."""

    graph: GameGraph
    players: tuple[Player, ...]
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        if not (0.0 <= self.delta < math.inf):
            raise NegativeDelta(self.delta)
        if math.copysign(1.0, self.delta) < 0.0:  # -0.0, as for an edge cost
            object.__setattr__(self, "delta", 0.0)
        # Every cost, potential and sum that check forms stays below this bound.
        total = ordered_sum(self.graph.costs)
        if math.isinf(total * (1.0 + self.delta) * (len(self.players) + 1)):
            raise GraphError(
                f"edge costs too large: total {total} overflows at delta {self.delta}")
        validate_players(self.graph, self.players)


class Tally:
    """A profile's edge loads and page cost, all by declaration position:
    ``loads[e]``, each player's path in ``paths``, the loaded edges in
    ``used``, in order, and their costs in the same order in
    ``used_costs``; only ``move`` changes them. The page cost is summed
    from ``used_costs`` on first use after a change, and the potential from
    the graph's cached terms of each loaded edge at its load. With
    ``delta == 0`` the social terms are skipped, so player costs equal the
    pure shared-path costs bit for bit.
    """

    def __init__(self, graph: GameGraph, profile: StrategyProfile, delta: float = 0.0):
        self.graph = graph
        self.delta = delta
        self.loads = loads = [0] * len(graph.costs)
        self.paths = {pid: graph.positions(path) for pid, path in profile.items()}
        for path in self.paths.values():
            for e in path:
                loads[e] += 1
        self.used = list(itertools.compress(range(len(loads)), loads))
        self.used_costs = list(itertools.compress(graph.costs, loads))
        self._page: float | None = None

    def move(self, player_id: int, new: tuple[int, ...]) -> None:
        """Move a player from its current path (if any) onto the edges at
        positions ``new``; ``()`` takes the player off. The only mutation."""
        loads, used, used_costs = self.loads, self.used, self.used_costs
        for e in self.paths.get(player_id, ()):
            loads[e] -= 1
            if not loads[e]:
                i = bisect.bisect_left(used, e)
                del used[i], used_costs[i]
                self._page = None
        for e in new:
            if not loads[e]:
                i = bisect.bisect_left(used, e)
                used.insert(i, e)
                used_costs.insert(i, self.graph.costs[e])
                self._page = None
            loads[e] += 1
        self.paths[player_id] = new

    def profile(self) -> StrategyProfile:
        ids = self.graph.edge_ids
        return StrategyProfile({pid: [ids[e] for e in path] for pid, path in self.paths.items()})

    def page(self) -> float:
        """Total cost of the loaded edges, each counted once."""
        if self._page is None:
            self._page = ordered_sum(self.used_costs, 0.0)
        return self._page

    def cost(self, player_id: int) -> float:
        """The player's Shapley shares plus ``delta`` times the page cost."""
        costs, loads = self.graph.costs, self.loads
        own = ordered_sum([costs[e] / loads[e] for e in self.paths[player_id]])
        return own + self.delta * self.page() if self.delta else own

    def potential(self) -> float:
        """Exact potential: each ``cost / x`` for ``x`` up to an edge's load,
        summed left to right in ``used`` order, plus ``delta`` times the page
        cost. A unilateral path change moves it by exactly the mover's cost
        change."""
        used = self.used
        keys = zip(used, map(self.loads.__getitem__, used))
        terms = itertools.chain.from_iterable(map(self.graph._harmonic.__getitem__, keys))
        total = ordered_sum(terms, 0.0)
        return total + self.delta * self.page() if self.delta else total


def page_cost(graph: GameGraph, profile: StrategyProfile) -> float:
    """Total cost of the union of all chosen paths, each edge counted once."""
    return Tally(graph, profile).page()


def shapley_share(cost: float, load: int) -> float:
    """An edge's cost split equally among the players using it."""
    if load < 1:
        raise ZeroLoad(load)
    return cost / load


def player_cost(
    graph: GameGraph, profile: StrategyProfile, player_id: int, delta: float = 0.0
) -> float:
    """Shapley path cost plus ``delta`` times the page cost."""
    profile.path(player_id)
    return Tally(graph, profile, delta).cost(player_id)


def potential(graph: GameGraph, profile: StrategyProfile, delta: float = 0.0) -> float:
    """Exact potential (``Tally.potential``)."""
    return Tally(graph, profile, delta).potential()


def cost_report(
    graph: GameGraph, profile: StrategyProfile, delta: float = 0.0
) -> CostReport:
    """Page cost, edge shares, player costs and potential of one profile."""
    tally = Tally(graph, profile, delta)
    ids, costs, loads = graph.edge_ids, graph.costs, tally.loads
    return CostReport(
        page_cost=tally.page(),
        player_costs={pid: tally.cost(pid) for pid in tally.paths},
        shares={ids[e]: costs[e] / loads[e] for e in tally.used},
        potential=tally.potential(),
        delta=delta,
    )


def validate_players(graph: GameGraph, players: Sequence[Player]) -> None:
    """Check player invariants: distinct ids, real endpoints, a path exists.
    The first player in order that breaks one decides the error."""
    bits, masks = graph.root_masks([player.root for player in players])
    position = graph.node_position
    seen_ids: set[int] = set()
    for player in players:
        if player.player_id in seen_ids:
            raise InvalidProfile(player.player_id, "duplicate player id")
        seen_ids.add(player.player_id)
        if player.root not in graph:
            raise InvalidProfile(player.player_id, f"unknown root node {player.root!r}")
        if player.leaf not in graph:
            raise InvalidProfile(player.player_id, f"unknown leaf node {player.leaf!r}")
        if player.root == player.leaf:
            raise InvalidProfile(player.player_id, "root and leaf must differ")
        if not masks[position[player.leaf]] & bits[player.root]:
            raise NoPath(player.player_id, player.root, player.leaf)


def validate_profile(
    graph: GameGraph, players: Sequence[Player], profile: StrategyProfile
) -> None:
    """Check that a profile assigns each player one root-leaf path; the graph
    is acyclic, so a connected path never revisits a node."""
    expected = {p.player_id: p for p in players}
    if set(profile.paths) != set(expected):
        missing = sorted(set(expected) - set(profile.paths))
        extra = sorted(set(profile.paths) - set(expected))
        raise InvalidProfile(
            (missing + extra)[0], "profile players do not match instance players"
        )
    for pid, path in profile.items():
        player = expected[pid]
        if not path:
            raise InvalidProfile(pid, "path is empty")
        try:
            edges = [graph.edge(edge_id) for edge_id in path]
        except GraphError as exc:
            raise InvalidProfile(pid, str(exc)) from None
        if edges[0].src != player.root:
            raise InvalidProfile(pid, f"path starts at {edges[0].src!r}, not the root")
        if edges[-1].dst != player.leaf:
            raise InvalidProfile(pid, f"path ends at {edges[-1].dst!r}, not the leaf")
        for prev, nxt in zip(edges, edges[1:]):
            if prev.dst != nxt.src:
                raise InvalidProfile(pid, "consecutive edges do not connect")
