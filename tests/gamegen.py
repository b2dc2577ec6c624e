"""Shared builders for test instances: canonical fixtures and a seeded
random-DAG generator sized for exhaustive checking."""

from __future__ import annotations

import itertools
import random

from pagegame import (
    GameGraph,
    GameInstance,
    Player,
    StrategyProfile,
    build_graph,
    enumerate_paths,
)

DELTAS = (0.0, 0.5, 1.0, 2.0)

# Two parallel edges, two identical players: the smallest instance where
# sharing matters. Edge a is cheap, edge b dear.
def build_d1(delta=0.0, cost_a=1.0, cost_b=3.0) -> GameInstance:
    graph = build_graph(
        [("r", "abstract"), ("l", "abstract")],
        [("a", "r", "l", cost_a), ("b", "r", "l", cost_b)],
    )
    players = (
        Player(1, "r", "l", "first browser"),
        Player(2, "r", "l", "second browser"),
    )
    return GameInstance(graph=graph, players=players, delta=delta)


SAMPLE_DOCUMENT = """
<html>
<head>
<title>My title</title>
</head>
<body>
<h1>My header</h1>
<a href="uri">My link</a>
</body>
</html>
"""


def random_instance(seed: int, delta: float = 0.0, max_profiles: int = 400) -> GameInstance:
    """Small random DAG game with at most ``max_profiles`` joint profiles.

    Nodes are laid out in a fixed topological order and edges only run
    forward, so the graph is acyclic by construction. Roughly a third of
    the costs are small integers (including zero) to provoke exact ties.
    """
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 6)
        node_ids = [f"n{i}" for i in range(n)]
        m = rng.randint(n, 10)
        edges = []
        for j in range(m):
            src = rng.randrange(0, n - 1)
            dst = rng.randrange(src + 1, n)
            if rng.random() < 0.35:
                cost = float(rng.randint(0, 4))
            else:
                cost = round(rng.uniform(0.1, 4.0), 3)
            edges.append((f"e{j:02d}", node_ids[src], node_ids[dst], cost))
        graph = build_graph([(nid, "abstract") for nid in node_ids], edges)

        pairs = []
        for u, v in itertools.combinations(range(n), 2):
            count = len(enumerate_paths(graph, node_ids[u], node_ids[v]))
            if count:
                pairs.append(((node_ids[u], node_ids[v]), count))
        if not pairs:
            continue
        # Endpoint pairs with a genuine choice of path make richer games.
        contested = [p for p in pairs if p[1] > 1]

        k = rng.choice((1, 2, 2, 3, 3, 3))
        chosen = [
            rng.choice(contested)
            if contested and rng.random() < 0.8
            else rng.choice(pairs)
            for _ in range(k)
        ]
        product = 1
        for _, count in chosen:
            product *= count
        if product > max_profiles:
            continue

        players = tuple(
            Player(i + 1, root, leaf, label=f"browser-{i + 1}")
            for i, ((root, leaf), _) in enumerate(chosen)
        )
        return GameInstance(graph=graph, players=players, delta=delta)


def layered_game(seed: int, delta: float, count: int = 10) -> tuple:
    """A source over five layers of four nodes with small integer costs, so
    best responses see exact ties, several roots and dead-end branches;
    ``count`` players."""
    rng = random.Random(seed)
    layers = [[f"L{l}.{i}" for i in range(4)] for l in range(5)]
    nodes = ["s"] + [n for layer in layers for n in layer]
    edges = [(f"s{i}", "s", n, float(rng.randint(1, 3))) for i, n in enumerate(layers[0])]
    for l in range(4):
        for i, src in enumerate(layers[l]):
            for j in rng.sample(range(4), rng.randint(1, 3)):
                edges.append((f"e{l}{i}{j}", src, layers[l + 1][j], float(rng.randint(0, 3))))
    graph = build_graph([(n, "abstract") for n in nodes], edges)
    players = []
    while len(players) < count:
        root = rng.choice(["s"] + layers[0] + layers[1])
        leaf = rng.choice(layers[3] + layers[4])
        if leaf in reachable_from(graph, root):
            players.append(Player(len(players) + 1, root, leaf))
    return graph, tuple(players), delta


def large_cost_game(instance: GameInstance, seed: int) -> GameInstance:
    """``instance`` with its costs scaled by a seeded factor in 1e7-1e15,
    where one ulp of a path cost passes 1e-9. About a third of the priced
    edges also get a two-edge detour through a new node whose parts add up
    to the edge's cost in exact arithmetic, so paths that tie exactly can
    differ by an ulp or more once summed."""
    rng = random.Random(seed)
    scale = 10 ** rng.uniform(7, 15)
    nodes = [(node.node_id, node.kind) for node in instance.graph.nodes.values()]
    edges = []
    for e in instance.graph.edges:
        cost = e.cost * scale
        edges.append((e.edge_id, e.src, e.dst, cost))
        if cost and rng.random() < 0.3:
            part = cost * rng.uniform(0.2, 0.8)
            nodes.append((f"m{e.edge_id}", "abstract"))
            edges.append((f"{e.edge_id}x", e.src, f"m{e.edge_id}", part))
            edges.append((f"{e.edge_id}y", f"m{e.edge_id}", e.dst, cost - part))
    return GameInstance(build_graph(nodes, edges), instance.players, instance.delta)


def diamond_chain(diamonds: int, extra=lambda i: 0.0) -> GameGraph:
    """``diamonds`` two-way diamonds in a row, ``v0`` to ``v{diamonds}``:
    every edge costs 1, except that the second edge of diamond ``i``'s lower
    branch costs ``1 + extra(i)``. With no extra all 2**diamonds paths tie."""
    nodes = [(f"v{i}", "abstract") for i in range(diamonds + 1)]
    edges = []
    for i in range(diamonds):
        for side in "ab":
            nodes.append((f"m{i}{side}", "abstract"))
            edges.append((f"e{i:02d}{side}1", f"v{i}", f"m{i}{side}", 1.0))
            cost = 1.0 + extra(i) if side == "b" else 1.0
            edges.append((f"e{i:02d}{side}2", f"m{i}{side}", f"v{i + 1}", cost))
    return build_graph(nodes, edges)


def corpus(count: int = 200, base_seed: int = 20_000) -> list[GameInstance]:
    return [
        random_instance(base_seed + i, delta=DELTAS[i % len(DELTAS)])
        for i in range(count)
    ]


def first_path_profile(instance: GameInstance) -> StrategyProfile:
    """Deterministic baseline: every player on its first enumerated path."""
    return StrategyProfile(
        {
            p.player_id: enumerate_paths(instance.graph, p.root, p.leaf)[0]
            for p in instance.players
        }
    )


def all_profiles(instance: GameInstance):
    """Every joint profile, in the same order the oracle enumerates them."""
    path_sets = [
        enumerate_paths(instance.graph, p.root, p.leaf) for p in instance.players
    ]
    for combo in itertools.product(*path_sets):
        yield StrategyProfile(
            {p.player_id: path for p, path in zip(instance.players, combo)}
        )


def instance_to_json(instance: GameInstance) -> dict:
    """Explicit-form instance document for the CLI."""
    return {
        "format_version": 1,
        "delta": instance.delta,
        "nodes": [
            {"id": node.node_id, "kind": node.kind}
            for node in instance.graph.nodes.values()
        ],
        "edges": [
            {"id": e.edge_id, "src": e.src, "dst": e.dst, "cost": e.cost}
            for e in instance.graph.edges
        ],
        "players": [
            {"id": p.player_id, "root": p.root, "leaf": p.leaf, "label": p.label}
            for p in instance.players
        ],
    }


def reachable_from(graph, root: str) -> set:
    """Nodes reachable from ``root``, itself included, by a plain forward
    search over ``graph.out_edges``: a reference that shares nothing with
    the engine's root masks."""
    seen, stack = {root}, [root]
    while stack:
        for edge in graph.out_edges(stack.pop()):
            if edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return seen


class _LoggedMemo(dict):
    def __init__(self, log: list):
        super().__init__()
        self.log = log

    def __setitem__(self, key, value):
        self.log.append(key)
        super().__setitem__(key, value)


def search_log(graph, memo: str | None = None) -> list:
    """What a fresh graph searches after this call, in order: each pass of
    its root masks as the set of roots it covered, or with
    ``memo="_plans"`` the (root, leaf) pairs ``graph.between`` plans, a
    pair planned twice showing up twice."""
    log: list = []
    if memo is not None:
        assert not getattr(graph, memo), "log a graph before its first search"
        setattr(graph, memo, _LoggedMemo(log))
        return log
    assert not graph._masks[0], "log a graph before its first pass"
    extend = graph._extend

    def logged(snapshot, roots):
        result = extend(snapshot, roots)
        log.append(set(result[0]))
        return result

    graph._extend = logged
    return log
