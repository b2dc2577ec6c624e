"""Seeded instance generators for the four benchmark workloads.

Every generator is a pure function of its seed and uses only the standard
library, so the inputs never depend on the engine under test. A workload is
a list of games; each game is one instance file plus the CLI subcommands the
benchmark times on it.

The generators keep the *amount* of work nearly independent of the seed
(the benchmark compares runs made with different seeds), while the seed
still changes costs, shapes and endpoints:

* ``dag-dynamics`` gives every leaf one dominant path, so best responses
  are unique, and adds entry gadgets whose pay-off appears only once later
  players arrive. Every seed therefore makes one pass of moves (one per
  mover) and one quiet pass. Purely random costs gave 1 to 8 passes.
* ``tie-lattice`` fixes the span of the first player placed, whose tie walk
  over the still-empty grid dominates the run.
* ``oracle-catalog`` draws each game's profile-space size from its own band,
  so the catalog's total size hardly moves between seeds.
* ``doc-pages`` fixes the element, attribute and text counts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ALL_COMMANDS = ("solve", "check", "enumerate", "report")


@dataclass(frozen=True)
class Game:
    """One instance file and the subcommands timed on it.

    ``commands`` lists the timed subcommands. ``check`` and ``report`` read
    a solve report; when ``solve`` is not timed on the game, the benchmark
    writes that report once before timing starts.
    """

    name: str
    instance: dict
    commands: tuple[str, ...]
    seed: int
    schedule: str = "round-robin"

    def text(self) -> str:
        return json.dumps(self.instance, separators=(",", ":")) + "\n"


def _explicit(delta, nodes, edges, players) -> dict:
    return {
        "format_version": 1,
        "delta": delta,
        "nodes": [{"id": nid, "kind": "abstract"} for nid in nodes],
        "edges": [{"id": eid, "src": s, "dst": d, "cost": c} for eid, s, d, c in edges],
        "players": [
            {"id": i + 1, "root": root, "leaf": leaf} for i, (root, leaf) in enumerate(players)
        ],
    }


def path_counts(nodes, edges, root: str) -> dict[str, int]:
    """Number of directed paths from ``root`` to every node, for an edge
    list whose ``nodes`` are listed in a topological order."""
    out: dict[str, list[str]] = {}
    for _, src, dst, _ in edges:
        out.setdefault(src, []).append(dst)
    counts = dict.fromkeys(nodes, 0)
    counts[root] = 1
    for node in nodes:
        if counts[node]:
            for nxt in out.get(node, ()):
                counts[nxt] += counts[node]
    return counts


# ---------------------------------------------------------------- dag-dynamics

def _layered(rng, layers, width):
    """Layered DAG below a source ``s``: every node has three parents in the
    layer above; the first is its cheap *planted* parent, the other two are
    dear. The planted edges form a tree, so each node has one dominant path.
    Returns nodes, edges and each layer-0 ancestor along planted edges."""
    name = lambda layer, i: f"L{layer}.{i}"
    nodes = ["s"] + [name(l, i) for l in range(layers) for i in range(width)]
    edges = []

    def add(src, dst, cost):
        edges.append((f"e{len(edges):05d}", src, dst, cost))

    for i in range(width):
        add("s", name(0, i), round(rng.uniform(1.0, 2.0), 3))
    top = list(range(width))  # planted layer-0 ancestor of each node in the layer
    for layer in range(1, layers):
        below = []
        for i in range(width):
            parents = rng.sample(range(width), 3)
            add(name(layer - 1, parents[0]), name(layer, i), round(rng.uniform(1.0, 2.0), 3))
            for j in parents[1:]:
                add(name(layer - 1, j), name(layer, i), round(rng.uniform(30.0, 40.0), 3))
            below.append(top[parents[0]])
        top = below
    return nodes, edges, [name(0, a) for a in top]


DAG_PLAYERS, DAG_LAYERS, DAG_WIDTH, DAG_DELTA = 300, 8, 40, 0.5


def dag_dynamics_instance(seed: int, players: int = DAG_PLAYERS) -> dict:
    """Layered DAG game with ``players`` players: 1/6 movers, each followed
    later by two forced players on its gadget, and the rest anchors.

    Anchors route from ``s`` to a random last-layer node along its dominant
    path. A mover starts at its own root ``m`` with two ways onto the
    planted ancestor ``x`` of its leaf: edge ``a`` (cost 4-5) or ``b1`` then
    ``b2`` (0.5-1 and 6-8). Alone it takes ``a``; once the two forced
    players sit on ``b2``, the ``b`` route weighs at most 1.5 + 8/3 < 6, so
    it moves in the first pass and nothing moves after. Dear edges (30-40)
    never enter a best response: a dominant path weighs at most 1.5 * 16.
    """
    rng = random.Random(f"dag-dynamics/{seed}")
    nodes, edges, ancestor = _layered(rng, DAG_LAYERS, DAG_WIDTH)
    last = [f"L{DAG_LAYERS - 1}.{i}" for i in range(DAG_WIDTH)]
    movers = players // 6
    anchors = players - 3 * movers
    mover_routes, forced = [], []
    for m in range(movers):
        leaf_index = rng.randrange(DAG_WIDTH)
        root, mid, entry = f"m{m}", f"m{m}.y", ancestor[leaf_index]
        nodes += [root, mid]
        edges.append((f"m{m}.a", root, entry, round(rng.uniform(4.0, 5.0), 3)))
        edges.append((f"m{m}.b1", root, mid, round(rng.uniform(0.5, 1.0), 3)))
        edges.append((f"m{m}.b2", mid, entry, round(rng.uniform(6.0, 8.0), 3)))
        mover_routes.append((root, last[leaf_index]))
        forced += [(mid, entry)] * 2
    anchor_routes = [("s", rng.choice(last)) for _ in range(anchors)]
    # Movers come first so greedy placement sees their gadgets empty.
    return _explicit(DAG_DELTA, nodes, edges, mover_routes + anchor_routes + forced)


def dag_dynamics_twin(seed: int) -> dict:
    """Desk-scale twin for ``check`` and ``enumerate``: the same layering
    with three layers of three nodes, so every node has all three parents;
    three players from ``s`` to the last layer, 9 paths each, 729 profiles."""
    rng = random.Random(f"dag-dynamics-twin/{seed}")
    nodes, edges, _ = _layered(rng, 3, 3)
    players = [("s", f"L2.{i}") for i in range(3)]
    return _explicit(DAG_DELTA, nodes, edges, players)


# ---------------------------------------------------------------- tie-lattice

def _grid(size):
    name = lambda r, c: f"g{r}.{c}"
    nodes = [name(r, c) for r in range(size) for c in range(size)]
    edges = []
    for r in range(size):
        for c in range(size):
            if c + 1 < size:
                edges.append((f"e{len(edges):03d}", name(r, c), name(r, c + 1), 1.0))
            if r + 1 < size:
                edges.append((f"e{len(edges):03d}", name(r, c), name(r + 1, c), 1.0))
    return name, nodes, edges


LATTICE_SIZE, LATTICE_PLAYERS, LATTICE_SPAN = 13, 40, (11, 10)


def tie_lattice_instance(seed: int) -> dict:
    """Equal-cost 13 x 13 grid DAG (edges run right and down), delta 0.
    Roots lie in the upper-left third, leaves in the lower-right third. The
    first player placed spans exactly 11 rows and 10 columns, so its tie
    walk over the empty grid lists C(21, 10) = 352,716 paths on every seed;
    the other players' spans are random."""
    size = LATTICE_SIZE
    rng = random.Random(f"tie-lattice/{seed}")
    name, nodes, edges = _grid(size)
    third = size // 3
    dr, dc = LATTICE_SPAN
    r0, c0 = rng.randrange(size - dr), rng.randrange(size - dc)
    routes = [(name(r0, c0), name(r0 + dr, c0 + dc))]
    while len(routes) < LATTICE_PLAYERS:
        root = name(rng.randrange(third + 1), rng.randrange(third + 1))
        leaf = name(size - 1 - rng.randrange(third + 1), size - 1 - rng.randrange(third + 1))
        routes.append((root, leaf))
    return _explicit(0.0, nodes, edges, routes)


def tie_lattice_twin() -> dict:
    """Desk-scale twin: a 4 x 4 equal-cost grid with three corner-to-corner
    players (20 tied paths each, 8,000 profiles)."""
    name, nodes, edges = _grid(4)
    return _explicit(0.0, nodes, edges, [(name(0, 0), name(3, 3))] * 3)


# ---------------------------------------------------------------- oracle-catalog

CATALOG_DELTAS = (0.0, 0.5, 1.0, 2.0)


def catalog_game(rng: random.Random, lo: int, hi: int, delta: float) -> dict:
    """Random DAG game whose profile-space size lies in ``[lo, hi]``.

    Nodes follow a fixed topological order and edges only run forward, so
    the graph is acyclic by construction; about 35% of the costs are small
    integers (zero included) so exact ties occur.
    """
    while True:
        n = rng.randint(6, 9)
        node_ids = [f"n{i}" for i in range(n)]
        edges = []
        for j in range(rng.randint(n + 3, 18)):
            src = rng.randrange(0, n - 1)
            dst = rng.randrange(src + 1, n)
            if rng.random() < 0.35:
                cost = float(rng.randint(0, 4))
            else:
                cost = round(rng.uniform(0.1, 4.0), 3)
            edges.append((f"e{j:02d}", node_ids[src], node_ids[dst], cost))
        pairs = []
        for u in node_ids:
            counts = path_counts(node_ids, edges, u)
            pairs += [((u, v), c) for v, c in counts.items() if v != u and c > 1]
        if len(pairs) < 2:
            continue
        for _ in range(50):
            chosen = [rng.choice(pairs) for _ in range(rng.randint(2, 5))]
            size = 1
            for _, count in chosen:
                size *= count
            if lo <= size <= hi:
                return _explicit(delta, node_ids, edges, [pair for pair, _ in chosen])


def catalog_bands(games: int, lo: float, hi: float) -> list[tuple[int, int]]:
    """``games`` log-spaced profile-count bands covering ``[lo, hi]``."""
    ratio = (hi / lo) ** (1.0 / games)
    return [(int(lo * ratio**i), int(lo * ratio ** (i + 1))) for i in range(games)]


CATALOG_GAMES, CATALOG_PROFILES = 40, (200, 5000)


def oracle_catalog_games(seed: int) -> list[dict]:
    rng = random.Random(f"oracle-catalog/{seed}")
    return [
        catalog_game(rng, band_lo, band_hi, CATALOG_DELTAS[i % len(CATALOG_DELTAS)])
        for i, (band_lo, band_hi) in enumerate(catalog_bands(CATALOG_GAMES, *CATALOG_PROFILES))
    ]


# ---------------------------------------------------------------- doc-pages

_WORDS = ("catalog", "price", "cart", "offer", "review", "stock", "ship", "order",
          "brand", "detail", "size", "color", "return", "track", "gift", "sale")


class _Markup:
    """Writes markup and assigns node ids the way the documented counting
    convention does: document order, ``<n>:<tag>``, ``<n>:@attr``, ``<n>:#text``."""

    def __init__(self, rng):
        self.rng = rng
        self.parts: list[str] = []
        self.count = 1  # node 0 is the document root
        self.texts: list[str] = []

    def _node(self, label):
        node_id = f"{self.count}:{label}"
        self.count += 1
        return node_id

    def open(self, tag, attribute=None):
        self._node(tag)
        if attribute is None:
            self.parts.append(f"<{tag}>")
        else:
            self._node("@" + attribute[0])
            self.parts.append(f'<{tag} {attribute[0]}="{attribute[1]}">')

    def close(self, tag):
        self.parts.append(f"</{tag}>")

    def text(self):
        words = self.rng.choices(_WORDS, k=self.rng.randint(2, 6))
        self.texts.append(self._node("#text"))
        self.parts.append(" ".join(words))

    def leaf(self, tag, attribute=None):
        self.open(tag, attribute)
        self.text()
        self.close(tag)


DOC_SECTIONS, DOC_DEVICES, DOC_COMPONENTS, DOC_DELTA = 100, 12, 8, 0.5


def doc_pages_instance(seed: int) -> dict:
    """Generated storefront page of 100 sections, each of the same shape
    (18 nodes); tag names and words vary. 12 devices cycle pc/tablet/mobile
    and each requires 8 distinct random text nodes."""
    rng = random.Random(f"doc-pages/{seed}")
    page = _Markup(rng)
    page.open("html")
    page.open("head")
    page.leaf("title")
    page.close("head")
    page.open("body")
    for n in range(DOC_SECTIONS):
        box = rng.choice(("section", "article", "div"))
        page.open(box, ("class", f"s{n}"))
        page.leaf(rng.choice(("h2", "h3")))
        for _ in range(2):
            page.leaf(rng.choice(("p", "blockquote")))
        page.open("ul")
        for _ in range(3):
            page.leaf("li")
        page.close("ul")
        page.leaf("a", ("href", f"item{rng.randrange(10**6)}"))
        page.close(box)
    page.close("body")
    page.close("html")
    classes = ("pc", "tablet", "mobile")
    return {
        "format_version": 1,
        "delta": DOC_DELTA,
        "document": "".join(page.parts),
        "devices": [
            {
                "id": f"{classes[d % 3]}{d}",
                "class": classes[d % 3],
                "required_components": rng.sample(page.texts, DOC_COMPONENTS),
            }
            for d in range(DOC_DEVICES)
        ],
    }


# ---------------------------------------------------------------- workloads

def build(workload: str, seed: int, scale: float = 1.0) -> list[Game]:
    """The games of one workload. ``scale`` shrinks the player count of
    ``dag-dynamics`` for the complexity check; other workloads ignore it."""
    if workload == "dag-dynamics":
        players = int(round(DAG_PLAYERS * scale))
        return [
            Game("main", dag_dynamics_instance(seed, players=players), ("solve", "report"), seed),
            Game("twin", dag_dynamics_twin(seed), ("check", "enumerate"), seed),
        ]
    if workload == "doc-pages":
        return [Game("main", doc_pages_instance(seed), ALL_COMMANDS, seed)]
    if workload == "oracle-catalog":
        return [
            Game(f"g{i:02d}", inst, ALL_COMMANDS, seed + i)
            for i, inst in enumerate(oracle_catalog_games(seed))
        ]
    if workload == "tie-lattice":
        return [
            Game("main", tie_lattice_instance(seed), ("solve", "report"), seed, "random"),
            Game("twin", tie_lattice_twin(), ("check", "enumerate"), seed, "random"),
        ]
    raise KeyError(workload)


WORKLOADS = ("dag-dynamics", "doc-pages", "oracle-catalog", "tie-lattice")
