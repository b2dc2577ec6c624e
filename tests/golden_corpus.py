"""Golden corpus: fixed games whose CLI output bytes are pinned by sha256.

Each game runs ``solve`` (report and trace) under one or two seeds and
schedules, then ``check`` and ``report`` (DOT and JSON) on every solve
report, and ``enumerate`` once. The exit code of every command and the
digest of every file it writes are stored in ``golden/digests.json``.
Traces are written under relative names, so a report's ``trace`` field
does not depend on the directory the corpus runs in.

The games are the two shipped instances plus the files in ``golden/``:
a document game with four devices sharing components, a storefront page
of a few hundred nodes with five devices, 20 seeded random
DAG games across every delta and both schedules, a chain of equal-cost
diamonds whose best responses are all ties, two grids whose costs differ
by less than the tie tolerance (near ties: tied prefixes reach a node with
many different accumulated weights), and a small game that mixes players
with one path and players with several. To rebuild the instances and
the digests after a deliberate change of output, run

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
from contextlib import contextmanager
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
DIGESTS = GOLDEN / "digests.json"
SHIPPED = TESTS.parent / "instances"

RANDOM_GAMES = 20
DEFAULT_SOLVES = ((7, "round-robin"), (3, "random"))


def games() -> dict[str, Path]:
    """Corpus name -> instance file, in a fixed order."""
    found = {"d1": SHIPPED / "d1.json", "webpage": SHIPPED / "webpage.json"}
    for path in sorted(GOLDEN.glob("*.json")):
        if path != DIGESTS:
            found[path.stem] = path
    return found


def solves(name: str) -> tuple[tuple[int, str], ...]:
    """The (seed, schedule) pairs ``solve`` runs with for one game."""
    if name.startswith("gen-"):
        index = int(name[4:])
        return ((index, ("round-robin", "random")[index % 2]),)
    return DEFAULT_SOLVES


def commands(name: str, instance: Path) -> list[tuple[str, list[str], list[str]]]:
    """``(step, argv, files written)`` for every command run on one game."""
    steps = []
    for seed, schedule in solves(name):
        tag = f"{schedule}-{seed}"
        report = f"{tag}.report.json"
        common = ["--instance", str(instance)]
        steps += [
            (f"solve-{tag}",
             ["solve", *common, "--seed", str(seed), "--schedule", schedule,
              "--trace", f"{tag}.trace", "--output", report],
             [report, f"{tag}.trace"]),
            (f"check-{tag}",
             ["check", *common, "--report", report, "--output", f"{tag}.check"],
             [f"{tag}.check"]),
            (f"dot-{tag}",
             ["report", *common, "--report", report, "--output", f"{tag}.dot"],
             [f"{tag}.dot"]),
            (f"summary-{tag}",
             ["report", *common, "--report", report, "--format", "json",
              "--output", f"{tag}.summary.json"],
             [f"{tag}.summary.json"]),
        ]
    steps.append(
        ("enumerate", ["enumerate", "--instance", str(instance), "--output", "catalog.json"],
         ["catalog.json"])
    )
    return steps


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextmanager
def working_dir(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_in_process(name: str, instance: Path, workdir: Path,
                   subcommands=("solve", "check", "report", "enumerate")) -> dict[str, object]:
    """Exit codes and output digests of one game's commands whose
    subcommand is in ``subcommands``, via ``cli.main``."""
    from pagegame.cli import main

    results: dict[str, object] = {}
    with working_dir(workdir):
        for step, argv, written in commands(name, instance):
            if argv[0] not in subcommands:
                continue
            results[f"{step}:exit"] = main(argv)
            for filename in written:
                results[filename] = sha256(workdir / filename)
    return results


# ---------------------------------------------------------------- generation

DOC3_DOCUMENT = (
    '<header><nav><a href="home">Home</a></nav></header>'
    "<main><h1>Deals</h1><section><p>Lead</p><p>Offer</p></section></main>"
    "<footer><p>Contact</p></footer>"
)


def doc3_instance() -> dict:
    """Four devices over one page, most components wanted by several."""
    return {
        "format_version": 1,
        "delta": 0.5,
        "document": DOC3_DOCUMENT,
        "devices": [
            {"id": "desk", "class": "pc",
             "required_components": ["4:@href", "8:#text", "11:#text", "16:#text"]},
            {"id": "tab", "class": "tablet", "orientation": "portrait",
             "required_components": ["8:#text", "13:#text"]},
            {"id": "phone", "class": "mobile", "orientation": "portrait",
             "required_components": ["5:#text", "8:#text", "11:#text"]},
            {"id": "tv", "class": "pc", "cost_factor": 0.8,
             "required_components": ["13:#text", "16:#text"]},
        ],
        "cost_model": {"base_costs": {"element": 1.5, "text": 0.5, "attribute": 0.25}},
    }


_SHOP_WORDS = ("deal", "price", "cart", "offer", "stock", "ship", "gift", "sale")


def shop_instance(sections: int = 24) -> dict:
    """A storefront page of a few hundred nodes: sections of repeated tags
    with ``class`` and ``href`` attributes and text, and five devices of all
    three classes wanting overlapping text and attribute components."""
    rng = random.Random(4100)
    parts: list[str] = []
    texts: list[str] = []
    attributes: list[str] = []
    numbers = itertools.count(1)  # node 0 is the document root

    def node(label: str) -> str:
        return f"{next(numbers)}:{label}"

    def leaf(tag: str, attribute: tuple[str, str] | None = None) -> None:
        node(tag)
        if attribute is None:
            parts.append(f"<{tag}>")
        else:
            attributes.append(node("@" + attribute[0]))
            parts.append(f'<{tag} {attribute[0]}="{attribute[1]}">')
        texts.append(node("#text"))
        parts.append(" ".join(rng.choices(_SHOP_WORDS, k=rng.randint(1, 4))) + f"</{tag}>")

    node("html")
    node("head")
    parts.append("<html><head>")
    leaf("title")
    node("body")
    node("nav")
    parts.append("</head><body><nav>")
    for n in range(6):
        leaf("a", ("href", f"/c/{n}"))
    parts.append("</nav>")
    for n in range(sections):
        box = rng.choice(("section", "article", "div"))
        node(box)
        attributes.append(node("@class"))
        parts.append(f'<{box} class="c{n % 4}">')
        leaf(rng.choice(("h2", "h3")))
        leaf("p")
        node("ul")
        parts.append("<ul>")
        for _ in range(3):
            leaf("li")
        parts.append("</ul>")
        leaf("a", ("href", f"/p/{rng.randrange(10_000)}"))
        parts.append(f"</{box}>")
    node("footer")
    parts.append("<footer>")
    leaf("p")
    parts.append("</footer></body></html>")

    def wants(k: int) -> list[str]:
        return sorted(rng.sample(texts, k) + rng.sample(attributes, 2),
                      key=lambda node_id: int(node_id.split(":")[0]))

    return {
        "format_version": 1,
        "delta": 0.25,
        "document": "".join(parts),
        "devices": [
            {"id": "desk", "class": "pc", "required_components": wants(6)},
            {"id": "tab", "class": "tablet", "orientation": "portrait",
             "required_components": wants(5)},
            {"id": "phone", "class": "mobile", "orientation": "portrait",
             "required_components": wants(4)},
            {"id": "tv", "class": "pc", "cost_factor": 0.8, "required_components": wants(3)},
            {"id": "mini", "class": "mobile", "cost_factor": 1.3,
             "required_components": wants(4)},
        ],
    }


def ties_instance(diamonds: int = 5) -> dict:
    """Equal-cost parallel pairs in a chain: every path ties for cheapest."""
    nodes = [{"id": f"v{i}", "kind": "abstract"} for i in range(diamonds + 1)]
    edges = [
        {"id": f"e{i}{side}", "src": f"v{i}", "dst": f"v{i + 1}", "cost": 1.0}
        for i in range(diamonds)
        for side in "ab"
    ]
    players = [
        {"id": 1, "root": "v0", "leaf": f"v{diamonds}", "label": "first"},
        {"id": 2, "root": "v0", "leaf": f"v{diamonds}", "label": "second"},
        {"id": 3, "root": "v1", "leaf": f"v{diamonds - 1}", "label": "inner"},
    ]
    return {"format_version": 1, "delta": 0.5, "nodes": nodes, "edges": edges,
            "players": players}


def grid_instance(size: int, epsilon: float, delta: float, routes, seed: int) -> dict:
    """A ``size`` x ``size`` grid whose edges run right and down and cost
    ``1 + U[0, epsilon)``: with ``epsilon`` below the tie tolerance every
    corner-to-corner path nearly ties. ``routes`` are (row, column) pairs of
    each player's root and leaf."""
    rng = random.Random(seed)
    name = lambda r, c: f"g{r}.{c}"
    nodes = [{"id": name(r, c), "kind": "abstract"} for r in range(size) for c in range(size)]
    edges = []
    for r in range(size):
        for c in range(size):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < size and c + dc < size:
                    edges.append({"id": f"e{len(edges):03d}", "src": name(r, c),
                                  "dst": name(r + dr, c + dc),
                                  "cost": 1.0 + rng.random() * epsilon})
    players = [{"id": i + 1, "root": name(*root), "leaf": name(*leaf)}
               for i, (root, leaf) in enumerate(routes)]
    return {"format_version": 1, "delta": delta, "nodes": nodes, "edges": edges,
            "players": players}


def mixed_instance() -> dict:
    """Players with one path beside players with several. ``r`` branches
    into two subtrees that meet again at ``m``, and ``m`` reaches ``q`` over
    two parallel edges. Players 1, 3, 5 and 6 have one path each, and
    player 1's last edge is its own, so taking it off empties that edge.
    Players 2 and 4, placed before the load on ``rb``, then move onto it."""
    nodes = [{"id": node, "kind": "abstract"}
             for node in ("r", "a", "b", "l1", "l2", "l3", "m", "q")]
    edges = [("ra", "r", "a", 2.5), ("rb", "r", "b", 1.25), ("a1", "a", "l1", 1.5),
             ("am", "a", "m", 0.25), ("b2", "b", "l2", 0.75), ("b3", "b", "l3", 1.125),
             ("bm", "b", "m", 0.25), ("mq1", "m", "q", 1.0), ("mq2", "m", "q", 1.5)]
    routes = [("r", "l1"), ("r", "q"), ("b", "l3"), ("r", "m"), ("r", "l2"), ("r", "l2"),
              ("m", "q")]
    return {
        "format_version": 1,
        "delta": 0.5,
        "nodes": nodes,
        "edges": [{"id": e, "src": src, "dst": dst, "cost": cost}
                  for e, src, dst, cost in edges],
        "players": [{"id": i + 1, "root": root, "leaf": leaf}
                    for i, (root, leaf) in enumerate(routes)],
    }


def write_instances() -> None:
    from gamegen import DELTAS, instance_to_json, random_instance

    GOLDEN.mkdir(exist_ok=True)
    generated = {
        "doc3": doc3_instance(),
        "shop": shop_instance(),
        "ties": ties_instance(),
        "mixed": mixed_instance(),
        # One player corner to corner: all C(14, 7) = 3,432 paths nearly tie.
        "near-grid1": grid_instance(8, 1e-12, 0.0, [((0, 0), (7, 7))], 8100),
        # Three players on overlapping corners: 70 x 35 x 35 profiles.
        "near-grid3": grid_instance(8, 1e-10, 0.5, [((0, 0), (4, 4)), ((1, 2), (5, 5)),
                                                    ((3, 1), (7, 4))], 8300),
    }
    for i in range(RANDOM_GAMES):
        generated[f"gen-{i:02d}"] = instance_to_json(
            random_instance(30_000 + i, delta=DELTAS[i % len(DELTAS)])
        )
    for name, obj in generated.items():
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )


def regenerate(root: Path) -> None:
    write_instances()
    digests = {}
    for name, instance in games().items():
        workdir = root / name
        workdir.mkdir(parents=True)
        digests[name] = run_in_process(name, instance, workdir)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(TESTS))
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
