"""Markup parsing into a node forest and game construction from device profiles.

The parser accepts a deliberately tiny grammar: nesting tags, at most one
``name="value"`` attribute per tag, and plain text. Comments, doctypes,
self-closing tags, character entities, and multi-attribute tags are
rejected as unsupported rather than guessed at.

Node counting convention (fixed so a document maps to a predictable graph):
the document root is a node, each element is a node, an attribute is a
child node of its element, and each non-blank text run is a child node.
A parsed document therefore has exactly nodes-minus-one edges.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    EngineError,
    MalformedMarkup,
    UnreachableComponent,
    UnsupportedConstruct,
)
from .game import Edge, GameInstance, Node, Player, build_graph

_TAG_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9-]*")
_ATTRIBUTE = re.compile(r'([a-zA-Z][a-zA-Z0-9-]*)\s*=\s*"([^"]*)"')
_ENTITY = re.compile(r"&[a-zA-Z][a-zA-Z0-9]*;|&#[0-9]+;")

DEFAULT_BASE_COSTS = {
    "document-root": 0.0,
    "element": 1.0,
    "text": 0.5,
    "attribute": 0.25,
    "abstract": 0.0,
}

DEVICE_CLASS_FACTORS = {"pc": 1.0, "tablet": 1.2, "mobile": 1.5}

DEVICE_CLASSES = frozenset(DEVICE_CLASS_FACTORS)
ORIENTATIONS = frozenset({"landscape", "portrait"})


class DomNode(NamedTuple):
    """One node of the parsed document tree."""

    node_id: str
    kind: str          # document-root | element | attribute | text
    label: str         # tag name, attribute name, "#text", or "#document"
    value: str = ""    # attribute value or text content
    children: tuple["DomNode", ...] = ()


@dataclass(frozen=True)
class DomForest:
    """A parsed document: its root and every node by id, in document order."""

    document_root: DomNode
    nodes: dict[str, DomNode]

    def edges(self) -> Iterator[tuple[str, str]]:
        """Parent-child pairs in document order: ``nodes`` holds the ids in
        the pre-order they were reserved in, so each child follows its parent."""
        parents: dict[str, str] = {}
        for node_id, node in self.nodes.items():
            if node_id in parents:
                yield parents[node_id], node_id
            for child in node.children:
                parents[child.node_id] = node_id

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())


@dataclass(frozen=True)
class DeviceProfile:
    """A browsing device plus the components it must route into its page."""

    device_id: str
    device_class: str
    cost_factor: float
    required_components: tuple[str, ...]
    orientation: str = "landscape"

    def __post_init__(self):
        object.__setattr__(self, "required_components", tuple(self.required_components))
        if self.device_class not in DEVICE_CLASSES:
            raise EngineError(f"unknown device class {self.device_class!r}")
        if self.orientation not in ORIENTATIONS:
            raise EngineError(f"unknown orientation {self.orientation!r}")
        if not (0.0 < self.cost_factor < math.inf):
            raise EngineError(
                f"device {self.device_id!r}: cost_factor must be finite and > 0,"
                f" got {self.cost_factor}"
            )


@dataclass(frozen=True)
class CostModel:
    """Base cost per node kind; an edge inherits its child node's base cost."""

    base_costs: dict[str, float]

    def __post_init__(self):
        for kind, value in self.base_costs.items():
            if not (0.0 <= value < math.inf):
                raise EngineError(
                    f"base cost for kind {kind!r} must be finite and >= 0, got {value}"
                )

    def base(self, kind: str) -> float:
        try:
            return self.base_costs[kind]
        except KeyError:
            raise EngineError(f"cost model has no base cost for kind {kind!r}") from None


def default_cost_model() -> CostModel:
    return CostModel(base_costs=dict(DEFAULT_BASE_COSTS))


def _parse_open_tag(token: str, position: int) -> tuple[str, tuple[str, str] | None]:
    match = _TAG_NAME.match(token)
    if match is None:
        raise MalformedMarkup(position, f"invalid tag {token!r}")
    tag = match.group(0)
    rest = token[match.end():].strip()
    if not rest:
        return tag, None
    attr = _ATTRIBUTE.fullmatch(rest)
    if attr is not None:
        return tag, (attr.group(1), attr.group(2))
    if _ATTRIBUTE.match(rest):
        # A well-formed first attribute followed by more content means the
        # tag carries several attributes, which the grammar does not cover.
        raise UnsupportedConstruct(token)
    raise MalformedMarkup(position, f"cannot parse attributes in {token!r}")


def parse_document(text: str) -> DomForest:
    """Parse markup into a document tree rooted at a document-root node.

    Ids follow document order: each is assigned, and its slot in ``nodes``
    reserved, when its node is created; an element is frozen into its
    ``DomNode`` when it closes.
    """
    nodes: dict[str, DomNode | None] = {}

    def reserve(label: str) -> str:
        node_id = f"{len(nodes)}:{label}"
        nodes[node_id] = None
        return node_id

    def freeze(node: DomNode) -> DomNode:
        nodes[node.node_id] = node
        return node

    # Open elements as (id, tag, children); the bottom entry is the document root.
    stack: list[tuple[str, str, list[DomNode]]] = [(reserve("#document"), "#document", [])]
    i = 0
    length = len(text)
    while i < length:
        if text[i] == "<":
            end = text.find(">", i + 1)
            if end == -1:
                raise MalformedMarkup(i, "tag never closed by '>'")
            token = text[i + 1 : end]
            if token.startswith(("!", "?")):
                raise UnsupportedConstruct(f"<{token}>")
            if token.endswith("/") or not token.strip():
                raise UnsupportedConstruct(f"<{token}>")
            if token.startswith("/"):
                name = token[1:].strip()
                if len(stack) == 1:
                    raise MalformedMarkup(i, f"closing </{name}> with nothing open")
                if stack[-1][1] != name:
                    raise MalformedMarkup(
                        i, f"closing </{name}> but <{stack[-1][1]}> is open"
                    )
                node_id, tag, children = stack.pop()
                stack[-1][2].append(
                    freeze(DomNode(node_id, "element", tag, "", tuple(children)))
                )
            else:
                tag, attribute = _parse_open_tag(token, i)
                children = []
                stack.append((reserve(tag), tag, children))
                if attribute is not None:
                    name, value = attribute
                    children.append(
                        freeze(DomNode(reserve("@" + name), "attribute", name, value))
                    )
            i = end + 1
        else:
            nxt = text.find("<", i)
            if nxt == -1:
                nxt = length
            run = text[i:nxt]
            entity = _ENTITY.search(run)
            if entity is not None:
                raise UnsupportedConstruct(entity.group(0))
            content = run.strip()
            if content:
                stack[-1][2].append(
                    freeze(DomNode(reserve("#text"), "text", "#text", content))
                )
            i = nxt
    if len(stack) > 1:
        raise MalformedMarkup(length, f"<{stack[-1][1]}> never closed")
    node_id, label, children = stack.pop()
    root = freeze(DomNode(node_id, "document-root", label, "", tuple(children)))
    return DomForest(document_root=root, nodes=nodes)


def serialize_document(forest: DomForest) -> str:
    """Debug form of the forest; re-parsing it yields an isomorphic forest."""
    out: list[str] = []
    # Nodes still to render and closing tags still to write, last one first.
    stack: list[DomNode | str] = list(reversed(forest.document_root.children))
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.kind == "text":
            out.append(node.value)
        elif node.kind != "attribute":
            attrs = "".join(
                f' {c.label}="{c.value}"' for c in node.children if c.kind == "attribute"
            )
            out.append(f"<{node.label}{attrs}>")
            stack.append(f"</{node.label}>")
            stack.extend(c for c in reversed(node.children) if c.kind != "attribute")
    return "".join(out)


def device_root_id(device_id: str) -> str:
    return f"dev:{device_id}"


def build_game(
    forest: DomForest,
    devices: Sequence[DeviceProfile],
    cost_model: CostModel | None = None,
    delta: float = 0.0,
) -> GameInstance:
    """Merge the forest and the devices into one game.

    Each device gets an abstract tree root wired to every top-level document
    node, so every device reaches every node below the document root. A
    device's private entry edges use its own cost factor; every edge below
    the top level is shared by all devices and priced with the minimum
    factor. Players are (device, required component) pairs routing from the
    device root to the component.
    """
    model = cost_model or default_cost_model()
    devices = tuple(devices)
    seen_devices: set[str] = set()
    for device in devices:
        if device.device_id in seen_devices:
            raise EngineError(f"duplicate device id {device.device_id!r}")
        seen_devices.add(device.device_id)

    doc_id = forest.document_root.node_id
    for device in devices:
        for component in device.required_components:
            if component not in forest.nodes or component == doc_id:
                raise UnreachableComponent(device.device_id, component)

    nodes = [Node(n.node_id, n.kind) for n in forest.nodes.values()]
    nodes.extend(Node(device_root_id(d.device_id), "abstract") for d in devices)

    tops = forest.document_root.children if devices else ()
    below = [(src, forest.nodes[dst]) for src, dst in forest.edges() if src != doc_id]
    # Each child kind priced once, in edge order: a missing one fails at its first edge.
    price = {kind: model.base(kind) for kind in dict.fromkeys(
        [top.kind for top in tops] + [child.kind for _, child in below])}

    edges: list[Edge] = []
    for device in devices:
        dev = device_root_id(device.device_id)
        for top in tops:
            edges.append(Edge(f"{dev}>{top.node_id}", dev, top.node_id,
                              price[top.kind] * device.cost_factor))
    factor = min((d.cost_factor for d in devices), default=1.0)
    edges.extend([Edge(f"{src}>{child.node_id}", src, child.node_id, price[child.kind] * factor)
                  for src, child in below])

    players: list[Player] = []
    for device in devices:
        dev = device_root_id(device.device_id)
        for component in device.required_components:
            players.append(
                Player(len(players) + 1, dev, component,
                       label=f"{device.device_id}:{component}")
            )

    graph = build_graph(nodes, edges)
    return GameInstance(graph=graph, players=tuple(players), delta=delta)
