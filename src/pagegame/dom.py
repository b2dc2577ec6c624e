"""Markup parsing into a node forest and game construction from device profiles.

The parser accepts a deliberately tiny grammar: nesting tags, at most one
``name="value"`` attribute per tag, and plain text. Comments, doctypes,
self-closing tags, character entities (named, decimal or hexadecimal, in
text or in an attribute value), and multi-attribute tags are rejected as
unsupported rather than guessed at.

Node counting convention (fixed so a document maps to a predictable graph):
the document root is a node, each element is a node, an attribute is a
child node of its element, and each non-blank text run is a child node.
A parsed document therefore has exactly nodes-minus-one edges; the forest
keeps them as parent-child id pairs in pre-order, as the parser met them.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (
    EngineError,
    MalformedMarkup,
    UnreachableComponent,
    UnsupportedConstruct,
    printable,
)
from .game import Edge, GameInstance, Node, Player, build_graph

_TAG = re.compile(r"<([^>]*)>")
_TAG_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9-]*")
_ATTRIBUTE = re.compile(r'([a-zA-Z][a-zA-Z0-9-]*)\s*=\s*"([^"]*)"')
_ENTITY = re.compile(r"&[a-zA-Z][a-zA-Z0-9]*;|&#[0-9]+;|&#[xX][0-9a-fA-F]+;")

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
    """A parsed document: its root, every node by id in document order, and
    its parent-child id pairs in pre-order, as the parser met them, so
    ``pairs[j]`` ends at the node after the ``j``-th in ``nodes``."""

    document_root: DomNode
    nodes: dict[str, DomNode]
    pairs: tuple[tuple[str, str], ...]


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


def _read_tag(token: str) -> tuple[bool, str, tuple[str, str] | None]:
    """What a tag token, the text between ``<`` and ``>``, says wherever it
    stands: ``(True, name, None)`` for a closing tag, ``(False, tag,
    attribute)`` for an opening one. A malformed token raises
    ``MalformedMarkup`` with position -1, for the caller to place."""
    if token.startswith(("!", "?")):
        raise UnsupportedConstruct(f"<{token}>")
    if token.endswith("/") or not token.strip():
        raise UnsupportedConstruct(f"<{token}>")
    if token.startswith("/"):
        return True, token[1:].strip(), None
    match = _TAG_NAME.match(token)
    if match is None:
        raise MalformedMarkup(-1, f"invalid tag {token!r}")
    tag = match.group(0)
    rest = token[match.end():].strip()
    if not rest:
        return False, tag, None
    attr = _ATTRIBUTE.fullmatch(rest)
    if attr is not None:
        entity = _ENTITY.search(attr.group(2))
        if entity is not None:
            raise UnsupportedConstruct(entity.group(0))
        return False, tag, (attr.group(1), attr.group(2))
    if _ATTRIBUTE.match(rest):
        # A well-formed first attribute followed by more content means the
        # tag carries several attributes, which the grammar does not cover.
        raise UnsupportedConstruct(token)
    raise MalformedMarkup(-1, f"cannot parse attributes in {token!r}")


def parse_document(text: str) -> DomForest:
    """Parse markup into a document tree rooted at a document-root node.

    One split of the markup alternates text runs and tag tokens. Ids follow
    document order: each is assigned, its slot in ``nodes`` reserved and its
    parent pair recorded when its node is created; an element is frozen into
    its ``DomNode`` when it closes. Each distinct tag token is read once.
    """
    pieces = _TAG.split(text)
    last = pieces[-1]
    unclosed = last.find("<")  # only the last run can hold a '<' no '>' follows
    if unclosed != -1:
        pieces[-1] = last[:unclosed]
    pieces.append(None)  # past the last tag: the final run pairs with no token

    def offset(k: int) -> int:
        """Where the ``k``-th tag token's '<' stands in ``text``."""
        return sum(map(len, pieces[: 2 * k + 1])) + 2 * k

    new = tuple.__new__
    root_id = "0:#document"
    nodes: dict[str, DomNode | None] = {root_id: None}
    pairs: list[tuple[str, str]] = []
    tags: dict[str, tuple[bool, str, tuple[str, str] | None]] = {}
    # The open element as (id, tag, children), and the ones it sits in.
    node_id, tag, children = root_id, "#document", []
    stack: list[tuple[str, str, list[DomNode]]] = []
    pieces_iter = iter(pieces)
    for k, (run, token) in enumerate(zip(pieces_iter, pieces_iter)):
        if run:
            if "&" in run:
                entity = _ENTITY.search(run)
                if entity is not None:
                    raise UnsupportedConstruct(entity.group(0))
            content = run.strip()
            if content:
                text_id = f"{len(nodes)}:#text"
                node = nodes[text_id] = new(DomNode, (text_id, "text", "#text", content, ()))
                pairs.append((node_id, text_id))
                children.append(node)
        entry = tags.get(token)
        if entry is None:
            if token is None:
                if unclosed != -1:
                    raise MalformedMarkup(len(text) - len(last) + unclosed,
                                          "tag never closed by '>'")
                break
            try:
                entry = tags[token] = _read_tag(token)
            except MalformedMarkup as exc:
                raise MalformedMarkup(offset(k), exc.detail) from None
        closing, name, attribute = entry
        if closing:
            if not stack:
                raise MalformedMarkup(offset(k),
                                      f"closing {printable(f'</{name}>')} with nothing open")
            if name != tag:
                raise MalformedMarkup(offset(k),
                                      f"closing {printable(f'</{name}>')} but <{tag}> is open")
            node = nodes[node_id] = new(DomNode, (node_id, "element", tag, "", tuple(children)))
            node_id, tag, children = stack.pop()
            children.append(node)
        else:
            element_id = f"{len(nodes)}:{name}"
            nodes[element_id] = None
            pairs.append((node_id, element_id))
            stack.append((node_id, tag, children))
            node_id, tag, children = element_id, name, []
            if attribute is not None:
                name, value = attribute
                attribute_id = f"{len(nodes)}:@{name}"
                node = nodes[attribute_id] = new(
                    DomNode, (attribute_id, "attribute", name, value, ()))
                pairs.append((element_id, attribute_id))
                children.append(node)
    if stack:
        raise MalformedMarkup(len(text), f"<{tag}> never closed")
    root = nodes[root_id] = new(DomNode, (root_id, "document-root", tag, "", tuple(children)))
    return DomForest(document_root=root, nodes=nodes, pairs=tuple(pairs))


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

    new = tuple.__new__
    nodes = [new(Node, (n.node_id, n.kind)) for n in forest.nodes.values()]
    nodes += [new(Node, (device_root_id(d.device_id), "abstract")) for d in devices]

    tops = forest.document_root.children if devices else ()
    below = [(src, dst, node.kind) for (src, dst), node
             in zip(forest.pairs, itertools.islice(forest.nodes.values(), 1, None))
             if src != doc_id]
    # Each child kind priced once, in edge order: a missing one fails at its first edge.
    price = {kind: model.base(kind) for kind in dict.fromkeys(
        [top.kind for top in tops] + [kind for _, _, kind in below])}
    factor = min((d.cost_factor for d in devices), default=1.0)
    shared = {kind: cost * factor for kind, cost in price.items()}

    edges: list[Edge] = []
    for device in devices:
        dev = device_root_id(device.device_id)
        edges += [new(Edge, (f"{dev}>{top.node_id}", dev, top.node_id,
                             price[top.kind] * device.cost_factor)) for top in tops]
    edges += [new(Edge, (f"{src}>{dst}", src, dst, shared[kind])) for src, dst, kind in below]

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
