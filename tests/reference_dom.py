"""Reference markup parser: a character scan of the text, for cross-checking.

It walks the markup one tag or text run at a time, reads every open tag
afresh, and rebuilds the parent-child pairs from the finished tree's
``children`` tuples. It applies the same grammar as ``pagegame.dom``:
character entities (named, decimal and hexadecimal) are refused in text
runs and in attribute values alike.
"""

from __future__ import annotations

import re

from pagegame.dom import DomNode
from pagegame.errors import MalformedMarkup, UnsupportedConstruct

_TAG_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9-]*")
_ATTRIBUTE = re.compile(r'([a-zA-Z][a-zA-Z0-9-]*)\s*=\s*"([^"]*)"')
_ENTITY = re.compile(r"&[a-zA-Z][a-zA-Z0-9]*;|&#[0-9]+;|&#[xX][0-9a-fA-F]+;")


class ReferenceForest:
    """A parsed document: its root and every node by id, in document order."""

    def __init__(self, document_root: DomNode, nodes: dict[str, DomNode]):
        self.document_root = document_root
        self.nodes = nodes

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """Parent-child pairs in document order: ``nodes`` holds the ids in
        the pre-order they were reserved in, so each child follows its parent."""
        parents: dict[str, str] = {}
        pairs = []
        for node_id, node in self.nodes.items():
            if node_id in parents:
                pairs.append((parents[node_id], node_id))
            for child in node.children:
                parents[child.node_id] = node_id
        return tuple(pairs)


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
        entity = _ENTITY.search(attr.group(2))
        if entity is not None:
            raise UnsupportedConstruct(entity.group(0))
        return tag, (attr.group(1), attr.group(2))
    if _ATTRIBUTE.match(rest):
        raise UnsupportedConstruct(token)
    raise MalformedMarkup(position, f"cannot parse attributes in {token!r}")


def parse_document(text: str) -> ReferenceForest:
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
                # A closing token that is not printable is named by its repr.
                closing = f"</{name}>"
                if not closing.isprintable():
                    closing = repr(closing)
                if len(stack) == 1:
                    raise MalformedMarkup(i, f"closing {closing} with nothing open")
                if stack[-1][1] != name:
                    raise MalformedMarkup(
                        i, f"closing {closing} but <{stack[-1][1]}> is open"
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
    return ReferenceForest(root, nodes)
