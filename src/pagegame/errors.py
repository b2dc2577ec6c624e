"""Exception hierarchy shared by every engine module.

Each class carries the CLI exit code it maps onto, so raising the precise
class matters more than the message text.
"""


def printable(text: str) -> str:
    """``text`` as is when it is printable, else its ``repr``, so a message
    that names an id stays on one line."""
    return text if text.isprintable() else repr(text)


class EngineError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class GraphError(EngineError):
    """A graph failed structural validation."""


class NegativeCost(GraphError):
    """An edge cost outside ``[0, inf)``: negative, infinite or NaN."""

    def __init__(self, edge_id: str, cost: float):
        kind = "negative" if cost < 0.0 else "non-finite"
        super().__init__(f"edge {edge_id!r} has {kind} cost {cost}")
        self.edge_id = edge_id
        self.cost = cost


class DuplicateEdgeId(GraphError):
    def __init__(self, edge_id: str):
        super().__init__(f"edge id {edge_id!r} declared more than once")
        self.edge_id = edge_id


class DanglingEndpoint(GraphError):
    def __init__(self, edge_id: str, node_id: str):
        super().__init__(f"edge {edge_id!r} references unknown node {node_id!r}")
        self.edge_id = edge_id
        self.node_id = node_id


#: A cycle message names at most this many nodes in full.
_CYCLE_NODES_NAMED = 10


class CycleDetected(GraphError):
    """``nodes`` runs once round the cycle and repeats its first node last.
    A longer cycle's message names its first ``_CYCLE_NODES_NAMED`` nodes,
    an ellipsis, the closing node and the cycle's length; a node id that is
    not printable is named by its ``repr``."""

    def __init__(self, nodes: list[str]):
        length = len(nodes) - 1
        if length > _CYCLE_NODES_NAMED:
            named = " -> ".join(map(printable, [*nodes[:_CYCLE_NODES_NAMED], "...", nodes[-1]]))
            named += f" ({length} nodes)"
        else:
            named = " -> ".join(map(printable, nodes))
        super().__init__("directed cycle through nodes: " + named)
        self.nodes = list(nodes)


class ZeroLoad(EngineError):
    def __init__(self, load: int):
        super().__init__(f"edge load must be a positive integer, got {load}")
        self.load = load


class UnknownPlayer(EngineError):
    def __init__(self, player_id: int):
        super().__init__(f"no player with id {player_id}")
        self.player_id = player_id


class InvalidProfile(EngineError):
    def __init__(self, player_id, reason: str):
        super().__init__(f"invalid path for player {player_id}: {reason}")
        self.player_id = player_id
        self.reason = reason


class NoPath(EngineError):
    def __init__(self, player_id, root: str, leaf: str):
        super().__init__(
            f"player {player_id} has no directed path {root!r} -> {leaf!r}"
        )
        self.player_id = player_id
        self.root = root
        self.leaf = leaf


class NegativeDelta(EngineError):
    def __init__(self, delta: float):
        super().__init__(f"delta must be finite and >= 0, got {delta}")
        self.delta = delta


class SearchSpaceTooLarge(EngineError):
    exit_code = 4

    def __init__(self, size: int, cap: int, space: str = "profile space"):
        super().__init__(f"{space} has {size} entries, exceeding cap {cap}")
        self.size = size
        self.cap = cap


class NoEquilibria(EngineError):
    def __init__(self):
        super().__init__("catalog holds no equilibria")


class MalformedMarkup(EngineError):
    exit_code = 1

    def __init__(self, position: int, detail: str):
        super().__init__(f"malformed markup at offset {position}: {detail}")
        self.position = position
        self.detail = detail


class UnsupportedConstruct(EngineError):
    exit_code = 1

    def __init__(self, token: str):
        super().__init__(f"unsupported markup construct: {token!r}")
        self.token = token


class UnreachableComponent(EngineError):
    def __init__(self, device_id: str, node_id: str):
        super().__init__(
            f"device {device_id!r} cannot reach required component {node_id!r}"
        )
        self.device_id = device_id
        self.node_id = node_id


class MalformedInstance(EngineError):
    """The instance or report file does not follow the documented schema."""

    exit_code = 1
