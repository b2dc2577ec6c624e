"""Versioned JSON schema for game instance files.

An instance file carries either an explicit graph (``nodes`` + ``edges`` +
``players``) or an embedded document with device profiles (``document`` +
``devices`` and an optional ``cost_model``), never both. ``delta`` is
optional and defaults to 0. Schema violations raise
:class:`MalformedInstance`; semantic problems (negative or non-finite
costs and delta, cycles, missing paths) surface as the engine's validation
errors.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import threading
from typing import Any

from .dom import (
    CostModel,
    DEVICE_CLASS_FACTORS,
    DeviceProfile,
    build_game,
    default_cost_model,
    parse_document,
)
from .errors import MalformedInstance
from .game import Edge, GameInstance, Node, Player, build_graph

FORMAT_VERSION = 1

_EXPLICIT_KEYS = ("nodes", "edges", "players")
_DOCUMENT_KEYS = ("document", "devices")


def number(value: Any, message: str, *args) -> float:
    """A JSON number as a float, infinite past the float range; else malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedInstance(message % args)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class _Strings:
    """Field kind: a list of strings, read as a tuple."""


#: Default of a field that must be present.
_REQUIRED = object()

# Each record section's fields as ``(key, kind, default)``, in reading order.
# A missing cost_factor reads as None, since its default depends on the class.
_NODE_FIELDS = (("id", str, _REQUIRED), ("kind", str, _REQUIRED))
_EDGE_FIELDS = (("id", str, _REQUIRED), ("src", str, _REQUIRED), ("dst", str, _REQUIRED),
                ("cost", float, _REQUIRED))
_PLAYER_FIELDS = (("id", int, _REQUIRED), ("root", str, _REQUIRED), ("leaf", str, _REQUIRED),
                  ("label", str, ""))
_DEVICE_FIELDS = (("class", str, _REQUIRED), ("cost_factor", float, None),
                  ("required_components", _Strings, _REQUIRED), ("id", str, _REQUIRED),
                  ("orientation", str, "landscape"))


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise MalformedInstance(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is float:
        return number(value, "%s: %r must be a number", where, key)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MalformedInstance(f"{where}: {key!r} must be an integer")
        return value
    if kind is _Strings and isinstance(value, list):
        if not all(isinstance(item, str) for item in value):
            raise MalformedInstance(f"{where}: {key} must be strings")
        return tuple(value)
    if not isinstance(value, kind):
        raise MalformedInstance(f"{where}: {key!r} has wrong type")
    return value


def _records(obj: dict, section: str, fields):
    """The records of ``obj[section]`` one at a time, in file order, each as
    the list of its field values in table order. A value of the field's
    exact type is taken as is, and so is a missing field's default; anything
    else goes through ``_require``, which converts or rejects it."""
    for i, rec in enumerate(_require(obj, section, list, "instance")):
        if not isinstance(rec, dict):
            raise MalformedInstance(f"{section}[{i}] must be an object")
        values = []
        for key, kind, default in fields:
            value = rec.get(key, default)
            if type(value) is not kind and (default is _REQUIRED or key in rec):
                value = _require(rec, key, kind, f"{section}[{i}]")
            values.append(value)
        yield values


def parse_instance(obj: Any) -> GameInstance:
    """Build a validated game from a decoded instance document."""
    if not isinstance(obj, dict):
        raise MalformedInstance("instance file must hold a JSON object")
    version = _require(obj, "format_version", int, "instance")
    if version != FORMAT_VERSION:
        raise MalformedInstance(f"unsupported format_version {version}")
    delta = _require(obj, "delta", float, "instance") if "delta" in obj else 0.0

    explicit = any(key in obj for key in _EXPLICIT_KEYS)
    document = any(key in obj for key in _DOCUMENT_KEYS)
    if explicit and document:
        raise MalformedInstance("instance mixes explicit graph and document forms")
    if not explicit and not document:
        raise MalformedInstance("instance has neither graph nor document sections")

    if explicit:
        return _parse_explicit(obj, delta)
    return _parse_document_form(obj, delta)


def _parse_explicit(obj: dict, delta: float) -> GameInstance:
    for key in _EXPLICIT_KEYS:
        if key not in obj:
            raise MalformedInstance(f"explicit instance is missing {key!r}")
    if "cost_model" in obj:
        raise MalformedInstance("cost_model is only valid in the document form")

    nodes = [Node._make(values) for values in _records(obj, "nodes", _NODE_FIELDS)]
    edges = [Edge._make(values) for values in _records(obj, "edges", _EDGE_FIELDS)]
    players = [Player._make(values) for values in _records(obj, "players", _PLAYER_FIELDS)]
    graph = build_graph(nodes, edges)
    return GameInstance(graph=graph, players=tuple(players), delta=delta)


def _parse_document_form(obj: dict, delta: float) -> GameInstance:
    for key in _DOCUMENT_KEYS:
        if key not in obj:
            raise MalformedInstance(f"document instance is missing {key!r}")
    text = _require(obj, "document", str, "instance")
    # Each device is built, and so checked, before the next one is read.
    devices = [
        DeviceProfile(device_id, device_class,
                      DEVICE_CLASS_FACTORS.get(device_class, 0.0) if factor is None else factor,
                      components, orientation)
        for device_class, factor, components, device_id, orientation
        in _records(obj, "devices", _DEVICE_FIELDS)
    ]

    model = default_cost_model()
    if "cost_model" in obj:
        section = _require(obj, "cost_model", dict, "instance")
        overrides = _require(section, "base_costs", dict, "cost_model")
        base = dict(model.base_costs)
        for kind, value in overrides.items():
            base[str(kind)] = number(value, "cost_model: base cost for %r must be a number", kind)
        model = CostModel(base_costs=base)

    return build_game(parse_document(text), devices, cost_model=model, delta=delta)


#: Calls inside ``collector_paused`` functions, across threads, and whether
#: the collector was enabled when the first of them began.
_pause = {"depth": 0, "enabled": False}
_pause_lock = threading.Lock()


def collector_paused(function):
    """``function`` with Python's cyclic garbage collector paused during the
    call. Loading a game and running a command build large acyclic
    structures that reference counting frees; a collection in between only
    re-walks live objects, and whether a full one falls inside a given call
    depends on everything the process ran before it. Overlapping calls, in
    one thread or several, share one pause; the last to return restores
    the state the first one found."""

    @functools.wraps(function)
    def paused(*args, **kwargs):
        with _pause_lock:
            if not _pause["depth"]:
                _pause["enabled"] = gc.isenabled()
                gc.disable()
            _pause["depth"] += 1
        try:
            return function(*args, **kwargs)
        finally:
            with _pause_lock:
                _pause["depth"] -= 1
                if not _pause["depth"] and _pause["enabled"]:
                    gc.enable()

    return paused


def refuse_lone_surrogates(text: str, obj: Any) -> None:
    """Raise ``MalformedInstance`` when a string of ``obj``, key or value,
    decoded from the JSON ``text``, holds a lone surrogate: ``"\\ud800"`` is
    valid JSON but no text. Only a ``\\u`` escape or a non-ASCII character
    can decode to one, so a ``text`` with neither is not scanned."""
    if "\\u" not in text and text.isascii():
        return
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            try:
                item.encode("utf-8")
            except UnicodeEncodeError as exc:
                surrogate = exc.object[exc.start]
                raise MalformedInstance(f"not valid text: lone surrogate {surrogate!r}") from None
        elif isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)


@collector_paused
def instance_from_text(text: str) -> GameInstance:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise MalformedInstance(f"not valid JSON: {exc}") from None
    refuse_lone_surrogates(text, obj)
    return parse_instance(obj)


def load_instance(path: str) -> GameInstance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise MalformedInstance(f"cannot read instance file: {exc}") from None
    return instance_from_text(text)
