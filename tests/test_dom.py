import operator

import pytest

from pagegame import (
    CostModel,
    DeviceProfile,
    StrategyProfile,
    build_game,
    default_cost_model,
    enumerate_paths,
    page_cost,
    parse_document,
    serialize_document,
    validate_profile,
)
from pagegame.dom import DEFAULT_BASE_COSTS
from pagegame.errors import (
    EngineError,
    MalformedMarkup,
    UnreachableComponent,
    UnsupportedConstruct,
)

from gamegen import SAMPLE_DOCUMENT


# ---------------------------------------------------------------- parsing

def test_full_document_node_counts():
    forest = parse_document(SAMPLE_DOCUMENT)
    assert len(forest.nodes) == 11
    assert len(forest.pairs) == 10
    kinds = {}
    for node in forest.nodes.values():
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    assert kinds == {"document-root": 1, "element": 6, "attribute": 1, "text": 3}
    texts = sorted(n.value for n in forest.nodes.values() if n.kind == "text")
    assert texts == ["My header", "My link", "My title"]
    attr = next(n for n in forest.nodes.values() if n.kind == "attribute")
    assert (attr.label, attr.value) == ("href", "uri")


def test_minimal_document():
    forest = parse_document("<html></html>")
    assert len(forest.nodes) == 2
    assert len(forest.pairs) == 1


def test_multiple_top_level_elements_form_a_forest():
    forest = parse_document("<nav></nav><main></main>")
    assert len(forest.document_root.children) == 2


def test_unclosed_tag_is_malformed():
    with pytest.raises(MalformedMarkup) as err:
        parse_document("<html><body></html>")
    assert err.value.position >= 0


def test_missing_close_at_eof_is_malformed():
    with pytest.raises(MalformedMarkup):
        parse_document("<html><body>")


def test_tag_without_angle_close_is_malformed():
    with pytest.raises(MalformedMarkup):
        parse_document("<html")


def test_stray_closing_tag_is_malformed():
    with pytest.raises(MalformedMarkup):
        parse_document("</div>")


@pytest.mark.parametrize(
    "text",
    [
        "<!DOCTYPE html><html></html>",
        "<!-- note --><p></p>",
        "<br/>",
        "<p>caf&eacute;</p>",
        "<p>&#233;</p>",
        "<p>x &#x41; y</p>",
        '<p title="a &amp; b">x</p>',
        '<a href="x" rel="y"></a>',
        "<?xml version=\"1.0\"?><p></p>",
    ],
)
def test_unsupported_constructs_are_refused(text):
    with pytest.raises(UnsupportedConstruct):
        parse_document(text)


def test_plain_ampersand_in_text_is_fine():
    forest = parse_document("<p>fish & chips</p>")
    text = next(n for n in forest.nodes.values() if n.kind == "text")
    assert text.value == "fish & chips"


def test_bad_attribute_syntax_is_malformed():
    with pytest.raises(MalformedMarkup):
        parse_document("<a href=uri></a>")


def test_deeply_nested_document_loads():
    depth = 5000
    text = "<div>" * depth + "x" + "</div>" * depth
    forest = parse_document(text)
    assert serialize_document(forest) == text
    text_id = f"{depth + 1}:#text"
    assert len(forest.nodes) == depth + 2
    assert forest.pairs[-1] == (f"{depth}:div", text_id)
    instance = build_game(forest, [DeviceProfile("d", "pc", 1.0, (text_id,))])
    assert len(instance.graph.edges) == depth + 1
    assert [p.leaf for p in instance.players] == [text_id]


# ---------------------------------------------------------------- round trip

def _shape(node):
    return (node.kind, node.label, node.value, tuple(_shape(c) for c in node.children))


def _preorder_edges(forest):
    """Reference for ``DomForest.pairs``: parent-child pairs from a stack
    walk of the tree from the document root."""
    root = forest.document_root
    stack = [(root.node_id, child) for child in reversed(root.children)]
    pairs = []
    while stack:
        parent_id, node = stack.pop()
        pairs.append((parent_id, node.node_id))
        stack.extend((node.node_id, child) for child in reversed(node.children))
    return pairs


def test_round_trip_is_isomorphic():
    for text in (
        SAMPLE_DOCUMENT,
        "<html></html>",
        '<div id="x"><p>one</p><p>two</p></div>',
        "<a>first</a><b>second</b>",
    ):
        forest = parse_document(text)
        again = parse_document(serialize_document(forest))
        assert _shape(again.document_root) == _shape(forest.document_root)
        assert set(again.nodes) == set(forest.nodes)


def _documents(st):
    """Documents in the README's subset: nested tags with at most one
    attribute, and text runs, none holding a character entity."""
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    names = st.builds(operator.add, st.sampled_from(letters),
                      st.text(letters + "0123456789-", max_size=4))
    texts = st.text(st.characters(codec="utf-8", exclude_characters="<&"),
                    min_size=1, max_size=6)
    values = st.text(st.characters(codec="utf-8", exclude_characters='">&'), max_size=6)
    attributes = st.one_of(st.just(""), st.builds(' {}="{}"'.format, names, values))

    def elements(children):
        return st.builds(
            lambda tag, attribute, inner: f"<{tag}{attribute}>{''.join(inner)}</{tag}>",
            names, attributes, st.lists(children, max_size=4))

    return st.lists(st.recursive(texts, elements, max_leaves=16), max_size=4).map("".join)


def test_round_trip_property():
    # Re-parsing the serialized forest gives the same shape and the same
    # node ids, in document order.
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(_documents(hypothesis.strategies))
    def check(text):
        forest = parse_document(text)
        again = parse_document(serialize_document(forest))
        assert _shape(again.document_root) == _shape(forest.document_root)
        assert list(again.nodes) == list(forest.nodes)
        assert list(forest.pairs) == _preorder_edges(forest)

    check()


# ---------------------------------------------------------------- reference parser

def _outcome(parse, text):
    """A parse's forest as its nodes in order and its edges, or its error as
    type, message and position."""
    try:
        forest = parse(text)
    except EngineError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return list(forest.nodes.items()), list(forest.pairs)


#: One document per way the parser can refuse markup, in its order of checks.
_REFUSED = [
    ("<p>x</p><b", MalformedMarkup),        # a '<' that no '>' follows
    ("<p><!x></p>", UnsupportedConstruct),  # comment or doctype
    ("<p>x<?y?></p>", UnsupportedConstruct),
    ("<p><br/></p>", UnsupportedConstruct),  # self-closing
    ("<p>< ></p>", UnsupportedConstruct),    # blank tag
    ("x</p>", MalformedMarkup),              # closing with nothing open
    ("<p><b>x</p></b>", MalformedMarkup),    # closing the wrong element
    ("<p><1a></1a></p>", MalformedMarkup),   # invalid tag name
    ('<a href="x" b="y">', UnsupportedConstruct),  # several attributes
    ("<a href=x></a>", MalformedMarkup),     # unparsable attribute
    ('<a href="&#x41;"></a>', UnsupportedConstruct),  # entity in a value
    ("<p>a &b; c</p>", UnsupportedConstruct),  # entity in text
    ("<p><b>x</b>", MalformedMarkup),        # element never closed
]


@pytest.mark.parametrize("text, error", _REFUSED)
def test_refusals_match_the_reference_parser(text, error):
    import reference_dom

    outcome = _outcome(parse_document, text)
    assert outcome[0] is error
    assert outcome == _outcome(reference_dom.parse_document, text)


@pytest.mark.parametrize("text, message", [
    ("</a\nb>", "closing '</a\\nb>' with nothing open"),
    ("<p>hi</a\nb></p>", "closing '</a\\nb>' but <p> is open"),
    ("<p>hi</a ></p>", "closing </a> but <p> is open"),
])
def test_closing_tag_message_is_one_line(text, message):
    # A closing token that is not printable is named by its repr.
    import reference_dom

    for parse in (parse_document, reference_dom.parse_document):
        with pytest.raises(MalformedMarkup) as err:
            parse(text)
        assert err.value.detail == message


def test_mutated_documents_match_the_reference_parser():
    # Documents from the round-trip strategy, then up to four insertions,
    # deletions or swaps of markup characters, letters and spaces. An
    # insertion may also be a whole entity or tag opening, and may go just
    # after a '<' or a '"', so into a tag; a deletion may cut the document
    # short. The engine and the character-scan reference must build the
    # same forest or refuse with the same error at the same position. The
    # 500 examples nearly always reach every refusal in ``_REFUSED``.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import reference_dom

    marks = st.one_of(st.sampled_from('<>/="&!?;# abx1'),
                      st.sampled_from(("&a;", "&#1;", "&#xA;", "<!", "<?", "/>", "</")))
    kinds = ("insert", "anchored", "anchored", "delete", "cut", "swap")
    edits = st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 1 << 16),
                               st.integers(0, 1 << 16), marks),
                     min_size=1, max_size=4)

    def mutate(text, steps):
        chars = list(text)
        for kind, at, other, mark in steps:
            anchors = [i + 1 for i, char in enumerate(chars) if char in '<"']
            if kind == "anchored" and anchors:
                chars.insert(anchors[at % len(anchors)], mark)
            elif kind in ("insert", "anchored") or not chars:
                chars.insert(at % (len(chars) + 1), mark)
            elif kind == "delete":
                del chars[at % len(chars)]
            elif kind == "cut":
                del chars[at % len(chars):]
            else:
                at, other = at % len(chars), other % len(chars)
                chars[at], chars[other] = chars[other], chars[at]
        return "".join(chars)

    @hypothesis.settings(max_examples=500, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(st.builds(mutate, _documents(st), edits))
    def check(text):
        assert _outcome(parse_document, text) == _outcome(reference_dom.parse_document, text)

    check()


# ---------------------------------------------------------------- levels

def test_text_nodes_sit_on_the_boundary_level():
    forest = parse_document(SAMPLE_DOCUMENT)
    others = [nid for nid in forest.nodes if nid != forest.document_root.node_id]
    device = DeviceProfile("d", "pc", 1.0, tuple(others))
    instance = build_game(forest, [device])
    depth = {
        p.leaf: len(enumerate_paths(instance.graph, p.root, p.leaf)[0])
        for p in instance.players
    }
    deepest = max(depth.values())
    texts = {nid for nid, n in forest.nodes.items() if n.kind == "text"}
    assert texts <= {nid for nid, d in depth.items() if d == deepest}


# ---------------------------------------------------------------- devices

def test_device_profile_validation():
    with pytest.raises(EngineError):
        DeviceProfile("d", "watch", 1.0, ())
    with pytest.raises(EngineError):
        DeviceProfile("d", "pc", 1.0, (), orientation="diagonal")
    with pytest.raises(EngineError):
        DeviceProfile("d", "pc", 0.0, ())


def test_default_cost_model_values():
    model = default_cost_model()
    assert model.base("element") == 1.0
    assert model.base("text") == 0.5
    assert model.base("attribute") == 0.25
    assert model.base("abstract") == 0.0


# ---------------------------------------------------------------- build_game

def test_linear_tree_single_player():
    forest = parse_document("<main><section><article></article></section></main>")
    device = DeviceProfile("pc1", "pc", 1.0, ("3:article",))
    instance = build_game(forest, [device])
    assert len(instance.players) == 1
    player = instance.players[0]
    paths = enumerate_paths(instance.graph, player.root, player.leaf)
    assert len(paths) == 1
    profile = StrategyProfile({player.player_id: paths[0]})
    assert page_cost(instance.graph, profile) == 3.0


def test_shared_subtree_uses_minimum_factor():
    forest = parse_document("<html><body><h1>head</h1></body></html>")
    pc = DeviceProfile("desk", "pc", 1.0, ("3:h1",))
    mobile = DeviceProfile("phone", "mobile", 1.5, ("3:h1",))
    instance = build_game(forest, [pc, mobile])
    graph = instance.graph

    # Private entry edges carry each device's own factor.
    assert graph.edge("dev:desk>1:html").cost == 1.0
    assert graph.edge("dev:phone>1:html").cost == 1.5
    # Shared component edges take the minimum owning factor.
    assert graph.edge("1:html>2:body").cost == 1.0
    assert graph.edge("2:body>3:h1").cost == 1.0

    paths = {
        p.player_id: enumerate_paths(graph, p.root, p.leaf)[0] for p in instance.players
    }
    shared = {"1:html>2:body", "2:body>3:h1"}
    for path in paths.values():
        assert shared <= set(path)


def test_document_game_round_trips_through_instance_file():
    from pagegame.instance import parse_instance

    devices = [
        DeviceProfile("desk", "pc", 1.0, ("4:#text", "7:#text")),
        DeviceProfile("phone", "mobile", 1.5, ("4:#text",)),
    ]
    direct = build_game(parse_document(SAMPLE_DOCUMENT), devices, delta=0.5)

    obj = {
        "format_version": 1,
        "delta": 0.5,
        "document": SAMPLE_DOCUMENT,
        "devices": [
            {
                "id": "desk",
                "class": "pc",
                "cost_factor": 1.0,
                "required_components": ["4:#text", "7:#text"],
            },
            {
                "id": "phone",
                "class": "mobile",
                "required_components": ["4:#text"],
            },
        ],
    }
    loaded = parse_instance(obj)

    assert loaded.delta == direct.delta
    assert set(loaded.graph.nodes) == set(direct.graph.nodes)
    assert {(e.edge_id, e.src, e.dst, e.cost) for e in loaded.graph.edges} == {
        (e.edge_id, e.src, e.dst, e.cost) for e in direct.graph.edges
    }
    assert loaded.players == direct.players

    # The built game passes core validation end to end.
    for p in loaded.players:
        assert enumerate_paths(loaded.graph, p.root, p.leaf)
    profile = StrategyProfile(
        {
            p.player_id: enumerate_paths(loaded.graph, p.root, p.leaf)[0]
            for p in loaded.players
        }
    )
    validate_profile(loaded.graph, loaded.players, profile)


def test_unreachable_component_rejected():
    forest = parse_document("<html><body></body></html>")
    ghost = DeviceProfile("d", "pc", 1.0, ("9:ghost",))
    with pytest.raises(UnreachableComponent):
        build_game(forest, [ghost])
    to_root = DeviceProfile("d", "pc", 1.0, ("0:#document",))
    with pytest.raises(UnreachableComponent):
        build_game(forest, [to_root])


def test_duplicate_device_ids_rejected():
    forest = parse_document("<html></html>")
    dev = DeviceProfile("d", "pc", 1.0, ("1:html",))
    with pytest.raises(EngineError):
        build_game(forest, [dev, dev])


def test_raising_factor_never_cheapens_owned_edges():
    forest = parse_document("<html><body><h1>x</h1></body></html>")
    lo = build_game(forest, [DeviceProfile("d", "pc", 1.0, ("3:h1",))])
    hi = build_game(forest, [DeviceProfile("d", "pc", 2.0, ("3:h1",))])
    for edge in lo.graph.edges:
        assert hi.graph.edge(edge.edge_id).cost >= edge.cost


def test_raising_other_factor_keeps_shared_minimum():
    forest = parse_document("<html><body><h1>x</h1></body></html>")
    base = [
        DeviceProfile("a", "pc", 1.0, ("3:h1",)),
        DeviceProfile("b", "mobile", 1.5, ("3:h1",)),
    ]
    bumped = [
        DeviceProfile("a", "pc", 1.0, ("3:h1",)),
        DeviceProfile("b", "mobile", 3.0, ("3:h1",)),
    ]
    before = build_game(forest, base)
    after = build_game(forest, bumped)
    assert after.graph.edge("1:html>2:body").cost == before.graph.edge("1:html>2:body").cost


def test_custom_cost_model_applies():
    forest = parse_document("<main><p>t</p></main>")
    model = CostModel(
        base_costs={"element": 2.0, "text": 1.0, "attribute": 0.5, "abstract": 0.0,
                    "document-root": 0.0}
    )
    instance = build_game(forest, [DeviceProfile("d", "pc", 1.0, ("3:#text",))], model)
    assert instance.graph.edge("dev:d>1:main").cost == 2.0
    assert instance.graph.edge("2:p>3:#text").cost == 1.0


def test_missing_base_cost_names_the_first_edge_child_kind():
    # Device entry edges come first, then the document's edges in order.
    without = {k: v for k, v in DEFAULT_BASE_COSTS.items() if k not in ("text", "attribute")}
    model = CostModel(base_costs=without)
    device = DeviceProfile("d", "pc", 1.0, ())
    cases = [
        ('top<a href="u">x</a>', [device], "text"),
        ('top<a href="u">x</a>', [], "attribute"),
        ('<a href="u">x</a>', [device], "attribute"),
        ('<b>x</b><a href="u"></a>', [device], "text"),
        ('<a href="u"></a>top', [device], "text"),
        ('<a href="u"></a>top', [], "attribute"),
    ]
    for text, devices, kind in cases:
        with pytest.raises(EngineError) as err:
            build_game(parse_document(text), devices, model)
        assert type(err.value) is EngineError
        assert str(err.value) == f"cost model has no base cost for kind {kind!r}"


def test_cost_model_needs_no_document_root_price():
    forest = parse_document(SAMPLE_DOCUMENT)
    devices = [DeviceProfile("d", "pc", 1.0, ("4:#text",)),
               DeviceProfile("m", "mobile", 1.5, ("7:#text",))]
    without = {k: v for k, v in DEFAULT_BASE_COSTS.items() if k != "document-root"}
    built = build_game(forest, devices, CostModel(base_costs=without))
    assert built.graph.edges == build_game(forest, devices).graph.edges
