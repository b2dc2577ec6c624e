import inspect
import math
import random
import time
import tracemalloc

import pytest

from pagegame import (
    DeviceProfile,
    GameInstance,
    Player,
    StrategyProfile,
    analyze,
    build_game,
    build_graph,
    cost_report,
    enumerate_paths,
    page_cost,
    parse_document,
    player_cost,
    potential,
    run_dynamics,
    shapley_share,
    validate_players,
    validate_profile,
)
from pagegame.errors import (
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

from pagegame import game
from pagegame.dom import DomNode
from pagegame.dynamics import Step
from pagegame.game import Edge, Node, ordered_sum
from pagegame.instance import load_instance

import golden_corpus

from gamegen import (
    SAMPLE_DOCUMENT, DELTAS, all_profiles, build_d1, corpus, first_path_profile,
    random_instance, reachable_from, search_log,
)
from reference_dynamics import load_map

TOL = 1e-9


# ---------------------------------------------------------------- graphs

def test_document_graph_counts():
    # The 11 document nodes plus one device root; the device's entry edge
    # replaces the document root's single edge, which no player can use.
    device = DeviceProfile("d", "pc", 1.0, ("4:#text",))
    graph = build_game(parse_document(SAMPLE_DOCUMENT), [device]).graph
    assert len(graph.nodes) == 12
    assert len(graph.edges) == 10


def test_empty_graph_is_valid():
    graph = build_graph([], [])
    assert len(graph.nodes) == 0
    assert graph.edges == ()


def test_negative_cost_rejected():
    with pytest.raises(NegativeCost) as err:
        build_graph([("r", "abstract"), ("l", "abstract")], [("a", "r", "l", -1.0)])
    assert err.value.edge_id == "a"


def test_nan_cost_rejected():
    with pytest.raises(NegativeCost):
        build_graph([("r", "abstract"), ("l", "abstract")], [("a", "r", "l", math.nan)])


def test_edge_costs_whose_total_overflows_are_rejected():
    # Each cost is finite but their total is not: such a graph gave a false
    # NoPath in run_dynamics and a failed assertion in analyze.
    chain = [("a", "abstract"), ("b", "abstract"), ("c", "abstract")]
    with pytest.raises(GraphError, match="edge costs too large"):
        build_graph(chain, [("x", "a", "b", 1e308), ("y", "b", "c", 1e308)])
    # Just inside the float range the graph solves and analyzes.
    graph = build_graph(
        chain, [("x", "a", "b", 4e307), ("y", "b", "c", 4e307), ("z", "a", "c", 9e307)])
    players = (Player(1, "a", "c"),)
    assert run_dynamics(graph, players).final_profile.paths == {1: ("x", "y")}
    assert analyze(graph, players).optimum_cost == 8e307
    # The instance still refuses costs whose sums over its players overflow.
    with pytest.raises(GraphError, match="edge costs too large"):
        GameInstance(graph, players + (Player(2, "a", "c"),))


def test_duplicate_edge_id_rejected():
    with pytest.raises(DuplicateEdgeId):
        build_graph(
            [("r", "abstract"), ("l", "abstract")],
            [("a", "r", "l", 1.0), ("a", "r", "l", 2.0)],
        )


def test_dangling_endpoint_rejected():
    with pytest.raises(DanglingEndpoint) as err:
        build_graph([("r", "abstract")], [("a", "r", "ghost", 1.0)])
    assert err.value.node_id == "ghost"


def test_cycle_rejected_with_node_list():
    with pytest.raises(CycleDetected) as err:
        build_graph(
            [("x", "abstract"), ("y", "abstract"), ("z", "abstract")],
            [("e1", "x", "y", 1.0), ("e2", "y", "z", 1.0), ("e3", "z", "x", 1.0)],
        )
    assert set(err.value.nodes) >= {"x", "y", "z"}


def test_cycle_error_names_one_cycle_exactly():
    # An acyclic prefix (p, q) feeds two cycles, m-n-o and d-e-f, and c hangs
    # below both. The walk back starts at the least leftover node, c, and
    # always steps to the least predecessor: c, e, d, f, then e again.
    nodes = [(n, "abstract") for n in "pqmnodefc"]
    edges = [
        ("pm", "p", "m", 1.0), ("mn", "m", "n", 1.0), ("no", "n", "o", 1.0),
        ("om", "o", "m", 1.0), ("qd", "q", "d", 1.0), ("de", "d", "e", 1.0),
        ("ef", "e", "f", 1.0), ("fd", "f", "d", 1.0), ("nc", "n", "c", 1.0),
        ("ec", "e", "c", 1.0), ("pq", "p", "q", 1.0),
    ]
    with pytest.raises(CycleDetected) as err:
        build_graph(nodes, edges)
    assert err.value.nodes == ["e", "f", "d", "e"]
    assert str(err.value) == "directed cycle through nodes: e -> f -> d -> e"


def test_long_cycle_is_found_in_linear_time():
    # A 20,000-node cycle fed by an acyclic lead-in, with a 1,000-node tail
    # hanging off it whose last node is the least leftover one: the walk back
    # runs up the tail, enters the cycle at c05000 and goes once round it.
    n = 20_000
    cycle = [f"c{i:05d}" for i in range(n)]
    tail = [f"a{k:05d}" for k in range(999, -1, -1)]
    nodes = [(v, "abstract") for v in ["s0", "s1", *cycle, *tail]]
    edges = [("s0s1", "s0", "s1", 1.0), ("s1c", "s1", "c00000", 1.0)]
    edges += [(f"e{i}", cycle[i], cycle[(i + 1) % n], 1.0) for i in range(n)]
    edges += [(f"t{k}", src, dst, 1.0)
              for k, (src, dst) in enumerate(zip(["c05000", *tail], tail))]
    started = time.perf_counter()
    with pytest.raises(CycleDetected) as err:
        build_graph(nodes, edges)
    assert time.perf_counter() - started < 2.0  # a list-membership walk takes about 4 s
    assert err.value.nodes == [cycle[(5000 + i) % n] for i in range(n + 1)]


def test_long_cycle_message_is_one_short_line():
    n = 5_000
    cycle = [f"c{i}" for i in range(n)]
    edges = [(f"e{i}", cycle[i], cycle[(i + 1) % n], 1.0) for i in range(n)]
    with pytest.raises(CycleDetected) as err:
        build_graph([(v, "abstract") for v in cycle], edges)
    assert err.value.nodes == [*cycle, "c0"]
    message = str(err.value)
    assert "\n" not in message and len(message) < 1024
    assert message == ("directed cycle through nodes: "
                       "c0 -> c1 -> c2 -> c3 -> c4 -> c5 -> c6 -> c7 -> c8 -> c9"
                       " -> ... -> c0 (5000 nodes)")
    # Up to ten nodes the cycle is named in full.
    ten = [f"c{i}" for i in range(10)]
    with pytest.raises(CycleDetected) as err:
        build_graph([(v, "abstract") for v in ten],
                    [(f"e{i}", ten[i], ten[(i + 1) % 10], 1.0) for i in range(10)])
    assert str(err.value) == "directed cycle through nodes: " + " -> ".join([*ten, "c0"])


def test_duplicate_edge_id_wins_over_a_dangling_endpoint():
    nodes = [("r", "abstract"), ("l", "abstract")]
    with pytest.raises(DuplicateEdgeId) as err:
        build_graph(nodes, [("a", "r", "l", 1.0), ("a", "r", "ghost", 1.0)])
    assert str(err.value) == "edge id 'a' declared more than once"
    # The source is checked before the head.
    with pytest.raises(DanglingEndpoint) as err:
        build_graph(nodes, [("a", "ghost", "phantom", 1.0)])
    assert str(err.value) == "edge 'a' references unknown node 'ghost'"
    # A dangling edge wins over a negative cost, on it or on a later edge.
    with pytest.raises(DanglingEndpoint):
        build_graph(nodes, [("a", "r", "ghost", -1.0), ("b", "r", "l", -1.0)])


def test_unknown_kind_wins_over_a_duplicate_node():
    with pytest.raises(GraphError) as err:
        build_graph([("r", "abstract"), ("r", "mystery")], [])
    assert str(err.value) == "node 'r' has unknown kind 'mystery'"
    with pytest.raises(GraphError) as err:
        build_graph([("r", "abstract"), ("r", "element"), ("s", "mystery")], [])
    assert str(err.value) == "node id 'r' declared more than once"
    # Node errors win over edge errors.
    with pytest.raises(GraphError) as err:
        build_graph([("r", "mystery")], [("a", "r", "ghost", -1.0)])
    assert str(err.value) == "node 'r' has unknown kind 'mystery'"


def test_total_overflow_is_checked_after_every_edge_and_before_cycles():
    nodes = [("a", "abstract"), ("b", "abstract")]
    big = [("x", "a", "b", 1e308), ("y", "b", "a", 1e308)]
    with pytest.raises(GraphError) as err:
        build_graph(nodes, big)
    assert type(err.value) is GraphError
    assert str(err.value) == "edge costs too large: their total overflows"
    with pytest.raises(NegativeCost) as err:
        build_graph(nodes, big + [("z", "a", "b", -1.0)])
    assert str(err.value) == "edge 'z' has negative cost -1.0"


def test_unknown_node_kind_rejected():
    with pytest.raises(GraphError):
        build_graph([("r", "mystery")], [])


def test_duplicate_node_id_rejected():
    with pytest.raises(GraphError):
        build_graph([("r", "abstract"), ("r", "element")], [])


def test_parallel_edges_are_distinct():
    graph = build_d1().graph
    assert graph.edge("a").cost == 1.0
    assert graph.edge("b").cost == 3.0
    assert len(graph.edges) == 2


def _index_graphs():
    for name, path in golden_corpus.games().items():
        yield name, load_instance(str(path)).graph
    for inst in corpus(40, base_seed=2500):
        yield "gamegen", inst.graph


def test_index_agrees_with_graph():
    # Against a plain scan of graph.edges, not out_edges: out_edges reads
    # outs, and the reference searches in the tests read out_edges.
    for name, graph in _index_graphs():
        order = graph.topo_order
        assert list(graph.node_position) == list(order), name
        assert graph.node_position == {node: v for v, node in enumerate(order)}, name
        assert graph.edge_ids == tuple(e.edge_id for e in graph.edges), name
        assert graph.edge_position == {e.edge_id: i for i, e in enumerate(graph.edges)}, name
        assert graph.costs == tuple(e.cost for e in graph.edges), name
        assert [order[v] for v in graph.heads] == [e.dst for e in graph.edges], name
        for v, node in enumerate(order):
            scanned = sorted(e.edge_id for e in graph.edges if e.src == node)
            assert [graph.edge_ids[e] for e in graph.outs[v]] == scanned, name
            assert [e.edge_id for e in graph.out_edges(node)] == scanned, name
            ins = [(graph.edge_ids[e], order[u]) for e, u in graph.ins[v]]
            assert ins == [(e.edge_id, e.src) for e in graph.edges if e.dst == node], name
        for edge in graph.edges:
            assert graph.edge(edge.edge_id) is edge, name
            assert order.index(edge.src) < order.index(edge.dst), name
        assert graph.positions(graph.edge_ids) == tuple(range(len(graph.edges))), name
        with pytest.raises(GraphError, match="'no-such-edge'"):
            graph.positions([graph.edge_ids[0], "no-such-edge"])


def _plan_by_search(graph, reach, root, leaf):
    """``between``'s plan from ``reach``, each node's plain forward search."""
    position = graph.node_position
    return tuple(sorted(
        (position[u] for u in reach[root] if u != leaf and leaf in reach[u]), reverse=True))


def test_plan_is_the_nodes_on_some_root_leaf_path():
    for name, graph in _index_graphs():
        order = graph.topo_order
        reach = {node: reachable_from(graph, node) for node in order}
        for root in order:
            for leaf in order:
                plan = graph.between(root, leaf)
                assert plan == _plan_by_search(graph, reach, root, leaf), (name, root, leaf)
                assert graph.between(root, leaf) is plan, name
        assert graph.between(order[0], "no-such-node") == ()
        assert graph.between("no-such-node", order[-1]) == ()


def _path_counts_to(graph, leaf):
    """Each node's number of paths to ``leaf``, capped at 2, from a plain
    pass over ``out_edges`` in reversed topological order."""
    counts = {leaf: 1}
    for node in reversed(graph.topo_order):
        if node != leaf:
            counts[node] = min(2, sum(counts[e.dst] for e in graph.out_edges(node)))
    return counts


def test_only_path_is_the_pairs_one_path():
    # Only a pair with exactly one path has one, given as each of its nodes'
    # one out-edge on it: parallel edges are two paths, and a node is no path
    # to itself.
    for name, graph in _index_graphs():
        order = graph.topo_order
        for leaf in order:
            counts = _path_counts_to(graph, leaf)
            for root in order:
                expected = None
                if root != leaf and counts[root] == 1:
                    expected, node = {}, root
                    while node != leaf:
                        edge = next(e for e in graph.out_edges(node) if counts[e.dst])
                        expected[graph.node_position[node]] = graph.positions([edge.edge_id])
                        node = edge.dst
                assert graph.only_path(root, leaf) == expected, (name, root, leaf)
                if expected:
                    assert graph.only_path(root, leaf) is graph.only_path(root, leaf)
    assert graph.only_path(order[0], "no-such-node") is None
    assert graph.only_path("no-such-node", order[-1]) is None


def test_path_count_equals_the_listing():
    # Every ordered pair of each gamegen graph, a node with itself and
    # unreachable leaves included.
    for inst in corpus(40, base_seed=2500):
        graph, order = inst.graph, inst.graph.topo_order
        for root in order:
            for leaf in order:
                listed = enumerate_paths(graph, root, leaf)
                assert graph.path_count(root, leaf) == len(listed), (root, leaf)
    assert graph.path_count(order[0], "no-such-node") == 0
    assert graph.path_count("no-such-node", order[-1]) == 0
    assert graph.path_count("no-such-node", "no-such-node") == 0


# ---------------------------------------------------------------- records

# The records built once per graph element or activation, with sample fields.
RECORDS = [
    (Node, ("a", "element")),
    (Edge, ("e", "a", "b", 1.5)),
    (Player, (1, "r", "l", "desk:l")),
    (DomNode, ("1:p", "element", "p", "", (DomNode("2:#text", "text", "#text", "x"),))),
    (Step, (1, 2, 3.0, 2.0, 5.0, True, ("e",))),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls,values", RECORDS, ids=RECORD_IDS)
def test_records_are_immutable_values(cls, values):
    fields = list(inspect.signature(cls).parameters)
    record, twin = cls(*values), cls(*values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(twin, field))
    assert record == twin and hash(record) == hash(twin) and record is not twin
    assert [getattr(record, field) for field in fields] == list(values)
    # A field named like a tuple method would shadow it on a named tuple.
    assert not set(fields) & set(dir(tuple))


@pytest.mark.parametrize("cls,values", RECORDS, ids=RECORD_IDS)
def test_records_are_named_tuples(cls, values):
    record = cls(*values)
    assert record == values and tuple(record) == values
    first, *rest = record
    assert (first, *rest) == values
    changed = record._replace(**{record._fields[0]: values[1]})
    assert changed[0] == values[1] and changed[1:] == values[1:]


# ---------------------------------------------------------------- load map

def test_load_map_shared_edge(d1):
    assert load_map(StrategyProfile({1: ("a",), 2: ("a",)})) == {"a": 2}


def test_load_map_split(d1):
    assert load_map(StrategyProfile({1: ("a",), 2: ("b",)})) == {"a": 1, "b": 1}


def test_load_map_matches_naive_tally():
    # Oracle: count each edge id by scanning every path independently.
    for seed in range(12):
        inst = random_instance(700 + seed)
        profile = first_path_profile(inst)
        loads = load_map(profile)
        every_edge = {e.edge_id for e in inst.graph.edges}
        for edge_id in every_edge:
            expected = sum(path.count(edge_id) for path in profile.paths.values())
            if expected:
                assert loads[edge_id] == expected
            else:
                assert edge_id not in loads
        assert sum(loads.values()) == sum(len(p) for p in profile.paths.values())


# ---------------------------------------------------------------- page cost

def test_page_cost_shared(d1):
    assert page_cost(d1.graph, StrategyProfile({1: ("a",), 2: ("a",)})) == 1.0


def test_page_cost_split(d1):
    assert page_cost(d1.graph, StrategyProfile({1: ("a",), 2: ("b",)})) == 4.0


def test_page_cost_matches_set_union_oracle():
    for seed in range(12):
        inst = random_instance(760 + seed)
        for profile in list(all_profiles(inst))[:40]:
            union = set()
            for path in profile.paths.values():
                union |= set(path)
            expected = sum(inst.graph.edge(e).cost for e in sorted(union))
            assert abs(page_cost(inst.graph, profile) - expected) <= TOL


# ---------------------------------------------------------------- shares

def test_share_direct():
    assert shapley_share(6.0, 3) == 2.0


def test_share_identity_load_one():
    for cost in (0.0, 0.25, 1.0, 17.5):
        assert shapley_share(cost, 1) == cost


def test_share_zero_load_rejected():
    with pytest.raises(ZeroLoad):
        shapley_share(1.0, 0)


def test_budget_balance_on_random_profiles():
    # Oracle: sum shapley_share over (player, edge) incidences; must equal
    # the page cost because each edge's shares add back to its cost.
    for seed in range(15):
        inst = random_instance(820 + seed)
        for profile in list(all_profiles(inst))[:30]:
            loads = load_map(profile)
            total = sum(
                shapley_share(inst.graph.edge(e).cost, loads[e])
                for _, path in profile.items()
                for e in path
            )
            assert abs(total - page_cost(inst.graph, profile)) <= TOL


def test_share_bounds():
    for seed in range(10):
        inst = random_instance(870 + seed)
        profile = first_path_profile(inst)
        loads = load_map(profile)
        for edge_id, count in loads.items():
            cost = inst.graph.edge(edge_id).cost
            share = shapley_share(cost, count)
            if cost > 0:
                assert 0.0 < share <= cost
            if count == 1:
                assert share == cost


# ---------------------------------------------------------------- player cost

def test_player_cost_shared_half(d1):
    profile = StrategyProfile({1: ("a",), 2: ("a",)})
    assert player_cost(d1.graph, profile, 1, 0.0) == 0.5


def test_player_cost_with_social_term(d1):
    profile = StrategyProfile({1: ("a",), 2: ("b",)})
    assert player_cost(d1.graph, profile, 1, 0.5) == pytest.approx(3.0, abs=TOL)
    assert player_cost(d1.graph, profile, 2, 0.5) == pytest.approx(5.0, abs=TOL)


def test_player_cost_unknown_player(d1):
    with pytest.raises(UnknownPlayer):
        player_cost(d1.graph, StrategyProfile({1: ("a",)}), 9, 0.0)


def test_ordered_sum_is_a_left_to_right_fold():
    # Python 3.12's sum() compensates: [1e16, 1.0, 1.0] sums to 1.0000000000000002e16.
    assert ordered_sum([]) == 0
    assert type(ordered_sum([])) is int
    samples = [[1e16, 1.0, 1.0], [0.1] * 10, [-0.0]]
    samples += [[e.cost / 3 for e in inst.graph.edges] for inst in corpus(20)]
    for values in samples:
        assert ordered_sum(values).hex() == game._fold(values).hex()
    assert ordered_sum([1e16, 1.0, 1.0]) == 1e16


def test_zero_delta_reduces_to_pure_share_cost():
    # Exact equality: the social term must vanish, not approximately cancel.
    for seed in range(10):
        inst = random_instance(910 + seed)
        profile = first_path_profile(inst)
        loads = load_map(profile)
        for pid, path in profile.items():
            pure = ordered_sum(inst.graph.edge(e).cost / loads[e] for e in path)
            assert player_cost(inst.graph, profile, pid, 0.0) == pure


def test_cost_aggregation_identity():
    for seed in range(10):
        for delta in DELTAS:
            inst = random_instance(950 + seed, delta=delta)
            profile = first_path_profile(inst)
            total = sum(
                player_cost(inst.graph, profile, p.player_id, delta)
                for p in inst.players
            )
            expected = page_cost(inst.graph, profile) * (1.0 + delta * len(inst.players))
            assert abs(total - expected) <= TOL


# ---------------------------------------------------------------- potential

def test_potential_harmonic_term(d1):
    profile = StrategyProfile({1: ("a",), 2: ("a",)})
    assert potential(d1.graph, profile, 0.0) == pytest.approx(1.5, abs=TOL)


def test_potential_with_social_term(d1):
    profile = StrategyProfile({1: ("a",), 2: ("a",)})
    assert potential(d1.graph, profile, 1.0) == pytest.approx(2.5, abs=TOL)


def test_potential_identity_over_all_deviations():
    # Oracle: evaluate both sides of the deviation identity for every
    # profile, player, and alternative path on small instances.
    for seed in range(8):
        for delta in DELTAS:
            inst = random_instance(1000 + seed, delta=delta, max_profiles=60)
            paths = {
                p.player_id: enumerate_paths(inst.graph, p.root, p.leaf)
                for p in inst.players
            }
            for profile in all_profiles(inst):
                phi = potential(inst.graph, profile, delta)
                for p in inst.players:
                    pid = p.player_id
                    base = player_cost(inst.graph, profile, pid, delta)
                    for alt in paths[pid]:
                        if alt == profile.path(pid):
                            continue
                        moved = profile.replace(pid, alt)
                        d_phi = phi - potential(inst.graph, moved, delta)
                        d_z = base - player_cost(inst.graph, moved, pid, delta)
                        assert abs(d_phi - d_z) <= TOL


class _LoggedTerms(game._Harmonic):
    def __init__(self, costs, log):
        super().__init__(costs)
        self.log = log

    def __missing__(self, key):
        self.log.append(key)
        return super().__missing__(key)


def _cold_copy(graph):
    return build_graph(graph.nodes.values(), graph.edges)


def test_potential_terms_are_the_divisions_cached_per_graph():
    # Each stored entry is the tuple of an edge's divisions at one load.
    # Tallies of one graph share them: a second tally of a summed profile
    # divides nothing. A graph warmed by every other profile sums each
    # profile to the bits a cold copy of the graph sums.
    for seed in range(12):
        inst = random_instance(1200 + seed, delta=DELTAS[seed % len(DELTAS)], max_profiles=60)
        graph, delta = inst.graph, inst.delta
        log = []
        graph._harmonic = _LoggedTerms(graph.costs, log)
        for profile in all_profiles(inst):
            tally = game.Tally(graph, profile, delta)
            log.clear()
            warm = tally.potential()
            assert sorted(log) == sorted(set(log))
            assert all(tally.loads[e] == k for e, k in log)
            log.clear()
            assert game.Tally(graph, profile, delta).potential().hex() == warm.hex()
            assert log == []
            cold = game.Tally(_cold_copy(graph), profile, delta).potential()
            assert cold.hex() == warm.hex(), seed
        assert graph._harmonic
        for (e, k), terms in graph._harmonic.items():
            assert type(terms) is tuple
            assert [t.hex() for t in terms] == [
                (graph.costs[e] / x).hex() for x in range(1, k + 1)]


def test_potential_terms_survive_a_racing_store():
    # Two tallies miss the same edge and load together: each divides and
    # stores its own tuple, and the later store replaces the earlier one.
    # The tuples are equal, so a sum over either gives the same bits, and a
    # sum after the race divides nothing again.
    graph = build_d1(delta=0.5).graph
    profile = StrategyProfile({1: ("a",), 2: ("a",)})
    cold = game.Tally(_cold_copy(graph), profile, 0.5).potential()
    cache, key = graph._harmonic, (graph.edge_position["a"], 2)
    stale = game._Harmonic.__missing__(cache, key)
    stored = game._Harmonic.__missing__(cache, key)
    assert stale == stored and stale is not stored and cache[key] is stored
    for terms in (stale, stored):
        cache[key] = terms
        assert game.Tally(graph, profile, 0.5).potential().hex() == cold.hex()
        assert list(cache) == [key] and cache[key] is terms


# ---------------------------------------------------------------- reports

def test_cost_report_is_consistent(d1):
    profile = StrategyProfile({1: ("a",), 2: ("b",)})
    report = cost_report(d1.graph, profile, 0.5)
    assert report.page_cost == 4.0
    assert report.shares == {"a": 1.0, "b": 3.0}
    assert report.player_costs == {1: 3.0, 2: 5.0}
    assert report.delta == 0.5
    total = sum(report.player_costs.values())
    assert abs(total - report.page_cost * (1 + 0.5 * 2)) <= TOL


# ---------------------------------------------------------------- boundary

def _depth(graph, node_id):
    # Longest chain of edges that ends at node_id.
    return max((1 + _depth(graph, e.src) for e in graph.edges if e.dst == node_id), default=0)


def test_boundary_of_document_tree():
    forest = parse_document(SAMPLE_DOCUMENT)
    others = [nid for nid in forest.nodes if nid != forest.document_root.node_id]
    graph = build_game(forest, [DeviceProfile("d", "pc", 1.0, tuple(others))]).graph
    depths = {nid: _depth(graph, nid) for nid in graph.nodes}
    deepest = max(depths.values())
    boundary = {nid for nid, d in depths.items() if d == deepest}
    texts = {nid for nid, n in forest.nodes.items() if n.kind == "text"}
    assert texts <= boundary
    # Attributes sit one level under their element, alongside its text.
    assert boundary == texts | {"9:@href"}


# ---------------------------------------------------------------- validation

def test_validate_profile_accepts_valid(d1):
    validate_profile(d1.graph, d1.players, StrategyProfile({1: ("a",), 2: ("b",)}))


def test_validate_profile_unknown_edge(d1):
    with pytest.raises(InvalidProfile):
        validate_profile(d1.graph, d1.players, StrategyProfile({1: ("zz",), 2: ("a",)}))


def test_validate_profile_wrong_endpoint():
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "m", "l", 1.0)],
    )
    players = (Player(1, "r", "l"),)
    with pytest.raises(InvalidProfile):
        validate_profile(graph, players, StrategyProfile({1: ("a",)}))


def test_validate_profile_disconnected_path():
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "m", "l", 1.0), ("c", "r", "l", 1.0)],
    )
    players = (Player(1, "r", "l"),)
    with pytest.raises(InvalidProfile):
        validate_profile(graph, players, StrategyProfile({1: ("b", "a")}))


def test_validate_profile_player_mismatch(d1):
    with pytest.raises(InvalidProfile):
        validate_profile(d1.graph, d1.players, StrategyProfile({1: ("a",)}))


def test_instance_rejects_negative_delta(d1):
    with pytest.raises(NegativeDelta):
        GameInstance(graph=d1.graph, players=d1.players, delta=-0.25)


def test_instance_rejects_missing_path():
    graph = build_graph(
        [("r", "abstract"), ("l", "abstract"), ("island", "abstract")],
        [("a", "r", "l", 1.0)],
    )
    with pytest.raises(NoPath):
        GameInstance(graph=graph, players=(Player(1, "r", "island"),))


def test_instance_rejects_equal_root_and_leaf(d1):
    with pytest.raises(InvalidProfile):
        GameInstance(graph=d1.graph, players=(Player(1, "r", "r"),))


def test_validate_players_searches_once_per_root():
    nodes = [("r", "abstract"), ("s", "abstract"), ("m", "abstract"),
             ("l", "abstract"), ("island", "abstract")]
    edges = [("a", "r", "m", 1.0), ("b", "m", "l", 1.0), ("c", "s", "l", 1.0)]
    graph = build_graph(nodes, edges)
    passes = search_log(graph)
    players = (Player(1, "r", "l"), Player(2, "r", "m"), Player(3, "s", "l"), Player(4, "r", "l"))
    validate_players(graph, players)
    assert passes == [{"r", "s"}]
    # Validating again, as a --delta override does, searches nothing.
    validate_players(graph, players)
    assert passes == [{"r", "s"}]

    graph = build_graph(nodes, edges)
    passes = search_log(graph)
    with pytest.raises(NoPath) as err:
        validate_players(graph, (Player(1, "r", "l"), Player(2, "r", "island")))
    assert err.value.player_id == 2
    assert passes == [{"r"}]


def test_validate_players_keeps_its_error_order():
    # The first player in order that breaks an invariant decides the error;
    # the one pass skips roots not in the graph.
    nodes = [("r", "abstract"), ("m", "abstract"), ("l", "abstract"), ("island", "abstract")]
    edges = [("a", "r", "m", 1.0), ("b", "m", "l", 1.0)]
    cases = [
        ((Player(1, "ghost", "l"), Player(2, "r", "island")), InvalidProfile, 1),
        ((Player(1, "r", "ghost"), Player(2, "r", "island")), InvalidProfile, 1),
        ((Player(1, "r", "l"), Player(1, "r", "island")), InvalidProfile, 1),
        ((Player(1, "r", "island"), Player(2, "ghost", "l")), NoPath, 1),
        ((Player(1, "r", "l"), Player(2, "m", "r"), Player(3, "ghost", "l")), NoPath, 2),
        ((Player(1, "m", "l"), Player(2, "l", "m")), NoPath, 2),
    ]
    for players, error, player_id in cases:
        graph = build_graph(nodes, edges)
        passes = search_log(graph)
        with pytest.raises(error) as err:
            validate_players(graph, players)
        assert err.value.player_id == player_id, players
        assert passes == [{p.root for p in players if p.root in graph}], players


def _assert_masks_agree(graph, snapshot, name):
    bits, masks = snapshot
    assert len(set(bits.values())) == len(bits), name
    for root, bit in bits.items():
        reach = reachable_from(graph, root)
        for v, node in enumerate(graph.topo_order):
            assert bool(masks[v] & bit) == (node in reach), (name, root, node)


def _layered_graph(seed, layers, width):
    rng = random.Random(seed)
    grid = [[f"n{l}.{i}" for i in range(width)] for l in range(layers)]
    edges = []
    for l in range(layers - 1):
        for i, src in enumerate(grid[l]):
            for j in rng.sample(range(width), rng.randint(0, 2)):
                edges.append((f"e{l}.{i}.{j}", src, grid[l + 1][j], 1.0))
            if l + 2 < layers and rng.random() < 0.3:
                edges.append((f"s{l}.{i}", src, rng.choice(grid[l + 2]), 2.0))
    return build_graph([(n, "abstract") for layer in grid for n in layer], edges)


def test_root_masks_agree_with_a_plain_search():
    # Every (root, node) pair: the players' roots of the initial pass, then
    # roots first registered after it, on the corpus and gamegen graphs.
    for name, graph in _index_graphs():
        order = graph.topo_order
        _assert_masks_agree(graph, graph._masks, name)
        _assert_masks_agree(graph, graph.root_masks(order[::2]), name)
        _assert_masks_agree(graph, graph.root_masks(order), name)
        assert set(graph._masks[0]) == set(order), name

    # More than 64 distinct roots, so masks run past one machine word.
    graph = _layered_graph(7, layers=12, width=10)
    order = graph.topo_order
    players = []
    for root in order:
        reach = reachable_from(graph, root) - {root}
        if reach:
            players.append(Player(len(players) + 1, root, min(reach)))
    passes = search_log(graph)
    GameInstance(graph, tuple(players))
    assert passes == [{p.root for p in players}]
    assert len(passes[0]) > 64
    _assert_masks_agree(graph, graph._masks, "layered")
    late = [node for node in order if node not in passes[0]]
    assert late
    _assert_masks_agree(graph, graph.root_masks(late), "layered")
    assert len(passes) == 2 and passes[1] == set(order)


def test_root_masks_survive_a_racing_store():
    # Two calls extend the same snapshot: one stores {r, s}, then the other
    # stores {r, m}, built from the stale {r}. Both gave their new root the
    # same bit, and the later store drops s. Every snapshot still answers
    # as a plain search, and s is registered again on its next lookup.
    graph = _layered_graph(11, layers=6, width=4)
    order = graph.topo_order
    r, s, m = [node for node in order if graph.out_edges(node)][:3]
    passes = search_log(graph)
    stale = graph.root_masks([r])
    stored = graph.root_masks([s])
    graph._masks = raced = graph._extend(stale, [m])
    assert passes == [{r}, {r, s}, {r, m}]
    assert stored[0][s] == raced[0][m]
    for snapshot in (stale, stored, raced):
        _assert_masks_agree(graph, snapshot, "race")
    reach = {node: reachable_from(graph, node) for node in order}
    for root in (r, s, m):
        for leaf in order:
            assert graph.between(root, leaf) == _plan_by_search(graph, reach, root, leaf)
    assert passes == [{r}, {r, s}, {r, m}, {r, s, m}]
    _assert_masks_agree(graph, graph._masks, "race")
    last = [[node for node in order if node in reach[root]][-1] for root in (r, s, m)]
    players = [Player(i + 1, root, leaf) for i, (root, leaf) in enumerate(zip((r, s, m), last))]
    validate_players(graph, players)
    assert len(passes) == 4


def test_many_roots_take_one_pass_and_little_memory():
    # One player per node of a 3,000-node chain, each routing to its end: one
    # pass and a few MiB of masks (per-root searches held 205 MiB of sets).
    n = 3000
    graph = build_graph(
        [(f"v{i}", "abstract") for i in range(n)],
        [(f"e{i}", f"v{i}", f"v{i + 1}", 1.0) for i in range(n - 1)],
    )
    players = tuple(Player(i + 1, f"v{i}", f"v{n - 1}") for i in range(n - 1))
    passes = search_log(graph)
    tracemalloc.start()
    try:
        GameInstance(graph, players)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passes == [{p.root for p in players}]
    assert peak < 4 * 2**20, peak
