"""The incremental dynamics against the full-rebuild reference in
``reference_dynamics``: same traces, same answers, floats bit for bit."""

import itertools
import math
import random

import pytest

from pagegame import (
    GameInstance,
    Player,
    Schedule,
    StrategyProfile,
    build_graph,
    enumerate_paths,
)
from pagegame import dynamics
from pagegame.errors import NoPath

import reference_dynamics as reference
from gamegen import (
    DELTAS,
    all_profiles,
    corpus,
    diamond_chain,
    first_path_profile,
    large_cost_game,
    layered_game,
    random_instance,
    reachable_from,
)

SCHEDULES = ("round-robin", "random")


def _bits(value):
    """Floats as hex strings, so equality means equal bits (and sign of zero)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _trace_bits(trace):
    steps = tuple(
        _bits((s.iteration, s.player_id, s.previous_cost, s.new_cost,
               s.potential_after, s.path_changed, s.path))
        for s in trace.steps
    )
    return (steps, trace.converged, trace.passes,
            trace.initial_profile.paths, trace.final_profile.paths)


def _assert_same_dynamics(graph, players, delta, initial=None):
    for kind, seed in itertools.product(SCHEDULES, (0, 7)):
        schedule = Schedule(kind, seed)
        expected = reference.run_dynamics(graph, players, delta, schedule, initial=initial)
        actual = dynamics.run_dynamics(graph, players, delta, schedule, initial=initial)
        assert _trace_bits(actual) == _trace_bits(expected)


# ---------------------------------------------------------------- run_dynamics

@pytest.mark.parametrize("delta", DELTAS)
def test_traces_match_reference_on_gamegen_games(delta):
    for seed in range(40):
        inst = random_instance(3000 + seed, delta=delta)
        _assert_same_dynamics(inst.graph, inst.players, delta)
        _assert_same_dynamics(inst.graph, inst.players, delta, first_path_profile(inst))


@pytest.mark.parametrize("delta", DELTAS)
def test_traces_match_reference_on_layered_games(delta):
    for seed in range(6):
        _assert_same_dynamics(*layered_game(3100 + seed, delta))


def _near_tie_diamonds():
    """Twelve diamonds whose lower branches cost more by distinct amounts
    below TOLERANCE: tied prefixes reach a node with many different
    accumulated weights, and only the cheaper combinations stay tied."""
    graph = diamond_chain(12, extra=lambda i: (i + 1) * 3e-11)
    players = (Player(1, "v0", "v12"), Player(2, "v0", "v12"), Player(3, "v2", "v10"),
               Player(4, "v1", "m7b"), Player(5, "m0a", "v12"))
    return graph, players


@pytest.mark.parametrize("delta", DELTAS)
def test_traces_match_reference_on_near_tie_diamonds(delta):
    _assert_same_dynamics(*_near_tie_diamonds(), delta)


@pytest.mark.parametrize("per_node", (0, 0.25, dynamics._MEMO_PER_NODE))
def test_traces_match_reference_with_a_tiny_tie_memo(monkeypatch, per_node):
    # Past the memo cap, drawing a path counts the subtrees it passes again:
    # below one entry per node no count finds its start in the memo, so each
    # is a recount; at the default cap some do.
    monkeypatch.setattr(dynamics, "_MEMO_PER_NODE", per_node)
    hits = []
    original = dynamics._State._count

    def counted(self, start, start_acc, target, bound, outs, dist, memo):
        hits.append((start, start_acc) in memo)
        return original(self, start, start_acc, target, bound, outs, dist, memo)

    monkeypatch.setattr(dynamics._State, "_count", counted)
    for seed, delta in zip(range(6), itertools.cycle(DELTAS)):
        _assert_same_dynamics(*layered_game(3100 + seed, delta))
    for seed, delta in zip(range(20), itertools.cycle(DELTAS)):
        inst = random_instance(3000 + seed, delta=delta)
        _assert_same_dynamics(inst.graph, inst.players, delta)
    _assert_same_dynamics(*_near_tie_diamonds(), 0.0)
    assert hits
    assert any(hits) == (per_node >= 1)


def _scaled_instance(seed):
    """A ``gamegen`` game with every cost scaled by 1e9 to 1e13."""
    inst = random_instance(seed, delta=(seed % 3) * 0.5)
    rng = random.Random(seed)
    scale = 10 ** rng.uniform(9, 13)
    graph = build_graph(inst.graph.nodes.values(), [
        (e.edge_id, e.src, e.dst, e.cost * scale * rng.uniform(0.9, 1.1))
        for e in inst.graph.edges
    ])
    return graph, inst.players, inst.delta


@pytest.mark.parametrize("delta", (0.0, 0.5))
def test_traces_match_reference_on_large_costs(delta):
    # Sums from the root and from the leaf of this chain differ by more than
    # TOLERANCE; both sides compare within game.slack.
    graph = build_graph(
        [(f"v{i}", "abstract") for i in range(4)],
        [("a", "v0", "v1", 686433675450.4867), ("b", "v1", "v2", 809851016021.9619),
         ("c", "v2", "v3", 184473628096.8114)],
    )
    players = (Player(1, "v0", "v3"), Player(2, "v1", "v3"))
    _assert_same_dynamics(graph, players, delta)
    given = StrategyProfile({1: ("a", "b", "c"), 2: ("b", "c")})
    _assert_same_dynamics(graph, players, delta, given)


def test_traces_match_reference_on_scaled_gamegen_games():
    for seed in range(5000, 5020):
        graph, players, delta = _scaled_instance(seed)
        _assert_same_dynamics(graph, players, delta)
        start = first_path_profile(GameInstance(graph, players, delta))
        _assert_same_dynamics(graph, players, delta, start)


def test_missing_path_raises_like_reference():
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "l", "m", 1.0)],
    )
    players = (Player(4, "r", "l"),)
    with pytest.raises(NoPath) as expected:
        reference.run_dynamics(graph, players)
    with pytest.raises(NoPath) as actual:
        dynamics.run_dynamics(graph, players)
    assert str(actual.value) == str(expected.value)


# ---------------------------------------------------------------- is_nash, best_response

@pytest.mark.parametrize("delta", DELTAS)
def test_is_nash_and_best_response_match_reference(delta):
    for seed in range(25):
        inst = random_instance(3200 + seed, delta=delta)
        for profile in itertools.islice(all_profiles(inst), 40):
            graph = inst.graph
            assert dynamics.is_nash(graph, profile, delta) == reference.is_nash(
                graph, profile, delta)
            for player, tie_seed in itertools.product(inst.players, (0, 3)):
                pid = player.player_id
                assert dynamics.best_response(graph, profile, pid, delta, tie_seed) == (
                    reference.best_response(graph, profile, pid, delta, tie_seed))


def test_is_nash_and_best_response_match_reference_on_layered_games():
    for seed, delta in zip(range(8), itertools.cycle(DELTAS)):
        graph, players, delta = layered_game(3300 + seed, delta)
        trace = reference.run_dynamics(graph, players, delta, max_iters=1)
        for profile in (trace.initial_profile, trace.final_profile):
            assert dynamics.is_nash(graph, profile, delta) == reference.is_nash(
                graph, profile, delta)
            for player in players:
                pid = player.player_id
                assert dynamics.best_response(graph, profile, pid, delta, seed) == (
                    reference.best_response(graph, profile, pid, delta, seed))


# ---------------------------------------------------------------- property test

def test_random_dags_match_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def games(draw):
        n = draw(st.integers(3, 9))
        costs = st.sampled_from((0.0, 1.0, 1.0, 2.0, 0.5, 1.5, 0.1, 0.2, 0.3, 3.7))
        edges = []
        for j in range(draw(st.integers(n - 1, 3 * n))):
            src = draw(st.integers(0, n - 2))
            dst = draw(st.integers(src + 1, n - 1))
            edges.append((f"e{j:02d}", f"n{src}", f"n{dst}", draw(costs)))
        graph = build_graph([(f"n{i}", "abstract") for i in range(n)], edges)
        pairs = [
            (u, v) for u, v in itertools.combinations(graph.topo_order, 2)
            if v in reachable_from(graph, u)
        ]
        hypothesis.assume(pairs)
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5))
        # Duplicates (same root and leaf) share answers while their paths agree.
        chosen = draw(st.permutations(chosen + draw(st.lists(st.sampled_from(chosen),
                                                             max_size=3))))
        players = tuple(Player(i + 1, r, l) for i, (r, l) in enumerate(chosen))
        # The greedy start, or any paths: duplicates then also sit apart.
        start = draw(st.none() | st.tuples(*[
            st.sampled_from(enumerate_paths(graph, r, l)) for r, l in chosen]))
        initial = None if start is None else StrategyProfile(
            {p.player_id: path for p, path in zip(players, start)})
        return graph, players, draw(st.sampled_from(DELTAS)), initial

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(games(), st.sampled_from(SCHEDULES), st.integers(0, 2**32))
    def check(game, kind, seed):
        graph, players, delta, initial = game
        schedule = Schedule(kind, seed)
        expected = reference.run_dynamics(graph, players, delta, schedule, max_iters=50,
                                          initial=initial)
        actual = dynamics.run_dynamics(graph, players, delta, schedule, max_iters=50,
                                       initial=initial)
        assert _trace_bits(actual) == _trace_bits(expected)
        profile = expected.initial_profile
        assert dynamics.is_nash(graph, profile, delta) == reference.is_nash(graph, profile, delta)
        for player in players:
            pid = player.player_id
            assert dynamics.best_response(graph, profile, pid, delta, seed) == (
                reference.best_response(graph, profile, pid, delta, seed))

    check()


# ---------------------------------------------------------------- one-path pairs

def test_one_path_games_match_reference_property():
    # Games where most root-leaf pairs have one path, whose best responses
    # relax over that path alone: trees under device-like roots, chains,
    # chains with one parallel pair (whose pairs across it relax over the
    # graph's out-edges), and document games whose devices want some of
    # the same components.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from pagegame.dom import DeviceProfile, build_game, parse_document

    from gamegen import SAMPLE_DOCUMENT
    from golden_corpus import DOC3_DOCUMENT

    costs = st.sampled_from((0.0, 0.1, 0.3, 0.5, 1.0, 1.0, 1.5, 2.0, 3.7))

    @st.composite
    def trees(draw):
        n = draw(st.integers(1, 8))
        parents = [None] + [draw(st.none() | st.integers(0, i - 1)) for i in range(1, n)]
        tops = [f"t{i}" for i, parent in enumerate(parents) if parent is None]
        roots = [f"d{k}" for k in range(draw(st.integers(1, 4)))]
        edges = [(f"{root}>{top}", root, top, draw(costs)) for root in roots for top in tops]
        edges += [(f"t{parent}>t{i}", f"t{parent}", f"t{i}", draw(costs))
                  for i, parent in enumerate(parents) if parent is not None]
        nodes = [(node, "abstract") for node in roots + [f"t{i}" for i in range(n)]]
        return build_graph(nodes, edges)

    @st.composite
    def chains(draw):
        n = draw(st.integers(2, 8))
        edges = [(f"c{i}", f"v{i}", f"v{i + 1}", draw(costs)) for i in range(n - 1)]
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 2))
            edges.append((f"c{i}x", f"v{i}", f"v{i + 1}", draw(costs)))
        return build_graph([(f"v{i}", "abstract") for i in range(n)], edges)

    @st.composite
    def documents(draw):
        forest = parse_document(draw(st.sampled_from((SAMPLE_DOCUMENT, DOC3_DOCUMENT))))
        wanted = st.sampled_from([node for node in forest.nodes
                                  if node != forest.document_root.node_id])
        devices = [
            DeviceProfile(f"dev{k}", draw(st.sampled_from(("pc", "tablet", "mobile"))),
                          draw(st.sampled_from((0.8, 1.0, 1.3))),
                          draw(st.lists(wanted, min_size=1, max_size=4, unique=True)))
            for k in range(draw(st.integers(1, 4)))
        ]
        inst = build_game(forest, devices)
        return inst.graph, inst.players

    @st.composite
    def games(draw):
        kind = draw(st.sampled_from(("tree", "chain", "document")))
        if kind == "document":
            graph, players = draw(documents())
        else:
            graph = draw(trees() if kind == "tree" else chains())
            pairs = [(u, v) for u in graph.topo_order
                     for v in sorted(reachable_from(graph, u) - {u})]
            chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
            players = tuple(Player(i + 1, r, l) for i, (r, l) in enumerate(chosen))
        start = draw(st.none() | st.tuples(*[
            st.sampled_from(enumerate_paths(graph, p.root, p.leaf)) for p in players]))
        initial = None if start is None else StrategyProfile(
            {p.player_id: path for p, path in zip(players, start)})
        return graph, players, draw(st.sampled_from(DELTAS)), initial

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(games(), st.sampled_from(SCHEDULES), st.integers(0, 2**32))
    def check(game, kind, seed):
        graph, players, delta, initial = game
        schedule = Schedule(kind, seed)
        expected = reference.run_dynamics(graph, players, delta, schedule, max_iters=50,
                                          initial=initial)
        actual = dynamics.run_dynamics(graph, players, delta, schedule, max_iters=50,
                                       initial=initial)
        assert _trace_bits(actual) == _trace_bits(expected)
        for profile in (expected.initial_profile, expected.final_profile):
            assert dynamics.is_nash(graph, profile, delta) == reference.is_nash(
                graph, profile, delta)
            for player in players:
                pid = player.player_id
                assert dynamics.best_response(graph, profile, pid, delta, seed) == (
                    reference.best_response(graph, profile, pid, delta, seed))

    check()


# ---------------------------------------------------------------- bounded relaxation

def _checked_pushes(monkeypatch) -> list:
    """Patch ``_State._push`` so that each relaxation of a pair with several
    paths is checked against the reference's full one at the state's
    weights: the same float bits at every plan node whose exact distance is
    within the reach, and above the reach at every other. Returns each
    relaxation's kind, ``"bounded"`` or ``"full"`` (no known path), in order."""
    kinds = []
    push = dynamics._State._push

    def checked(self, plan, target, reach):
        dist = push(self, plan, target, reach)
        graph, names = self.graph, self.graph.topo_order
        weights = dict(zip(graph.edge_ids, self.weights))
        exact = reference.distance_to(graph, weights, names[target])
        for node in (target, *plan):
            if exact[names[node]] <= reach:
                assert dist[node].hex() == exact[names[node]].hex(), names[node]
            else:
                assert dist[node] > reach, names[node]
        kinds.append("full" if math.isinf(reach) else "bounded")
        return dist

    monkeypatch.setattr(dynamics._State, "_push", checked)
    return kinds


def _assert_exact(graph, players, delta, seeds=(0, 7)):
    """Traces equal to the reference's on both schedules, then ``is_nash``
    and every ``best_response`` on the final profile."""
    for kind, seed in itertools.product(SCHEDULES, seeds):
        schedule = Schedule(kind, seed)
        expected = reference.run_dynamics(graph, players, delta, schedule, max_iters=50)
        actual = dynamics.run_dynamics(graph, players, delta, schedule, max_iters=50)
        assert _trace_bits(actual) == _trace_bits(expected)
    profile = expected.final_profile
    assert dynamics.is_nash(graph, profile, delta) == reference.is_nash(graph, profile, delta)
    for player in players:
        pid = player.player_id
        assert dynamics.best_response(graph, profile, pid, delta, 3) == (
            reference.best_response(graph, profile, pid, delta, 3))


def test_bounded_relaxation_is_exact_on_seeded_games(monkeypatch):
    # Every relaxation of a pair with several paths reads, within its reach,
    # the full relaxation's floats: on the gamegen corpus, on large-cost
    # copies whose slack exceeds TOLERANCE, and on a game whose fresh
    # weights overflow to infinity, so that a player's own path folds to an
    # infinite reach.
    kinds = _checked_pushes(monkeypatch)
    games = [(inst.graph, inst.players, inst.delta) for inst in corpus()]
    games += [(big.graph, big.players, big.delta)
              for big in (large_cost_game(inst, seed) for seed, inst in enumerate(corpus(20)))]
    for graph, players, delta in games:
        _assert_exact(graph, players, delta, seeds=(5,))
    assert {"bounded", "full"} <= set(kinds)

    graph = build_graph([("r", "abstract"), ("l", "abstract")],
                        [("a", "r", "l", 1e308), ("b", "r", "l", 5e307)])
    players = (Player(1, "r", "l"), Player(2, "r", "l"))
    assert math.isinf(graph.costs[0] * 2.0)
    kinds.clear()
    _assert_exact(graph, players, 1.0)
    initial = StrategyProfile({1: ("a",), 2: ("b",)})
    kinds.clear()
    _assert_same_dynamics(graph, players, 1.0, initial)
    assert kinds[0] == "full"  # player 1's own path weighs infinity once taken off


def test_bounded_relaxation_is_exact_on_small_dags_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kinds = _checked_pushes(monkeypatch)

    @st.composite
    def games(draw):
        n = draw(st.integers(2, 7))
        costs = st.sampled_from((0.0, 1.0, 2.0, 3.0))
        edges = []
        for j in range(draw(st.integers(n - 1, 3 * n))):
            src = draw(st.integers(0, n - 2))
            dst = draw(st.integers(src + 1, n - 1))
            edges.append((f"e{j:02d}", f"n{src}", f"n{dst}", draw(costs)))
        graph = build_graph([(f"n{i}", "abstract") for i in range(n)], edges)
        pairs = [(u, v) for u, v in itertools.combinations(graph.topo_order, 2)
                 if v in reachable_from(graph, u)]
        hypothesis.assume(pairs)
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2))
        chosen += draw(st.lists(st.sampled_from(chosen), max_size=4 - len(chosen)))
        players = tuple(Player(i + 1, root, leaf) for i, (root, leaf) in enumerate(chosen))
        return graph, players, draw(st.sampled_from((0.0, 0.5, 1.0)))

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(games())
    def check(game):
        _assert_exact(*game)

    check()
    assert {"bounded", "full"} <= set(kinds)


def test_a_walk_with_no_known_distance_relaxes_the_whole_plan(monkeypatch):
    # Player 1 is placed first toward l, so with no distances known its
    # relaxation is full. Player 2's walk from B then finds no out-edge to a
    # node with a known distance (player 1's relaxation never reached y), so
    # it relaxes in full too; player 3's walk follows player 2's distances
    # and bounds its relaxation, as every player that has a path does.
    kinds = _checked_pushes(monkeypatch)
    graph = build_graph(
        [(node, "abstract") for node in ("A", "B", "y", "z", "l")],
        [("a1", "A", "l", 1.0), ("a2", "A", "l", 2.0), ("b1", "B", "y", 1.0),
         ("b2", "B", "y", 1.0), ("c", "y", "z", 1.0), ("d", "z", "l", 1.0)],
    )
    players = (Player(1, "A", "l"), Player(2, "B", "l"), Player(3, "B", "l"))
    trace = dynamics.run_dynamics(graph, players)
    assert _trace_bits(trace) == _trace_bits(reference.run_dynamics(graph, players))
    assert kinds[:3] == ["full", "full", "bounded"]
    assert set(kinds[3:]) == {"bounded"}


def test_a_path_that_is_no_root_leaf_path_relaxes_the_whole_plan(monkeypatch):
    # best_response reads a player's root and leaf off its path's ends. A
    # path that does not connect them folds below the cheapest path, so its
    # reach would cut the relaxation short: the relaxation runs again in full.
    kinds = _checked_pushes(monkeypatch)
    graph = build_graph(
        [(node, "abstract") for node in ("r", "x", "y", "m", "l")],
        [("a", "r", "x", 0.0), ("c", "y", "l", 0.0), ("b1", "r", "m", 5.0),
         ("b2", "m", "l", 5.0), ("d", "r", "l", 20.0)],
    )
    profile = StrategyProfile({1: ("a", "c")})
    assert dynamics.best_response(graph, profile, 1) == ("b1", "b2") == (
        reference.best_response(graph, profile, 1))
    assert kinds == ["bounded", "full"]
