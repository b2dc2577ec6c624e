import collections
import dataclasses
import itertools
import json
import random
import time
from pathlib import Path

import pytest

import pagegame
from pagegame import (
    GameInstance,
    Player,
    Schedule,
    StrategyProfile,
    best_response,
    build_graph,
    enumerate_paths,
    is_nash,
    page_cost,
    player_cost,
    potential,
    reweight,
    run_dynamics,
)
from pagegame import SplitMix64, dynamics, game
from pagegame.cli import main
from pagegame.errors import GraphError, InvalidProfile, UnknownPlayer
from pagegame.game import ordered_sum
from pagegame.instance import parse_instance

import reference_dynamics as reference
from gamegen import (
    DELTAS,
    build_d1,
    diamond_chain,
    first_path_profile,
    instance_to_json,
    layered_game,
    random_instance,
    search_log,
)

TOL = 1e-9


# ---------------------------------------------------------------- reweight

def test_reweight_shared_and_fresh(d1):
    # Other player sits on a; a is shared at half cost, b keeps full cost.
    profile = StrategyProfile({1: ("b",), 2: ("a",)})
    assert reweight(d1.graph, profile, 1, 0.0) == {"a": 0.5, "b": 3.0}


def test_reweight_fresh_edge_scales_with_delta():
    graph = build_graph(
        [("r", "abstract"), ("l", "abstract")], [("e", "r", "l", 2.0)]
    )
    profile = StrategyProfile({1: ("e",)})
    assert reweight(graph, profile, 1, 1.0) == {"e": 4.0}


def test_reweight_edge_with_three_other_users():
    graph = build_graph(
        [("r", "abstract"), ("l", "abstract")],
        [("e", "r", "l", 6.0), ("f", "r", "l", 9.0)],
    )
    profile = StrategyProfile({i: ("e",) for i in range(1, 5)})
    for delta in DELTAS:
        assert reweight(graph, profile, 4, delta)["e"] == 1.5


def test_reweight_unknown_player(d1):
    with pytest.raises(UnknownPlayer):
        reweight(d1.graph, StrategyProfile({1: ("a",)}), 5, 0.0)


def test_reweight_rejects_an_unknown_edge_in_the_profile(d1):
    profile = StrategyProfile({1: ("a",), 2: ("a", "zz")})
    with pytest.raises(GraphError, match="unknown edge id 'zz'"):
        reweight(d1.graph, profile, 1, 0.0)


def test_reweight_bounds_hold():
    for seed in range(10):
        for delta in DELTAS:
            inst = random_instance(1200 + seed, delta=delta)
            profile = first_path_profile(inst)
            for p in inst.players:
                weights = reweight(inst.graph, profile, p.player_id, delta)
                for edge in inst.graph.edges:
                    w = weights[edge.edge_id]
                    assert 0.0 <= w <= edge.cost * (delta + 1.0) + TOL


# ---------------------------------------------------------------- best response

def test_best_response_joins_shared_edge(d1):
    profile = StrategyProfile({1: ("b",), 2: ("a",)})
    assert best_response(d1.graph, profile, 1, 0.0, seed=0) == ("a",)


def test_best_response_tie_is_seed_deterministic():
    inst = build_d1(cost_a=1.0, cost_b=1.0)
    profile = StrategyProfile({1: ("a",)})
    graph = inst.graph
    picks = {seed: best_response(graph, profile, 1, 0.0, seed=seed) for seed in range(24)}
    for seed, pick in picks.items():
        assert pick in (("a",), ("b",))
        assert best_response(graph, profile, 1, 0.0, seed=seed) == pick
    assert {("a",), ("b",)} == set(picks.values()), "both tied paths should occur"


def test_best_response_attains_brute_force_minimum():
    for seed in range(25):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(1300 + seed, delta=delta)
        profile = first_path_profile(inst)
        for p in inst.players:
            pid = p.player_id
            chosen = best_response(inst.graph, profile, pid, delta, seed=seed)
            chosen_cost = player_cost(
                inst.graph, profile.replace(pid, chosen), pid, delta
            )
            best = min(
                player_cost(inst.graph, profile.replace(pid, alt), pid, delta)
                for alt in enumerate_paths(inst.graph, p.root, p.leaf)
            )
            assert chosen_cost <= best + TOL


@pytest.mark.parametrize("call", [
    lambda graph, profile: best_response(graph, profile, 2),
    lambda graph, profile: dynamics.improving_move(graph, profile),
    lambda graph, profile: is_nash(graph, profile),
], ids=["best_response", "improving_move", "is_nash"])
def test_an_empty_path_is_an_invalid_profile(d1, call):
    # The root and leaf are read off the path, so an empty one has neither:
    # the same error validate_profile gives, not an IndexError.
    profile = StrategyProfile({1: ("a",), 2: ()})
    with pytest.raises(InvalidProfile) as raised:
        call(d1.graph, profile)
    assert (raised.value.player_id, raised.value.reason) == (2, "path is empty")


def test_reweight_exactness_identity():
    # Path weight equals the player's cost minus the constant social term
    # over everyone else's page cost.
    for seed in range(15):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(1400 + seed, delta=delta)
        profile = first_path_profile(inst)
        for p in inst.players:
            pid = p.player_id
            weights = reweight(inst.graph, profile, pid, delta)
            others_used = set()
            for other, path in profile.items():
                if other != pid:
                    others_used.update(path)
            others_cost = sum(
                e.cost for e in inst.graph.edges if e.edge_id in others_used
            )
            for alt in enumerate_paths(inst.graph, p.root, p.leaf):
                weight = sum(weights[e] for e in alt)
                z = player_cost(inst.graph, profile.replace(pid, alt), pid, delta)
                assert abs(weight - (z - delta * others_cost)) <= TOL


# ---------------------------------------------------------------- dynamics

def test_dynamics_walks_d1_to_shared_edge(d1):
    start = StrategyProfile({1: ("b",), 2: ("b",)})
    trace = run_dynamics(d1.graph, d1.players, 0.0, initial=start)
    assert trace.converged
    assert trace.final_profile.paths == {1: ("a",), 2: ("a",)}
    assert player_cost(d1.graph, trace.final_profile, 1, 0.0) == 0.5
    assert player_cost(d1.graph, trace.final_profile, 2, 0.0) == 0.5
    # Hand simulation: player 1 leaves b paying 1 < 1.5, player 2 follows at 0.5.
    moves = [s for s in trace.steps if s.path_changed]
    assert [(s.player_id, s.previous_cost, s.new_cost) for s in moves] == [
        (1, 1.5, 1.0),
        (2, 3.0, 0.5),
    ]


def test_single_player_converges_to_cheapest_path():
    for seed in range(10):
        inst = random_instance(1500 + seed)
        solo = (inst.players[0],)
        trace = run_dynamics(inst.graph, solo, 0.0)
        assert trace.converged and trace.passes == 1
        path = trace.final_profile.path(solo[0].player_id)
        cheapest = min(
            sum(inst.graph.edge(e).cost for e in alt)
            for alt in enumerate_paths(inst.graph, solo[0].root, solo[0].leaf)
        )
        assert sum(inst.graph.edge(e).cost for e in path) <= cheapest + TOL


def test_identical_seed_gives_identical_trace():
    for kind in ("round-robin", "random"):
        inst = random_instance(1600, delta=0.5)
        schedule = Schedule(kind=kind, seed=77)
        t1 = run_dynamics(inst.graph, inst.players, 0.5, schedule=schedule)
        t2 = run_dynamics(inst.graph, inst.players, 0.5, schedule=schedule)
        assert t1.steps == t2.steps
        assert t1.final_profile == t2.final_profile
        assert t1.converged == t2.converged


def test_moves_strictly_improve_and_potential_never_rises():
    for seed in range(20):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(1700 + seed, delta=delta)
        trace = run_dynamics(inst.graph, inst.players, delta)
        last = potential(inst.graph, trace.initial_profile, delta)
        for step in trace.steps:
            if step.path_changed:
                assert step.new_cost < step.previous_cost
            else:
                assert step.new_cost == step.previous_cost
            assert step.potential_after <= last + TOL
            last = step.potential_after


def test_each_move_drops_potential_by_cost_improvement():
    inst = random_instance(1801, delta=1.0)
    start = first_path_profile(inst)
    trace = run_dynamics(inst.graph, inst.players, 1.0, initial=start)
    profile = start
    phi = potential(inst.graph, profile, 1.0)
    for step in trace.steps:
        if not step.path_changed:
            continue
        before = player_cost(inst.graph, profile, step.player_id, 1.0)
        profile = profile.replace(step.player_id, step.path)
        after = player_cost(inst.graph, profile, step.player_id, 1.0)
        new_phi = potential(inst.graph, profile, 1.0)
        assert abs((phi - new_phi) - (before - after)) <= TOL
        phi = new_phi


def test_unconverged_run_returns_trace():
    d1 = build_d1()
    start = StrategyProfile({1: ("b",), 2: ("b",)})
    trace = run_dynamics(d1.graph, d1.players, 0.0, initial=start, max_iters=1)
    assert not trace.converged
    assert trace.passes == 1
    assert any(s.path_changed for s in trace.steps)


def test_max_iters_must_be_positive(d1):
    with pytest.raises(ValueError):
        run_dynamics(d1.graph, d1.players, 0.0, max_iters=0)


def test_schedule_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Schedule(kind="alphabetical")


def test_replay_reproduces_final_profile():
    for seed in range(12):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(1900 + seed, delta=delta)
        trace = run_dynamics(
            inst.graph, inst.players, delta, schedule=Schedule("random", seed)
        )
        profile = trace.initial_profile
        for step in trace.steps:
            if step.path_changed:
                profile = profile.replace(step.player_id, step.path)
        assert profile == trace.final_profile


def test_converged_profile_is_equilibrium():
    for seed in range(20):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(2000 + seed, delta=delta)
        trace = run_dynamics(inst.graph, inst.players, delta)
        assert trace.converged
        assert is_nash(inst.graph, trace.final_profile, delta)


# ---------------------------------------------------------------- is_nash

def test_is_nash_accepts_shared_profile(d1):
    assert is_nash(d1.graph, StrategyProfile({1: ("a",), 2: ("a",)}), 0.0)


def test_is_nash_rejects_expensive_profile(d1):
    assert not is_nash(d1.graph, StrategyProfile({1: ("b",), 2: ("b",)}), 0.0)


def test_single_player_on_cheapest_path_is_stable():
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "m", "l", 1.0), ("c", "r", "l", 5.0)],
    )
    assert is_nash(graph, StrategyProfile({1: ("a", "b")}), 0.0)
    assert not is_nash(graph, StrategyProfile({1: ("c",)}), 0.0)


def test_greedy_start_full_pipeline(d1):
    trace = run_dynamics(d1.graph, d1.players, 0.0)
    assert trace.converged
    assert trace.final_profile.paths == {1: ("a",), 2: ("a",)}
    assert page_cost(d1.graph, trace.final_profile) == 1.0


# ---------------------------------------------------------------- cost reports

def _count_calls(monkeypatch, name: str, *modules) -> list:
    calls = []
    original = getattr(game, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def _count_tallies(monkeypatch) -> list:
    calls = []
    original = game.Tally.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(game.Tally, "__init__", counted)
    return calls


COUNTED_GAMES = pytest.mark.parametrize(
    "inst, start",
    [
        (build_d1(), StrategyProfile({1: ("b",), 2: ("b",)})),
        (random_instance(2001), None),
        (random_instance(2016, delta=1.0), None),
    ],
    ids=["d1", "gamegen-2001", "gamegen-2016-delta-1"],
)


@COUNTED_GAMES
def test_run_dynamics_reports_once_per_profile(monkeypatch, inst, start):
    # One tally of the start profile per call, kept up to date move by move;
    # every cost and potential is read from it, never from a cost report.
    reports = _count_calls(monkeypatch, "cost_report", game, dynamics)
    tallies = _count_tallies(monkeypatch)
    for initial in (None, start or first_path_profile(inst)):
        tallies.clear()
        trace = run_dynamics(inst.graph, inst.players, inst.delta, initial=initial)
        assert len(tallies) == 1
        if initial is not None:
            assert sum(step.path_changed for step in trace.steps) > 0

    tallies.clear()
    is_nash(inst.graph, trace.final_profile, inst.delta)
    assert len(tallies) == 1
    assert reports == []


@COUNTED_GAMES
def test_dynamics_keeps_loads_and_reachability_across_activations(monkeypatch, inst, start):
    # Loads are tallied only by the state's own tally: the library has no
    # id-keyed load map (the tests keep one in reference_dynamics). The graph
    # makes one reachability pass over the players' distinct roots: at load,
    # then never again.
    graph = build_graph(inst.graph.nodes.values(), inst.graph.edges)
    passes = search_log(graph)
    instance = GameInstance(graph, inst.players, inst.delta)
    dataclasses.replace(instance, delta=inst.delta + 0.5)
    for initial in (None, start or first_path_profile(inst)):
        trace = run_dynamics(graph, inst.players, inst.delta, initial=initial)
    is_nash(graph, trace.final_profile, inst.delta)
    assert not any(hasattr(module, "load_map") for module in (pagegame, game, dynamics))
    assert passes == [{p.root for p in inst.players}]


def test_dynamics_from_the_greedy_start_moves_by_positions(monkeypatch):
    # Best responses hand back edge positions and the tally moves by them:
    # from the greedy start no path is translated from edge ids, neither at
    # a placement nor on a move. Only a moving step's trace path is ids.
    from golden_corpus import games
    from pagegame.instance import load_instance

    corpus = games()
    shipped = [load_instance(str(corpus[name])) for name in ("d1", "ties")]
    lookups = []
    positions = game.GameGraph.positions

    def counted(self, path):
        lookups.append(path)
        return positions(self, path)

    monkeypatch.setattr(game.GameGraph, "positions", counted)
    moves = set()
    for delta in (0.0, 0.5):
        generated = random_instance(4000, delta)
        played = [(inst.graph, inst.players) for inst in shipped + [generated]]
        for graph, players in played + [layered_game(3107, delta)[:2]]:
            trace = run_dynamics(graph, players, delta)
            for step in trace.steps:
                if step.path_changed:
                    assert set(step.path) <= set(graph.edge_ids)
                    moves.add(delta > 0)
    assert lookups == []
    assert moves == {False, True}


def test_commands_on_an_unvalidated_graph_make_one_pass():
    # A graph straight from build_graph has no root masks yet: each command
    # registers its players' roots in one pass before its first plan.
    graph, players, delta = layered_game(3150, 0.5)
    roots = {p.root for p in players}
    assert len(roots) > 1
    passes = search_log(graph)
    trace = run_dynamics(graph, players, delta)
    assert passes == [roots]

    profile, first = trace.final_profile, players[0]
    for command, covered in ((lambda g: is_nash(g, profile, delta), roots),
                             (lambda g: best_response(g, profile, first.player_id, delta),
                              {first.root})):
        graph = build_graph(graph.nodes.values(), graph.edges)
        passes = search_log(graph)
        command(graph)
        assert passes == [covered]


def _golden_and_gamegen_games():
    from golden_corpus import games
    from pagegame.instance import load_instance

    for name, path in games().items():
        inst = load_instance(str(path))
        for delta in sorted({0.0, inst.delta or 0.5}):
            yield name, dataclasses.replace(inst, delta=delta)
    for seed, delta in zip(range(24), itertools.cycle(DELTAS)):
        yield f"gamegen-{4000 + seed}", random_instance(4000 + seed, delta=delta)


def test_each_step_reads_what_cost_report_computes():
    # The state's costs and potential are the cost report's floats, bit for
    # bit, at every step: before the step for the activated player's cost,
    # after it for the potential.
    checked = set()
    for name, inst in _golden_and_gamegen_games():
        starts = ((None, Schedule()), (first_path_profile(inst), Schedule("random", 5)))
        for initial, schedule in starts:
            trace = run_dynamics(inst.graph, inst.players, inst.delta, schedule, initial=initial)
            profile = trace.initial_profile
            for step in trace.steps:
                before = game.cost_report(inst.graph, profile, inst.delta)
                assert step.previous_cost.hex() == before.player_costs[step.player_id].hex()
                if step.path_changed:
                    profile = profile.replace(step.player_id, step.path)
                after = game.cost_report(inst.graph, profile, inst.delta)
                assert step.potential_after.hex() == after.potential.hex(), name
                checked.add((inst.delta > 0, initial is None, step.path_changed))
            assert profile == trace.final_profile
    # Every kind of start at both kinds of delta; moves at both kinds of delta.
    assert {key[:2] for key in checked} == set(itertools.product((False, True), repeat=2))
    assert {(False, False, True), (True, False, True)} <= checked


def _numbers(tally, pid):
    return [tally.potential().hex(), tally.page().hex(), tally.cost(pid).hex()]


def test_tally_moved_in_place_reads_what_a_fresh_tally_reads():
    # check scores every deviation on one tally moved in place; each reading
    # is a fresh tally's, bit for bit, and putting the own path back restores
    # the tally. improving_move flags exactly the profiles is_nash rejects.
    moves = set()
    for name, inst in _golden_and_gamegen_games():
        graph, delta = inst.graph, inst.delta
        final = run_dynamics(graph, inst.players, delta).final_profile
        for profile in (first_path_profile(inst), final):
            tally = game.Tally(graph, profile, delta)
            original = game.Tally(graph, profile, delta)
            for player in inst.players:
                pid = player.player_id
                own = profile.path(pid)
                for alt in enumerate_paths(graph, player.root, player.leaf):
                    if alt != own:
                        tally.move(pid, graph.positions(alt))
                        fresh = game.Tally(graph, profile.replace(pid, alt), delta)
                        assert _numbers(tally, pid) == _numbers(fresh, pid), (name, pid, alt)
                tally.move(pid, graph.positions(own))
                assert tally.loads == original.loads, name
                assert tally.used == original.used, name
                assert _numbers(tally, pid) == _numbers(original, pid), name
            move = dynamics.improving_move(graph, profile, delta)
            assert (move is None) == is_nash(graph, profile, delta), name
            if move is not None:
                pid, path = move
                assert path == best_response(graph, profile, pid, delta, seed=0), name
            moves.add(move is None)
    assert moves == {False, True}


def _parallel_and_free_edges(delta):
    # Three players from r to l over two parallel pairs, one of them free,
    # and a free direct edge; two more players each on one pair.
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 0.0), ("b", "r", "m", 1.5), ("c", "m", "l", 0.1),
         ("d", "m", "l", 0.0), ("e", "r", "l", 0.3), ("f", "r", "l", 0.0)],
    )
    players = [Player(1, "r", "l"), Player(2, "r", "l"), Player(3, "r", "l"),
               Player(4, "r", "m"), Player(5, "m", "l")]
    return GameInstance(graph, players, delta)


def _reference_sums(tally):
    # The page cost as ordered_sum of the loaded edges' costs, and the
    # potential as one running total of each cost / x, from loads counted
    # afresh off the tally's paths.
    costs = tally.graph.costs
    loads = collections.Counter(e for path in tally.paths.values() for e in path)
    used = sorted(loads)
    page = ordered_sum([costs[e] for e in used], 0.0)
    total = 0.0
    for e in used:
        cost = costs[e]
        for x in range(1, loads[e] + 1):
            total += cost / x
    return page.hex(), (total + tally.delta * page if tally.delta else total).hex()


def test_tally_sums_match_the_reference_bit_for_bit():
    # Page cost and potential at first-path, greedy and final profiles and
    # after every in-place deviation, taking a player off included, read the
    # reference's bits; the loaded edges' costs stay beside them in order.
    seen = set()
    extra = [(f"parallel-{delta}", _parallel_and_free_edges(delta)) for delta in (0.0, 0.5)]
    for name, inst in itertools.chain(_golden_and_gamegen_games(), extra):
        graph, delta = inst.graph, inst.delta
        costs, edges = graph.costs, graph.edges
        trace = run_dynamics(graph, inst.players, delta)
        for profile in (first_path_profile(inst), trace.initial_profile, trace.final_profile):
            tally = game.Tally(graph, profile, delta)

            def read():
                assert tally.used_costs == [costs[e] for e in tally.used], name
                assert (tally.page().hex(), tally.potential().hex()) == _reference_sums(tally), name
                ends = [edges[e][1:3] for e in tally.used]
                seen.add((delta > 0, 0.0 in tally.used_costs, len(set(ends)) < len(ends)))

            read()
            for player in inst.players:
                pid = player.player_id
                own = tally.paths[pid]
                for alt in enumerate_paths(graph, player.root, player.leaf):
                    tally.move(pid, graph.positions(alt))
                    read()
                tally.move(pid, ())
                read()
                tally.move(pid, own)
                read()
    # Both kinds of delta, each with free edges and with parallel loaded edges.
    assert {(d, True, True) for d in (False, True)} <= seen


def _snapshot(state):
    page = state._page
    return (state.loads[:], state.used[:], dict(state.paths),
            None if page is None else page.hex(), [w.hex() for w in state.weights],
            state.used_costs[:])


def test_respond_puts_the_player_back_and_reads_the_reference_cost(monkeypatch):
    # respond takes the player off the tally and moves the same path back:
    # loads, loaded edges and their costs, paths and the cached page sum end
    # as they began. Without a generator it draws nothing and finds the least
    # attainable cost that a drawing respond and the reference find, bit for
    # bit.
    draws = []
    next_u64 = SplitMix64.next_u64

    def counted(self):
        draws.append(self)
        return next_u64(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    seen = set()

    def check(state, player, name):
        pid, root, leaf = player.player_id, player.root, player.leaf
        before = _snapshot(state)
        seen.add((state.delta > 0, any(state.loads[e] == 1 for e in state.paths.get(pid, ())),
                  before[3] is not None))
        draws.clear()
        path, cost, attainable = state.respond(pid, root, leaf)
        assert (path, cost, draws) == (None, None, []), name
        assert _snapshot(state) == before, name
        drawn = state.respond(pid, root, leaf, SplitMix64(7))
        assert _snapshot(state) == before, name
        expected = reference.respond(state.graph, state.profile(), player, state.delta,
                                     SplitMix64(7))
        assert tuple([state.graph.edge_ids[e] for e in drawn[0]]) == expected[0], name
        assert drawn[1].hex() == expected[1].hex(), name
        assert attainable.hex() == drawn[2].hex() == expected[2].hex(), name

    for name, inst in _golden_and_gamegen_games():
        graph, delta = inst.graph, inst.delta
        greedy = dynamics._State(graph, StrategyProfile({}), delta)
        rng = SplitMix64(3)
        for player in inst.players:
            check(greedy, player, name)
            pid = player.player_id
            greedy.move(pid, greedy.respond(pid, player.root, player.leaf, rng)[0])
        final = run_dynamics(graph, inst.players, delta).final_profile
        for profile in (first_path_profile(inst), final):
            state = dynamics._State(graph, profile, delta)
            for player in inst.players:
                check(state, player, name)
                state.page()
                check(state, player, name)
    # Both deltas, with and without a cached page; with delta, players whose
    # take-off empties an edge and players whose take-off does not.
    assert {(False, False), (False, True), (True, False), (True, True)} <= {
        (key[0], key[2]) for key in seen}
    assert {(True, False), (True, True)} <= {key[:2] for key in seen}


def _assert_weights_follow_loads(state, name):
    expected = reference.weights_from_loads(
        state.graph, reference.load_map(state.profile()), state.delta)
    assert [w.hex() for w in state.weights] == [
        expected[edge_id].hex() for edge_id in state.graph.edge_ids], name


def test_state_weights_follow_the_loads_after_every_change():
    # The state's weights are each edge's weight to a player joining it at
    # its current load, the reference's floats bit for bit: after
    # construction, after every placement and after every best response.
    moves = set()
    for name, inst in _golden_and_gamegen_games():
        graph, delta = inst.graph, inst.delta
        rng = SplitMix64(11)
        for profile in (StrategyProfile({}), first_path_profile(inst)):
            state = dynamics._State(graph, profile, delta)
            _assert_weights_follow_loads(state, name)
        for player in inst.players:
            pid, root, leaf = player.player_id, player.root, player.leaf
            drawn = state.respond(pid, root, leaf, rng)[0]
            _assert_weights_follow_loads(state, name)
            for new in (graph.positions(enumerate_paths(graph, root, leaf)[-1]), (), drawn):
                old = state.paths[pid]
                moves.add((delta > 0,
                           any(state.loads[e] == 1 for e in old if e not in new),
                           any(state.loads[e] == 0 for e in new)))
                state.move(pid, new)
                _assert_weights_follow_loads(state, name)
    # Moves that empty an edge and moves that fill one, at both kinds of delta.
    assert {(d, True, f) for d in (False, True) for f in (False, True)} <= moves
    assert {(d, e, True) for d in (False, True) for e in (False, True)} <= moves


# ---------------------------------------------------------------- tie counting

def _recorded_draws(monkeypatch) -> list:
    draws = []
    randrange = SplitMix64.randrange

    def recorded(self, n):
        draws.append((n, randrange(self, n)))
        return draws[-1][1]

    monkeypatch.setattr(SplitMix64, "randrange", recorded)
    return draws


@pytest.mark.parametrize("diamonds", (60, 70))
def test_solve_counts_and_draws_exponential_ties_exactly(tmp_path, monkeypatch, diamonds):
    # 2**diamonds equal paths: the count is exact, and the drawn index picks
    # its path by lexicographic rank, the first diamond's branch first.
    draws = _recorded_draws(monkeypatch)
    graph = diamond_chain(diamonds)
    instance = GameInstance(graph, (Player(1, "v0", f"v{diamonds}"),), 0.0)
    path = tmp_path / "diamonds.json"
    path.write_text(json.dumps(instance_to_json(instance)), encoding="utf-8")
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["solve", "--instance", str(path), "--seed", "5", "--output", str(out)]) == 0
    assert time.perf_counter() - started < 1.0
    # One draw for the greedy start, one for the quiet pass.
    assert [n for n, _ in draws] == [2**diamonds, 2**diamonds]
    rank = draws[0][1]
    if diamonds > 64:
        assert rank >= 2**64  # out of reach of a one-word draw
    sides = [rank >> (diamonds - 1 - i) & 1 for i in range(diamonds)]
    expected = [f"e{i:02d}{'ab'[side]}{k}" for i, side in enumerate(sides) for k in (1, 2)]
    assert json.loads(out.read_text())["final_profile"] == {"1": expected}


def _count_starts(monkeypatch) -> list:
    starts = []
    original = dynamics._State._count

    def counted(self, start, *args):
        starts.append(self.graph.topo_order[start])
        return original(self, start, *args)

    monkeypatch.setattr(dynamics._State, "_count", counted)
    return starts


def _solve(tmp_path, instance, seed=0):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(instance)), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["solve", "--instance", str(path), "--seed", str(seed),
                 "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("diamonds, seed", [(1, 0), (5, 3), (6, 11)])
def test_ties_are_counted_only_below_the_first_branch(tmp_path, monkeypatch, diamonds, seed):
    # A chain of single edges, then equal diamonds, then a forced tail: the
    # walk passes the chain uncounted, counts from the first diamond's two
    # middles on, and draws the same rank over the same 2**diamonds paths.
    chain = diamond_chain(diamonds)
    nodes = [(v.node_id, v.kind) for v in chain.nodes.values()]
    nodes += [(f"s{i}", "abstract") for i in range(3)] + [("t0", "abstract"),
                                                          ("t1", "abstract")]
    edges = [(e.edge_id, e.src, e.dst, e.cost) for e in chain.edges]
    edges += [("c0", "s0", "s1", 1.0), ("c1", "s1", "s2", 2.0), ("c2", "s2", "v0", 0.5),
              ("z0", f"v{diamonds}", "t0", 1.5), ("z1", "t0", "t1", 1.0)]
    instance = GameInstance(build_graph(nodes, edges), (Player(1, "s0", "t1"),), 0.0)
    draws = _recorded_draws(monkeypatch)
    starts = _count_starts(monkeypatch)
    final = _solve(tmp_path, instance, seed)["final_profile"]
    # One draw per best response: the greedy start and the quiet pass.
    assert [n for n, _ in draws] == [2**diamonds, 2**diamonds]
    assert starts[:2] == ["m0a", "m0b"]
    assert not {"s0", "s1", "s2", "v0", "t0", "t1"} & set(starts)
    rank = draws[0][1]
    sides = [rank >> (diamonds - 1 - i) & 1 for i in range(diamonds)]
    middle = [f"e{i:02d}{'ab'[side]}{k}" for i, side in enumerate(sides) for k in (1, 2)]
    assert final == {"1": ["c0", "c1", "c2"] + middle + ["z0", "z1"]}
    engine_draws = list(draws)
    draws.clear()
    trace = reference.run_dynamics(instance.graph, instance.players, 0.0,
                                   Schedule("round-robin", seed))
    assert draws == engine_draws
    assert {str(pid): list(p) for pid, p in trace.final_profile.items()} == final


def _distinct_cost_layers(seed: int) -> GameInstance:
    """Four full layers of three nodes with real-valued costs, so every best
    response has one cheapest path, and six players."""
    rng = random.Random(seed)
    layers = [[f"L{l}.{i}" for i in range(3)] for l in range(4)]
    nodes = [(n, "abstract") for layer in layers for n in layer]
    edges = [(f"e{l}{i}{j}", src, dst, rng.uniform(1.0, 10.0))
             for l in range(3) for i, src in enumerate(layers[l])
             for j, dst in enumerate(layers[l + 1])]
    players = tuple(Player(k + 1, rng.choice(layers[0]), rng.choice(layers[3]))
                    for k in range(6))
    return GameInstance(build_graph(nodes, edges), players, 0.5)


@pytest.mark.parametrize("instance", [build_d1(), _distinct_cost_layers(7)],
                         ids=["d1", "distinct-cost-layers"])
def test_unique_best_responses_are_neither_counted_nor_drawn(tmp_path, monkeypatch, instance):
    draws = _recorded_draws(monkeypatch)
    starts = _count_starts(monkeypatch)
    for seed in (0, 5):
        report = _solve(tmp_path, instance, seed)
    assert report["converged"]
    assert starts == []
    assert draws == []


# ---------------------------------------------------------------- answer reuse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _count_relaxations(monkeypatch) -> list:
    plans = []
    original = dynamics._State._relax

    def counted(self, plan, target):
        plans.append(plan)
        return original(self, plan, target)

    monkeypatch.setattr(dynamics._State, "_relax", counted)
    return plans


def _count_folds(monkeypatch) -> list:
    lines = []
    original = dynamics._State._fold

    def counted(self, line):
        lines.append(line)
        return original(self, line)

    monkeypatch.setattr(dynamics._State, "_fold", counted)
    return lines


def test_dag_dynamics_reuses_answers_until_a_move(monkeypatch):
    # The benchmark's layered game at seed 1: of its 900 best responses (300
    # placements, then a moving pass and a quiet pass of 300 activations
    # each) 411 repeat one answered since the last move, for a player with
    # the same root, leaf and path. Of the 489 left, the 150 of the 100
    # forced players (50 root-leaf pairs with one path each) fold along
    # that path; the other 339 relax their plans.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inst = parse_instance(workloads.dag_dynamics_instance(1))
    relaxed = _count_relaxations(monkeypatch)
    folded = _count_folds(monkeypatch)
    trace = run_dynamics(inst.graph, inst.players, inst.delta, Schedule("round-robin", 1))
    assert (len(inst.players), len(trace.steps), trace.passes) == (300, 600, 2)
    assert sum(step.path_changed for step in trace.steps) == 50
    assert (len(relaxed), len(folded)) == (339, 150)
    assert len(set(folded)) == 50


def test_one_path_pairs_fold_instead_of_relaxing(monkeypatch):
    # Every player of a document game has one path: no best response,
    # is_nash or best_response relaxes a plan, and each folds along its
    # pair's path. d1's players are joined by two parallel edges, so they
    # still relax.
    from golden_corpus import games
    from pagegame.instance import load_instance

    relaxed = _count_relaxations(monkeypatch)
    folded = _count_folds(monkeypatch)
    inst = load_instance(str(games()["doc3"]))
    graph = inst.graph
    trace = run_dynamics(graph, inst.players, inst.delta, Schedule("random", 3))
    assert is_nash(graph, trace.final_profile, inst.delta)
    for player in inst.players:
        best_response(graph, trace.final_profile, player.player_id, inst.delta)
    assert relaxed == []
    assert {graph.only_path(p.root, p.leaf) for p in inst.players} == set(folded)

    d1 = build_d1(0.5)
    folded.clear()
    run_dynamics(d1.graph, d1.players, d1.delta)
    assert d1.graph.only_path("r", "l") is None
    assert relaxed and folded == []


def test_answers_are_keyed_by_the_players_path(monkeypatch):
    # Players 1 and 2 share root and leaf but not paths, so each taken off
    # sees the other on a different edge: the answers differ. Player 2 moves
    # onto a at half its cost, as the reference finds.
    relaxed = _count_relaxations(monkeypatch)
    inst = build_d1(0.0)
    initial = StrategyProfile({1: ("a",), 2: ("b",)})
    state = dynamics._State(inst.graph, initial, 0.0)
    assert [state.respond(pid, "r", "l")[2] for pid in (1, 2, 1, 2)] == [1.0, 0.5, 1.0, 0.5]
    assert len(relaxed) == 2
    trace = run_dynamics(inst.graph, inst.players, 0.0, initial=initial)
    assert trace.steps[1][1:4] == (2, 3.0, 0.5)
    assert trace == reference.run_dynamics(inst.graph, inst.players, 0.0, initial=initial)


def test_a_move_clears_the_answers(monkeypatch):
    relaxed = _count_relaxations(monkeypatch)
    inst = build_d1(0.0, cost_a=5.0, cost_b=2.0)
    state = dynamics._State(inst.graph, StrategyProfile({1: ("a",), 2: ("a",)}), 0.0)
    first = state.respond(1, "r", "l", SplitMix64(0))
    assert state.respond(2, "r", "l", SplitMix64(0)) == first
    assert state.respond(2, "r", "l")[2] == first[2]
    assert len(relaxed) == 2  # one per kind of answer
    state.move(1, state.paths[1])  # even a move onto the same path
    assert state.respond(2, "r", "l", SplitMix64(0)) == first
    assert len(relaxed) == 3

    # Both players start on a and want b. Player 1 moves; player 2 shares the
    # key player 1 had, yet relaxes again and finds b at half its cost. The
    # quiet pass relaxes once for the two.
    relaxed.clear()
    initial = StrategyProfile({1: ("a",), 2: ("a",)})
    trace = run_dynamics(inst.graph, inst.players, 0.0, initial=initial)
    assert [(s.player_id, s.new_cost, s.path) for s in trace.steps[:2]] == [
        (1, 2.0, ("b",)), (2, 1.0, ("b",))]
    assert len(relaxed) == 3
    assert trace == reference.run_dynamics(inst.graph, inst.players, 0.0, initial=initial)


@pytest.mark.parametrize("delta, cost_a", [(0.0, 2.0), (1.0, 4.0)])
def test_drawn_answers_are_never_reused(monkeypatch, delta, cost_a):
    # Two players on a, which weighs the same as b to either once it is
    # taken off: each activation draws between them, and the draws and
    # traces are the reference's, which has no table of answers.
    inst = build_d1(delta, cost_a=cost_a, cost_b=1.0)
    initial = StrategyProfile({1: ("a",), 2: ("a",)})
    draws = _recorded_draws(monkeypatch)
    relaxed = _count_relaxations(monkeypatch)
    for seed in range(8):
        schedule = Schedule("random", seed)
        draws.clear()
        relaxed.clear()
        trace = run_dynamics(inst.graph, inst.players, delta, schedule, initial=initial)
        engine_draws = list(draws)
        draws.clear()
        expected = reference.run_dynamics(inst.graph, inst.players, delta, schedule,
                                          initial=initial)
        assert [n for n, _ in engine_draws] == [2, 2, 2]  # the shuffle, then one per player
        assert engine_draws == draws
        assert len(relaxed) == 2
        assert trace == expected
