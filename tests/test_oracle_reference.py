"""The per-player oracle sweep against the per-profile reference in
``reference_oracle``: same catalogs, same errors, floats bit for bit."""

import itertools
import math
from pathlib import Path

import pytest

from pagegame import Player, build_graph, oracle, page_cost
from pagegame.errors import NoPath, SearchSpaceTooLarge
from pagegame.game import TOLERANCE
from pagegame.instance import parse_instance

import reference_oracle as reference
from gamegen import (
    DELTAS, diamond_chain, large_cost_game, layered_game, random_instance, reachable_from,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bits(value):
    """Floats as hex strings, so equality means equal bits (and sign of zero)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return tuple(sorted((k, _bits(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _catalog_bits(catalog):
    entries = tuple(
        (e.profile.paths, _bits(e.report.page_cost), _bits(e.report.player_costs),
         _bits(e.report.shares), _bits(e.report.potential), _bits(e.report.delta),
         e.is_forest)
        for e in catalog.equilibria
    )
    return (entries, catalog.optimum.paths, _bits(catalog.optimum_cost),
            _bits(catalog.poa), _bits(catalog.pos))


def _assert_same_catalog(graph, players, delta):
    expected = reference.analyze(graph, players, delta)
    actual = oracle.analyze(graph, players, delta)
    assert _catalog_bits(actual) == _catalog_bits(expected)
    return actual


def _counts(graph, players):
    return [graph.path_count(p.root, p.leaf) for p in players]


def _profile_space(graph, players):
    return math.prod(_counts(graph, players))


@pytest.mark.parametrize("delta", DELTAS)
def test_catalogs_match_reference_on_gamegen_games(delta):
    for seed in range(40):
        inst = random_instance(4000 + seed, delta=delta)
        _assert_same_catalog(inst.graph, inst.players, delta)


@pytest.mark.parametrize("delta", DELTAS)
def test_catalogs_match_reference_on_layered_games(delta):
    compared = 0
    for seed in range(40):
        graph, players, _ = layered_game(4100 + seed, delta, count=3)
        if _profile_space(graph, players) > 1500:
            continue
        catalog = _assert_same_catalog(graph, players, delta)
        compared += 1
        assert catalog.equilibria
    assert compared >= 10


def test_catalogs_match_reference_on_large_cost_games():
    # Past 1e7 an ulp exceeds TOLERANCE, so both sides apply the slack.
    for seed in range(60):
        inst = large_cost_game(
            random_instance(4200 + seed, delta=DELTAS[seed % len(DELTAS)], max_profiles=100), seed
        )
        if _profile_space(inst.graph, inst.players) <= 2000:
            _assert_same_catalog(inst.graph, inst.players, inst.delta)


def _with_twins(graph, players, copies, at=None):
    """``players`` with ``copies`` more on the root and leaf of the first
    player with a choice of path, inserted at index ``at`` (default: the
    end), or ``None`` when no player has a choice."""
    counts = _counts(graph, players)
    chooser = next((p for p, count in zip(players, counts) if count > 1), None)
    if chooser is None:
        return None
    twins = (Player(len(players) + k + 1, chooser.root, chooser.leaf) for k in range(copies))
    at = len(players) if at is None else at
    return (*players[:at], *twins, *players[at:])


@pytest.mark.parametrize("delta", DELTAS)
def test_catalogs_match_reference_with_duplicate_players(monkeypatch, delta):
    # Players on the same root and leaf make the others' load patterns
    # repeat, so many verdicts come from the sweeps' tables, here given
    # room for every key: at the default bound games this small keep few.
    monkeypatch.setattr(oracle, "_PROFILES_PER_VERDICT", 1)
    compared = 0
    for seed in range(60):
        inst = random_instance(4500 + seed, delta=delta, max_profiles=40)
        games = [inst.graph]
        if seed % 3 == 0:
            games.append(large_cost_game(inst, seed).graph)
        for graph in games:
            players = _with_twins(graph, inst.players, 1 + seed % 2)
            if players and _profile_space(graph, players) <= 3000:
                _assert_same_catalog(graph, players, delta)
                compared += 1
    assert compared >= 40


# ---------------------------------------------------------------- social optimum

def _assert_same_optimum(graph, players):
    expected = reference.social_optimum(graph, players)
    actual = oracle.social_optimum(graph, players)
    assert actual.paths == expected.paths
    assert page_cost(graph, actual).hex() == page_cost(graph, expected).hex()
    return actual


def test_optimum_matches_reference_on_gamegen_layered_and_large_cost_games():
    compared = 0
    for seed in range(40):
        inst = random_instance(4300 + seed)
        _assert_same_optimum(inst.graph, inst.players)
        _assert_same_optimum(large_cost_game(inst, seed).graph, inst.players)
        graph, players, _ = layered_game(4400 + seed, 0.0, count=4)
        if _profile_space(graph, players) <= 20_000:
            _assert_same_optimum(graph, players)
            compared += 1
    assert compared >= 10


def test_optimum_matches_reference_with_twins_at_the_start_middle_and_end():
    # The walk skips the profiles that permute interchangeable players'
    # paths out of nondecreasing order; its optimum must not move.
    compared = 0
    for seed in range(30):
        inst = random_instance(4600 + seed, max_profiles=60)
        games = [inst.graph, large_cost_game(inst, seed).graph]
        for graph, copies in itertools.product(games, (1, 2)):
            for at in (0, len(inst.players) // 2, len(inst.players)):
                players = _with_twins(graph, inst.players, copies, at)
                if players and _profile_space(graph, players) <= 3000:
                    _assert_same_optimum(graph, players)
                    compared += 1
    assert compared >= 100


@pytest.mark.parametrize("twins, width", [(2, 5), (3, 4), (4, 3)])
def test_optimum_walk_sums_one_leaf_per_multiset_of_twin_paths(monkeypatch, twins, width):
    # Free edges prune nothing. The twins (on ``width`` parallel edges)
    # split by a lone player with two paths: C(width + twins - 1, twins)
    # multisets of the twins' paths, each with both of the lone player's,
    # where the whole product has width**twins * 2 profiles.
    graph = build_graph(
        [(n, "abstract") for n in ("r", "l", "m")],
        [*((f"e{j}", "r", "l", 0.0) for j in range(width)),
         ("a", "r", "m", 0.0), ("b", "r", "m", 0.0)],
    )
    players = [Player(i, "r", "l") for i in range(1, twins + 1)]
    players.insert(1, Player(twins + 1, "r", "m"))
    sums = []
    real = oracle.ordered_sum

    def counting(values, *start):
        sums.append(1)
        return real(values, *start)

    monkeypatch.setattr(oracle, "ordered_sum", counting)
    optimum = oracle.social_optimum(graph, players)
    assert len(sums) == math.comb(width + twins - 1, twins) * 2
    monkeypatch.undo()
    assert optimum.paths == reference.social_optimum(graph, players).paths


def test_optimum_exact_tie_keeps_first_in_product_order():
    # Both players on a, or both on b then c, cost 2.0 exactly; the split
    # profiles cost 4.0. The walk must keep (a, a), first in product order.
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "l", 2.0), ("b", "r", "m", 1.0), ("c", "m", "l", 1.0)],
    )
    players = (Player(1, "r", "l"), Player(2, "r", "l"))
    optimum = _assert_same_optimum(graph, players)
    assert optimum.paths == {1: ("a",), 2: ("a",)}


def test_optimum_near_tie_is_decided_by_declaration_order_sums():
    # Declared b3, b1, b2, the chain sums to one ulp below a; summed along
    # the path, b1 + b2 + b3 lands one ulp above a. The chain must win: a
    # walk-order leaf sum, or a bound without its ulp margin, keeps a.
    b1, b2, b3 = 353388117.51, 777707812.66, 814800196.42
    declared = (b3 + b1) + b2
    a = math.nextafter(declared, math.inf)
    assert (b1 + b2) + b3 == math.nextafter(a, math.inf)
    graph = build_graph(
        [(n, "abstract") for n in ("r", "x", "y", "l")],
        [("b3", "y", "l", b3), ("b1", "r", "x", b1), ("b2", "x", "y", b2), ("a", "r", "l", a)],
    )
    optimum = _assert_same_optimum(graph, (Player(1, "r", "l"),))
    assert optimum.path(1) == ("b1", "b2", "b3")
    assert page_cost(graph, optimum) == declared


def test_all_tied_profiles_are_equilibria_in_product_order():
    # Equal costs everywhere and no social term: every split of the shared
    # edges ties, so the sweep must keep exactly the reference's profiles.
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "r", "m", 1.0), ("c", "m", "l", 1.0),
         ("d", "m", "l", 1.0)],
    )
    players = tuple(Player(i, "r", "l") for i in (1, 2, 3))
    catalog = _assert_same_catalog(graph, players, 0.0)
    keys = [tuple(e.profile.paths.values()) for e in catalog.equilibria]
    assert keys == sorted(keys)


def test_errors_match_reference(d1):
    for fn in (oracle.brute_force_equilibria, reference.brute_force_equilibria):
        with pytest.raises(SearchSpaceTooLarge) as err:
            fn(d1.graph, d1.players, 0.0, cap=3)
        assert (err.value.size, err.value.cap) == (4, 3)
    graph = build_graph([("r", "abstract"), ("l", "abstract"), ("x", "abstract")],
                        [("a", "r", "l", 1.0)])
    players = (Player(1, "r", "l"), Player(2, "r", "x"))
    for fn in (oracle.brute_force_equilibria, reference.brute_force_equilibria):
        with pytest.raises(NoPath) as err:
            fn(graph, players, 0.0)
        assert err.value.player_id == 2


# ---------------------------------------------------------------- work and boundary

def _layer_game():
    """Source, two layers of three nodes joined completely, sink: nine paths."""
    nodes = ["s", "a0", "a1", "a2", "b0", "b1", "b2", "t"]
    costs = itertools.cycle((1.0, 2.0, 0.0, 3.0, 1.5))
    edges = [(f"s{i}", "s", f"a{i}", next(costs)) for i in range(3)]
    edges += [(f"m{i}{j}", f"a{i}", f"b{j}", next(costs)) for i in range(3) for j in range(3)]
    edges += [(f"t{j}", f"b{j}", "t", next(costs)) for j in range(3)]
    graph = build_graph([(n, "abstract") for n in nodes], edges)
    return graph, tuple(Player(i, "s", "t") for i in (1, 2, 3))


@pytest.mark.parametrize("delta", DELTAS)
def test_sweep_scores_each_candidate_once_per_combination(monkeypatch, delta):
    graph, players = _layer_game()
    assert _counts(graph, players) == [9, 9, 9]
    scored = []
    real = oracle._deviation_costs

    def counting(candidates, *args):
        scored.append(len(candidates))
        return real(candidates, *args)

    monkeypatch.setattr(oracle, "_deviation_costs", counting)
    actual = oracle.brute_force_equilibria(graph, players, delta)
    # At most P·N; skipping combinations already refuted keeps it below.
    assert 0 < sum(scored) < 3 * 729
    monkeypatch.undo()
    expected = reference.brute_force_equilibria(graph, players, delta)
    assert [e.profile.paths for e in actual] == [e.profile.paths for e in expected]


def test_optimum_walk_prunes_dear_subtrees(monkeypatch):
    # Every lower branch costs 5 more, so all three players on the upper
    # branches are cheapest by far: most of the 4,096 profiles never need
    # a leaf sum.
    graph = diamond_chain(4, extra=lambda i: 5.0)
    players = tuple(Player(i, "v0", "v4") for i in (1, 2, 3))
    profiles = _profile_space(graph, players)
    assert profiles == 4096
    sums = []
    real = oracle.ordered_sum

    def counting(values, *start):
        sums.append(1)
        return real(values, *start)

    monkeypatch.setattr(oracle, "ordered_sum", counting)
    optimum = oracle.social_optimum(graph, players)
    assert 0 < len(sums) < profiles // 8
    monkeypatch.undo()
    assert optimum.paths == reference.social_optimum(graph, players).paths


def test_sweep_skips_players_with_one_path(monkeypatch):
    # Forty players pinned to the single edge c, one with a choice: only
    # the chooser's candidates are scored, once per combination (one).
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "l", 1.0), ("b", "r", "l", 2.0), ("c", "m", "l", 1.0)],
    )
    players = (Player(1, "r", "l"), *(Player(i, "m", "l") for i in range(2, 42)))
    scored = []
    real = oracle._deviation_costs

    def counting(candidates, *args):
        scored.append(len(candidates))
        return real(candidates, *args)

    monkeypatch.setattr(oracle, "_deviation_costs", counting)
    entries = oracle.brute_force_equilibria(graph, players, 0.5)
    assert scored == [2]
    assert [e.profile.path(1) for e in entries] == [("a",)]


def _fan_game(counts):
    """Player ``p`` has ``counts[p]`` paths: from its own root ``s{p}`` to a
    hub ``m{j}`` (``j < counts[p]``), then over the hub's edge, shared by
    every player reaching it, to the sink. Costs repeat, so shares tie."""
    hubs = (3.0, 1.0, 2.0, 1.0, 4.0, 2.5, 1.5)
    nodes = [f"s{p}" for p in range(len(counts))] + [f"m{j}" for j in range(7)] + ["t"]
    edges = [(f"h{j}", f"m{j}", "t", cost) for j, cost in enumerate(hubs)]
    edges += [(f"p{p}{j}", f"s{p}", f"m{j}", (p + 2 * j) % 4 * 0.5)
              for p, n in enumerate(counts) for j in range(n)]
    graph = build_graph([(n, "abstract") for n in nodes], edges)
    players = tuple(Player(p + 1, f"s{p}", "t") for p in range(len(counts)))
    assert _counts(graph, players) == list(counts)
    return graph, players


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("counts", [
    (7, 3, 2), (2, 7, 3), (3, 2, 7),  # the widest player first, in the middle, last
    (3, 5, 7), (7, 5, 3), (5, 3, 2, 3),  # widths 3, 5 and 7 fold in uneven steps
    (3, 1, 5, 1, 2), (1, 2, 1, 3, 1),  # single-path players between choosers
    (5, 2, 5, 3), (3, 3, 3, 2),  # tied widest players
])
def test_sweep_matches_reference_on_uneven_widths(counts, delta):
    _assert_same_catalog(*_fan_game(counts), delta)


def _flags_by_choice(graph, players, order, delta):
    """The flags with ``players`` declared in ``order``, each profile keyed
    by every player's path index in the original declaration order."""
    sizes = _counts(graph, players)
    ordered = [players[p] for p in order]
    path_sets = oracle._candidate_paths(graph, ordered, oracle.DEFAULT_CAP)
    flags = oracle._stability_flags(graph, path_sets, delta)
    choices = itertools.product(*(range(sizes[p]) for p in order))
    return {tuple(dict(zip(order, choice))[p] for p in range(len(players))): flag
            for choice, flag in zip(choices, flags)}


def _assert_flags_match_in_every_order(graph, players, delta):
    expected = _flags_by_choice(graph, players, range(len(players)), delta)
    assert sum(expected.values()) == len(reference.brute_force_equilibria(graph, players, delta))
    for order in itertools.permutations(range(len(players))):
        assert _flags_by_choice(graph, players, order, delta) == expected


@pytest.mark.parametrize("delta", DELTAS)
def test_permuted_players_permute_the_flags(delta):
    _assert_flags_match_in_every_order(*_fan_game((3, 1, 5, 2)), delta)


def test_sweep_scores_only_standing_combinations_widest_first(monkeypatch):
    # Three players on separate parallel edges; only the cheapest edge is
    # stable for each. Player 2 (three paths, first of the widest) scores
    # all six combinations of the others; player 3 then scores the two
    # with player 2 on x, and player 1 the one with players 2 and 3 on x
    # and u. Declaration order would score 9 + 3 + 1 combinations.
    graph = build_graph(
        [(n, "abstract") for n in ("r1", "l1", "r2", "l2", "r3", "l3")],
        [("a", "r1", "l1", 1.0), ("b", "r1", "l1", 2.0),
         ("x", "r2", "l2", 1.0), ("y", "r2", "l2", 2.0), ("z", "r2", "l2", 3.0),
         ("u", "r3", "l3", 1.0), ("v", "r3", "l3", 2.0), ("w", "r3", "l3", 3.0)],
    )
    players = (Player(1, "r1", "l1"), Player(2, "r2", "l2"), Player(3, "r3", "l3"))
    scored = []
    real = oracle._deviation_costs

    def counting(candidates, *args):
        scored.append(len(candidates))
        return real(candidates, *args)

    monkeypatch.setattr(oracle, "_deviation_costs", counting)
    entries = oracle.brute_force_equilibria(graph, players, 0.0)
    assert scored == [3] * 6 + [3] * 2 + [2]
    assert [e.profile.paths for e in entries] == [{1: ("a",), 2: ("x",), 3: ("u",)}]


def test_share_tables_cover_only_the_swept_players_edges(monkeypatch):
    graph, players = _fan_game((3, 1, 5, 2))
    path_sets = oracle._candidate_paths(graph, players, 100)
    edges = [set().union(*paths) for paths in path_sets]
    users = [sum(e in own for own in edges) for e in range(len(graph.costs))]
    seen = []
    real = oracle._deviation_costs

    def checking(candidates, loads, *args):
        # The widths differ, so the candidate count names the swept player.
        (swept,) = (p for p, paths in enumerate(path_sets) if len(paths) == len(candidates))
        table = {edge for candidate in candidates for edge in candidate}
        assert {position for position, _, _ in table} == edges[swept]
        for position, cost, shares in table:
            assert cost == graph.costs[position]
            assert loads[position] < len(shares) <= users[position]
            assert [s.hex() for s in shares] == [
                (cost / (k + 1)).hex() for k in range(len(shares))]
        seen.append(swept)
        return real(candidates, loads, *args)

    monkeypatch.setattr(oracle, "_deviation_costs", checking)
    oracle.brute_force_equilibria(graph, players, 0.5)
    assert seen[0] == 2 and set(seen) <= {0, 2, 3}


def test_sweep_memory_stays_a_few_bytes_per_profile(monkeypatch):
    # Twelve players on the same three parallel edges: 3**12 profiles. The
    # only equilibria put everyone on one edge.
    graph = build_graph([("r", "abstract"), ("l", "abstract")],
                        [("a", "r", "l", 1.0), ("b", "r", "l", 2.0), ("c", "r", "l", 3.0)])
    players = tuple(Player(i, "r", "l") for i in range(1, 13))
    path_sets = oracle._candidate_paths(graph, players, oracle.DEFAULT_CAP)
    size = 3**12
    flags = oracle._stability_flags(graph, path_sets, 0.5)
    assert len(flags) == size
    assert list(itertools.compress(range(size), flags)) == [0, size // 2, size - 1]

    # A sweep allocates the folded flags, the share table and the packed
    # paths before its first scoring. Tracing every allocation of the full
    # run takes over a minute on a 2-vCPU host, so trace up to the first
    # scoring; the next test traces whole sweeps, verdict tables included.
    class Scored(Exception):
        pass

    def stop(*args):
        raise Scored

    tracemalloc = pytest.importorskip("tracemalloc")
    monkeypatch.setattr(oracle, "_deviation_costs", stop)
    tracemalloc.start()
    try:
        with pytest.raises(Scored):
            oracle._stability_flags(graph, path_sets, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * size


def test_sweep_memory_with_verdict_tables_stays_under_32_bytes_per_profile():
    # Five players choose among parallel 18-edge chains (8, 8, 8, 8 and 4
    # of them) and eleven hold one edge each: 8**4 * 4 profiles over 659
    # private edges, so no two combinations share a key, and 16 players
    # make each key four bits per edge. The widest sweep scores 2,048 keys,
    # four times what its table keeps; kept whole, the tables would take
    # about 67 bytes per profile. Only the cheapest chains stand.
    nodes, edges, players = [], [], []
    for p, width in enumerate((8, 8, 8, 8, 4, *[1] * 11)):
        root, leaf = f"r{p}", f"l{p}"
        nodes += [root, leaf]
        for j in range(width):
            inner = [f"x{p}.{j}.{k}" for k in range(1, 18 if width > 1 else 1)]
            nodes += inner
            chain = [root, *inner, leaf]
            edges += [(f"e{p}.{j}.{k}", tail, head, 1.0 + j * (k == 0))
                      for k, (tail, head) in enumerate(zip(chain, chain[1:]))]
        players.append(Player(p + 1, root, leaf))
    graph = build_graph([(n, "abstract") for n in nodes], edges)
    path_sets = oracle._candidate_paths(graph, players, oracle.DEFAULT_CAP)
    assert (len(graph.costs), len(path_sets)) == (659, 16)
    tracemalloc = pytest.importorskip("tracemalloc")
    tracemalloc.start()
    try:
        flags = oracle._stability_flags(graph, path_sets, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(itertools.compress(range(len(flags)), flags)) == [0]
    assert peak < 32 * len(flags)


def test_sweep_memory_with_alternating_groups_stays_under_32_bytes_per_profile():
    # Two pairs of interchangeable players choose among eight free 18-edge
    # chains each, one more player among four priced ones, and eleven hold
    # one edge each: 8**4 * 4 profiles over 371 edges. Nothing beats a free
    # chain, so every combination of the pairs stands and each pair's
    # sweeps fill a table of 512 verdicts; the first pair's table must go
    # before the second's fills (both kept read about 42 bytes per profile).
    nodes, edges, players = [], [], []
    for p, (width, twins) in enumerate(((8, 2), (8, 2), (4, 1), *[(1, 1)] * 11)):
        root, leaf = f"r{p}", f"l{p}"
        nodes += [root, leaf]
        for j in range(width):
            inner = [f"x{p}.{j}.{k}" for k in range(1, 18 if width > 1 else 1)]
            nodes += inner
            chain = [root, *inner, leaf]
            edges += [(f"e{p}.{j}.{k}", tail, head, (1.0 + j * (k == 0)) * (width == 4))
                      for k, (tail, head) in enumerate(zip(chain, chain[1:]))]
        players += [Player(len(players) + 1, root, leaf) for _ in range(twins)]
    graph = build_graph([(n, "abstract") for n in nodes], edges)
    path_sets = oracle._candidate_paths(graph, players, oracle.DEFAULT_CAP)
    assert (len(graph.costs), len(path_sets)) == (371, 16)
    tracemalloc = pytest.importorskip("tracemalloc")
    tracemalloc.start()
    try:
        flags = oracle._stability_flags(graph, path_sets, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stable profiles put the fifth player on its cheapest chain.
    assert list(itertools.compress(range(len(flags)), flags)) == list(range(0, len(flags), 4))
    assert peak < 32 * len(flags)


def _count_scorings(monkeypatch):
    scored = []
    real = oracle._deviation_costs

    def counting(candidates, *args):
        scored.append(len(candidates))
        return real(candidates, *args)

    monkeypatch.setattr(oracle, "_deviation_costs", counting)
    return scored


@pytest.mark.parametrize("twin, args, keyed, combinations", [
    ("tie_lattice_twin", (), 175, 820),  # three players on one corner pair
    ("dag_dynamics_twin", (1,), 87, 91),  # three players from s, few repeats
])
def test_sweeps_score_each_load_pattern_of_the_others_once(
    monkeypatch, twin, args, keyed, combinations
):
    # The benchmark's desk-scale twins: with no room for verdicts every
    # standing combination is scored, with the tables each load pattern
    # once per group of interchangeable players (up to the bound), and the
    # flags are the same.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inst = parse_instance(getattr(workloads, twin)(*args))
    path_sets = oracle._candidate_paths(inst.graph, inst.players, oracle.DEFAULT_CAP)
    scored = _count_scorings(monkeypatch)
    flags = oracle._stability_flags(inst.graph, path_sets, inst.delta)
    assert len(scored) == keyed
    scored.clear()
    monkeypatch.setattr(oracle, "_PROFILES_PER_VERDICT", len(flags) + 1)
    assert oracle._stability_flags(inst.graph, path_sets, inst.delta) == flags
    assert len(scored) == combinations


def _interleaved_groups_game():
    """Players 1 and 4 from ``s`` (3 paths), 2 from ``v`` (3 paths), 3 and
    5 from ``u`` (2 paths), all through hubs ``m*`` and their edges to ``t``.
    Widest first alone sweeps 1, 2, 4, 3, 5; grouped, 1, 4, 2, 3, 5."""
    hubs = (3.0, 1.0, 2.0)
    entries = {"s": (0.0, 1.0, 0.5), "v": (0.5, 0.5, 0.0), "u": (1.0, 0.0)}
    edges = [(f"h{j}", f"m{j}", "t", cost) for j, cost in enumerate(hubs)]
    edges += [(f"{root}{j}", root, f"m{j}", cost)
              for root, costs in entries.items() for j, cost in enumerate(costs)]
    nodes = ["s", "u", "v", "m0", "m1", "m2", "t"]
    graph = build_graph([(n, "abstract") for n in nodes], edges)
    players = tuple(Player(i + 1, root, "t") for i, root in enumerate("svusu"))
    assert _counts(graph, players) == [3, 3, 2, 3, 2]
    return graph, players


@pytest.mark.parametrize("delta", DELTAS)
def test_interleaved_groups_share_one_table_per_group(monkeypatch, delta):
    graph, players = _interleaved_groups_game()
    _assert_flags_match_in_every_order(graph, players, delta)
    # The others' loads under which each group's candidates are scored,
    # with room for every key and with none.
    path_sets = oracle._candidate_paths(graph, players, oracle.DEFAULT_CAP)
    roots = {frozenset().union(*paths): player.root
             for player, paths in zip(players, path_sets)}
    real = oracle._deviation_costs

    def recording(candidates, loads, *args):
        edges = frozenset(position for c in candidates for position, _, _ in c)
        seen.setdefault(roots[edges], []).append(tuple(loads))
        return real(candidates, loads, *args)

    monkeypatch.setattr(oracle, "_deviation_costs", recording)
    runs = []
    for per_verdict in (1, math.prod(map(len, path_sets)) + 1):
        monkeypatch.setattr(oracle, "_PROFILES_PER_VERDICT", per_verdict)
        seen = {}
        runs.append((oracle._stability_flags(graph, path_sets, delta), seen))
    (flags, kept), (same, rescored) = runs
    assert flags == same
    assert kept.keys() == rescored.keys() and "s" in kept
    for root, loads in kept.items():
        # Each distinct load pattern once, however many sweeps meet it.
        assert len(loads) == len(set(loads)) == len(set(rescored[root]))
    assert len(rescored["s"]) > len(set(rescored["s"]))


def _kept_first(visits, room):
    """The visits scored when each group's table keeps the verdicts of its
    first ``room`` distinct load patterns and takes no more."""
    scored, kept, swept = [], set(), None
    for group, loads in visits:
        if group != swept:
            kept, swept = set(), group
        if loads not in kept:
            scored.append((group, loads))
            if len(kept) < room:
                kept.add(loads)
    return scored


@pytest.mark.parametrize("game, per_verdict, delta", [
    ("twin", 60, None), ("twin", 80, None), ("twin", 200, None),  # one group of three
    ("interleaved", 5, 0.5), ("interleaved", 10, 1.0),  # two groups, one lone player
])
def test_full_verdict_tables_keep_their_first_keys(monkeypatch, game, per_verdict, delta):
    # With no room every visit is scored. The visits do not depend on the
    # room: verdicts are the same whether kept or scored, so each sweep
    # starts from the same flags. So the record with no room, replayed
    # with each group keeping its first keys, gives the scorings at any
    # room. These rooms fill mid-group.
    if game == "twin":
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        inst = parse_instance(workloads.tie_lattice_twin())
        graph, players, delta = inst.graph, inst.players, inst.delta
    else:
        graph, players = _interleaved_groups_game()
    path_sets = oracle._candidate_paths(graph, players, oracle.DEFAULT_CAP)
    total = math.prod(map(len, path_sets))
    real = oracle._deviation_costs
    visits = []

    def recording(candidates, loads, *args):
        edges = frozenset(position for c in candidates for position, _, _ in c)
        visits.append((edges, tuple(loads)))
        return real(candidates, loads, *args)

    monkeypatch.setattr(oracle, "_deviation_costs", recording)
    monkeypatch.setattr(oracle, "_PROFILES_PER_VERDICT", total + 1)
    flags = oracle._stability_flags(graph, path_sets, delta)
    every = visits[:]
    visits.clear()
    monkeypatch.setattr(oracle, "_PROFILES_PER_VERDICT", per_verdict)
    assert oracle._stability_flags(graph, path_sets, delta) == flags
    expected = _kept_first(every, total // per_verdict)
    assert visits == expected
    assert len(_kept_first(every, total)) < len(expected) < len(every)


def test_verdicts_key_on_loads_off_the_swept_players_edges(monkeypatch):
    # Player 1's b costs 20 ulps (of 2**30) more than a, counting its page
    # share. Player 2's two paths both cost 2**30: one edge c, or a chain
    # of 32 edges d*. Player 1's loads are the same against both, but the
    # used edges the slack counts are not: 3 terms against c, 34 against
    # d. So b is beaten beside c only, and the verdict against c must not
    # be reused against d. Four profiles leave no room for verdicts at the
    # default bound.
    monkeypatch.setattr(oracle, "_PROFILES_PER_VERDICT", 1)
    ulp = math.ulp(2.0**30)
    chain = [f"m{k}" for k in range(31)]
    nodes = ["r1", "l1", "r2", "l2", *chain]
    hops = ["r2", *chain, "l2"]
    edges = [("a", "r1", "l1", 1.0), ("b", "r1", "l1", 1.0 + 10 * ulp),
             ("c", "r2", "l2", 2.0**30)]
    edges += [(f"d{k:02d}", tail, head, 2.0**25)
              for k, (tail, head) in enumerate(zip(hops, hops[1:]))]
    graph = build_graph([(n, "abstract") for n in nodes], edges)
    players = (Player(1, "r1", "l1"), Player(2, "r2", "l2"))
    scored = _count_scorings(monkeypatch)
    catalog = _assert_same_catalog(graph, players, 1.0)
    assert [(e.profile.path(1), e.profile.path(2)[0]) for e in catalog.equilibria] == [
        (("a",), "c"), (("a",), "d00"), (("b",), "d00")]
    assert scored == [2] * 4


def test_improvement_must_exceed_tolerance():
    # One player on the dear edge b; its only alternative a is cheaper by
    # exactly TOLERANCE (as floats) in the first game, and by one ulp more
    # in the second. Only a strictly larger improvement refutes the profile.
    cheap = 1.0
    dear = cheap + TOLERANCE
    assert dear - TOLERANCE == cheap
    more = math.nextafter(dear, math.inf)
    assert cheap < more - TOLERANCE
    for cost_b, b_is_stable in ((dear, True), (more, False)):
        graph = build_graph([("r", "abstract"), ("l", "abstract")],
                            [("a", "r", "l", cheap), ("b", "r", "l", cost_b)])
        players = (Player(1, "r", "l"),)
        for fn in (oracle.brute_force_equilibria, reference.brute_force_equilibria):
            stable = [e.profile.path(1) for e in fn(graph, players, 0.0)]
            assert stable == ([("a",), ("b",)] if b_is_stable else [("a",)])


# ---------------------------------------------------------------- property test

def test_random_dags_match_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def games(draw):
        n = draw(st.integers(3, 8))
        costs = st.sampled_from((0.0, 1.0, 1.0, 2.0, 0.5, 1.5, 0.1, 0.2, 0.3, 3.7))
        edges = []
        for j in range(draw(st.integers(n - 1, 2 * n))):
            src = draw(st.integers(0, n - 2))
            dst = draw(st.integers(src + 1, n - 1))
            edges.append((f"e{j:02d}", f"n{src}", f"n{dst}", draw(costs)))
        graph = build_graph([(f"n{i}", "abstract") for i in range(n)], edges)
        pairs = [
            (u, v) for u, v in itertools.combinations(graph.topo_order, 2)
            if v in reachable_from(graph, u)
        ]
        hypothesis.assume(pairs)
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
        players = tuple(Player(i + 1, r, l) for i, (r, l) in enumerate(chosen))
        hypothesis.assume(_profile_space(graph, players) <= 600)
        return graph, players, draw(st.sampled_from(DELTAS))

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(games())
    def check(game):
        _assert_same_catalog(*game)

    check()


def test_path_counts_match_listing_on_edge_cases():
    graph = build_graph([("r", "abstract"), ("l", "abstract"), ("x", "abstract")],
                        [("a", "r", "l", 1.0), ("b", "r", "l", 1.0)])
    players = [Player(1, "r", "l"), Player(2, "l", "r"), Player(3, "r", "r"),
               Player(4, "ghost", "l"), Player(5, "r", "x"), Player(6, "ghost", "ghost"),
               Player(7, "r", "l")]
    assert _counts(graph, players) == [
        len(oracle.enumerate_paths(graph, p.root, p.leaf)) for p in players
    ] == [2, 0, 1, 0, 0, 0, 2]
