import ast
import math
from pathlib import Path

import pytest

from pagegame import (
    Player,
    Schedule,
    StrategyProfile,
    analyze,
    brute_force_equilibria,
    build_graph,
    enumerate_paths,
    is_nash,
    oracle,
    page_cost,
    run_dynamics,
    social_optimum,
    union_is_forest,
)
from pagegame.errors import NoEquilibria, NoPath, SearchSpaceTooLarge
from pagegame.game import ordered_sum
from pagegame.instance import load_instance

import golden_corpus
from gamegen import (
    DELTAS, all_profiles, build_d1, large_cost_game, layered_game, random_instance, search_log,
)

TOL = 1e-9


# ---------------------------------------------------------------- paths

def test_enumerate_parallel_pair(d1):
    assert enumerate_paths(d1.graph, "r", "l") == [("a",), ("b",)]


def test_enumerate_single_chain():
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "m", "l", 1.0)],
    )
    assert enumerate_paths(graph, "r", "l") == [("a", "b")]


def test_enumerate_unreachable_is_empty():
    graph = build_graph([("r", "abstract"), ("l", "abstract")], [])
    assert enumerate_paths(graph, "r", "l") == []


def _count_paths_memoized(graph, root, leaf):
    # Oracle: path counting by dynamic programming, no listing.
    memo: dict[str, int] = {}

    def count(node):
        if node == leaf:
            return 1
        if node not in memo:
            memo[node] = sum(count(e.dst) for e in graph.out_edges(node))
        return memo[node]

    return count(root)


def test_enumerate_count_matches_memoized_oracle():
    for seed in range(15):
        inst = random_instance(2100 + seed)
        for p in inst.players:
            count = inst.graph.path_count(p.root, p.leaf)
            listed = enumerate_paths(inst.graph, p.root, p.leaf)
            assert len(listed) == _count_paths_memoized(inst.graph, p.root, p.leaf) == count
            assert listed == sorted(listed), "lexicographic order"
            assert len(set(listed)) == len(listed)


def test_analyze_on_an_unvalidated_graph_makes_one_pass():
    # analyze counts paths before listing them, and the count registers
    # every player's root in one pass.
    graph, players, delta = layered_game(4150, 0.5, count=3)
    roots = {p.root for p in players}
    assert len(roots) > 1
    passes = search_log(graph)
    analyze(graph, players, delta)
    assert passes == [roots]


def test_analyze_lists_each_players_paths_once(monkeypatch):
    inst = random_instance(2150)
    listed = []
    real = oracle.enumerate_paths

    def counting(graph, root, leaf):
        listed.append((root, leaf))
        return real(graph, root, leaf)

    monkeypatch.setattr(oracle, "enumerate_paths", counting)
    analyze(inst.graph, inst.players, inst.delta)
    assert listed == [(p.root, p.leaf) for p in inst.players]


# ---------------------------------------------------------------- equilibria

def test_d1_has_unique_equilibrium(d1):
    entries = brute_force_equilibria(d1.graph, d1.players, 0.0)
    assert len(entries) == 1
    assert entries[0].profile.paths == {1: ("a",), 2: ("a",)}
    # The other three profiles are refuted: (b,b) by deviating to a at
    # 1 < 1.5, and each split because the lone b user pays 3 > 0.5 shared.
    rejected = [
        {1: ("b",), 2: ("b",)},
        {1: ("a",), 2: ("b",)},
        {1: ("b",), 2: ("a",)},
    ]
    catalogued = [e.profile.paths for e in entries]
    for paths in rejected:
        assert paths not in catalogued


def test_single_player_equilibria_are_min_cost_paths():
    graph = build_graph(
        [("r", "abstract"), ("l", "abstract")],
        [("a", "r", "l", 2.0), ("b", "r", "l", 2.0), ("c", "r", "l", 5.0)],
    )
    players = (Player(1, "r", "l"),)
    entries = brute_force_equilibria(graph, players, 0.0)
    assert {e.profile.path(1) for e in entries} == {("a",), ("b",)}


def test_dynamics_results_appear_in_catalog():
    for seed in range(15):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(2200 + seed, delta=delta)
        trace = run_dynamics(inst.graph, inst.players, delta)
        assert trace.converged
        entries = brute_force_equilibria(inst.graph, inst.players, delta)
        assert trace.final_profile.paths in [e.profile.paths for e in entries]


def test_dynamics_results_appear_in_catalog_at_large_costs():
    # Past 1e7 an ulp passes TOLERANCE; with detours that tie their edge in
    # exact arithmetic, paths tie up to a few ulps apart. Wherever a run
    # stops, under any schedule, the oracle must list the profile.
    checked = 0
    for seed in range(300):
        delta = DELTAS[seed % len(DELTAS)]
        inst = large_cost_game(random_instance(2400 + seed, delta=delta, max_profiles=100), seed)
        if math.prod(inst.graph.path_count(p.root, p.leaf) for p in inst.players) > 2000:
            continue
        entries = brute_force_equilibria(inst.graph, inst.players, delta)
        catalogued = [e.profile.paths for e in entries]
        for s in range(4):
            schedule = Schedule("random" if s else "round-robin", s)
            trace = run_dynamics(inst.graph, inst.players, delta, schedule)
            if trace.converged:
                assert trace.final_profile.paths in catalogued, (seed, s)
                checked += 1
    assert checked >= 1000


def test_oracle_and_engine_agree_profile_by_profile():
    for seed in range(10):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(2300 + seed, delta=delta, max_profiles=80)
        catalogued = {
            tuple(sorted(e.profile.paths.items()))
            for e in brute_force_equilibria(inst.graph, inst.players, delta)
        }
        for profile in all_profiles(inst):
            key = tuple(sorted(profile.paths.items()))
            assert is_nash(inst.graph, profile, delta) == (key in catalogued)


def test_search_space_cap(d1):
    with pytest.raises(SearchSpaceTooLarge) as err:
        brute_force_equilibria(d1.graph, d1.players, 0.0, cap=3)
    assert err.value.size == 4


@pytest.mark.parametrize("root, leaf", [("ghost", "l"), ("r", "ghost")])
def test_unknown_endpoint_is_no_path(d1, root, leaf):
    players = (d1.players[0], Player(2, root, leaf))
    for search in (analyze, brute_force_equilibria, social_optimum, run_dynamics):
        with pytest.raises(NoPath) as err:
            search(d1.graph, players)
        assert err.value.player_id == 2


def test_price_of_stability_within_harmonic_bound_at_zero_delta():
    # Anshelevich et al. (FOCS 2004): under fair cost sharing some
    # equilibrium costs at most H(P) times the social optimum.
    games = [load_instance(str(path)) for path in golden_corpus.games().values()]
    games += [random_instance(6000 + seed) for seed in range(60)]
    for inst in games:
        catalog = analyze(inst.graph, inst.players, 0.0)
        harmonic = ordered_sum(1.0 / j for j in range(1, len(inst.players) + 1))
        assert 1.0 <= catalog.pos <= harmonic + TOL


def test_catalog_is_deterministic():
    inst = random_instance(2400, delta=0.5)
    first = analyze(inst.graph, inst.players, 0.5)
    second = analyze(inst.graph, inst.players, 0.5)
    assert [e.profile.paths for e in first.equilibria] == [
        e.profile.paths for e in second.equilibria
    ]
    assert (first.poa, first.pos) == (second.poa, second.pos)


# ---------------------------------------------------------------- optimum

def test_d1_optimum_shares_cheap_edge(d1):
    optimum = social_optimum(d1.graph, d1.players)
    assert optimum.paths == {1: ("a",), 2: ("a",)}
    assert page_cost(d1.graph, optimum) == 1.0


def test_single_player_optimum_is_cheapest_path():
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "m", "l", 1.0), ("c", "r", "l", 5.0)],
    )
    optimum = social_optimum(graph, (Player(1, "r", "l"),))
    assert optimum.path(1) == ("a", "b")


def test_optimum_never_beaten_by_equilibria():
    for seed in range(12):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(2500 + seed, delta=delta)
        catalog = analyze(inst.graph, inst.players, delta)
        for entry in catalog.equilibria:
            assert catalog.optimum_cost <= entry.report.page_cost + TOL


# ---------------------------------------------------------------- efficiency

def test_d1_is_fully_efficient(d1):
    catalog = analyze(d1.graph, d1.players, 0.0)
    assert catalog.poa == pytest.approx(1.0, abs=TOL)
    assert catalog.pos == pytest.approx(1.0, abs=TOL)


def test_ratio_order_and_lower_bound():
    for seed in range(12):
        delta = DELTAS[seed % len(DELTAS)]
        inst = random_instance(2600 + seed, delta=delta)
        catalog = analyze(inst.graph, inst.players, delta)
        assert catalog.pos <= catalog.poa
        assert catalog.poa >= 1.0 - TOL
        assert catalog.pos >= 1.0 - TOL


def test_stability_price_bounded_by_harmonic_number():
    # With no social term the potential minimizer is an equilibrium within
    # H(k) of the optimum, so the best equilibrium is too.
    for seed in range(20):
        inst = random_instance(2700 + seed, delta=0.0)
        catalog = analyze(inst.graph, inst.players, 0.0)
        k = len(inst.players)
        harmonic = sum(1.0 / j for j in range(1, k + 1))
        assert catalog.pos <= harmonic + TOL


def test_optimum_cost_is_the_optimums_page_cost_bit_for_bit():
    # The optimum walk's leaf sum is the catalog's optimum cost; page_cost
    # re-sums the optimum's union from a tally.
    games = [load_instance(str(path)) for path in golden_corpus.games().values()]
    games += [random_instance(6100 + seed, delta=DELTAS[seed % len(DELTAS)]) for seed in range(60)]
    for inst in games:
        catalog = analyze(inst.graph, inst.players, inst.delta)
        assert catalog.optimum_cost.hex() == page_cost(inst.graph, catalog.optimum).hex()
    empty = analyze(build_graph([("r", "abstract")], []), ())
    assert type(empty.optimum_cost) is float and empty.optimum_cost.hex() == (0.0).hex()


def test_no_equilibria_error(monkeypatch):
    # Every finite game has a pure equilibrium, so only a sweep that clears
    # every flag leaves analyze none.
    d1 = build_d1()
    monkeypatch.setattr(oracle, "_stability_flags",
                        lambda graph, path_sets, delta: bytearray(math.prod(map(len, path_sets))))
    with pytest.raises(NoEquilibria):
        analyze(d1.graph, d1.players)


def test_zero_cost_optimum_ratio_needs_an_exactly_free_equilibrium():
    # b costs 1e-10 more than the free edge a, within TOLERANCE, so both
    # profiles are equilibria; only a is free, so anarchy's price is infinite.
    graph = build_graph([("r", "abstract"), ("l", "abstract")],
                        [("a", "r", "l", 0.0), ("b", "r", "l", 1e-10)])
    catalog = analyze(graph, (Player(1, "r", "l"),), 0.0)
    assert [e.profile.path(1) for e in catalog.equilibria] == [("a",), ("b",)]
    assert (catalog.optimum_cost, catalog.poa, catalog.pos) == (0.0, math.inf, 1.0)


# ---------------------------------------------------------------- forest flag

def test_forest_flag_spots_parallel_cycle():
    # All-zero costs make every profile an equilibrium; using both parallel
    # edges forms an undirected cycle, so that entry is flagged non-forest.
    inst = build_d1(cost_a=0.0, cost_b=0.0)
    catalog = analyze(inst.graph, inst.players, 0.0)
    assert len(catalog.equilibria) == 4
    flags = {
        tuple(sorted(e.profile.paths.items())): e.is_forest for e in catalog.equilibria
    }
    assert flags[((1, ("a",)), (2, ("a",)))] is True
    assert flags[((1, ("a",)), (2, ("b",)))] is False
    assert flags[((1, ("b",)), (2, ("a",)))] is False


def test_forest_flag_on_tree_union():
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("a", "r", "m", 1.0), ("b", "m", "l", 1.0)],
    )
    profile = StrategyProfile({1: ("a", "b")})
    assert union_is_forest(graph, profile)


# ---------------------------------------------------------------- independence

def _package_imports(module):
    """The ``pagegame`` modules that ``module``'s source imports, anywhere in it."""
    package = Path(oracle.__file__).parent
    tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pagegame" if node.level else "", node.module]))
            names += [f"{base}.{alias.name}" for alias in node.names]
    parts = [name.split(".") for name in names]
    return {p[1] for p in parts if p[0] == "pagegame" and (package / f"{p[1]}.py").is_file()}


def test_oracle_dynamics_and_game_stay_independent():
    # The oracle's agreement with the dynamics means something only while
    # neither reads the other, directly or through a module in between.
    def reach(module):
        seen, todo = set(), [module]
        while todo:
            for name in _package_imports(todo.pop()) - seen:
                seen.add(name)
                todo.append(name)
        return seen

    assert "dynamics" not in reach("oracle")
    assert "oracle" not in reach("dynamics")
    assert not reach("game") & {"oracle", "dynamics"}
