"""Bounds from the literature that hold for every game of this engine.

With ``H(P)`` the ``P``-th harmonic number of a game's ``P`` players and
the potential ``Φ = Σ_e c_e H(L_e) + δ · page`` (Rosenthal 1973; Monderer
and Shapley, "Potential games", GEB 1996; Anshelevich et al., FOCS 2004):

* every profile has ``(1 + δ) · page ≤ Φ ≤ (H(P) + δ) · page``, since
  ``1 ≤ H(L_e) ≤ H(P)`` on every used edge;
* a profile of least ``Φ`` is an equilibrium, so it is in ``analyze``'s
  catalog (the catalog ``enumerate`` writes);
* hence ``PoS ≤ (H(P) + δ) / (1 + δ)``;
* and ``PoA ≤ P · (1 + δ)``: at an equilibrium each player's share is at
  most ``1 + δ`` times the cost of its path in the optimum, since moving
  there costs it no more.

``Φ`` and the page cost come from ``tests/reference_oracle.py``'s
definitions, over its own path lists, not from ``Tally``. Each ``a ≤ b``
holds under the README's slack rule: ``a ≤ b + game.slack(b, n)``, with
``n`` the terms summed. The bounds are checked on the golden corpus and
the ``gamegen`` corpus at five deltas, and on small random DAG games that
Hypothesis draws.
"""

from __future__ import annotations

import itertools

import pytest

import golden_corpus
import reference_oracle
from gamegen import corpus, reachable_from
from pagegame import GameInstance, Player, StrategyProfile, analyze, build_graph
from pagegame.errors import SearchSpaceTooLarge
from pagegame.game import ordered_sum, slack
from pagegame.instance import load_instance

DELTAS = (0.0, 0.25, 0.5, 1.0, 2.0)

#: Games with more profiles than this are left out; of the golden corpus
#: that is only ``near-grid3`` (85,750).
CAP = 10_000


def _at_most(a: float, b: float, terms: int) -> bool:
    return a <= b + slack(b, terms)


@pytest.fixture(scope="module")
def games():
    """Name, instance and the reference path lists of each golden game
    within ``CAP`` profiles and of the 200 ``gamegen`` corpus games."""
    found = []
    named = [(name, load_instance(str(path))) for name, path in golden_corpus.games().items()]
    named += [(f"gamegen-{i}", inst) for i, inst in enumerate(corpus(200))]
    for name, inst in named:
        try:
            path_sets = reference_oracle.candidate_paths(inst.graph, inst.players, CAP)
        except SearchSpaceTooLarge:
            continue
        found.append((name, inst, path_sets))
    assert len(found) > 220
    return found


def _profiles(inst, path_sets):
    return [StrategyProfile({p.player_id: path for p, path in zip(inst.players, combo)})
            for combo in itertools.product(*path_sets)]


def _harmonic(players: int) -> float:
    return ordered_sum(1.0 / j for j in range(1, players + 1))


def _check_sandwich(name, inst, path_sets, deltas):
    harmonic = _harmonic(len(inst.players))
    for delta, profile in itertools.product(deltas, _profiles(inst, path_sets)):
        report = reference_oracle.cost_report(inst.graph, profile, delta)
        page, phi = report.page_cost, report.potential
        terms = sum(map(len, profile.paths.values())) + 1  # one per load unit, and the page
        assert _at_most((1.0 + delta) * page, phi, terms), (name, delta, profile.paths)
        assert _at_most(phi, (harmonic + delta) * page, terms), (name, delta, profile.paths)


def _check_minimizers(name, inst, path_sets, deltas):
    profiles = _profiles(inst, path_sets)
    for delta in deltas:
        phis = [reference_oracle.cost_report(inst.graph, profile, delta).potential
                for profile in profiles]
        least = min(phis)
        catalog = [entry.profile for entry in analyze(inst.graph, inst.players, delta).equilibria]
        for profile, phi in zip(profiles, phis):
            if phi == least:
                assert profile in catalog, (name, delta, profile.paths)


def _check_prices(name, inst, path_sets, deltas):
    players = len(inst.players)
    harmonic = _harmonic(players)
    # One term per edge a profile can use.
    terms = max(sum(max(map(len, paths)) for paths in path_sets), 1)
    for delta in deltas:
        catalog = analyze(inst.graph, inst.players, delta)
        stability = (harmonic + delta) / (1.0 + delta)
        assert _at_most(catalog.pos, stability, terms), (name, delta, catalog.pos)
        assert _at_most(catalog.poa, players * (1.0 + delta), terms), (name, delta, catalog.poa)


def test_potential_is_sandwiched_by_the_page_cost(games):
    for game in games:
        _check_sandwich(*game, DELTAS)


def test_potential_minimizers_are_in_the_catalog(games):
    for game in games:
        _check_minimizers(*game, DELTAS)


def test_prices_of_stability_and_anarchy_within_their_bounds(games):
    for game in games:
        _check_prices(*game, DELTAS)


def test_bounds_hold_on_small_random_dags_property():
    # Costs from a small set, zero included, so that paths tie and edges
    # come free; each player's pair has a path.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def games(draw):
        n = draw(st.integers(2, 6))
        costs = st.sampled_from((0.0, 1.0, 1.0, 2.0, 3.0))
        edges = []
        for j in range(draw(st.integers(n - 1, 2 * n))):
            src = draw(st.integers(0, n - 2))
            dst = draw(st.integers(src + 1, n - 1))
            edges.append((f"e{j:02d}", f"n{src}", f"n{dst}", draw(costs)))
        graph = build_graph([(f"n{i}", "abstract") for i in range(n)], edges)
        pairs = [(u, v) for u, v in itertools.combinations(graph.topo_order, 2)
                 if v in reachable_from(graph, u)]
        hypothesis.assume(pairs)
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
        players = tuple(Player(i + 1, root, leaf) for i, (root, leaf) in enumerate(chosen))
        return GameInstance(graph, players, draw(st.sampled_from((0.0, 0.5, 1.0))))

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(games())
    def check(inst):
        try:
            path_sets = reference_oracle.candidate_paths(inst.graph, inst.players, 1_000)
        except SearchSpaceTooLarge:
            hypothesis.reject()
        game = ("hypothesis", inst, path_sets)
        _check_sandwich(*game, (inst.delta,))
        _check_minimizers(*game, (inst.delta,))
        _check_prices(*game, (inst.delta,))

    check()
