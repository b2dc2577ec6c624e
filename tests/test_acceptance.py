"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion. The random corpus is the shared 200-instance fixture
(at most 6 nodes, 10 edges, 3 players; delta cycling over 0, 0.5, 1, 2).
"""

import json
import time

import pytest

from pagegame import (
    analyze,
    best_response,
    enumerate_paths,
    is_nash,
    page_cost,
    parse_document,
    player_cost,
    potential,
    run_dynamics,
    shapley_share,
)
from pagegame.cli import main
from pagegame.game import ordered_sum

from gamegen import (
    SAMPLE_DOCUMENT,
    all_profiles,
    build_d1,
    first_path_profile,
    instance_to_json,
)
from reference_dynamics import load_map

TOL = 1e-9


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_runs(instance_corpus):
    """Converged dynamics for every corpus instance, computed once."""
    return [
        (inst, run_dynamics(inst.graph, inst.players, inst.delta))
        for inst in instance_corpus
    ]


@pytest.fixture(scope="module")
def corpus_catalogs(instance_corpus):
    """Brute-force catalogs for every corpus instance, computed once."""
    return [analyze(inst.graph, inst.players, inst.delta) for inst in instance_corpus]


def _baselines(inst, trace):
    return (first_path_profile(inst), trace.final_profile)


def test_criterion_1_document_parse():
    started = time.perf_counter()
    forest = parse_document(SAMPLE_DOCUMENT)
    elapsed = time.perf_counter() - started
    ok = forest.node_count == 11 and forest.edge_count == 10 and elapsed < 1.0
    _verdict(
        "criterion-1 document-parse", ok,
        f"nodes={forest.node_count} edges={forest.edge_count} in {elapsed:.3f}s",
    )


def test_criterion_2_potential_exactness(corpus_runs):
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    for inst, trace in corpus_runs:
        paths = {
            p.player_id: enumerate_paths(inst.graph, p.root, p.leaf)
            for p in inst.players
        }
        for profile in _baselines(inst, trace):
            phi = potential(inst.graph, profile, inst.delta)
            for p in inst.players:
                pid = p.player_id
                base = player_cost(inst.graph, profile, pid, inst.delta)
                for alt in paths[pid]:
                    if alt == profile.path(pid):
                        continue
                    moved = profile.replace(pid, alt)
                    gap = abs(
                        (phi - potential(inst.graph, moved, inst.delta))
                        - (base - player_cost(inst.graph, moved, pid, inst.delta))
                    )
                    worst = max(worst, gap)
                    checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= TOL and elapsed < 30.0
    _verdict(
        "criterion-2 potential-exactness", ok,
        f"{checked} deviations, worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_best_response_exactness(corpus_runs):
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    for index, (inst, trace) in enumerate(corpus_runs):
        for profile in _baselines(inst, trace):
            for p in inst.players:
                pid = p.player_id
                chosen = best_response(
                    inst.graph, profile, pid, inst.delta, seed=index
                )
                chosen_cost = player_cost(
                    inst.graph, profile.replace(pid, chosen), pid, inst.delta
                )
                brute = min(
                    player_cost(inst.graph, profile.replace(pid, alt), pid, inst.delta)
                    for alt in enumerate_paths(inst.graph, p.root, p.leaf)
                )
                worst = max(worst, chosen_cost - brute)
                checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= TOL and elapsed < 30.0
    _verdict(
        "criterion-3 best-response-exactness", ok,
        f"{checked} responses, worst excess {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_convergence(instance_corpus):
    started = time.perf_counter()
    converged = 0
    monotone = True
    for inst in instance_corpus:
        trace = run_dynamics(inst.graph, inst.players, inst.delta, max_iters=10000)
        if trace.converged:
            converged += 1
        last = potential(inst.graph, trace.initial_profile, inst.delta)
        for step in trace.steps:
            if step.potential_after > last + 1e-12:
                monotone = False
            last = step.potential_after
    elapsed = time.perf_counter() - started
    ok = converged == len(instance_corpus) and monotone and elapsed < 60.0
    _verdict(
        "criterion-4 convergence", ok,
        f"{converged}/{len(instance_corpus)} converged, monotone={monotone}, {elapsed:.2f}s",
    )


def test_criterion_5_equilibrium_cross_validation(corpus_runs, corpus_catalogs):
    finals_catalogued = 0
    profiles_checked = 0
    deviations_verified = 0
    agree = True
    for (inst, trace), catalog in zip(corpus_runs, corpus_catalogs):
        catalogued = {
            tuple(sorted(e.profile.paths.items())) for e in catalog.equilibria
        }
        if tuple(sorted(trace.final_profile.paths.items())) in catalogued:
            finals_catalogued += 1
        shown = 0
        for profile in all_profiles(inst):
            key = tuple(sorted(profile.paths.items()))
            stable = is_nash(inst.graph, profile, inst.delta)
            if stable != (key in catalogued):
                agree = False
            profiles_checked += 1
            if not stable and shown < 5:
                # Exhibit a concrete strictly improving deviation.
                found = False
                for p in inst.players:
                    pid = p.player_id
                    current = player_cost(inst.graph, profile, pid, inst.delta)
                    for alt in enumerate_paths(inst.graph, p.root, p.leaf):
                        moved = player_cost(
                            inst.graph, profile.replace(pid, alt), pid, inst.delta
                        )
                        if moved < current - TOL:
                            found = True
                            break
                    if found:
                        break
                if not found:
                    agree = False
                deviations_verified += 1
                shown += 1
    ok = agree and finals_catalogued == len(corpus_runs)
    _verdict(
        "criterion-5 equilibrium-cross-validation", ok,
        f"{finals_catalogued}/{len(corpus_runs)} finals catalogued, "
        f"{profiles_checked} profiles cross-checked, "
        f"{deviations_verified} deviations exhibited",
    )


def test_criterion_6_budget_and_aggregation(corpus_runs):
    checked = 0
    worst_balance = 0.0
    worst_aggregate = 0.0
    for inst, trace in corpus_runs:
        k = len(inst.players)
        for profile in list(_baselines(inst, trace)) + list(all_profiles(inst)):
            loads = load_map(profile)
            total_shares = sum(
                shapley_share(inst.graph.edge(e).cost, loads[e])
                for _, path in profile.items()
                for e in path
            )
            cost = page_cost(inst.graph, profile)
            worst_balance = max(worst_balance, abs(total_shares - cost))
            total_player = sum(
                player_cost(inst.graph, profile, p.player_id, inst.delta)
                for p in inst.players
            )
            worst_aggregate = max(
                worst_aggregate, abs(total_player - cost * (1.0 + inst.delta * k))
            )
            checked += 1
    ok = worst_balance <= TOL and worst_aggregate <= TOL
    _verdict(
        "criterion-6 budget-and-aggregation", ok,
        f"{checked} profiles, balance gap {worst_balance:.2e}, "
        f"aggregation gap {worst_aggregate:.2e}",
    )


def test_criterion_7_zero_delta_reduction(instance_corpus, corpus_catalogs):
    reductions = 0
    exact = True
    bounded = True
    zero_delta = 0
    for inst, catalog in zip(instance_corpus, corpus_catalogs):
        if inst.delta != 0.0:
            continue
        zero_delta += 1
        for profile in all_profiles(inst):
            loads = load_map(profile)
            for pid, path in profile.items():
                pure = ordered_sum(inst.graph.edge(e).cost / loads[e] for e in path)
                if player_cost(inst.graph, profile, pid, 0.0) != pure:
                    exact = False
                reductions += 1
        k = len(inst.players)
        harmonic = sum(1.0 / j for j in range(1, k + 1))
        if catalog.pos > harmonic + TOL:
            bounded = False
    ok = exact and bounded and zero_delta > 0
    _verdict(
        "criterion-7 zero-delta-shapley", ok,
        f"{zero_delta} zero-delta instances, {reductions} exact reductions, "
        f"pos<=H(k) {'held' if bounded else 'violated'}",
    )


def test_criterion_8_determinism(instance_corpus, tmp_path, monkeypatch):
    cases = [
        ("d1", instance_to_json(build_d1())),
        ("rand17", instance_to_json(instance_corpus[17])),
        ("rand42", instance_to_json(instance_corpus[42])),
    ]
    identical = True
    for name, doc in cases:
        instance_path = tmp_path / f"{name}.json"
        instance_path.write_text(json.dumps(doc), encoding="utf-8")
        outputs = []
        for attempt in ("first", "second"):
            workdir = tmp_path / f"{name}_{attempt}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            code_solve = main(
                ["solve", "--instance", str(instance_path), "--seed", "11",
                 "--schedule", "random", "--output", "report.json",
                 "--trace", "trace.ndjson"]
            )
            code_enum = main(
                ["enumerate", "--instance", str(instance_path),
                 "--output", "catalog.json"]
            )
            outputs.append(
                (
                    code_solve,
                    code_enum,
                    (workdir / "report.json").read_bytes(),
                    (workdir / "trace.ndjson").read_bytes(),
                    (workdir / "catalog.json").read_bytes(),
                )
            )
        if outputs[0] != outputs[1]:
            identical = False
    _verdict(
        "criterion-8 determinism", identical,
        f"{len(cases)} instances, solve+enumerate byte-compared",
    )
