import functools
import json
import math
import operator
import re
import time
from pathlib import Path

import pytest

from pagegame import (
    GameInstance,
    Player,
    StrategyProfile,
    build_graph,
)
from pagegame import game
from pagegame.cli import main
from pagegame.errors import GraphError, MalformedInstance
from pagegame.instance import instance_from_text, load_instance
from pagegame.reporting import profile_summary, render_dot

from gamegen import build_d1, diamond_chain, instance_to_json
from reference_dynamics import load_map

REPO_ROOT = Path(__file__).resolve().parent.parent

D1_INSTANCE = {
    "format_version": 1,
    "delta": 0.0,
    "nodes": [{"id": "r", "kind": "abstract"}, {"id": "l", "kind": "abstract"}],
    "edges": [
        {"id": "a", "src": "r", "dst": "l", "cost": 1.0},
        {"id": "b", "src": "r", "dst": "l", "cost": 3.0},
    ],
    "players": [
        {"id": 1, "root": "r", "leaf": "l", "label": "first"},
        {"id": 2, "root": "r", "leaf": "l", "label": "second"},
    ],
}


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(D1_INSTANCE), encoding="utf-8")
    return path


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


# ---------------------------------------------------------------- solve

def test_solve_reaches_shared_edge(d1_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["solve", "--instance", str(d1_file), "--delta", "0", "--seed", "7",
         "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["converged"] is True
    assert report["final_profile"] == {"1": ["a"], "2": ["a"]}
    assert report["cost_report"]["page_cost"] == 1.0


def test_solve_zero_max_iters_is_usage_error(d1_file, capsys):
    assert main(["solve", "--instance", str(d1_file), "--max-iters", "0"]) == 1
    assert "max-iters" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(d1_file):
    assert main(["solve", "--instance", str(d1_file), "--frobnicate"]) == 1
    assert main(["solve", "--instance", str(d1_file), "--format", "json"]) == 1


def test_missing_instance_file_is_usage_error(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "absent.json")]) == 1


def test_invalid_json_is_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", "--instance", str(path)]) == 1


def test_mixed_forms_are_malformed(tmp_path):
    mixed = dict(D1_INSTANCE)
    mixed["document"] = "<html></html>"
    mixed["devices"] = []
    path = _write(tmp_path, "mixed.json", mixed)
    assert main(["solve", "--instance", str(path)]) == 1


def test_negative_delta_fails_validation(d1_file):
    assert main(["solve", "--instance", str(d1_file), "--delta", "-1"]) == 2


def test_negative_cost_fails_validation(tmp_path):
    bad = json.loads(json.dumps(D1_INSTANCE))
    bad["edges"][0]["cost"] = -2.0
    path = _write(tmp_path, "bad.json", bad)
    assert main(["solve", "--instance", str(path)]) == 2


def test_missing_player_path_fails_validation(tmp_path):
    bad = json.loads(json.dumps(D1_INSTANCE))
    bad["nodes"].append({"id": "island", "kind": "abstract"})
    bad["players"][0]["leaf"] = "island"
    path = _write(tmp_path, "nopath.json", bad)
    assert main(["solve", "--instance", str(path)]) == 2


def test_malformed_embedded_document(tmp_path):
    obj = {
        "format_version": 1,
        "document": "<html><body>",
        "devices": [{"id": "d", "class": "pc", "required_components": ["1:html"]}],
    }
    path = _write(tmp_path, "doc.json", obj)
    assert main(["solve", "--instance", str(path)]) == 1


def test_trace_file_records_steps(d1_file, tmp_path):
    trace = tmp_path / "trace.ndjson"
    out = tmp_path / "report.json"
    main(
        ["solve", "--instance", str(d1_file), "--output", str(out),
         "--trace", str(trace)]
    )
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records, "trace must not be empty"
    for record in records:
        assert set(record) == {
            "iteration", "player_id", "previous_cost", "new_cost",
            "potential_after", "path_changed", "path",
        }
    report = json.loads(out.read_text())
    assert report["trace"] == str(trace)


def test_file_delta_used_unless_flag_overrides(tmp_path):
    obj = dict(D1_INSTANCE)
    obj["delta"] = 0.5
    path = _write(tmp_path, "halved.json", obj)
    out = tmp_path / "r.json"
    main(["solve", "--instance", str(path), "--output", str(out)])
    assert json.loads(out.read_text())["delta"] == 0.5
    main(["solve", "--instance", str(path), "--delta", "2.0", "--output", str(out)])
    assert json.loads(out.read_text())["delta"] == 2.0


# ---------------------------------------------------------------- enumerate

def test_enumerate_catalog(d1_file, tmp_path):
    out = tmp_path / "catalog.json"
    assert main(["enumerate", "--instance", str(d1_file), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    catalog = report["catalog"]
    assert len(catalog["equilibria"]) == 1
    assert catalog["equilibria"][0]["profile"] == {"1": ["a"], "2": ["a"]}
    assert catalog["equilibria"][0]["is_forest"] is True
    assert catalog["poa"] == 1.0
    assert catalog["pos"] == 1.0
    assert catalog["optimum"]["page_cost"] == 1.0


def test_enumerate_cap_exceeded(d1_file):
    assert main(["enumerate", "--instance", str(d1_file), "--cap", "3"]) == 4


def test_enumerate_validation_failure(tmp_path):
    bad = json.loads(json.dumps(D1_INSTANCE))
    bad["nodes"].append({"id": "island", "kind": "abstract"})
    bad["players"][1]["leaf"] = "island"
    path = _write(tmp_path, "nopath.json", bad)
    assert main(["enumerate", "--instance", str(path)]) == 2


def test_enumerate_writes_unbounded_ratio_as_null(tmp_path):
    # The free path x costs 0; q and the detour p, y cost 1e-10, below the
    # tolerance, so they are equilibria too while the optimum costs 0.
    obj = {
        "format_version": 1, "delta": 0.0,
        "nodes": [{"id": n, "kind": "abstract"} for n in ("r", "s", "l")],
        "edges": [{"id": "x", "src": "r", "dst": "l", "cost": 0.0},
                  {"id": "y", "src": "s", "dst": "l", "cost": 0.0},
                  {"id": "p", "src": "r", "dst": "s", "cost": 1e-10},
                  {"id": "q", "src": "r", "dst": "l", "cost": 1e-10}],
        "players": [{"id": 1, "root": "r", "leaf": "l"}],
    }
    out = tmp_path / "catalog.json"
    path = _write(tmp_path, "tiny.json", obj)
    assert main(["enumerate", "--instance", str(path), "--output", str(out)]) == 0

    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    catalog = json.loads(out.read_text(), parse_constant=refuse)["catalog"]
    assert len(catalog["equilibria"]) == 3
    assert catalog["optimum"]["page_cost"] == 0.0
    assert (catalog["poa"], catalog["pos"]) == (None, 1.0)


# ---------------------------------------------------------------- check

def test_check_passes_on_solver_output(d1_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["solve", "--instance", str(d1_file), "--output", str(report)])
    assert main(["check", "--instance", str(d1_file), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "PASS nash-stability" in out
    assert "PASS budget-balance" in out
    assert "PASS cost-aggregation" in out
    assert "PASS potential-identity" in out


def test_check_names_the_improving_deviation(d1_file, tmp_path, capsys):
    report = {
        "format_version": 1,
        "kind": "run-report",
        "delta": 0.0,
        "final_profile": {"1": ["b"], "2": ["b"]},
    }
    path = _write(tmp_path, "bb.json", report)
    assert main(["check", "--instance", str(d1_file), "--report", str(path)]) == 5
    out = capsys.readouterr().out
    assert "FAIL nash-stability: player 1 can switch to [a]" in out


def test_check_names_a_near_tie_deviation_by_the_move_test(tmp_path, capsys):
    # b and c tie within the slack; the seed-0 draw picks c, which beats the
    # current path by less than the slack. The FAIL still names the player the
    # move test flags and the path its best response takes.
    instance = _edited(D1_INSTANCE, lambda o: o.update(
        edges=[{"id": eid, "src": "r", "dst": "l", "cost": cost}
               for eid, cost in (("a", 1.0), ("b", 0.9999999985), ("c", 0.9999999994))],
        players=o["players"][:1]))
    report = {"format_version": 1, "kind": "run-report", "delta": 0.0,
              "final_profile": {"1": ["a"]}}
    argv = ["check", "--instance", str(_write(tmp_path, "inst.json", instance)),
            "--report", str(_write(tmp_path, "a.json", report))]
    assert main(argv) == 5
    assert capsys.readouterr().out == (
        "FAIL nash-stability: player 1 can switch to [c]\n"
        "PASS budget-balance\n"
        "PASS cost-aggregation\n"
        "PASS potential-identity\n"
    )


def test_check_sums_its_printed_totals_left_to_right(tmp_path, capsys, monkeypatch):
    # Both totals FAIL (a negative slack) so that check prints them. The
    # left-to-right fold of 0.1, 0.2 and 0.3 is 0.6000000000000001; the
    # compensated sum() of Python 3.12+ would print 0.6.
    from pagegame import cli

    costs = (0.1, 0.2, 0.3)
    instance = _edited(D1_INSTANCE, lambda o: o.update(
        edges=[{"id": eid, "src": "r", "dst": "l", "cost": c} for eid, c in zip("abc", costs)],
        players=[{"id": pid, "root": "r", "leaf": "l"} for pid in (1, 2, 3)]))
    report = {"format_version": 1, "kind": "run-report", "delta": 0.0,
              "final_profile": {"1": ["a"], "2": ["b"], "3": ["c"]}}
    monkeypatch.setattr(cli, "slack", lambda value, terms: -1.0)
    argv = ["check", "--instance", str(_write(tmp_path, "inst.json", instance)),
            "--report", str(_write(tmp_path, "abc.json", report))]
    assert main(argv) == 5
    total = functools.reduce(operator.add, costs, 0)
    assert total != math.fsum(costs)
    out = capsys.readouterr().out
    assert f"FAIL budget-balance: shares sum to {total}, page cost {total}\n" in out
    assert f"FAIL cost-aggregation: player costs sum to {total}, expected {total}\n" in out


def test_check_names_a_potential_identity_mismatch(d1_file, tmp_path, capsys, monkeypatch):
    # The tally reads every moved profile's potential 1 too high, so the
    # first deviation swept (player 1 onto b) breaks the identity.
    from pagegame import cli

    class Skewed(cli.Tally):
        skew = 0.0

        def move(self, player_id, new):
            super().move(player_id, new)
            self.skew = 1.0

        def potential(self):
            return super().potential() + self.skew

    monkeypatch.setattr(cli, "Tally", Skewed)
    report = {"format_version": 1, "kind": "run-report", "delta": 0.0,
              "final_profile": {"1": ["a"], "2": ["a"]}}
    argv = ["check", "--instance", str(d1_file),
            "--report", str(_write(tmp_path, "aa.json", report))]
    assert main(argv) == 5
    assert capsys.readouterr().out == (
        "PASS nash-stability\n"
        "PASS budget-balance\n"
        "PASS cost-aggregation\n"
        "FAIL potential-identity: player 1 via [b]: potential moved -3.5, cost moved -2.5\n"
    )


def test_check_names_unprintable_edge_ids_by_their_repr(tmp_path, capsys, monkeypatch):
    # d1 with its edges renamed a\nb (cost 1) and b\t (cost 3).
    from pagegame import cli

    path = _write(tmp_path, "d1.json", _d1(lambda o: (o["edges"][0].update(id="a\nb"),
                                                     o["edges"][1].update(id="b\t"))))

    def check(on):
        report = {"format_version": 1, "kind": "run-report", "delta": 0.0,
                  "final_profile": {"1": [on], "2": [on]}}
        assert main(["check", "--instance", str(path),
                     "--report", str(_write(tmp_path, "report.json", report))]) == 5
        return capsys.readouterr().out.splitlines()

    assert check("b\t")[0] == "FAIL nash-stability: player 1 can switch to ['a\\nb']"

    class Skewed(cli.Tally):
        skew = 0.0

        def move(self, player_id, new):
            super().move(player_id, new)
            self.skew = 1.0

        def potential(self):
            return super().potential() + self.skew

    monkeypatch.setattr(cli, "Tally", Skewed)
    assert check("a\nb")[3] == (
        "FAIL potential-identity: player 1 via ['b\\t']: potential moved -3.5, cost moved -2.5")


def test_check_unknown_edge_fails_validation(d1_file, tmp_path):
    report = {
        "format_version": 1,
        "kind": "run-report",
        "delta": 0.0,
        "final_profile": {"1": ["zz"], "2": ["a"]},
    }
    path = _write(tmp_path, "ghost.json", report)
    assert main(["check", "--instance", str(d1_file), "--report", str(path)]) == 2


def test_check_missing_report_file(d1_file, tmp_path):
    absent = tmp_path / "absent.json"
    assert main(["check", "--instance", str(d1_file), "--report", str(absent)]) == 1


# ---------------------------------------------------------------- report

def test_report_dot_annotates_shared_edges(d1_file, tmp_path):
    report = tmp_path / "report.json"
    dot = tmp_path / "graph.dot"
    main(["solve", "--instance", str(d1_file), "--output", str(report)])
    assert main(
        ["report", "--instance", str(d1_file), "--report", str(report),
         "--format", "dot", "--output", str(dot)]
    ) == 0
    text = dot.read_text()
    assert text.startswith("digraph chosen_tree {")
    assert 'x=2' in text and 'share=0.5' in text
    assert '"r" -> "l"' in text


def test_report_empty_profile_is_valid_dot(tmp_path, capsys):
    instance = {
        "format_version": 1,
        "nodes": [{"id": "r", "kind": "abstract"}],
        "edges": [],
        "players": [],
    }
    inst_path = _write(tmp_path, "empty.json", instance)
    report = {
        "format_version": 1,
        "kind": "run-report",
        "delta": 0.0,
        "final_profile": {},
    }
    rep_path = _write(tmp_path, "empty_report.json", report)
    assert main(
        ["report", "--instance", str(inst_path), "--report", str(rep_path)]
    ) == 0
    assert capsys.readouterr().out == "digraph chosen_tree {\n}\n"


def test_empty_game_writes_its_page_cost_as_a_float(tmp_path):
    # No players: every page cost is an empty sum, written as 0.0 like the
    # potential beside it, never as the integer 0.
    inst_path = _write(tmp_path, "empty.json", {
        "format_version": 1,
        "nodes": [{"id": "r", "kind": "abstract"}],
        "edges": [],
        "players": [],
    })
    report, catalog, summary = (tmp_path / name for name in ("run.json", "cat.json", "sum.json"))
    assert main(["solve", "--instance", str(inst_path), "--output", str(report)]) == 0
    assert main(["enumerate", "--instance", str(inst_path), "--output", str(catalog)]) == 0
    assert main(["report", "--instance", str(inst_path), "--report", str(report),
                 "--format", "json", "--output", str(summary)]) == 0
    texts = [path.read_text() for path in (report, catalog, summary)]
    assert [re.findall(r'"page_cost": (\S+?),?\n', text) for text in texts] == [
        ["0.0"], ["0.0", "0.0"], ["0.0"]]
    assert '"potential": 0.0' in texts[0]


def test_report_json_summary(d1_file, tmp_path):
    report = tmp_path / "report.json"
    summary = tmp_path / "summary.json"
    main(["solve", "--instance", str(d1_file), "--output", str(report)])
    main(
        ["report", "--instance", str(d1_file), "--report", str(report),
         "--format", "json", "--output", str(summary)]
    )
    obj = json.loads(summary.read_text())
    assert obj["kind"] == "profile-summary"
    assert obj["page_cost"] == 1.0
    assert obj["edges"] == [
        {"id": "a", "src": "r", "dst": "l", "cost": 1.0, "load": 2, "share": 0.5}
    ]


def test_report_lists_used_edges_by_id_with_their_loads():
    # Declared out of id order; the unused "aa" is left out.
    graph = build_graph(
        [("r", "abstract"), ("m", "abstract"), ("l", "abstract")],
        [("b", "r", "m", 2.0), ("a", "m", "l", 1.0), ("c", "r", "l", 3.0),
         ("aa", "r", "m", 1.0)],
    )
    profile = StrategyProfile({1: ("b", "a"), 2: ("b", "a"), 3: ("c",)})
    loads = load_map(profile)
    summary = profile_summary(graph, profile)
    assert [(edge["id"], edge["load"], edge["share"]) for edge in summary["edges"]] == [
        (edge_id, loads[edge_id], graph.edge(edge_id).cost / loads[edge_id])
        for edge_id in sorted(loads)
    ]
    labels = re.findall(r'label="(\S+)', render_dot(graph, profile))
    assert labels == sorted(loads)


def test_render_dot_rejects_an_unknown_edge_id():
    graph = build_d1().graph
    with pytest.raises(GraphError, match="unknown edge id 'zz'"):
        render_dot(graph, StrategyProfile({1: ("a",), 2: ("zz",)}))


_DOT_STRING = r'"(?:[^"\\]|\\.)*"'
_DOT_NODE = re.compile(rf"  ({_DOT_STRING});")
_DOT_EDGE = re.compile(rf"  ({_DOT_STRING}) -> ({_DOT_STRING}) \[label=({_DOT_STRING})\];")


def _dot_unquoted(token):
    return re.sub(r"\\(.)", r"\1", token[1:-1], flags=re.S)


def _dot_tree(text):
    """The node ids and ``(edge id, src, dst)`` triples a DOT rendering
    names; every body line must be a node or an edge of quoted strings."""
    lines = text.splitlines()
    assert lines[:2] == ["digraph chosen_tree {", "  rankdir=LR;"] and lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[2:-1]:
        if match := _DOT_NODE.fullmatch(line):
            nodes.append(_dot_unquoted(match[1]))
        else:
            match = _DOT_EDGE.fullmatch(line)
            assert match, line
            label = _dot_unquoted(match[3]).rsplit(" ", 3)[0]
            edges.append((label, _dot_unquoted(match[1]), _dot_unquoted(match[2])))
    return nodes, edges


def _dot_of(tmp_path, instance):
    inst_path = _write(tmp_path, "quoted.json", instance)
    report, dot = tmp_path / "report.json", tmp_path / "tree.dot"
    assert main(["solve", "--instance", str(inst_path), "--output", str(report)]) == 0
    assert main(["report", "--instance", str(inst_path), "--report", str(report),
                 "--format", "dot", "--output", str(dot)]) == 0
    return load_instance(str(inst_path)).graph, dot.read_text(encoding="utf-8")


def test_dot_quotes_ids_holding_quotes_and_backslashes(tmp_path):
    # Written raw, the quotes in r"x and a"b would end their strings early,
    # and the backslash ending l\ would escape its closing quote.
    graph, text = _dot_of(tmp_path, {
        "format_version": 1,
        "nodes": [{"id": 'r"x', "kind": "abstract"}, {"id": "m", "kind": "abstract"},
                  {"id": "l\\", "kind": "abstract"}],
        "edges": [{"id": 'a"b', "src": 'r"x', "dst": "m", "cost": 1.0},
                  {"id": 'c\\"', "src": "m", "dst": "l\\", "cost": 1.0}],
        "players": [{"id": 1, "root": 'r"x', "leaf": "l\\"},
                    {"id": 2, "root": 'r"x', "leaf": "m"}],
    })
    nodes, edges = _dot_tree(text)
    assert nodes == ["l\\", "m", 'r"x']
    assert edges == [('a"b', 'r"x', "m"), ('c\\"', "m", "l\\")]
    assert all(graph.edge(edge_id)[1:3] == (src, dst) for edge_id, src, dst in edges)


def test_dot_quotes_a_device_id_holding_a_quote(tmp_path):
    graph, text = _dot_of(tmp_path, {
        "format_version": 1,
        "document": "<p>hi</p>",
        "devices": [{"id": 'tab"let', "class": "pc", "required_components": ["2:#text"]}],
    })
    nodes, edges = _dot_tree(text)
    assert 'dev:tab"let' in nodes and set(nodes) <= set(graph.node_position)
    assert edges and all(graph.edge(edge_id)[1:3] == (src, dst) for edge_id, src, dst in edges)


def test_report_json_computes_no_potential(tmp_path, monkeypatch):
    instance = REPO_ROOT / "instances" / "webpage.json"
    report, summary = tmp_path / "report.json", tmp_path / "summary.json"
    argv = ["report", "--instance", str(instance), "--report", str(report),
            "--format", "json", "--output", str(summary)]
    assert main(["solve", "--instance", str(instance), "--output", str(report)]) == 0
    assert main(argv) == 0
    unpatched = summary.read_bytes()
    summary.unlink()

    def refuse(self):
        raise AssertionError("report --format json summed a potential")

    monkeypatch.setattr(game.Tally, "potential", refuse)
    assert main(argv) == 0
    assert summary.read_bytes() == unpatched


# ---------------------------------------------------------------- determinism

def test_repeated_runs_are_byte_identical(d1_file, tmp_path):
    files = []
    for tag in ("one", "two"):
        report = tmp_path / f"report_{tag}.json"
        trace = tmp_path / f"trace_{tag}.ndjson"
        dot = tmp_path / f"graph_{tag}.dot"
        main(
            ["solve", "--instance", str(d1_file), "--seed", "11",
             "--schedule", "random", "--output", str(report), "--trace", str(trace)]
        )
        main(
            ["report", "--instance", str(d1_file), "--report", str(report),
             "--format", "dot", "--output", str(dot)]
        )
        files.append((report.read_bytes(), trace.read_bytes(), dot.read_bytes()))
    # The trace file path differs between runs, so compare reports with the
    # trace reference stripped.
    r1 = json.loads(files[0][0]);  r1.pop("trace")
    r2 = json.loads(files[1][0]);  r2.pop("trace")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert files[0][1] == files[1][1]
    assert files[0][2] == files[1][2]


def test_shipped_demo_instances_solve(tmp_path):
    for name in ("d1.json", "webpage.json"):
        out = tmp_path / f"{name}.report.json"
        code = main(
            ["solve", "--instance", str(REPO_ROOT / "instances" / name),
             "--output", str(out)]
        )
        assert code == 0
        assert main(
            ["check", "--instance", str(REPO_ROOT / "instances" / name),
             "--report", str(out)]
        ) == 0


def test_solve_matches_library_result(d1_file, tmp_path):
    from pagegame import run_dynamics

    out = tmp_path / "report.json"
    main(["solve", "--instance", str(d1_file), "--output", str(out)])
    report = json.loads(out.read_text())
    inst = build_d1()
    trace = run_dynamics(inst.graph, inst.players, 0.0)
    expected = {str(pid): list(path) for pid, path in trace.final_profile.items()}
    assert report["final_profile"] == expected


def test_check_plans_each_root_leaf_pair_once(tmp_path, monkeypatch):
    # is_nash, every best_response and the potential-identity sweep share
    # the graph's plans; an unstable report runs all of them.
    from gamegen import first_path_profile, instance_to_json, random_instance, search_log
    from pagegame import cli

    instance = random_instance(2004)
    inst = _write(tmp_path, "inst.json", instance_to_json(instance))
    start = first_path_profile(instance)
    unstable = _write(tmp_path, "start.json", {
        "format_version": 1, "kind": "run-report",
        "final_profile": {str(pid): list(path) for pid, path in start.items()}})
    logs = []

    def logged_load(path):
        loaded = load_instance(path)
        logs.append(search_log(loaded.graph, "_plans"))
        return loaded

    monkeypatch.setattr(cli, "load_instance", logged_load)
    assert main(["check", "--instance", str(inst), "--report", str(unstable)]) == 5
    [planned] = logs
    pairs = [(p.root, p.leaf) for p in instance.players]
    assert len(set(pairs)) < len(pairs)
    assert sorted(planned) == sorted(set(pairs))


def test_check_lists_each_root_leaf_pair_once(tmp_path, monkeypatch):
    # Players on one pair share one listing of edge positions; the sweep
    # converts no deviation itself.
    from gamegen import instance_to_json, random_instance
    from pagegame import cli, game, oracle

    instance = random_instance(2004)
    pairs = [(p.root, p.leaf) for p in instance.players]
    assert len(set(pairs)) < len(pairs)
    inst = _write(tmp_path, "inst.json", instance_to_json(instance))
    report = tmp_path / "report.json"
    assert main(["solve", "--instance", str(inst), "--output", str(report)]) == 0
    listed, converted = [], []
    enumerate_paths, positions = oracle.enumerate_paths, game.GameGraph.positions

    def listing(graph, root, leaf):
        listed.append((root, leaf))
        return enumerate_paths(graph, root, leaf)

    def converting(graph, path):
        converted.append(path)
        return positions(graph, path)

    monkeypatch.setattr(oracle, "enumerate_paths", listing)
    monkeypatch.setattr(game.GameGraph, "positions", converting)
    assert main(["check", "--instance", str(inst), "--report", str(report)]) == 0
    assert sorted(listed) == sorted(set(pairs))
    # Each own path is converted twice (check's tally and is_nash's), and
    # each path of a pair once.
    paths = sum(instance.graph.path_count(root, leaf) for root, leaf in set(pairs))
    assert len(converted) == 2 * len(pairs) + paths


def test_commands_construct_one_graph(d1_file, tmp_path, monkeypatch):
    # Loading builds the integer view with the graph; no command builds a
    # second graph, also where --delta or a report's delta replaces the
    # instance (dataclasses.replace keeps its graph).
    from gamegen import instance_to_json, random_instance

    instance = random_instance(2001)
    assert instance.delta != 0.25
    inst = _write(tmp_path, "inst.json", instance_to_json(instance))
    builds = []
    construct = game.GameGraph.__init__

    def counted(graph, nodes, edges):
        builds.append(graph)
        construct(graph, nodes, edges)

    monkeypatch.setattr(game.GameGraph, "__init__", counted)
    load_instance(str(inst))
    assert len(builds) == 1
    unstable = _write(tmp_path, "bb.json", {
        "format_version": 1, "kind": "run-report", "final_profile": {"1": ["b"], "2": ["b"]}})
    report, quarter = tmp_path / "report.json", tmp_path / "quarter.json"
    runs = [
        (["solve", "--instance", str(inst), "--output", str(report)], 0),
        (["solve", "--instance", str(inst), "--delta", "0.25", "--output", str(quarter)], 0),
        (["check", "--instance", str(inst), "--report", str(report), "--delta", "1"], 0),
        (["check", "--instance", str(inst), "--report", str(quarter)], 0),
        (["check", "--instance", str(d1_file), "--report", str(unstable)], 5),
        (["enumerate", "--instance", str(inst), "--output", str(tmp_path / "cat.json")], 0),
        (["report", "--instance", str(inst), "--report", str(quarter), "--format", "json",
          "--output", str(tmp_path / "summary.json")], 0),
        (["report", "--instance", str(inst), "--report", str(report), "--format", "dot",
          "--delta", "1", "--output", str(tmp_path / "tree.dot")], 0),
    ]
    for argv, code in runs:
        builds.clear()
        assert main(argv) == code, argv
        assert len(builds) == 1, argv


def test_loads_and_commands_run_with_the_collector_paused(d1_file, tmp_path, monkeypatch):
    """No cyclic collection can fall inside a load or a command, whatever ran
    before it; the collector's state is restored after, error exits included."""
    import gc

    from pagegame import cli, instance

    states = []

    def recorded(function):
        def call(*args):
            states.append(gc.isenabled())
            return function(*args)
        return call

    monkeypatch.setattr(instance, "parse_instance", recorded(instance.parse_instance))
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, recorded(command))
    report = tmp_path / "report.json"
    runs = [
        (["solve", "--instance", str(d1_file), "--output", str(report)], 0),
        (["check", "--instance", str(d1_file), "--report", str(report)], 0),
        (["enumerate", "--instance", str(d1_file), "--output", str(tmp_path / "cat.json")], 0),
        (["report", "--instance", str(d1_file), "--report", str(report)], 0),
        (["solve", "--instance", str(tmp_path / "missing.json")], 1),
        (["solve", "--no-such-flag"], 1),
    ]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            states.clear()
            instance.load_instance(str(d1_file))
            assert gc.isenabled() is enabled
            for argv, code in runs:
                assert main(argv) == code, argv
                assert gc.isenabled() is enabled
            # one load alone, then a command and its load for each of the
            # first four runs, and the command alone for the missing file
            assert states == [False] * 10
    finally:
        gc.enable()


def test_overlapping_pauses_restore_the_collector_once():
    """A paused call that outlasts another thread's, begun before it, stays
    paused; the last one to return restores the collector."""
    import gc
    import threading

    from pagegame.instance import collector_paused

    entered, release, seen = threading.Event(), threading.Event(), []

    @collector_paused
    def first():
        entered.set()
        release.wait(10)

    @collector_paused
    def outlasting():
        release.set()
        worker.join(10)
        seen.append(gc.isenabled())

    gc.enable()
    worker = threading.Thread(target=first)
    worker.start()
    try:
        assert entered.wait(10)
        outlasting()
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    assert seen == [False]
    assert gc.isenabled() is True


def test_unconverged_solve_exits_3_with_report(tmp_path):
    from gamegen import instance_to_json, random_instance
    from pagegame import run_dynamics

    # Pick a seeded instance whose greedy start still has a profitable move,
    # so a single pass cannot settle it.
    inst = None
    for seed in range(20_000, 20_200):
        candidate = random_instance(seed, delta=0.5)
        if run_dynamics(candidate.graph, candidate.players, 0.5).passes >= 2:
            inst = candidate
            break
    assert inst is not None
    path = _write(tmp_path, "restless.json", instance_to_json(inst))
    out = tmp_path / "report.json"
    code = main(
        ["solve", "--instance", str(path), "--max-iters", "1", "--output", str(out)]
    )
    assert code == 3
    report = json.loads(out.read_text())
    assert report["converged"] is False
    assert report["final_profile"] is not None


def test_catalog_equilibria_reverify_under_check(d1_file, tmp_path):
    catalog_out = tmp_path / "catalog.json"
    main(["enumerate", "--instance", str(d1_file), "--output", str(catalog_out)])
    catalog = json.loads(catalog_out.read_text())["catalog"]
    assert catalog["equilibria"]
    for i, entry in enumerate(catalog["equilibria"]):
        report = {
            "format_version": 1,
            "kind": "run-report",
            "delta": 0.0,
            "final_profile": entry["profile"],
        }
        path = _write(tmp_path, f"ne_{i}.json", report)
        assert main(["check", "--instance", str(d1_file), "--report", str(path)]) == 0


def test_solve_then_check_round_trip_on_random_instances(tmp_path):
    from gamegen import instance_to_json, random_instance

    for seed in (3001, 3002, 3003, 3004, 3005):
        inst = random_instance(seed, delta=(seed % 3) * 0.5)
        path = _write(tmp_path, f"inst_{seed}.json", instance_to_json(inst))
        out = tmp_path / f"report_{seed}.json"
        assert main(["solve", "--instance", str(path), "--output", str(out)]) == 0
        assert main(["check", "--instance", str(path), "--report", str(out)]) == 0


LARGE_COST_CHAIN = {
    "format_version": 1,
    "nodes": [{"id": f"v{i}", "kind": "abstract"} for i in range(4)],
    "edges": [
        {"id": "a", "src": "v0", "dst": "v1", "cost": 686433675450.4867},
        {"id": "b", "src": "v1", "dst": "v2", "cost": 809851016021.9619},
        {"id": "c", "src": "v2", "dst": "v3", "cost": 184473628096.8114},
    ],
    "players": [{"id": 1, "root": "v0", "leaf": "v3"}, {"id": 2, "root": "v1", "leaf": "v3"}],
}


@pytest.mark.parametrize("delta", (0.0, 0.5))
def test_large_costs_solve_and_check(tmp_path, capsys, delta):
    # Summed from the root, (a + b) + c ends in .2603; summed from the leaf,
    # a + (b + c) ends in .26: further apart than TOLERANCE, within 3 ulps.
    a, b, c = (edge["cost"] for edge in LARGE_COST_CHAIN["edges"])
    assert 1e-9 < (a + b) + c - (a + (b + c)) <= 3 * math.ulp(a + b + c)
    instance = _write(tmp_path, "chain.json", dict(LARGE_COST_CHAIN, delta=delta))
    out = tmp_path / "report.json"
    assert main(["solve", "--instance", str(instance), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["converged"] is True and report["iterations"] == 1
    assert report["final_profile"] == {"1": ["a", "b", "c"], "2": ["b", "c"]}
    assert main(["check", "--instance", str(instance), "--report", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_large_costs_solve_then_check_round_trip_on_random_instances(tmp_path, capsys):
    import random

    from gamegen import random_instance
    from pagegame import build_graph

    for seed in range(5000, 5020):
        inst = random_instance(seed, delta=(seed % 3) * 0.5)
        rng = random.Random(seed)
        scale = 10 ** rng.uniform(9, 13)
        graph = build_graph(inst.graph.nodes.values(), [
            (e.edge_id, e.src, e.dst, e.cost * scale * rng.uniform(0.9, 1.1))
            for e in inst.graph.edges
        ])
        path = _write(tmp_path, f"inst_{seed}.json",
                      instance_to_json(GameInstance(graph, inst.players, inst.delta)))
        out = tmp_path / f"report_{seed}.json"
        assert main(["solve", "--instance", str(path), "--output", str(out)]) == 0
        assert main(["check", "--instance", str(path), "--report", str(out)]) == 0
        assert "FAIL" not in capsys.readouterr().out


# One player on r -> l takes edge a or the chain b1, b2, b3. Summed, the
# chain lands one ulp above the first a and three above the second, both
# within the slack of the pair's three plan nodes: solve may stop on either
# path, and enumerate must list wherever it stops.
@pytest.mark.parametrize("cost_a", [168075831.956926, 168075831.95692593], ids=["1-ulp", "3-ulp"])
def test_solve_profiles_appear_in_enumerate_catalog_at_large_costs(tmp_path, cost_a):
    b1, b2, b3 = 68643367.54504867, 80985101.60219619, 18447362.80968114
    assert 1 <= ((b1 + b2) + b3 - cost_a) / math.ulp(cost_a) <= 3
    instance = _write(tmp_path, "chain.json", {
        "format_version": 1,
        "delta": 0.0,
        "nodes": [{"id": n, "kind": "abstract"} for n in ("r", "x", "y", "l")],
        "edges": [
            {"id": "a", "src": "r", "dst": "l", "cost": cost_a},
            {"id": "b1", "src": "r", "dst": "x", "cost": b1},
            {"id": "b2", "src": "x", "dst": "y", "cost": b2},
            {"id": "b3", "src": "y", "dst": "l", "cost": b3},
        ],
        "players": [{"id": 1, "root": "r", "leaf": "l"}],
    })
    catalog = tmp_path / "catalog.json"
    assert main(["enumerate", "--instance", str(instance), "--output", str(catalog)]) == 0
    listed = [e["profile"] for e in json.loads(catalog.read_text())["catalog"]["equilibria"]]
    finals = []
    for seed in range(4):
        out = tmp_path / f"report_{seed}.json"
        assert main(["solve", "--instance", str(instance), "--seed", str(seed),
                     "--output", str(out)]) == 0
        finals.append(json.loads(out.read_text())["final_profile"])
        assert finals[-1] in listed
    assert {"1": ["b1", "b2", "b3"]} in finals


def test_enumerate_many_single_path_players(tmp_path):
    # 5,000 players, one path each: one profile, and a walk 5,000 players
    # deep that must not recurse.
    instance = _write(tmp_path, "many.json", {
        "format_version": 1,
        "delta": 0.5,
        "nodes": [{"id": "r", "kind": "abstract"}, {"id": "l", "kind": "abstract"}],
        "edges": [{"id": "a", "src": "r", "dst": "l", "cost": 1.0}],
        "players": [{"id": i, "root": "r", "leaf": "l"} for i in range(1, 5001)],
    })
    out = tmp_path / "catalog.json"
    assert main(["enumerate", "--instance", str(instance), "--output", str(out)]) == 0
    catalog = json.loads(out.read_text())["catalog"]
    (entry,) = catalog["equilibria"]
    assert len(entry["profile"]) == 5000
    assert catalog["optimum"]["page_cost"] == 1.0


def test_report_missing_report_file(d1_file, tmp_path):
    absent = tmp_path / "absent.json"
    assert main(["report", "--instance", str(d1_file), "--report", str(absent)]) == 1


# ---------------------------------------------------------------- errors

def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("pagegame: error: ")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("kind", ["abstract", "document-root"])
def test_negative_base_cost_fails_validation(tmp_path, capsys, kind):
    obj = {
        "format_version": 1,
        "document": "<html><p>x</p></html>",
        "devices": [{"id": "d", "class": "pc", "required_components": ["3:#text"]}],
        "cost_model": {"base_costs": {kind: -1.0}},
    }
    path = _write(tmp_path, "doc.json", obj)
    assert main(["solve", "--instance", str(path)]) == 2
    assert kind in _single_error_line(capsys)


def _edited(obj, edit):
    copy = json.loads(json.dumps(obj))
    edit(copy)
    return copy


_DOC_INSTANCE = {
    "format_version": 1,
    "document": "<html><p>x</p></html>",
    "devices": [{"id": "d", "class": "pc", "required_components": ["3:#text"]}],
}


def _d1(edit):
    return _edited(D1_INSTANCE, edit)


def _doc(edit):
    return _edited(_DOC_INSTANCE, edit)


# Each way an instance file is refused: (id, file, exit code, stderr line).
# A file with several defects is refused for the first one read: sections
# in file order (nodes, edges, players; devices), records in order, fields
# in order, each device checked before the next one is read.
INSTANCE_REJECTIONS = [
    ("top-level-list", [D1_INSTANCE], 1, "instance file must hold a JSON object"),
    ("format-version-missing", _d1(lambda o: o.pop("format_version")), 1,
     "instance: missing key 'format_version'"),
    ("format-version-string", _d1(lambda o: o.update(format_version="1")), 1,
     "instance: 'format_version' must be an integer"),
    ("format-version-2", _d1(lambda o: o.update(format_version=2)), 1,
     "unsupported format_version 2"),
    ("delta-string", _d1(lambda o: o.update(delta="0")), 1, "instance: 'delta' must be a number"),
    ("neither-form", {"format_version": 1, "delta": 0.0}, 1,
     "instance has neither graph nor document sections"),
    ("mixed-forms", _d1(lambda o: o.update(devices=[])), 1,
     "instance mixes explicit graph and document forms"),
    ("explicit-missing-edges", _d1(lambda o: o.pop("edges")), 1,
     "explicit instance is missing 'edges'"),
    ("explicit-cost-model", _d1(lambda o: o.update(cost_model={"base_costs": {}})), 1,
     "cost_model is only valid in the document form"),
    ("nodes-not-list", _d1(lambda o: o.update(nodes={})), 1, "instance: 'nodes' has wrong type"),
    ("node-not-object", _d1(lambda o: o.update(nodes=[o["nodes"][0], "l"])), 1,
     "nodes[1] must be an object"),
    ("node-missing-kind", _d1(lambda o: o["nodes"][0].pop("kind")), 1,
     "nodes[0]: missing key 'kind'"),
    ("edge-missing-dst", _d1(lambda o: o["edges"][1].pop("dst")), 1,
     "edges[1]: missing key 'dst'"),
    ("edge-cost-string", _d1(lambda o: o["edges"][0].update(cost="1")), 1,
     "edges[0]: 'cost' must be a number"),
    ("player-not-object", _d1(lambda o: o.update(players=[o["players"][0], 2])), 1,
     "players[1] must be an object"),
    ("player-id-bool", _d1(lambda o: o["players"][0].update(id=True)), 1,
     "players[0]: 'id' must be an integer"),
    ("player-label-number", _d1(lambda o: o["players"][1].update(label=1)), 1,
     "players[1]: 'label' has wrong type"),
    ("document-missing-devices", _doc(lambda o: o.pop("devices")), 1,
     "document instance is missing 'devices'"),
    ("document-not-string", _doc(lambda o: o.update(document=[])), 1,
     "instance: 'document' has wrong type"),
    ("device-not-object", _doc(lambda o: o["devices"].append("m")), 1,
     "devices[1] must be an object"),
    ("component-not-string", _doc(lambda o: o["devices"][0]["required_components"].append(3)),
     1, "devices[0]: required_components must be strings"),
    ("components-not-list", _doc(lambda o: o["devices"][0].update(required_components="3")), 1,
     "devices[0]: 'required_components' has wrong type"),
    ("cost-factor-string", _doc(lambda o: o["devices"][0].update(cost_factor="1")), 1,
     "devices[0]: 'cost_factor' must be a number"),
    ("orientation-number", _doc(lambda o: o["devices"][0].update(orientation=0)), 1,
     "devices[0]: 'orientation' has wrong type"),
    ("base-costs-list", _doc(lambda o: o.update(cost_model={"base_costs": []})), 1,
     "cost_model: 'base_costs' has wrong type"),
    ("base-cost-string", _doc(lambda o: o.update(cost_model={"base_costs": {"text": "1"}})), 1,
     "cost_model: base cost for 'text' must be a number"),
    ("markup-invalid-tag", _doc(lambda o: o.update(document="<html><1x></1x></html>")), 1,
     "malformed markup at offset 6: invalid tag '1x'"),
    # Which defect wins.
    ("first-field-in-record", _d1(lambda o: o["edges"][0].update(id=5, cost="x")), 1,
     "edges[0]: 'id' has wrong type"),
    ("first-field-in-device",
     _doc(lambda o: (o["devices"][0].pop("class"), o["devices"][0].update(id=5))), 1,
     "devices[0]: missing key 'class'"),
    ("earlier-record",
     _d1(lambda o: (o["edges"][0].update(cost="x"), o["edges"][1].pop("src"))), 1,
     "edges[0]: 'cost' must be a number"),
    ("earlier-section", _d1(lambda o: o.update(nodes=[o["nodes"][0], "l"], edges=[1])), 1,
     "nodes[1] must be an object"),
    ("cycle", _d1(lambda o: o["edges"].append({"id": "c", "src": "l", "dst": "r", "cost": 1})),
     2, "directed cycle through nodes: l -> r -> l"),
    ("players-before-cycle",
     _d1(lambda o: (o["edges"].append({"id": "c", "src": "l", "dst": "r", "cost": 1}),
                    o["players"][1].update(root=5))), 1,
     "players[1]: 'root' has wrong type"),
    # An id that is not printable is named by its repr, so the line stays one.
    ("cycle-through-unprintable-id",
     _d1(lambda o: (o["nodes"].append({"id": "a\nb", "kind": "abstract"}),
                    o["edges"].extend([{"id": "c", "src": "l", "dst": "a\nb", "cost": 1},
                                       {"id": "d", "src": "a\nb", "dst": "l", "cost": 1}]))),
     2, "directed cycle through nodes: 'a\\nb' -> l -> 'a\\nb'"),
    ("markup-unprintable-closing-tag", _doc(lambda o: o.update(document="<p>hi</a\nb></p>")),
     1, "malformed markup at offset 5: closing '</a\\nb>' but <p> is open"),
    ("device-class-before-next-device",
     _doc(lambda o: (o["devices"][0].update({"class": "watch"}), o["devices"].append("m"))), 2,
     "unknown device class 'watch'"),
]


@pytest.mark.parametrize(
    "instance, code, message",
    [entry[1:] for entry in INSTANCE_REJECTIONS],
    ids=[entry[0] for entry in INSTANCE_REJECTIONS],
)
def test_instance_file_rejections(tmp_path, capsys, instance, code, message):
    path = _write(tmp_path, "inst.json", instance)
    assert main(["solve", "--instance", str(path)]) == code
    assert capsys.readouterr().err == f"pagegame: error: {message}\n"


_REPORT = {"format_version": 1, "kind": "run-report", "delta": 0.0,
           "final_profile": {"1": ["a"], "2": ["a"]}}


@pytest.mark.parametrize(
    "report, code, message",
    [
        (_edited(_REPORT, lambda o: o.update(final_profile=[["a"], ["a"]])), 1,
         "profile must be an object of player -> edge list"),
        (_edited(_REPORT, lambda o: o.update(format_version=2)), 1,
         "unsupported report format_version"),
        (_edited(_REPORT, lambda o: o.update(format_version=True)), 1,
         "unsupported report format_version"),
        (_edited(_REPORT, lambda o: o.update(format_version=1.0)), 1,
         "unsupported report format_version"),
        (_edited(_REPORT, lambda o: o["final_profile"].update({"1": []})), 2,
         "invalid path for player 1: path is empty"),
        ([_REPORT], 1, "file is not a run report"),
        (D1_INSTANCE, 1, "file is not a run report"),  # the instance file, byte for byte
    ],
    ids=["profile-list", "format-version-2", "format-version-true", "format-version-float",
         "empty-path", "json-array", "instance-file"],
)
@pytest.mark.parametrize(
    "command", [["check"], ["report", "--format", "dot"]], ids=["check", "report"]
)
def test_report_file_rejections(d1_file, tmp_path, capsys, command, report, code, message):
    path = _write(tmp_path, "report.json", report)
    assert main([*command, "--instance", str(d1_file), "--report", str(path)]) == code
    assert capsys.readouterr() == ("", f"pagegame: error: {message}\n")


def test_negative_seed_is_usage_error(d1_file, capsys):
    assert main(["solve", "--instance", str(d1_file), "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "pagegame: error: --seed must be >= 0\n")


@pytest.mark.parametrize(
    "instance, flags, field",
    [
        (_edited(D1_INSTANCE, lambda o: o["edges"][0].update(cost=math.inf)), [], "edge 'a'"),
        (_edited(D1_INSTANCE, lambda o: o["edges"][0].update(cost=math.nan)), [], "edge 'a'"),
        (_edited(D1_INSTANCE, lambda o: o.update(delta=math.inf)), [], "delta"),
        (D1_INSTANCE, ["--delta", "inf"], "delta"),
        (_edited(_DOC_INSTANCE, lambda o: o["devices"][0].update(cost_factor=math.inf)),
         [], "cost_factor"),
        (_edited(_DOC_INSTANCE, lambda o: o.update(cost_model={"base_costs": {"text": math.inf}})),
         [], "base cost for kind 'text'"),
    ],
    ids=["edge-cost-inf", "edge-cost-nan", "instance-delta-inf", "delta-flag-inf",
         "cost-factor-inf", "base-cost-inf"],
)
def test_non_finite_number_fails_validation(tmp_path, capsys, instance, flags, field):
    path = _write(tmp_path, "inst.json", instance)
    assert main(["solve", "--instance", str(path), *flags]) == 2
    line = _single_error_line(capsys)
    assert field in line and "finite" in line


# An integer JSON reads exactly but float() cannot hold: it overflows.
PAST_FLOAT = 10**400


@pytest.mark.parametrize(
    "instance, field",
    [
        (_edited(D1_INSTANCE, lambda o: o["edges"][0].update(cost=PAST_FLOAT)), "edge 'a'"),
        (_edited(D1_INSTANCE, lambda o: o.update(delta=PAST_FLOAT)), "delta"),
        (_edited(_DOC_INSTANCE, lambda o: o["devices"][0].update(cost_factor=PAST_FLOAT)),
         "cost_factor"),
        (_edited(_DOC_INSTANCE,
                 lambda o: o.update(cost_model={"base_costs": {"text": PAST_FLOAT}})),
         "base cost for kind 'text'"),
    ],
    ids=["edge-cost", "instance-delta", "cost-factor", "base-cost"],
)
def test_integer_past_float_range_is_non_finite(tmp_path, capsys, instance, field):
    path = _write(tmp_path, "inst.json", instance)
    assert main(["solve", "--instance", str(path)]) == 2
    line = _single_error_line(capsys)
    assert field in line and "finite" in line and "inf" in line


@pytest.mark.parametrize(
    "command", [["check"], ["report", "--format", "json"]], ids=["check", "report"]
)
def test_report_delta_past_float_range_is_non_finite(d1_file, tmp_path, capsys, command):
    report = {
        "format_version": 1,
        "kind": "run-report",
        "delta": PAST_FLOAT,
        "final_profile": {"1": ["a"], "2": ["a"]},
    }
    path = _write(tmp_path, "delta.json", report)
    assert main([*command, "--instance", str(d1_file), "--report", str(path)]) == 2
    assert "delta must be finite" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "instance, flags",
    [
        (_edited(D1_INSTANCE, lambda o: o["edges"][1].update(cost=1.7e308)), []),
        (_edited(D1_INSTANCE, lambda o: o["edges"][0].update(cost=1e300)), ["--delta", "1e10"]),
        (_edited(_DOC_INSTANCE, lambda o: o.update(cost_model={"base_costs": {"element": 1e308}})),
         []),
    ],
    ids=["edge-costs", "delta-flag", "base-costs"],
)
def test_costs_whose_sums_overflow_fail_validation(tmp_path, capsys, instance, flags):
    # Each cost is finite, but the page cost or a player's cost would not be.
    path = _write(tmp_path, "inst.json", instance)
    for command in ("solve", "enumerate"):
        assert main([command, "--instance", str(path), *flags]) == 2
        assert "edge costs too large" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "command",
    [["check"], ["report", "--format", "json"], ["report", "--format", "dot"]],
    ids=["check", "report-json", "report-dot"],
)
def test_report_delta_whose_sums_overflow_fails_validation(d1_file, tmp_path, capsys, command):
    # The delta a report carries meets the rule --delta meets: on b, each
    # player's cost, 3 * 1e308, would overflow.
    report = {
        "format_version": 1,
        "kind": "run-report",
        "delta": 1e308,
        "final_profile": {"1": ["b"], "2": ["b"]},
    }
    path = _write(tmp_path, "delta.json", report)
    assert main([*command, "--instance", str(d1_file), "--report", str(path)]) == 2
    assert "edge costs too large" in _single_error_line(capsys)


# json.loads refuses integers of more than 4,300 digits (ValueError) and
# nesting past the recursion limit (RecursionError).
UNDECODABLE = {
    "digits": '{"format_version": 1, "kind": "run-report", "delta": ' + "1" * 5000 + "}",
    "nesting": "[" * 200_000,
}


@pytest.mark.parametrize("text", UNDECODABLE.values(), ids=UNDECODABLE)
@pytest.mark.parametrize("command", [["solve"], ["enumerate"]], ids=["solve", "enumerate"])
def test_undecodable_instance_is_malformed(tmp_path, capsys, command, text):
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    assert main([*command, "--instance", str(path)]) == 1
    assert "not valid JSON" in _single_error_line(capsys)


@pytest.mark.parametrize("text", UNDECODABLE.values(), ids=UNDECODABLE)
@pytest.mark.parametrize(
    "command", [["check"], ["report", "--format", "json"]], ids=["check", "report"]
)
def test_undecodable_report_is_malformed(d1_file, tmp_path, capsys, command, text):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    assert main([*command, "--instance", str(d1_file), "--report", str(path)]) == 1
    assert "report is not valid JSON" in _single_error_line(capsys)


@pytest.mark.parametrize("command", ["instance", "report"])
def test_file_not_utf8_is_malformed(d1_file, tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format_version": 1, "kind": "run-report", "x": "\xe9"}')
    if command == "instance":
        argv = ["solve", "--instance", str(path)]
    else:
        argv = ["check", "--instance", str(d1_file), "--report", str(path)]
    assert main(argv) == 1
    assert "utf-8" in _single_error_line(capsys)


# d1 with the root r and the edge a renamed with a lone surrogate: a valid
# JSON escape that decodes to no text, so no UTF-8 output could name them.
LONE_SURROGATE = (json.dumps(D1_INSTANCE)
                  .replace('"r"', '"r\\ud800"').replace('"a"', '"a\\ud800"'))


@pytest.mark.parametrize("command", [["solve"], ["check"], ["report", "--format", "dot"]],
                         ids=["solve", "check", "report"])
def test_lone_surrogate_in_an_id_is_malformed(tmp_path, capsys, command):
    # The report moves both players off a\ud800, so check's FAIL line names it.
    path = tmp_path / "lone.json"
    path.write_text(LONE_SURROGATE, encoding="utf-8")
    report = {"format_version": 1, "kind": "run-report", "delta": 0.0,
              "final_profile": {"1": ["b"], "2": ["b"]}}
    out = tmp_path / "out.txt"
    argv = [*command, "--instance", str(path), "--output", str(out)]
    if command[0] != "solve":
        argv += ["--report", str(_write(tmp_path, "report.json", report))]
    assert main(argv) == 1
    assert _single_error_line(capsys).endswith(" not valid text: lone surrogate '\\ud800'\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["id", "unknown-key", "document"])
def test_lone_surrogate_in_a_text_is_malformed(where):
    # A raw str may hold the surrogate itself, where a file holds its escape.
    obj = {"id": json.loads(LONE_SURROGATE),
           "unknown-key": _d1(lambda o: o.update({"x\udfff": 1})),
           "document": _doc(lambda o: o.update(document="<p>\udc80</p>"))}[where]
    for text in (json.dumps(obj), json.dumps(obj, ensure_ascii=False)):
        with pytest.raises(MalformedInstance, match="^not valid text: lone surrogate"):
            instance_from_text(text)


def test_surrogate_pair_loads_and_renders(tmp_path, capsys):
    text = json.dumps(D1_INSTANCE).replace('"r"', '"r\\ud83d\\ude00"')
    path, report = tmp_path / "pair.json", tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", "--instance", str(path), "--output", str(report)]) == 0
    assert main(["report", "--instance", str(path), "--report", str(report)]) == 0
    assert '  "r\U0001f600" -> "l" [label="a c=1 x=2 share=0.5"];\n' in capsys.readouterr().out
    raw = instance_from_text(json.dumps(json.loads(text), ensure_ascii=False))
    assert "r\U0001f600" in raw.graph.node_position


@pytest.mark.parametrize("delta", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize(
    "command", [["check"], ["report", "--format", "json"]], ids=["check", "report"]
)
def test_bad_report_delta_fails_validation(d1_file, tmp_path, capsys, command, delta):
    report = {
        "format_version": 1,
        "kind": "run-report",
        "delta": delta,
        "final_profile": {"1": ["a"], "2": ["a"]},
    }
    path = _write(tmp_path, "delta.json", report)
    assert main([*command, "--instance", str(d1_file), "--report", str(path)]) == 2
    assert "delta" in _single_error_line(capsys)


@pytest.mark.parametrize("key", ["02", " 2", "+2", "2 ", "1_0", "two"])
@pytest.mark.parametrize(
    "command", [["check"], ["report", "--format", "json"]], ids=["check", "report"]
)
def test_non_canonical_report_player_key_is_malformed(d1_file, tmp_path, capsys, command, key):
    # int() reads all of these, and "02" would silently replace player 2.
    report = {
        "format_version": 1,
        "kind": "run-report",
        "delta": 0.0,
        "final_profile": {"1": ["a"], "2": ["a"], key: ["b"]},
    }
    path = _write(tmp_path, "keys.json", report)
    assert main([*command, "--instance", str(d1_file), "--report", str(path)]) == 1
    assert repr(key) in _single_error_line(capsys)


@pytest.mark.parametrize(
    "command, flag",
    [("solve", "--output"), ("solve", "--trace"), ("enumerate", "--output")],
)
def test_unwritable_output_is_usage_error(d1_file, tmp_path, capsys, command, flag):
    target = tmp_path / "absent-dir" / "out.json"
    assert main([command, "--instance", str(d1_file), flag, str(target)]) == 1
    assert "cannot write" in _single_error_line(capsys)


@pytest.mark.parametrize("depth", [1200, 5000])
def test_deeply_nested_document_solves_enumerates_and_checks(tmp_path, capsys, depth):
    leaf = f"{depth + 1}:#text"
    instance = _write(tmp_path, "deep.json", {
        "format_version": 1,
        "delta": 0.5,
        "document": "<div>" * depth + "x" + "</div>" * depth,
        "devices": [{"id": "d", "class": "pc", "required_components": [leaf]}],
    })
    report = tmp_path / "report.json"
    catalog = tmp_path / "catalog.json"
    assert main(["solve", "--instance", str(instance), "--output", str(report)]) == 0
    assert main(["enumerate", "--instance", str(instance), "--output", str(catalog)]) == 0
    assert main(["check", "--instance", str(instance), "--report", str(report)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    (path,) = json.loads(report.read_text(encoding="utf-8"))["final_profile"].values()
    assert len(path) == depth + 1


def _diamond_chain(tmp_path, diamonds, players):
    """``diamonds`` two-way diamonds in a row: 2**diamonds root-leaf paths."""
    chain = diamond_chain(diamonds)
    crossing = tuple(Player(i + 1, "v0", f"v{diamonds}") for i in range(players))
    return _write(tmp_path, "diamonds.json",
                  instance_to_json(GameInstance(chain, crossing, 0.0)))


def test_enumerate_refuses_oversized_space_before_listing_paths(tmp_path, capsys):
    instance = _diamond_chain(tmp_path, 60, players=2)
    started = time.perf_counter()
    assert main(["enumerate", "--instance", str(instance), "--cap", "1000"]) == 4
    assert time.perf_counter() - started < 1.0
    assert f"has {2 ** 120} entries, exceeding cap 1000" in _single_error_line(capsys)


def test_check_honours_cap(d1_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    main(["solve", "--instance", str(d1_file), "--output", str(report)])
    capsys.readouterr()
    # Two players with one alternative path each: two deviations to sweep.
    assert main(["check", "--instance", str(d1_file), "--report", str(report),
                 "--cap", "2"]) == 0
    assert "PASS potential-identity" in capsys.readouterr().out
    assert main(["check", "--instance", str(d1_file), "--report", str(report),
                 "--cap", "1"]) == 4
    assert "sweep has 2 entries, exceeding cap 1" in _single_error_line(capsys)
    assert capsys.readouterr().out == ""
    assert main(["check", "--instance", str(d1_file), "--report", str(report),
                 "--cap", "0"]) == 1
    assert "--cap" in _single_error_line(capsys)


def test_check_default_cap_refuses_exponential_sweep(tmp_path, capsys):
    instance = _diamond_chain(tmp_path, 60, players=1)
    path = [f"e{i:02d}a{k}" for i in range(60) for k in (1, 2)]
    report = _write(tmp_path, "report.json", {
        "format_version": 1,
        "kind": "run-report",
        "delta": 0.0,
        "final_profile": {"1": path},
    })
    started = time.perf_counter()
    assert main(["check", "--instance", str(instance), "--report", str(report)]) == 4
    assert time.perf_counter() - started < 1.0
    assert f"has {2 ** 60 - 1} entries, exceeding cap 1000000" in _single_error_line(capsys)
