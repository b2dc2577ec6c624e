"""Mutated instance and report files through every subcommand: each run ends
with a documented exit code, and an error with one line, never a traceback.
Every report ``solve`` and ``report --format json`` print is standard JSON,
without ``NaN`` or ``Infinity``."""

import copy
import json
from pathlib import Path

import pytest

from pagegame.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
BASES = ("d1.json", "webpage.json")
DOCUMENTED_EXIT_CODES = range(6)

# Values a mutation writes in place of one in the file: other JSON types,
# edge-case numbers (JSON's NaN and Infinity among them) and known ids.
VALUES = (
    None, True, False, 0, -1, 2, 0.5, -0.0, 1e308, -1e308, float("inf"), float("nan"),
    10**400, -(10**400), 2**64, "", "x", "a", "r", "l", "0:#document", "pc", [], {},
    [1], ["a", "a"], {"a": 1},
)
# Byte strings a mutation splices into the file text.
SNIPPETS = (
    b"1" * 5000, b"[" * 200_000, b"9" * 401, b"\xff", b"\xe9", b",", b"}", b"]",
    b'"', b"NaN", b"-Infinity", b"null", b"<div>", b"</p>",
)


def _leaves(obj, prefix=()):
    """Every path (key sequence) into ``obj``, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, prefix + (key,))


def _mutants(st, base: dict):
    """JSON files derived from ``base``: values replaced, keys deleted or
    added, then the text cut short or spliced with a snippet."""

    @st.composite
    def mutant(draw):
        obj = copy.deepcopy(base)
        for _ in range(draw(st.integers(0, 3))):
            paths = list(_leaves(obj))
            if not paths:
                break
            *parents, key = draw(st.sampled_from(paths))
            parent = obj
            for step in parents:
                parent = parent[step]
            action = draw(st.sampled_from(("replace", "delete", "add")))
            value = copy.deepcopy(draw(st.sampled_from(VALUES)))
            if action == "replace":
                parent[key] = value
            elif action == "delete":
                del parent[key]
            elif isinstance(parent, dict):
                parent[draw(st.sampled_from(("cost", "delta", "id", "kind", "x")))] = value
            else:
                parent.append(value)
        data = json.dumps(obj).encode("utf-8")
        edit = draw(st.sampled_from(("none", "none", "truncate", "splice")))
        if edit != "none":
            at = draw(st.integers(0, len(data)))
            data = data[:at] if edit == "truncate" else (
                data[:at] + draw(st.sampled_from(SNIPPETS)) + data[at:])
        return data

    return mutant()


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in DOCUMENTED_EXIT_CODES, (argv, code)
    if code in (1, 2, 4):
        assert err.startswith("pagegame: error: ") and err.count("\n") == 1, err
    return code, out


def _refuse(constant):
    raise AssertionError(f"non-standard JSON constant {constant}")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_refuse)


def test_mutated_files_exit_with_documented_codes(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    bases, reports = [], []
    for i, name in enumerate(BASES):
        text = (REPO_ROOT / "instances" / name).read_text(encoding="utf-8")
        bases.append(json.loads(text))
        (tmp_path / f"base{i}.json").write_text(text, encoding="utf-8")
        assert main(["solve", "--instance", str(tmp_path / f"base{i}.json"),
                     "--output", str(tmp_path / f"report{i}.json")]) == 0
        reports.append(json.loads((tmp_path / f"report{i}.json").read_text(encoding="utf-8")))
    capsys.readouterr()
    d1, d1_report = (json.dumps(obj).encode("utf-8") for obj in (bases[0], reports[0]))

    @st.composite
    def files(draw):
        i = draw(st.sampled_from(range(len(BASES))))
        instance, report = (json.dumps(obj).encode("utf-8") for obj in (bases[i], reports[i]))
        which = draw(st.sampled_from(("instance", "report", "both")))
        if which != "report":
            instance = draw(_mutants(st, bases[i]))
        if which != "instance":
            report = draw(_mutants(st, reports[i]))
        return instance, report

    big_int = b'{"format_version": 1, "delta": ' + b"1" * 5000 + b"}"
    # Each player's cost on b, 3 * 1e308, would overflow.
    big_delta = json.dumps(
        dict(reports[0], delta=1e308, final_profile={"1": ["b"], "2": ["b"]})).encode("utf-8")
    past_float = b"1" + b"0" * 400
    assert b'"cost": 1.0' in d1 and b'"delta": 0.0' in d1 and b'"delta": 0.0' in d1_report

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(files())
    @hypothesis.example((big_int, big_int))
    @hypothesis.example((b"[" * 200_000, b"[" * 200_000))
    @hypothesis.example((d1.replace(b'"cost": 1.0', b'"cost": ' + past_float), d1_report))
    @hypothesis.example((d1.replace(b'"delta": 0.0', b'"delta": ' + past_float),
                         d1_report.replace(b'"delta": 0.0', b'"delta": ' + past_float)))
    @hypothesis.example((d1, big_delta))
    def check(pair):
        instance, report = tmp_path / "instance.json", tmp_path / "report.json"
        instance.write_bytes(pair[0])
        report.write_bytes(pair[1])
        given = ["--instance", str(instance)]
        solved = tmp_path / "solved.json"
        if _run(["solve", *given, "--output", str(solved)], capsys)[0] == 0:
            _strict_json(solved.read_text(encoding="utf-8"))
        code, out = _run(["enumerate", *given], capsys)
        if code == 0:
            _strict_json(out)
        _run(["check", *given, "--report", str(report)], capsys)
        _run(["report", *given, "--report", str(report), "--format", "dot"], capsys)
        code, out = _run(["report", *given, "--report", str(report), "--format", "json"], capsys)
        if code == 0:
            _strict_json(out)

    check()
