"""``traced_guards``: the pinned facts of each traced benchmark run pass as
pinned, and every single-fact edit fails naming its metric."""

import json
from pathlib import Path

import pytest

import traced_guards
from traced_guards import GUARDS, broken

ROOT = Path(__file__).resolve().parent.parent
RATIO = "oracle.equilibria_per_profile"


def _run(workload: str) -> dict:
    """A traced run's last JSON object that keeps every fact of the table."""
    guard = GUARDS[workload]
    values = dict(guard.counts)
    if guard.equilibria is not None:
        values[RATIO] = guard.equilibria / values["oracle.profiles"]
    values.update((name, 0.25) for name in guard.spans)
    metrics = {name: {"value": value, "unit": "count"} for name, value in values.items()}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def _output(run: dict) -> str:
    return "machine: {}\nsizes:\n" + json.dumps(run) + "\n"


def _edits(workload: str):
    """``(metric, run)`` for each single-fact edit of ``workload``'s run."""
    guard = GUARDS[workload]
    for name, want in guard.counts.items():
        for value in (want - 1, want + 1):
            run = _run(workload)
            run["metrics"][name]["value"] = value
            yield name, run
    for name in guard.spans:
        run = _run(workload)
        run["metrics"][name]["value"] = 0.0
        yield name, run
    names = [*guard.counts, *guard.spans, *([RATIO] if guard.equilibria is not None else [])]
    for name in names:
        run = _run(workload)
        del run["metrics"][name]
        yield name, run
    if guard.equilibria is not None:
        for equilibria in (guard.equilibria - 1, guard.equilibria + 1):
            run = _run(workload)
            run["metrics"][RATIO]["value"] = equilibria / guard.counts["oracle.profiles"]
            yield RATIO, run
    run = _run(workload)
    run["correct"] = False
    yield "correct", run


@pytest.mark.parametrize("workload", GUARDS)
def test_the_pinned_facts_pass(workload):
    assert broken(workload, _output(_run(workload))) == []


@pytest.mark.parametrize("workload", GUARDS)
def test_each_single_fact_edit_fails_naming_its_metric(workload):
    # The equilibria are read from the profile count too, so an edit of
    # oracle.profiles may also break them.
    edits = list(_edits(workload))
    for name, run in edits:
        named = {line.split("=")[0] for line in broken(workload, _output(run))}
        allowed = {name, RATIO} if name == "oracle.profiles" else {name}
        assert name in named and named <= allowed, (name, named)
    assert len(edits) >= 5


@pytest.mark.parametrize("output", ["", "machine: {}\n", "[1, 2]\n", '{"metrics": {"a": 1}}\n'])
def test_a_run_without_metrics_fails(output):
    assert broken("dag-dynamics", output)[0].startswith("no metrics on the last line")


def test_every_wrong_metric_of_every_workload_is_named(tmp_path, capsys):
    for workload in GUARDS:
        (tmp_path / f"traced-{workload}.json").write_text(_output(_run(workload)))
    assert traced_guards.main([str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""

    run = _run("tie-lattice")
    run["metrics"]["dynamics.moves"]["value"] = 4
    run["metrics"]["dynamics.tie_paths"]["value"] = 352_715
    (tmp_path / "traced-tie-lattice.json").write_text(_output(run))
    (tmp_path / "traced-doc-pages.json").unlink()
    assert traced_guards.main([str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "tie-lattice traced run: dynamics.moves=4 (want 3), "
        "dynamics.tie_paths=352715 (want 352716)",
        "doc-pages traced run: cannot read traced-doc-pages.json: No such file or directory",
    ]


def test_the_table_covers_the_benchmark_and_the_ci_runs():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert set(GUARDS) == workloads
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = workflow.split("- name: Traced benchmark smoke runs\n")[1].split("- name:")[0]
    loop = next(line for line in step.splitlines() if "for workload in" in line)
    assert set(loop.split(" in ")[1].removesuffix("; do").split()) == workloads
    assert 'python3 tests/traced_guards.py "$RUNNER_TEMP"' in step
    assert "<<" not in step
