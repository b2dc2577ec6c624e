"""What each benchmark workload's seed-1 traced run must count.

A traced run (``perfbench/run.py --seed 1 --trace 1``) ends with one JSON
line: ``correct``, and ``metrics`` mapping each name to its ``value``.
``GUARDS`` pins, for each workload, the counts that seed 1 fixes exactly,
the equilibria the oracle finds (``round(oracle.equilibria_per_profile *
oracle.profiles)``) and the traced spans that must read above 0, with the
reason each holds. ``broken`` lists every fact a run breaks, ``correct is
True`` included. Run the workloads and check them all at once:

    for workload in dag-dynamics doc-pages oracle-catalog tie-lattice; do
      python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 \\
        | tail -n 1 > "traced-$workload.json"
    done
    python3 tests/traced_guards.py .

It reads ``traced-<workload>.json`` in the given directory for every
workload in ``GUARDS``, prints one line per workload that breaks a fact,
naming each wrong metric, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple


class Guard(NamedTuple):
    why: str
    counts: dict[str, int]
    equilibria: int | None = None
    spans: tuple[str, ...] = ()


GUARDS = {
    "dag-dynamics": Guard(
        why="The generator fixes its counts: 300 players, one pass of 50 moves, "
            "then a quiet pass. Its traced spans must not read 0, check's is_nash "
            "and per-player path enumeration included.",
        counts={"dynamics.activations": 600, "dynamics.moves": 50, "dynamics.passes": 2},
        spans=("dynamics.run_dynamics_s", "dynamics.best_response_s",
               "dynamics.is_nash_s", "oracle.enumerate_paths_s"),
    ),
    "tie-lattice": Guard(
        why="Seed 1 fixes two passes of 40 activations with 3 moves, 352,716 paths "
            "in the largest tie, check's 57 deviations, and the twin's 60 paths, "
            "8,000 profiles and 20 equilibria.",
        counts={"dynamics.activations": 80, "dynamics.moves": 3, "dynamics.passes": 2,
                "dynamics.tie_paths": 352_716, "oracle.paths": 60,
                "oracle.profiles": 8_000, "cli.check_deviations": 57},
        equilibria=20,
    ),
    "oracle-catalog": Guard(
        why="Seed 1 fixes its 40 games: 1,137 paths, 59,682 profiles, 215 equilibria "
            "and check's 958 deviations. A sweep that lost or added an equilibrium "
            "changes the count.",
        counts={"oracle.paths": 1_137, "oracle.profiles": 59_682,
                "cli.check_deviations": 958},
        equilibria=215,
    ),
    "doc-pages": Guard(
        why="perfbench wraps each load layer where its caller looks it up, so a "
            "caller that bypasses one (build_game constructing GameGraph itself) "
            "reads 0 instead of failing; every doc-pages load passes all five. "
            "Seed 1 fixes its page: 1,818 nodes and 1,816 edges, one quiet pass of "
            "96 activations, and 96 one-path players, so the oracle's one profile "
            "is its one equilibrium and check has no deviations.",
        counts={"dom.nodes": 1_818, "dom.edges": 1_816, "dynamics.activations": 96,
                "dynamics.moves": 0, "dynamics.passes": 1, "oracle.paths": 96,
                "oracle.profiles": 1, "cli.check_deviations": 0},
        equilibria=1,
        spans=("instance.parse_instance_s", "dom.parse_document_s", "dom.build_game_s",
               "game.build_graph_s", "game.validate_players_s"),
    ),
}


def broken(workload: str, output: str) -> list[str]:
    """Every fact of ``GUARDS[workload]`` that the run whose output ends in
    ``output``'s last line breaks, each naming its metric; empty if none."""
    guard = GUARDS[workload]
    try:
        run = json.loads(output.splitlines()[-1])
        metrics = {name: m["value"] for name, m in run["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError, AttributeError) as exc:
        return [f"no metrics on the last line ({type(exc).__name__})"]
    wrong = [] if run.get("correct") is True else [f"correct={run.get('correct')} (want true)"]
    wrong += [f"{name}={metrics.get(name)} (want {want})"
              for name, want in guard.counts.items() if metrics.get(name) != want]
    if guard.equilibria is not None:
        ratio = metrics.get("oracle.equilibria_per_profile")
        try:
            found = round(ratio * metrics.get("oracle.profiles", 0))
        except (TypeError, ValueError, OverflowError):
            found = None
        if found != guard.equilibria:
            wrong.append(f"oracle.equilibria_per_profile={ratio} "
                         f"(want equilibria={guard.equilibria})")
    for name in guard.spans:
        value = metrics.get(name, 0)
        if not (isinstance(value, (int, float)) and value > 0):
            wrong.append(f"{name}={metrics.get(name)} (want > 0)")
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="holds traced-<workload>.json")
    args = parser.parse_args(argv)
    failed = False
    for workload in GUARDS:
        path = args.directory / f"traced-{workload}.json"
        try:
            wrong = broken(workload, path.read_text(encoding="utf-8"))
        except OSError as exc:
            wrong = [f"cannot read {path.name}: {exc.strerror}"]
        if wrong:
            failed = True
            print(f"{workload} traced run: " + ", ".join(wrong), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
