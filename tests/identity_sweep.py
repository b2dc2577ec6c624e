"""Byte identity beyond the golden corpus: the corpus's commands on the
benchmark workloads' games.

For each seed, every game of every workload (``perfbench/workloads.build``)
runs the golden corpus's command list (``golden_corpus.commands``) in
process, restricted to the subcommands the game lists. ``check`` and
``report`` read a solve report, so a game that lists either also runs
``solve``, as the benchmark writes that report before timing. The exit code
of every command and the SHA-256 digest of every file it writes go into one
JSON file, keyed by workload, seed and game. Run it on two trees, or under
two hash seeds, and diff the files:

    python tests/identity_sweep.py --seeds 1 2 --output sweep.json

It runs the engine in the ``src`` next to this file. With ``--digests`` the
file holds one SHA-256 per game instead, of that game's entry as sorted
JSON. Tier-1 reruns the seed 1-3 sweep and compares it with the digests
pinned in ``identity_sweep.json``; after a deliberate change of output or
a re-tuned workload, re-pin them with

    python tests/identity_sweep.py --seeds 1 2 3 --digests --output tests/identity_sweep.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS), str(TESTS.parent / "perfbench")]

import golden_corpus  # noqa: E402
import workloads  # noqa: E402

PINNED = TESTS / "identity_sweep.json"
PINNED_SEEDS = [1, 2, 3]


def sweep(seeds: list[int]) -> dict[str, dict[str, object]]:
    """``"workload/seed/game"`` -> that game's exit codes and digests."""
    results = {}
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for game in workloads.build(workload, seed):
                subcommands = set(game.commands)
                if subcommands & {"check", "report"}:
                    subcommands.add("solve")
                with tempfile.TemporaryDirectory() as tmp:
                    workdir = Path(tmp)
                    instance = workdir / "instance.json"
                    instance.write_text(game.text(), encoding="utf-8")
                    results[f"{workload}/{seed}/{game.name}"] = golden_corpus.run_in_process(
                        game.name, instance, workdir, subcommands)
    return results


def digests(results: dict[str, dict[str, object]]) -> dict[str, str]:
    """Each game's entry of a sweep as the SHA-256 of its sorted JSON."""
    return {key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            for key, value in results.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--output", required=True, help="JSON file to write")
    parser.add_argument("--digests", action="store_true", help="one digest per game")
    args = parser.parse_args(argv)
    results = sweep(args.seeds)
    if args.digests:
        results = digests(results)
    text = json.dumps(results, indent=1, sort_keys=True) + "\n"
    Path(args.output).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
