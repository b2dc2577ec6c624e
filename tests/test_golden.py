"""Byte-level regression gate: every corpus output matches its stored digest."""

import json
import os
import subprocess
import sys

import pytest

from golden_corpus import DIGESTS, TESTS, commands, games, run_in_process, sha256

GOLDEN = json.loads(DIGESTS.read_text(encoding="utf-8"))
GAMES = games()

# Games rerun in fresh interpreters under different hash seeds.
HASH_SEED_GAMES = ("d1", "webpage", "doc3", "shop", "ties", "near-grid1", "near-grid3",
                   "gen-01", "gen-06")


def test_corpus_lists_every_game():
    assert sorted(GOLDEN) == sorted(GAMES)


@pytest.mark.parametrize("name", sorted(GAMES))
def test_outputs_match_golden_digests(name, tmp_path):
    assert run_in_process(name, GAMES[name], tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_solve_and_enumerate_ignore_hash_seed(hash_seed, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name in HASH_SEED_GAMES:
        workdir = tmp_path / name
        workdir.mkdir()
        for step, argv, written in commands(name, GAMES[name]):
            if argv[0] not in ("solve", "enumerate"):
                continue
            done = subprocess.run(
                [sys.executable, "-m", "pagegame.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True,
            )
            assert done.returncode == GOLDEN[name][f"{step}:exit"], done.stderr
            for filename in written:
                assert sha256(workdir / filename) == GOLDEN[name][filename], (name, filename)


def test_workload_games_match_the_pinned_identity_sweep():
    # The corpus's commands on every workload game of seeds 1-3, one digest
    # per game; identity_sweep.py's docstring says how to re-pin them.
    import identity_sweep

    pinned = json.loads(identity_sweep.PINNED.read_text(encoding="utf-8"))
    swept = identity_sweep.digests(identity_sweep.sweep(identity_sweep.PINNED_SEEDS))
    assert sorted(key for key in pinned.keys() | swept.keys()
                  if pinned.get(key) != swept.get(key)) == []
