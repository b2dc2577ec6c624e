"""One repetition of a workload: in-process CLI calls, timed one by one.

The parent benchmark process and the peak-memory child both run
repetitions through :func:`run_repetition`, so they do the same work.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from pagegame import cli
from pagegame import instance as pg_instance

from workloads import Game

METRIC_OF = {
    "setup": "setup_s",
    "solve": "solve_s",
    "check": "check_s",
    "enumerate": "enumerate_s",
    "report": "report_s",
}


@dataclass(frozen=True)
class GameFiles:
    game: Game
    instance: Path
    report: Path
    trace: Path
    check: Path
    catalog: Path
    dot: Path

    @classmethod
    def under(cls, directory: Path, game: Game) -> "GameFiles":
        stem = directory / game.name
        return cls(game, stem.with_suffix(".json"), stem.with_suffix(".report.json"),
                   stem.with_suffix(".trace"), stem.with_suffix(".check"),
                   stem.with_suffix(".catalog.json"), stem.with_suffix(".dot"))

    def argv(self, command: str) -> list[str]:
        inst = ["--instance", str(self.instance)]
        if command == "solve":
            return ["solve", *inst, "--seed", str(self.game.seed),
                    "--schedule", self.game.schedule, "--trace", str(self.trace),
                    "--output", str(self.report)]
        if command == "check":
            return ["check", *inst, "--report", str(self.report), "--output", str(self.check)]
        if command == "enumerate":
            return ["enumerate", *inst, "--output", str(self.catalog)]
        if command == "report":
            return ["report", *inst, "--report", str(self.report), "--format", "dot",
                    "--output", str(self.dot)]
        raise KeyError(command)

    def output(self, command: str) -> bytes:
        """Everything the command wrote, for byte comparison across repetitions."""
        paths = {"solve": (self.report, self.trace), "check": (self.check,),
                 "enumerate": (self.catalog,), "report": (self.dot,)}[command]
        return b"\0".join(p.read_bytes() if p.exists() else b"" for p in paths)


def prepare(directory: Path, games: list[Game]) -> list[GameFiles]:
    """Write the instance files; solve once, untimed, every game whose timed
    commands read a report it does not produce itself. A failed solve here
    surfaces as failed timed commands, which is where it is counted."""
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for game in games:
        gf = GameFiles.under(directory, game)
        gf.instance.write_text(game.text(), encoding="utf-8")
        if "solve" not in game.commands:
            cli.main(gf.argv("solve"))
        files.append(gf)
    return files


@dataclass
class Operation:
    game: str
    command: str
    seconds: float
    code: int
    output: bytes = b""


@dataclass
class Repetition:
    operations: list[Operation] = field(default_factory=list)

    def seconds(self) -> dict[str, float]:
        """Time per end-to-end metric: for each game the median of its calls
        of the command, summed over the repetition's games."""
        calls: dict[tuple[str, str], list[float]] = {}
        for op in self.operations:
            calls.setdefault((op.game, op.command), []).append(op.seconds)
        totals: dict[str, float] = {}
        for (_, command), times in calls.items():
            metric = METRIC_OF[command]
            totals[metric] = totals.get(metric, 0.0) + statistics.median(times)
        return totals

    def wall(self) -> float:
        return sum(op.seconds for op in self.operations)


def _load(gf: GameFiles) -> Operation:
    start = time.perf_counter()
    try:
        pg_instance.load_instance(str(gf.instance))
        code = 0
    except Exception:  # a failed load is counted as a failure, never fatal
        traceback.print_exc(file=sys.stderr)
        code = -1
    return Operation(gf.game.name, "setup", time.perf_counter() - start, code)


def run_repetition(files: list[GameFiles], calls: dict[str, int] | None = None) -> Repetition:
    """Load every instance, then run each game's timed subcommands in order.

    ``calls`` maps a command (or ``"setup"``) to how many times it runs back
    to back on each game; the default is once.
    """
    calls = calls or {}
    rep = Repetition()
    for gf in files:
        for _ in range(calls.get("setup", 1)):
            rep.operations.append(_load(gf))
        for command in gf.game.commands:
            argv = gf.argv(command)
            for _ in range(calls.get(command, 1)):
                start = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - start
                rep.operations.append(
                    Operation(gf.game.name, command, elapsed, code, gf.output(command))
                )
    return rep


class Reference:
    """A fixed pure-Python computation that measures the host's current speed.

    It relaxes cheapest distances over a pseudo-random DAG of 30,000
    string-named nodes (out-degree 3, dict lookups, float additions) and
    keeps a tuple per edge it relaxes, the same kind of work as the engine's
    inner loops and tie walk, but it shares no code with pagegame and does
    not depend on the seed. A DAG relaxation tracked the engine's slowdowns
    on a shared host better than a plain dict loop.
    """

    NODES = 30_000
    #: Median time of one pass on the host the benchmark was tuned on
    #: (2 vCPUs of a Xeon, CPython 3.11): normalized times read as seconds
    #: on that host.
    SECONDS = 0.05

    def __init__(self):
        rng = random.Random(0)
        self.order = [f"v{i}" for i in range(self.NODES)]
        self.out = [
            [(self.order[j], rng.random()) for j in rng.sample(range(i + 1, self.NODES), 3)]
            if i + 3 < self.NODES else []
            for i in range(self.NODES)
        ]

    def seconds(self) -> float:
        """Wall time of one pass. The cyclic garbage collector is paused
        during the pass, so its time does not grow with whatever else the
        process holds."""
        gc.disable()
        try:
            return self._timed_pass()
        finally:
            gc.enable()

    def _timed_pass(self) -> float:
        start = time.perf_counter()
        dist = dict.fromkeys(self.order, math.inf)
        dist[self.order[-1]] = 0.0
        tight = []
        for node, edges in zip(reversed(self.order), reversed(self.out)):
            best = dist[node]
            for dst, cost in edges:
                through = cost + dist[dst]
                tight.append((node, dst, through))
                if through < best:
                    best = through
            dist[node] = best
        del tight
        return time.perf_counter() - start
