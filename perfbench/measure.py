"""The measurements of one benchmark run: set-up, warm-up and reference
outputs, the timed loop, output checks, peak memory and the traced run.

Import only after ``run.import_engine()`` has put the checkout's sources on
the path.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import layers
import workloads
from pagegame.dynamics import Schedule, best_response, is_nash, reweight, run_dynamics
from pagegame.errors import EngineError
from pagegame.game import player_cost, potential
from pagegame.instance import load_instance, parse_instance
from pagegame.reporting import profile_from_json

HERE = Path(__file__).resolve().parent
RSS_CHILDREN = 3
MIN_REPETITIONS = 3
# A command whose calls over all games take less than this in the warm-up is
# called several times back to back in each timed repetition (at most
# MAX_CALLS), and the median call counts: one slow moment of the host then
# cannot decide a millisecond-scale sample.
MIN_COMMAND_SECONDS = 0.05
MAX_CALLS = 25


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload, self.seed, self.seconds, self.workdir = workload, seed, seconds, workdir
        self.attempted = 0
        self.failed = 0
        games = workloads.build(workload, seed)
        self.check_generation(games, [g.text() for g in workloads.build(workload, seed)])
        self.files = harness.prepare(workdir, games)
        self.instances = {gf.game.name: load_instance(str(gf.instance)) for gf in self.files}
        self.expected: dict[tuple[str, str], bytes] = {}
        self.valid: dict[tuple[str, str], bool] = {}
        self.warm_up()

    def check_generation(self, games, again: list[str]) -> None:
        """One seed must give byte-identical instance files."""
        self.attempted += 1
        if [g.text() for g in games] != again:
            self.failed += 1
            print("FAIL: generator is not deterministic for this seed", file=sys.stderr)

    def warm_up(self) -> None:
        """Untimed repetition whose outputs become the expected ones: each is
        checked for meaning once; later repetitions must match it byte for
        byte."""
        rep = harness.run_repetition(self.files)
        for op in rep.operations:
            key = (op.game, op.command)
            self.expected[key] = op.output
            try:
                reason = f"exit code {op.code}" if op.code != 0 else self.meaning(op)
            except (OSError, ValueError, KeyError, TypeError, EngineError) as exc:
                reason = f"unreadable output: {exc!r}"
            self.valid[key] = reason is None
            if reason:
                print(f"FAIL {op.game} {op.command}: {reason}", file=sys.stderr)
        self.tally(rep, check_bytes=False)
        warm = rep.seconds()
        self.calls = {
            command: max(1, min(MAX_CALLS, math.ceil(MIN_COMMAND_SECONDS / warm[metric])))
            for command, metric in harness.METRIC_OF.items()
            if warm.get(metric)
        }

    def game_files(self, name: str):
        return next(gf for gf in self.files if gf.game.name == name)

    def final_profile(self, name: str):
        report = json.loads(self.game_files(name).report.read_text(encoding="utf-8"))
        return report, profile_from_json(report["final_profile"])

    def meaning(self, op) -> str | None:
        """Why ``op``'s output is wrong, or ``None``."""
        gf = self.game_files(op.game)
        inst = self.instances[op.game]
        if op.command == "solve":
            report, profile = self.final_profile(op.game)
            if report["converged"] is not True:
                return "solve did not converge"
            if not is_nash(inst.graph, profile, inst.delta):
                return "final profile is not a Nash equilibrium"
        elif op.command == "check":
            lines = gf.check.read_text(encoding="utf-8").splitlines()
            if not lines or not all(line.startswith("PASS ") for line in lines):
                return "check reported " + "; ".join(lines)
        elif op.command == "enumerate":
            catalog = json.loads(gf.catalog.read_text(encoding="utf-8"))["catalog"]
            report, _ = self.final_profile(op.game)
            if report["final_profile"] not in [e["profile"] for e in catalog["equilibria"]]:
                return "dynamics' final profile is missing from the catalog"
        elif op.command == "report":
            if not gf.dot.read_text(encoding="utf-8").startswith("digraph"):
                return "report is not DOT"
        return None

    def tally(self, rep, check_bytes: bool = True) -> None:
        for op in rep.operations:
            key = (op.game, op.command)
            self.attempted += 1
            ok = op.code == 0 and self.valid[key]
            if ok and check_bytes and op.output != self.expected[key]:
                ok = False
                print(f"FAIL {op.game} {op.command}: output differs from warm-up", file=sys.stderr)
            if not ok:
                self.failed += 1

    def repetition(self, calls: dict[str, int] | None = None):
        gc.collect()
        rep = harness.run_repetition(self.files, calls)
        self.tally(rep)
        return rep

    # -------------------------------------------------------- sizes

    def sizes(self) -> list[str]:
        """V, E, P, paths per player (min/median/max) and profile-space size."""
        lines = []
        for gf in self.files:
            inst = self.instances[gf.game.name]
            paths = [layers.path_count(inst.graph, p.root, p.leaf) for p in inst.players]
            lines.append(
                f"  {gf.game.name}: V={len(inst.graph.nodes)} E={len(inst.graph.edges)}"
                f" P={len(inst.players)} paths={min(paths)}/{statistics.median(paths):g}"
                f"/{max(paths)} profiles=10^{sum(math.log10(p) for p in paths):.2f}"
                f" timed={','.join(gf.game.commands)}"
            )
        return lines

    # -------------------------------------------------------- end to end

    def end_to_end(self) -> dict[str, list[float]]:
        """Samples of every end-to-end metric.

        The reference computation is timed before the first repetition and
        after each one. A repetition's times are scaled by
        ``Reference.SECONDS`` over the mean of the two reference times
        around it, which cancels most of the host's speed drift. The raw
        seconds are kept as ``raw <metric>`` for the record.
        """
        reference = harness.Reference()
        deadline = time.perf_counter() + self.seconds
        refs = [reference.seconds()]
        reps = []
        while time.perf_counter() < deadline or len(reps) < MIN_REPETITIONS:
            reps.append(self.repetition(self.calls))
            refs.append(reference.seconds())
        samples: dict[str, list[float]] = {}
        for rep, before, after in zip(reps, refs, refs[1:]):
            scale = reference.SECONDS / ((before + after) / 2)
            for metric, value in rep.seconds().items():
                samples.setdefault(metric, []).append(value * scale)
                samples.setdefault("raw " + metric, []).append(value)
        samples["reference_s"] = refs
        samples["peak_rss_mib"] = self.peak_rss()
        return samples

    def peak_rss(self) -> list[float]:
        """Peak resident memory of fresh processes running one repetition each."""
        values = []
        for _ in range(RSS_CHILDREN):
            argv = [sys.executable, str(HERE / "once.py"), self.workload, str(self.seed),
                    str(self.workdir)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=120)
            if done.returncode != 0:
                self.attempted += 1
                self.failed += 1
                values.append(0.0)
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            values.append(result["peak_rss_kib"] / 1024.0)
        return values

    # -------------------------------------------------------- traced

    def traced(self) -> dict[str, list[float]]:
        deadline = time.perf_counter() + self.seconds
        plain, traced, spans = [], [], []
        while time.perf_counter() < deadline or len(traced) < MIN_REPETITIONS:
            plain.append(self.repetition().wall())
            with layers.Tracer() as tracer:
                traced.append(self.repetition().wall())
            spans.append(tracer.self_times())
        samples = {metric: [s.get(span, 0.0) for s in spans]
                   for metric, span in layers.SPAN_METRICS.items()}
        medians = {metric: statistics.median(v) for metric, v in samples.items()}
        samples.update({name: [v] for name, v in self.layer_counts(medians).items()})
        # Paired differences: each traced repetition runs right after its
        # untraced twin, so host speed drift mostly cancels.
        samples["tracing.overhead_s"] = [statistics.median(t - p for t, p in zip(traced, plain))]
        samples["untraced repetition"] = plain
        samples["traced repetition"] = traced
        return samples

    def layer_counts(self, spans: dict[str, float]) -> dict[str, float]:
        out = dict.fromkeys(
            ("dom.nodes", "dom.edges", "dynamics.activations", "dynamics.moves",
             "dynamics.passes", "dynamics.tie_paths", "oracle.paths", "oracle.profiles",
             "oracle.equilibria", "reporting.trace_bytes", "reporting.report_bytes",
             "cli.check_deviations", "dynamics.activation_s.scaling"), 0)
        calls = {"best_response": [], "reweight": [], "player_cost": [], "potential": []}
        placements = 0
        for gf in self.files:
            game, inst = gf.game, self.instances[gf.game.name]
            paths = [layers.path_count(inst.graph, p.root, p.leaf) for p in inst.players]
            if "document" in game.instance:
                out["dom.nodes"] += len(inst.graph.nodes)
                out["dom.edges"] += len(inst.graph.edges)
            if "check" in game.commands:
                out["cli.check_deviations"] += sum(p - 1 for p in paths)
            if "enumerate" in game.commands:
                out["oracle.paths"] += sum(paths)
                out["oracle.profiles"] += math.prod(paths)
                catalog = json.loads(gf.catalog.read_text(encoding="utf-8"))["catalog"]
                out["oracle.equilibria"] += len(catalog["equilibria"])
            if "solve" not in game.commands:
                continue
            report, profile = self.final_profile(game.name)
            trace_lines = gf.trace.read_text(encoding="utf-8").splitlines()
            out["dynamics.activations"] += len(trace_lines)
            out["dynamics.moves"] += sum(json.loads(t)["path_changed"] for t in trace_lines)
            out["dynamics.passes"] += report["iterations"]
            out["reporting.trace_bytes"] += gf.trace.stat().st_size
            out["reporting.report_bytes"] += gf.report.stat().st_size
            placements += len(inst.players)
            schedule = Schedule(game.schedule, game.seed)
            trace = run_dynamics(inst.graph, inst.players, inst.delta, schedule=schedule)
            out["dynamics.tie_paths"] = max(out["dynamics.tie_paths"],
                                            layers.largest_tie(inst, trace))
            for p in layers.sample_players(inst.players):
                args = (inst.graph, profile, p.player_id, inst.delta)
                calls["best_response"].append(args)
                calls["reweight"].append(args)
                calls["player_cost"].append(args)
                calls["potential"].append((inst.graph, profile, inst.delta))
        out["dynamics.best_response_s"] = layers.per_call(best_response, calls["best_response"])
        out["dynamics.reweight_s"] = layers.per_call(reweight, calls["reweight"])
        out["game.player_cost_s"] = layers.per_call(player_cost, calls["player_cost"])
        out["game.potential_s"] = layers.per_call(potential, calls["potential"])
        out["dynamics.activation_s"] = spans["dynamics.run_dynamics_s"] / (
            placements + out["dynamics.activations"])
        walk = spans["oracle.brute_force_equilibria_s"] + spans["oracle.social_optimum_s"]
        out["oracle.profiles_per_s"] = out["oracle.profiles"] / walk if walk else 0.0
        out["oracle.equilibria_per_profile"] = (
            out.pop("oracle.equilibria") / out["oracle.profiles"] if out["oracle.profiles"] else 0.0)
        if self.workload == "dag-dynamics":
            out["dynamics.activation_s.scaling"] = self.scaling()
        return out

    def scaling(self, pairs: int = 5) -> float:
        """Log-log slope of run_dynamics time per best response against P,
        from the workload at full and at half its player count. The two
        sizes run back to back and the median of the per-pair ratios is
        used, so host speed drift mostly cancels."""
        sizes = []
        for scale in (1.0, 0.5):
            game = workloads.build(self.workload, self.seed, scale=scale)[0]
            sizes.append((parse_instance(game.instance), Schedule(game.schedule, game.seed)))
        ratios = []
        for _ in range(pairs):
            per_step = []
            for inst, schedule in sizes:
                gc.collect()
                start = time.perf_counter()
                trace = run_dynamics(inst.graph, inst.players, inst.delta, schedule=schedule)
                elapsed = time.perf_counter() - start
                per_step.append(elapsed / (len(inst.players) + len(trace.steps)))
            ratios.append(per_step[0] / per_step[1])
        players = len(sizes[0][0].players) / len(sizes[1][0].players)
        return math.log(statistics.median(ratios)) / math.log(players)
