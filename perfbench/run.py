"""pagegame benchmark: seeded workloads, end-to-end CLI timings, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dag-dynamics --seed 1 --seconds 15 --trace 0

One closed-loop, single-threaded caller: every call waits for the previous
one. ``--trace 0`` times in-process ``pagegame.cli.main`` calls after an
untimed warm-up repetition and prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
give the machine, the workload sizes and each metric's median, tail and
sample count. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def import_engine() -> None:
    """Put the checkout's own sources first on the path; refuse to run
    against anything else."""
    if not (SRC / "pagegame" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'pagegame'} not found; run inside a full checkout")
    sys.path.insert(0, str(SRC))
    import pagegame

    if Path(pagegame.__file__).resolve().parent != SRC / "pagegame":
        sys.exit(f"perfbench: imported pagegame from {pagegame.__file__}, not {SRC}")


# ------------------------------------------------------------ statistics

def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    if len(samples) == 1:
        return f"  {name:<34} {samples[0]:.6g} {unit}"
    line = f"  {name:<34} median={statistics.median(samples):.6g} {unit}"
    t = tail(samples)
    line += f"  p{t[0]:.0f}={t[1]:.6g}" if t else "  tail=n/a"
    return line + f"  n={len(samples)}"


def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        info["memory_mib"] = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    except (ValueError, OSError):
        pass
    return info


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_engine()
    from measure import Run

    spec = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        print("machine: " + json.dumps(machine(), sort_keys=True))
        print("sizes:\n" + "\n".join(run.sizes()))
        samples = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:")
    units = {m["name"]: m["unit"] for m in spec}
    for name, values in samples.items():
        print(describe(name, values, units.get(name, "s")))
    print(f"  {'failed_ratio':<34} {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in spec}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
