"""One repetition of a workload in a fresh process, for its peak memory.

    python3 perfbench/once.py WORKLOAD SEED WORKDIR

WORKDIR must hold the files a benchmark run prepared for the same workload
and seed. Each output must match, byte for byte, what that run left there.
Prints one JSON line: ``peak_rss_kib``, ``attempted`` and ``failed``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from run import import_engine


def peak_rss_kib() -> int:
    """Peak resident set of this process image, in KiB.

    Linux's ``VmHWM`` counts only what this image touched. ``ru_maxrss``
    also keeps the parent's peak across fork and exec, so it is only the
    fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    import_engine()
    import harness
    import workloads

    files = [harness.GameFiles.under(workdir, g) for g in workloads.build(workload, seed)]
    expected = {(gf.game.name, c): gf.output(c) for gf in files for c in gf.game.commands}
    rep = harness.run_repetition(files)
    failed = sum(
        op.code != 0 or (op.command != "setup" and op.output != expected[(op.game, op.command)])
        for op in rep.operations
    )
    print(json.dumps({
        "peak_rss_kib": peak_rss_kib(),
        "attempted": len(rep.operations),
        "failed": failed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
