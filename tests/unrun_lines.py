"""List the lines of ``src/pagegame`` that the tier-1 tests never run.

A ``sys.settrace`` line tracer, stdlib only, wraps one in-process pytest run
and prints each executable line of the package that no test reached, as
``path:line: source``, then a count. Commands the tests start in a
subprocess are not traced. Run it from the root of a checkout, with any
pytest arguments after the script name:

    python tests/unrun_lines.py
    python tests/unrun_lines.py tests/test_cli.py

Tracing makes the suite about three times slower, so it is a tool to run by
hand, not a test: pytest does not collect it and CI does not run it. The
exit code is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pagegame"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that start a bytecode instruction in any code
    object compiled from ``path``."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        hit = ran.get(str(path), set())
        for line in sorted(executable_lines(path) - hit):
            # Module docstrings and the code object's own first line are
            # reported at line 0 or 1 without a line event.
            if line < 1:
                continue
            missing += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missing} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
