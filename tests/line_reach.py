"""The ``src/groupvar`` lines that no tier-1 test reaches.

    PYTHONPATH=src python tests/line_reach.py [pytest arguments]

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, with the standard library alone, and prints every
executable line of ``src/groupvar`` that no test ran, as ``path:line: text``.
A line is executable when the compiled module attributes bytecode to it; a
function's own ``def`` line counts as the statement that defines it.  Lines
run only in a subprocess do not count.  The exit code is the suite's own
when a test fails, else 1 when the unreached lines, by file and text, differ
from ``ALLOWED``.  The arguments go to pytest after its own (say
``--durations=10``).  On a 2-vCPU machine with Python 3.11 the traced run
took 31-36 s, against 26-31 s for a plain one.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupvar"
# The lines no test can reach: the abstract ``value`` of a density and of a
# constraint map, and the body of the command line module's __main__ guard.
ALLOWED = sorted([
    ("src/groupvar/cli.py", "sys.exit(main())"),
    ("src/groupvar/core.py", "raise NotImplementedError"),
    ("src/groupvar/core.py", "raise NotImplementedError"),
])


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that its code objects attribute bytecode to,
    less each function's first line, where only its preamble sits."""
    lines, stack = set(), [(compile(path.read_text(), str(path), "exec"), True)]
    while stack:
        code, module = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line and (module or line != code.co_firstlineno))
        stack.extend((const, False) for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def reached_lines(targets: set[str], argv: list[str]) -> tuple[int, set]:
    """Run pytest on ``argv`` under a line tracer of the files ``targets``
    (real paths): its exit code and the (real path, line) pairs it ran."""
    reached, canonical = set(), {}

    def local(frame, event, arg):
        if event == "line":
            reached.add((canonical[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in canonical:
            real = os.path.realpath(name)
            canonical[name] = real if real in targets else None
        return local if canonical[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    files = {os.path.realpath(path): path for path in sorted(PACKAGE.glob("*.py"))}
    os.chdir(ROOT)
    code, reached = reached_lines(set(files), ["-q", "-p", "no:cacheprovider",
                                               "--continue-on-collection-errors", *argv])
    missed = []
    for real, path in files.items():
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (real, line) not in reached:
                rel = path.relative_to(ROOT).as_posix()
                missed.append((rel, line, text[line - 1].strip()))
    print(f"{len(missed)} executable src/groupvar lines reached by no test:")
    for rel, line, source in missed:
        print(f"{rel}:{line}: {source}")
    if code:
        return code
    if sorted((rel, source) for rel, _, source in missed) != ALLOWED:
        print("the unreached lines differ from ALLOWED in tests/line_reach.py")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
