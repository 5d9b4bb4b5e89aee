#!/usr/bin/env python3
"""List the executable lines of ``src/coxembed`` that no test runs.

    python3 scripts/untested_lines.py > untested.txt
    python3 scripts/untested_lines.py tests/test_schreier.py

Runs the test suite (by default the tier-1 suite, ``pytest -q
--continue-on-collection-errors`` from the repository root; any
arguments go to pytest instead) in this process under a ``sys.settrace``
line recorder, then prints one line per executable line of
``src/coxembed`` that never ran, as ``path:line: source``, and a count.
A line is executable when the compiled module has bytecode on it
(``co_lines``), so docstrings, comments and ``else:`` lines never show.
It uses the standard library only.  Lines run only by a test's
subprocess (``python -m coxembed``) are not seen, so ``__main__.py``
always shows, as do imports under ``if TYPE_CHECKING:``.  Exits with
pytest's status.

A frame's line events are switched off once every line of its code
object has run, so the hot loops cost little after their first pass.
``scripts/unbenched_lines.py`` runs benchmark ops under the same
recorder.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coxembed"


def code_lines(code: types.CodeType) -> set:
    """The lines that hold bytecode of ``code`` itself, nested code aside."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: Path) -> set:
    """The lines of the source file ``path`` that hold bytecode."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def record(run) -> tuple:
    """Call ``run()`` with the line recorder on; return its result and
    each package file mapped to the lines that ran."""
    prefix = str(PACKAGE) + os.sep
    todo = {}  # code object -> its lines not yet run; none outside the package

    def trace_call(frame, event, arg):
        code = frame.f_code
        left = todo.get(code)
        if left is None:
            inside = os.path.abspath(code.co_filename).startswith(prefix)
            left = todo[code] = code_lines(code) if inside else set()
        if not left:
            return None
        left.discard(frame.f_lineno)

        def trace_line(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
                if not left:
                    frame.f_trace_lines = False
            return trace_line

        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = defaultdict(set)
    for code, left in todo.items():
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(prefix):
            ran[filename] |= code_lines(code) - left
    return result, ran


def report(ran) -> None:
    """Print each executable package line that is not in ``ran``, as
    ``path:line: source``, then their count."""
    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missing += 1
    print(f"{missing} executable lines of src/coxembed not run")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    if any(name == "coxembed" or name.startswith("coxembed.") for name in sys.modules):
        raise SystemExit("coxembed is already imported; its import-time lines would read as not run")
    import pytest

    status, ran = record(lambda: pytest.main(args or ["-q", "--continue-on-collection-errors"]))
    report(ran)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
