#!/usr/bin/env python3
"""Count the lines of ``src/coxembed`` that hold code.

    python3 scripts/code_lines.py            # this tree
    python3 scripts/code_lines.py --src DIR  # another tree's src/coxembed

Prints, per file and in total, the lines that hold a token of code;
docstrings, comments and blank lines are not counted, so removing a
docstring is not a reduction.  A line that a statement's token spans,
such as the middle of a bracketed expression, counts.  Standard library
only.
"""

from __future__ import annotations

import argparse
import ast
import tokenize
from pathlib import Path

SKIP = {
    tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    docs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    package = parser.parse_args().src / "coxembed"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
