"""Split the lines of each module of ``src/lorenzmap`` by what they hold.

For each module it prints the total line count and its four parts:

* docstring: a line of a module, class or function docstring;
* comment: a line that holds a comment and nothing else;
* blank: an empty line, or one of white space only;
* code: every other line, a code line with a trailing comment included.

The parts sum to the total.  Deleting a docstring or a comment shortens
a module but removes no code, so the code column is the one to read
when a change claims less code:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lorenzmap"
PARTS = ("docstring", "comment", "blank", "code")


def _docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines: set = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_parts(source: str) -> dict:
    """``{part: count}`` of one module's source, with ``total``."""
    docstrings = _docstring_lines(ast.parse(source))
    # the lines that hold a token other than a comment, newline or indent
    code: set = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(PARTS, 0)
    lines = source.splitlines()
    for number, line in enumerate(lines, start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif line.strip():
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    counts["total"] = len(lines)
    return counts


def main() -> int:
    rows = [
        (path.stem, line_parts(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    ]
    rows.append(("all", {key: sum(row[key] for _, row in rows) for key in rows[0][1]}))
    columns = ("total", *PARTS)
    print(f"{'module':<20}" + "".join(f"{name:>11}" for name in columns))
    for name, counts in rows:
        print(f"{name:<20}" + "".join(f"{counts[key]:>11}" for key in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
