#!/usr/bin/env python3
"""Code-line count: the size figure ROADMAP and simplicity issues quote.

Counts, over a file or every ``*.py`` file under a directory, the
physical lines that carry code — not blank, not comment-only, and not
part of a docstring (a string that is the first statement of a module,
class or function).

    python tools/count_code_lines.py [path ...]      # default: src/repro

Prints one total per path; exits 2 on a path that does not exist.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    for root in argv or ["src/repro"]:
        path = Path(root)
        if not path.exists():
            print(f"{root}: no such file or directory", file=sys.stderr)
            return 2
        files = [path] if path.is_file() else sorted(path.rglob("*.py"))
        total = sum(count_code_lines(p.read_text()) for p in files)
        print(f"{root}: {total:,} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
