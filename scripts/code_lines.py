#!/usr/bin/env python3
"""Count the code lines of each Python module under the given paths.

    python3 scripts/code_lines.py src/vaughanlab

The rule: a line is a code line when a token other than a comment, a
newline, an indent or a dedent starts or continues on it (so every line of
a multi-line string or bracket counts), unless it lies inside a docstring:
the string that opens a module, class or function body, found by ast.
Blank lines, comment-only lines and docstrings do not count.  Prints one
line per module, with its code lines and physical lines, then the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source, by the rule above."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, help="Python files or directories (searched recursively)")
    args = parser.parse_args(argv)
    files = sorted({f for p in args.paths for f in ([p] if p.is_file() else p.rglob("*.py"))})
    if not files:
        parser.error("no Python files found")
    total_code = total_lines = 0
    for f in files:
        source = f.read_text(encoding="utf-8")
        code, physical = code_lines(source), len(source.splitlines())
        total_code += code
        total_lines += physical
        print(f"{f}\t{code}\t{physical}")
    print(f"total\t{total_code}\t{total_lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
