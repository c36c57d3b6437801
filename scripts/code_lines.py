"""Count the code lines of Python files: non-blank, non-comment, non-docstring.

A line counts when it holds any token besides comments and line breaks,
and is not part of a module, class or function docstring. Prints one line
per file, sorted, and the total last.

    python3 scripts/code_lines.py src/lindbladsde
    python3 scripts/code_lines.py src/lindbladsde/operators.py src/lindbladsde/lindblad.py
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source that hold code outside every docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path,
                        help="Python files, or directories searched for *.py")
    args = parser.parse_args(argv)
    files = sorted({f for p in args.paths
                    for f in (p.rglob("*.py") if p.is_dir() else [p])})
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
