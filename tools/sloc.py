"""Count logical source lines per module of the steklovem package.

A logical source line is a physical line that holds code: not blank, not
only a comment, and not part of a docstring (the string statement that
opens a module, class or function body).  Run from the repository root::

    python tools/sloc.py [package directory, default src/steklovem]

It prints one ``module lines`` row per module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Physical lines covered by the docstrings of the module, its classes and
    its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """Logical source lines of one module's text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/steklovem")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = count_lines(path.read_text())
        total += n
        print(f"{path.stem:<12} {n:5d}")
    print(f"{'total':<12} {total:5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
