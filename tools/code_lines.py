"""Count the code lines of Python sources: lines that hold code, not
counting blank lines, comments and docstrings.

    python3 tools/code_lines.py [paths ...]

Each path is a ``.py`` file or a directory searched recursively; the
default is this checkout's ``src/roughcalc``.  Prints one total.  A docstring is the
string-literal statement that opens a module, class or function body.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that carry a token outside comments and docstrings."""
    skip = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for arg in argv or [ROOT / "src" / "roughcalc"]:
        path = Path(arg)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        total += sum(code_lines(f.read_text(encoding="utf-8")) for f in files)
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
