"""Count the code lines of each module of src/psifoc, the figure that
ROADMAP aim 2 tracks beside ``wc -l``.

A code line holds at least one token that is not a comment and is not
part of a docstring (the string that opens a module, class or function
body); blank lines, comment lines and docstring lines are left out.  A
token spanning several lines, such as a multi-line string, counts every
line it covers.

Run from the repository root; stdlib only::

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    total = 0
    for path in sorted(pathlib.Path("src/psifoc").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
