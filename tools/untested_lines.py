"""Print the statements of src/psifoc that no tier-1 test executes.

Runs the tier-1 suite in this process under a line tracer, set with
``sys.settrace`` and ``threading.settrace``, that follows only the frames
of code in src/psifoc.  Then it prints each statement of those modules
that no traced line reached, one ``path:line: source`` per statement, and
the count.  Code that the tests run in a subprocess, through the CLI or
``python -c``, is not traced, so what only a subprocess reaches is
listed too.  The ``if __name__ == "__main__":`` block is left out, and so
is the body of ``if _BIG_ENDIAN:``, which a little-endian machine never
runs.

Run from the repository root; stdlib only, beside the test runner, and
any arguments go to pytest::

    python tools/untested_lines.py [pytest arguments]

It exits with pytest's status, whatever it prints.  The trace makes the
suite several times slower (about 3 minutes on 2 CPUs).
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "psifoc"
# statements that compile to no instruction, so no line event reaches them
_SILENT = (ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines) of each statement of a module that runs: a
    compound statement's lines are its header, from its first decorator
    to the line before its body, a simple statement's are all it spans.
    Docstrings, ``global`` and ``nonlocal`` run no instruction and are
    left out, and so are the main block and the big-endian branches."""
    out = []
    skipped: set[int] = set()
    # ast.walk meets a statement before the statements inside it
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or id(node) in skipped:
            continue
        test = ast.unparse(node.test) if isinstance(node, ast.If) else None
        if test in ("__name__ == '__main__'", "_BIG_ENDIAN"):
            left_out = [node] if test != "_BIG_ENDIAN" else node.body
            skipped.update(id(child) for stmt in left_out
                           for child in ast.walk(stmt))
        if (id(node) in skipped or _is_docstring(node)
                or isinstance(node, _SILENT)):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = (max(node.lineno, body[0].lineno - 1) if body
                else node.end_lineno)
        out.append((first, range(first, last + 1)))
    return sorted(out, key=lambda item: item[0])


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the tracer; its exit status and the
    lines hit per resolved file name of src/psifoc."""
    import pytest

    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = {}
    # co_filename -> the set of lines hit in it, or None outside src/psifoc
    files: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            lines = files[name]
        except KeyError:
            path = os.path.realpath(name)
            lines = files[name] = (hits.setdefault(path, set())
                                   if path.startswith(prefix) else None)
        if lines is None:
            return None
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    status, hits = trace_suite(argv)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = hits.get(os.path.realpath(path), set())
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for first, span in statements(source):
            if lines.isdisjoint(span):
                total += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{text[first - 1].strip()}")
    print(f"{total} statements of src/psifoc ran in no test")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
