"""Print every statement of ``src/gpqed`` that no test executes.

    python scripts/line_hits.py                      # all of tier-1
    python scripts/line_hits.py tests/test_geo.py -k Boundary

The arguments, if any, are pytest's, with paths taken from the checkout's
root; without them it runs tier-1. Pytest runs in this process under a
``sys.settrace`` tracer that follows only frames whose code lives in
``src/gpqed``, so a test that runs the package in a subprocess counts for
nothing. A statement is a line where the module's syntax tree starts one;
``global`` and ``nonlocal`` declarations and docstrings, which execute
nothing, are left out. Standard output gets one ``path:line: source`` per
statement that never ran, then their count, after pytest's own report. The
exit status is pytest's. On a 2-core machine tier-1 took 53-61 s under
the tracer, against 43-52 s without it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gpqed")
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def statements(source: str) -> set[int]:
    """The lines of the module source where a statement starts, except
    global and nonlocal declarations and docstrings."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt)
             and not isinstance(node, (ast.Global, ast.Nonlocal))}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.discard(node.body[0].lineno)
    return lines


def missed(directory: str, run) -> tuple[list[tuple[str, int, str]], object]:
    """(statements of the .py files under directory that run() did not
    execute, as (path, line, source) in file and line order; run()'s
    value). Only frames of code under directory are traced line by line;
    the tracers in place before are restored after."""
    directory = os.path.abspath(directory) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(directory):
            return local
        return None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        value = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    out = []
    for base, _, files in sorted(os.walk(directory)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            text = source.splitlines()
            out += [(path, line, text[line - 1].strip())
                    for line in sorted(statements(source))
                    if (path, line) not in hits]
    return out, value


def main(argv=None) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = list(sys.argv[1:] if argv is None else argv)
    lines, status = missed(PACKAGE, lambda: pytest.main(args or TIER1))
    for path, line, source in lines:
        print(f"{os.path.relpath(path, ROOT)}:{line}: {source}")
    print(f"{len(lines)} statements not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
