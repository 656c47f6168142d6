"""Statement coverage of src/nematicflow under the test suite, stdlib only.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

installs sys.settrace and threading.settrace before nematicflow is
imported, runs pytest.main with the given arguments (default -q), and then
lists every statement of src/nematicflow/*.py that never ran, as
path:line: source, and their count.  A statement ran when a line of its head
(all of a simple statement, the lines before the body of a compound one)
produced a line event.  Statements that compile to no line of bytecode,
such as docstrings, are not listed.  Code run in a subprocess is not seen.
The exit code is pytest's.  The file is not named test_*, so pytest does
not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nematicflow"

_files = {}  # code filename -> the set of its traced lines, None outside
_seen = {}  # absolute path -> the same set


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _files:
        path = os.path.abspath(name)
        inside = os.path.dirname(path) == str(PACKAGE)
        _files[name] = _seen.setdefault(path, set()) if inside else None
    lines = _files[name]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _code_lines(code):
    """Lines that some bytecode of code, or of a code object in it, sits on."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _heads(tree):
    """(first line, last line of its head) of every statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            if getattr(node, "decorator_list", None):
                first = node.decorator_list[0].lineno
            else:
                first = node.lineno
            yield first, max(first, last)


def unexecuted(path, seen):
    """[(line, source)] of the statements of path whose head never ran."""
    source = path.read_text(encoding="utf-8")
    code = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for first, last in sorted(set(_heads(ast.parse(source)))):
        head = set(range(first, last + 1))
        if head & code and not head & seen:
            out.append((first, text[first - 1].strip()))
    return out


def main(args):
    import pytest

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(args or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unexecuted(path, _seen.get(str(path), set())):
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {text}")
            missed += 1
    print(f"{missed} statements of {PACKAGE.name} never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
