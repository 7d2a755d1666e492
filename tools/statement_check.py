"""Run Tier-1 under a line recorder and list every statement of src/crfactor that no test runs.

    PYTHONPATH=src python tools/statement_check.py -q --hypothesis-seed=0

The arguments go to pytest unchanged. The recorder is a stdlib
``sys.settrace`` function, installed before pytest (and so crfactor) is
imported, so module-level statements count too. Statements are read with
``ast``; docstrings and the body of ``if TYPE_CHECKING:``, which only a type
checker reads, are not counted. A statement ran when a line event fired on
one of its own lines: its decorators and header, not the statements nested
in it. The exit status is pytest's when it fails, 1 when a statement outside
``ALLOWED`` never ran, and 0 otherwise. Tests that start crfactor in a child
process record nothing, so each guard needs an in-process test.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crfactor"

# (file, statement source) of the statements no test can run in process: the console entry.
ALLOWED = {("cli.py", "sys.exit(main())"), ("cli.py", "entrypoint()")}

_hits: set[tuple[str, int]] = set()
_traced: dict[str, bool] = {}
_prefix = str(SRC) + "/"


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    traced = _traced.get(name)
    if traced is None:
        traced = _traced[name] = str(Path(name).resolve()).startswith(_prefix)
    return _local if traced else None


def _own_lines(node: ast.stmt) -> set[int]:
    """The lines of a statement that no statement nested in it covers."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    lines = set(range(first, node.end_lineno + 1))
    for child in ast.walk(node):
        if child is not node and isinstance(child, ast.stmt):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines or {node.lineno}  # a header on the line of its body, as in `if x: return`


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(body, list) and body and body[0] is node and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def _for_type_checkers(node: ast.stmt, parent: ast.AST) -> bool:
    """Whether `node` is in the body of ``if TYPE_CHECKING:``."""
    return (
        isinstance(parent, ast.If) and isinstance(parent.test, ast.Name) and parent.test.id == "TYPE_CHECKING"
        and node in parent.body
    )


def unexecuted(hits: set[tuple[str, int]]) -> list[tuple[str, int, str]]:
    """(file, line, source) of each statement of src/crfactor with no line in `hits`."""
    missed = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        filename = str(path)
        for parent in ast.walk(ast.parse(text)):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                    continue
                if _for_type_checkers(node, parent):
                    continue
                if not any((filename, n) in hits for n in _own_lines(node)):
                    source = ast.get_source_segment(text, node).splitlines()[0]
                    if (path.name, source.strip()) not in ALLOWED:
                        missed.append((path.name, node.lineno, source.strip()))
    return sorted(missed, key=lambda m: (m[0], m[1]))


def main(argv: list[str]) -> int:
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import pytest

        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)
    missed = unexecuted({(str(Path(f).resolve()), n) for f, n in _hits})
    for name, line, source in missed:
        print(f"src/crfactor/{name}:{line}: {source}")
    print(f"statement check: {len(missed)} statement(s) of src/crfactor never ran under the tests")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
