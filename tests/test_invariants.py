"""Library invariants must survive ``python -O``, which strips ``assert`` and ``__debug__`` blocks."""

import ast
from pathlib import Path

import quadricpoints

ROOT = Path(quadricpoints.__file__).parent


def _nodes():
    for path in sorted(ROOT.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_library_has_no_assert_statements():
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def test_library_raises_no_assertion_error():
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = [
        where
        for where, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and raises_assertion_error(node)
    ]
    assert found == []


def test_library_has_no_debug_gates():
    assert [where for where, node in _nodes() if isinstance(node, ast.Name) and node.id == "__debug__"] == []
