"""Library invariants must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import quadricpoints


def test_library_has_no_assert_statements():
    root = Path(quadricpoints.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
