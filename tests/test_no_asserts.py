"""The library raises real errors: no assert statements, which python -O strips."""

import ast
from pathlib import Path

import primebounds

PACKAGE = Path(primebounds.__file__).resolve().parent


def test_library_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            "%s:%d" % (path.relative_to(PACKAGE), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == [], "assert statements in the library: " + ", ".join(found)
