"""No module of the package or of the tests imports a name it never uses.

A name bound by ``import`` or ``from ... import`` counts as used when the
module reads it anywhere, as a bare name or as the base of an attribute
chain.  ``import a.b`` binds ``a``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path):
    """(line, name) of each import in the file at path that is never read."""
    tree = ast.parse(path.read_text())
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((node.lineno,
                              alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [(line, name) for line, name in bound if name not in read]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for directory in ("src", "tests")
             for path in sorted((ROOT / directory).rglob("*.py"))
             for line, name in unused_imports(path)]
    assert not found, "unused imports: " + ", ".join(found)
