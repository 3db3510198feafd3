"""No module of the package reads another module's private attributes.

Parsed with ``ast``.  An attribute read ``x._name`` is legal only where
``_name`` is defined or assigned in the same module: a function, class,
field or ``self._name = ...`` there.  A module's private state therefore
stays behind its own code, and what another module needs is public
(boundary data live on ``domain.BoundaryFaces``, not on the stepper).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _own_names(tree):
    """Private names that tree defines or assigns."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return {name for name in out if _private(name)}


def private_reads(tree):
    """(line, attribute) of each read x._name whose _name tree does not
    define or assign."""
    own = _own_names(tree)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and _private(node.attr) and node.attr not in own)


def test_no_module_reads_a_private_name_it_does_not_own():
    found = {path.stem: reads for path in sorted(SRC.glob("*.py"))
             if (reads := private_reads(ast.parse(path.read_text())))}
    assert found == {}


def test_guard_sees_a_foreign_private_read():
    tree = ast.parse("class A:\n    def f(self):\n        self._own = 1\n"
                     "        return self._own + stepper._lift\n")
    assert private_reads(tree) == [(4, "_lift")]
