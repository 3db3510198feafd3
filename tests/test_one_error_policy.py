"""Bad input raises ``errors.ConfigError`` where it is found.

Parsed with ``ast``.  No module of the package raises a bare
``ValueError``; no class outside ``errors.py`` derives from a builtin
exception type, so every exception class of the package derives from a
class of ``errors``; and ``scenarios.build`` holds no ``try``, so it
translates no other module's error.
"""

import ast
import builtins
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def bare_value_errors(tree):
    """Lines of each ``raise ValueError`` or ``raise ValueError(...)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(node.lineno)
    return found


def _builtin_exception(base):
    kind = isinstance(base, ast.Name) and getattr(builtins, base.id, None)
    return isinstance(kind, type) and issubclass(kind, BaseException)


def builtin_exception_classes(tree):
    """(line, name) of each class with a builtin exception type as a base."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  and any(map(_builtin_exception, node.bases)))


def try_lines(tree, function):
    """Lines of the ``try`` statements inside the top-level `function`."""
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == function]
    return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Try)]


def test_no_module_raises_a_bare_value_error():
    found = {name: lines for name, tree in _trees().items()
             if (lines := bare_value_errors(tree))}
    assert found == {}


def test_every_exception_class_derives_from_an_errors_class():
    found = {name: classes for name, tree in _trees().items()
             if name != "errors"
             and (classes := builtin_exception_classes(tree))}
    assert found == {}


def test_build_translates_no_error():
    assert try_lines(_trees()["scenarios"], "build") == []


def test_guards_see_what_they_forbid():
    tree = ast.parse("class E(ValueError):\n    pass\n"
                     "class F(E, RuntimeError):\n    pass\n"
                     "class G(ConfigError):\n    pass\n"
                     "def build():\n    try:\n        raise ValueError('x')\n"
                     "    except E:\n        raise ValueError\n")
    assert bare_value_errors(tree) == [9, 11]
    assert builtin_exception_classes(tree) == [(1, "E"), (3, "F")]
    assert try_lines(tree, "build") == [8]
