"""The package keeps one field layout: grid axes are the last three axes.

Parsed with ``ast``.  No function of ``src/nematoflow`` takes a parameter
named ``first`` (a switch between two layouts), and ``np.moveaxis``
appears only in the named conversion of ``State.q`` and in the two matrix
routes that stack a Jacobian as (..., 3, 3) matrices.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"

# module -> the functions that may call np.moveaxis, with the reason
MOVEAXIS = {
    "simulation": {
        "q_components": "State.q (nx, ny, nz, 5) to the packed (5, ...) Q",
        "q_exchange": "packed (5, ...) Q back to the State.q layout",
    },
    "energy": {
        "row": "the Jacobian as matrices for the rheology's matrix route",
    },
    "weakforms": {
        "_identity_flux": "the Jacobian as matrices for the reference flux",
    },
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _moveaxis_nodes(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "moveaxis"
            or isinstance(node, ast.Name) and node.id == "moveaxis"]


def test_no_function_takes_a_first_parameter():
    found = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                if "first" in names:
                    found.append(f"{mod}:{node.lineno}")
    assert not found, "layout switch `first` in " + ", ".join(found)


def test_moveaxis_only_in_the_named_conversions():
    found = []
    for mod, tree in _modules().items():
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name in MOVEAXIS.get(mod, {}):
                allowed |= {id(n) for n in ast.walk(node)}
        found += [f"{mod}:{n.lineno}" for n in _moveaxis_nodes(tree)
                  if id(n) not in allowed]
    assert not found, "np.moveaxis outside the named conversions: " \
        + ", ".join(found)


def test_named_conversions_exist_and_still_convert():
    # an entry whose function is gone or no longer moves axes is dropped
    modules = _modules()
    stale = []
    for mod, names in MOVEAXIS.items():
        defs = {node.name: node for node in ast.walk(modules[mod])
                if isinstance(node, ast.FunctionDef)}
        stale += [f"{mod}.{name}" for name in names
                  if name not in defs or not _moveaxis_nodes(defs[name])]
    assert not stale, "stale entries: " + ", ".join(stale)
