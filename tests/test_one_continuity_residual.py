"""The continuity weak identity has one implementation, the solver's own.

Parsed with ``ast``.  ``weakforms.weak_residuals_dissipative`` takes its
continuity rows from ``continuity.weak_residual_continuity`` and reads no
``inflow`` mask, so a second continuity boundary term cannot come back
beside it.  The density solver carries no source term: ``ContinuitySolver``
has no ``source`` field and its ``step`` no time argument.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"


def _top(module, name):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = [node for node in tree.body if getattr(node, "name", None) == name]
    assert found, f"{module}.{name} is gone"
    return found[0]


def test_weak_residuals_call_the_one_continuity_residual():
    func = _top("weakforms", "weak_residuals_dissipative")
    called = {node.func.id for node in ast.walk(func)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    attrs = {node.attr for node in ast.walk(func)
             if isinstance(node, ast.Attribute)}
    assert "weak_residual_continuity" in called
    assert "inflow" not in attrs


def test_density_solver_has_no_source():
    cls = _top("continuity", "ContinuitySolver")
    fields = {node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign)}
    assert "boundary" in fields
    assert "source" not in fields
    step = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "step")
    assert [a.arg for a in step.args.args] == ["self", "rho", "fv", "start"]
