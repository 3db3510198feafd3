"""The per-sweep transport works on differences built once per step.

Parsed with ``ast``.  The upwind face differences of c^n and Q^n depend on
the old fields alone, so ``simulation.CoupledStepper.step`` builds them once
(``domain.upwind_differences``) and the functions a sweep calls only select
from them: ``advect_upwind``, ``step_concentration`` and ``step_q`` call
neither ``np.diff`` nor the differences helper, and ``advect_upwind`` and
``step_concentration`` pad nothing.  ``step_q`` still pads the relaxed
field, which changes every sweep, for its Laplacian.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"

# module -> function -> the callee names it must not reach
BANNED = {
    "domain": {"advect_upwind": {"diff", "upwind_differences", "pad"}},
    "nematic": {
        "step_concentration": {"diff", "upwind_differences", "pad"},
        "step_q": {"diff", "upwind_differences"},
    },
}


def _called_names(func):
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            names.add(f.attr if isinstance(f, ast.Attribute) else
                      f.id if isinstance(f, ast.Name) else None)
    return names


def _functions(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_sweep_functions_rebuild_no_differences():
    found = []
    for module, funcs in BANNED.items():
        defs = _functions(module)
        for name, banned in funcs.items():
            assert name in defs, f"{module}.{name} is gone"
            found += [f"{module}.{name} calls {callee}"
                      for callee in sorted(_called_names(defs[name]) & banned)]
    assert not found, "; ".join(found)
