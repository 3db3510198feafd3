"""The coupled time loop is a plain loop over ``CoupledStepper.step``.

Parsed with ``ast``.  ``simulation`` has no driver (``run_coupled``) and
no trajectory class, no function of the package takes a ``record`` or
``monitor`` switch, and ``runner.run_scenario`` calls ``.step(`` inside a
loop of its own, so a caller can see and wrap every step it runs.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def test_no_function_takes_record_or_monitor():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs}
                found += [f"{path.stem}.{getattr(node, 'name', 'lambda')}"
                          f"({name})" for name in names & {"record",
                                                            "monitor"}]
    assert found == []


def test_simulation_has_no_driver_or_trajectory():
    names = {getattr(node, "name", None) for node in _tree("simulation").body}
    assert "CoupledStepper" in names
    assert not names & {"run_coupled", "Trajectory"}


def test_run_scenario_steps_in_its_own_loop():
    func = next(node for node in _tree("runner").body
                if getattr(node, "name", None) == "run_scenario")
    loops = [node for node in ast.walk(func)
             if isinstance(node, (ast.For, ast.While))]
    steps = [node for loop in loops for node in ast.walk(loop)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "step"]
    assert steps, "run_scenario has no loop that calls .step("
