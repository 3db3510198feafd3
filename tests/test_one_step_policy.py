"""The time-step policy has one implementation, ``simulation.check_step``.

Parsed with ``ast``.  ``continuity`` and ``nematic`` define no guard of their
own, and the transport steps raise none of the policy's messages.  The
message of the advective-weight test is written once in ``src/``, and
``check_step`` has one call site: ``CoupledStepper.advance_fields``, once
per coupling sweep.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _messages(tree):
    """String constants of tree that are not docstrings, f-string parts too."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs]


def test_transport_modules_define_no_guard():
    for module in ("continuity", "nematic"):
        tree = _tree(module)
        defs = {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)}
        assert not defs & {"check_stability", "_advective_guard",
                           "_diffusion_guard", "check_step"}, module
        assert not [m for m in _messages(tree)
                    if "advective weight" in m or "exceeds" in m], module


def test_advective_weight_message_written_once():
    found = [path.stem for path in sorted(SRC.glob("*.py"))
             for m in _messages(ast.parse(path.read_text()))
             if "advective weight" in m]
    assert found == ["simulation"]


def test_check_step_has_one_call_site():
    # the stepper-level NaN test shows that it runs before any field moves
    sites = [(path.stem, fn.name) for path in sorted(SRC.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "check_step"]
    assert sites == [("simulation", "advance_fields")]
