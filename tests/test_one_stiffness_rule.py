"""The law decides its implicit viscous stiffness in one place.

Parsed with ``ast``.  ``simulation.py`` reads no ``.kind``: the stepper
takes K from ``momentum.implicit_stiffness``, whose one ``.kind`` test
picks the Newtonian or the secant rule.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nematoflow"


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def kind_reads(tree):
    """Lines of each attribute read ``<expr>.kind`` in tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "kind"]


def _function(tree, name):
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == name]
    return fn


def test_simulation_reads_no_law_kind():
    assert kind_reads(_tree("simulation")) == []


def test_stiffness_rule_tests_the_law_kind_once():
    fn = _function(_tree("momentum"), "implicit_stiffness")
    assert len(kind_reads(fn)) == 1


def test_guard_sees_what_it_forbids():
    tree = ast.parse("def f(law, x):\n    if law.kind == 'a':\n"
                     "        return x.kind\n    kind = 1\n"
                     "    return getattr(law, 'kind')\n")
    assert kind_reads(tree) == [2, 3]
    assert kind_reads(_function(tree, "f")) == [2, 3]
