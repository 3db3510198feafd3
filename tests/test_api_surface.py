"""Every public top-level function or class of the package has a caller.

A public name is referenced when some code outside its own definition uses
it: the rest of its module, another module of ``src/nematoflow``, or the
benchmark under ``perfbench/`` (whose tracer names its spans by string).
A name that only the tests reach is package API the program does not use.
It is deleted, or listed in ``ORACLES`` with the reason the tests still need
it: a reference implementation that a test compares the scheme against.
The bodies of ``ORACLES`` are test code too, so a name they use is not
referenced by that use.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

ORACLES = {
    "continuity.renormalized_balance":
        "renormalised continuity balance with its eps-dissipation sign",
    "nematic.ldg_energy":
        "Lyapunov functional that molecular_field/step_q must decrease",
    "scenarios.zero_scenario":
        "quiescent scenario behind the exact-conservation and CLI tests",
    "tensors.trace_q3":
        "cubic invariant tr Q^3 of the bulk free energy in ldg_energy",
}


def _names(tree, skip=(), strings=False):
    """Identifiers used in tree outside the nodes in skip: names,
    attributes, imports, and with strings=True the dotted parts of string
    constants."""
    inside = {id(node) for top in skip for node in ast.walk(top)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _parse(directory):
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(directory.glob("*.py"))}


def unreferenced(root=ROOT):
    """module.name of each public top-level def that nothing references."""
    modules = _parse(root / "src" / "nematoflow")
    oracles = {mod: [node for node in tree.body
                     if f"{mod}.{getattr(node, 'name', '')}" in ORACLES]
               for mod, tree in modules.items()}
    bench = set().union(*(_names(tree, strings=True)
                          for tree in _parse(root / "perfbench").values()))
    out = []
    for mod, tree in modules.items():
        elsewhere = bench.union(*(_names(other, oracles[name]) for name, other
                                  in modules.items() if name != mod))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and node.name not in elsewhere \
                    and node.name not in _names(tree, [node] + oracles[mod]):
                out.append(f"{mod}.{node.name}")
    return out


def test_every_public_function_or_class_has_a_caller():
    unused = [name for name in unreferenced() if name not in ORACLES]
    assert not unused, (
        f"public API reached only from tests: {', '.join(unused)}; delete "
        "it or list it in ORACLES with the reason a test needs it")


def test_oracles_exist_and_are_still_test_only():
    # an oracle that the package now calls needs no exemption
    assert sorted(set(ORACLES) - set(unreferenced())) == []
