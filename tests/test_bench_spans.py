"""The benchmark's span names must keep naming one function each.

``perfbench/tracer.py`` wraps each name in ``SPANS`` (``module.function``,
or ``module.method`` of the one class that defines it) from outside the
package.  A rename or a second definition makes the traced benchmark fail
to start; this test makes the same lookup part of the test suite.  The
tracer is read and executed from its source, not imported, so no file is
written under ``perfbench/``.
"""

import importlib
import inspect
import pathlib
import pkgutil
import types

import pytest

import nematoflow

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"),
         module.__dict__)
    return module


tracer = _load_tracer()
MODULES = {name: importlib.import_module(f"nematoflow.{name}")
           for _, name, _ in pkgutil.iter_modules(nematoflow.__path__)}


@pytest.mark.parametrize("span", tracer.SPANS)
def test_span_resolves_to_exactly_one_function(span):
    mod_name, attr = span.split(".")
    module = MODULES[mod_name]
    owner, name, fn = tracer._resolve(span)
    assert name == attr and inspect.isfunction(fn)
    # the module itself and each class it defines, where attr is defined
    owners = [module] + [cls for cls in vars(module).values()
                         if inspect.isclass(cls)
                         and cls.__module__ == module.__name__]
    defining = [o for o in owners
                if inspect.isfunction(vars(o).get(attr))
                and vars(o)[attr].__module__ == module.__name__]
    assert defining == [owner]
