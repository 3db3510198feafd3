"""The benchmark's span names must keep naming one function each, and
each must fire.

``perfbench/tracer.py`` wraps each name in ``SPANS`` (``module.function``,
or ``module.method`` of the one class that defines it) from outside the
package.  A rename or a second definition makes the traced benchmark fail
to start; a call path that reaches a function under a name the tracer does
not rebind leaves its span silent, which fails the traced run.  These tests
make both part of the test suite.  The tracer is read and executed from its
source, not imported, so no file is written under ``perfbench/``; the runs
that fire the spans are traced in a subprocess, so no wrapper outlives them.
"""

import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import pytest

import nematoflow

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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


# an 8^3 Newtonian and an 8^3 power-law run of two steps each, with file
# output, traced; prints the span call counts
TRACED_RUNS = """
import json, sys, tempfile, types
sys.path.insert(0, sys.argv[2])
from nematoflow import (continuity, energy, galerkin, momentum, nematic,
                        rheology, runner, scenarios, simulation, snapshots)
tracer = types.ModuleType("perfbench_tracer")
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), tracer.__dict__)
t = tracer.Tracer()
t.install()
for kind in ("newtonian", "power_law"):
    sc = scenarios.default_scenario(grid_cells=8, rheology_kind=kind,
                                    final_time=2e-3, snapshot_every=2)
    with tempfile.TemporaryDirectory() as out:
        runner.run_scenario(sc, out_dir=out)
print(json.dumps(t.calls))
"""


def test_every_span_fires_on_newtonian_and_power_law_runs():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(TRACER_PATH),
         str(ROOT / "src")],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    calls = json.loads(out.stdout.splitlines()[-1])
    assert list(calls) == list(tracer.SPANS)
    assert [span for span, n in calls.items() if n == 0] == []
