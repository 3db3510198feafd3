"""A scenario run loads no heavy module it does not need.

SciPy's FFT, linear algebra, interpolation and special functions, and
``numpy.ma``, each cost import time in every fresh process; a run needs
none of them unless its pressure law is tabulated, which imports PCHIP.
Each case runs in a fresh interpreter, so modules that other tests loaded
into this one do not count.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.fft", "scipy.linalg", "scipy.interpolate", "scipy.special",
         "numpy.ma")

_SCRIPT = """
import json, sys
import nematoflow.runner as runner
from nematoflow.scenarios import default_scenario
dt = 1e-3
sc = default_scenario(grid_cells=8, modes=2, dt=dt, final_time=2 * dt,
                      pressure_kind=sys.argv[2])
report = runner.run_scenario(sc, out_dir=sys.argv[1])
print(json.dumps({"passed": report.all_pass,
                  "heavy": [m for m in sys.argv[3:] if m in sys.modules]}))
"""


def _run(tmp_path, pressure_kind):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path), pressure_kind, *HEAVY],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_scenario_run_loads_no_heavy_module(tmp_path):
    result = _run(tmp_path, "isentropic")
    assert result["passed"]
    assert result["heavy"] == []
    assert (tmp_path / "report.txt").exists()


def test_tabulated_pressure_run_still_works(tmp_path):
    result = _run(tmp_path, "table")
    assert result["passed"]
    assert "scipy.interpolate" in result["heavy"]
