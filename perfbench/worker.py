"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--t0`` is the ``time.perf_counter()`` reading the parent took just before
starting this process (on Linux both read the system-wide monotonic clock),
so ``setup_s`` covers interpreter start, imports, ``scenarios.build``, the
initial ledger row and the initial snapshot, up to the first step.
``wall_s`` runs from the start of the first step until ``run_scenario``
returns, after the final snapshot, ledger and report are written.  With
``--setup-only 1`` the worker stops at the start of the first step and
reports ``setup_s`` alone, so a run can measure set-up more often than it
runs whole workers.

An untraced worker reports ``setup_s``, ``wall_s`` and ``step_s`` at the
reference machine speed of ``speed.py``, from calibration samples it takes
as it runs, and the same times in plain seconds as ``raw_*``.  A traced
worker takes no samples, so that the spans do not include them; its times
are plain seconds.
"""

import os

# pin BLAS pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CLOCK = speed.Clock()


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class _SetupDone(Exception):
    """Raised at the first step of a set-up-only worker."""


def _read_ledger(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _times(t0, t_first, t_end, steps):
    """Set-up, wall and step times, scaled and raw (``speed.Clock``)."""
    out = {"ok": True, "setup_s": CLOCK.scaled(t0, t_first),
           "raw_setup_s": CLOCK.raw(t0, t_first),
           "samples": len(CLOCK.samples)}
    if t_end is not None:
        out.update(wall_s=CLOCK.scaled(t_first, t_end),
                   raw_wall_s=CLOCK.raw(t_first, t_end),
                   step_s=[CLOCK.scaled(s[0], s[1]) for s in steps])
    return out


def main(argv=None):
    args = _args(argv)
    if not args.trace:
        CLOCK.start()
    import numpy
    import scipy
    from nematoflow import runner, simulation
    from nematoflow.errors import ConfigError, FixedPointError, StabilityError

    tracer = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        tracer.install()

    steps = []          # (seconds, picard iterations, cg iterations)
    last = {}
    inner = simulation.CoupledStepper.step

    def timed_step(self, state):
        t = time.perf_counter()
        last.setdefault("t_first", t)
        if args.setup_only:
            raise _SetupDone
        new_state, info = inner(self, state)
        steps.append((t, time.perf_counter(), info["picard_iters"],
                      info["cg_iters"]))
        last["state"] = new_state
        return new_state, info

    simulation.CoupledStepper.step = timed_step

    sc = workloads.scenario(args.workload, args.seed)
    try:
        report = runner.run_scenario(sc, out_dir=args.out)
    except (StabilityError, FixedPointError, ConfigError) as exc:
        CLOCK.stop()
        print(json.dumps({"ok": False,
                          "error": f"{type(exc).__name__}: {exc}"}))
        return 0
    except _SetupDone:
        CLOCK.stop()
        print(json.dumps(_times(args.t0, last["t_first"], None, [])))
        return 0
    t_end = time.perf_counter()
    CLOCK.stop()

    ledger = _read_ledger(os.path.join(args.out, "ledger.csv"))
    result = _times(args.t0, last["t_first"], t_end, steps)
    result.update({
        "picard": [s[2] for s in steps],
        "cg": [s[3] for s in steps],
        "checks": [[name, passed, detail]
                   for name, passed, detail in report.checks],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": reference.digest(last["state"], ledger),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    if tracer is not None:
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
