"""nematoflow benchmark: time to solution of three scenario workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload channel16 --seed 1 --seconds 40 --trace 0

Each measurement is a fresh worker process (``worker.py``) that runs the
workload's fixed number of steps through ``runner.run_scenario`` with an
output directory, as ``nematoflow run`` does.  Whole workers run one
after another until the next one would end past ``--seconds`` (at least
two); set-up-only workers, which stop at the start of the first step, then
fill the rest of ``--seconds`` (at least two of them).  Every metric is a
median over the run's whole workers; ``setup_s`` is the median over whole
and set-up-only workers together.  ``wall_s``, ``step_ms_p50`` and
``setup_s`` are times at the reference machine speed of ``speed.py``,
which each untraced worker measures as it runs; the log gives every
worker's plain times beside them.

With ``--trace 1`` there are no set-up-only workers.  Whole workers
alternate traced and untraced, starting traced, and a run has at least
three, so that two traced workers can be compared.  The traced ones report
per-layer spans (``tracer.py``), and the difference of the traced and
untraced median wall time, in plain seconds, is the tracing overhead.  A span that never
fires fails the run (the tracer self-test).  The share of the layers a
workload is chosen for is printed against its expected value but is not a
gate: an optimisation of those layers is meant to lower it.

Within a run, the per-step Picard and CG counts of all whole workers, and
the work counts of all traced workers, must be identical.

The last stdout line is one JSON object: ``correct``, ``attempted`` (worker
processes), ``failed`` (workers that raised ``StabilityError``,
``FixedPointError`` or ``ConfigError``, crashed, wrote a FAIL report row
or drifted from the stored reference) and ``metrics``.  The exit code is 1
when the correctness gate fails and 2 when the checkout holds no
``src/nematoflow``.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
HARD_LIMIT_S = 165.0     # a run must end within 180 s
MIN_WORKERS = 2         # whole workers in an untraced run
MIN_TRACED_WORKERS = 3  # traced, untraced, traced
MIN_SETUP_ONLY = 2      # set-up-only workers in an untraced run


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine():
    """CPU model, core counts and L2 size of the measuring machine."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as fh:
            l2 = fh.read().strip()
    except OSError:
        l2 = None
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "l2_per_core": l2,
            "python": platform.python_version()}


def _run_worker(args, traced, index, budget, setup_only=False):
    out = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}-{index}")
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--out", out,
           "--setup-only", str(int(setup_only))]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(budget, 5.0))
    except subprocess.TimeoutExpired:
        res = {"ok": False, "error": f"timed out after {budget:.0f} s"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-3:]
            res = {"ok": False, "error": f"worker exited {proc.returncode}: "
                                         + " | ".join(tail)}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    res["traced"] = traced
    res["whole"] = not setup_only
    res["elapsed_s"] = time.perf_counter() - t0
    return res


def _gate(res, ref):
    """Mark a worker result failed if a check or the reference disagrees."""
    if not (res["ok"] and res["whole"]):
        return
    failing = [name for name, passed, _ in res["checks"] if not passed]
    if failing:
        res["ok"] = False
        res["error"] = "report FAIL rows: " + ", ".join(failing)
        return
    if ref is not None:
        excess, where = reference.compare(res["digest"], ref)
        res["drift"] = excess
        if excess > 1.0:
            res["ok"] = False
            res["error"] = (f"drift {excess:.3g} x tolerance "
                            f"{reference.TOL:g} at {where}")


def _end_to_end(ok, setups):
    first = ok[0]
    n = len(first["picard"])
    return {
        "wall_s": (median(r["wall_s"] for r in ok), "s"),
        "step_ms_p50": (1e3 * median(s for r in ok for s in r["step_s"]),
                        "ms"),
        "setup_s": (median(r["setup_s"] for r in setups), "s"),
        "picard_per_step": (sum(first["picard"]) / n, "count"),
        "cg_per_step": (sum(first["cg"]) / n, "count"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in ok), "MB"),
        "checks_passed": (sum(1 for c in first["checks"] if c[1]), "count"),
    }


def _unit(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith("contraction_p50"):
        return "ratio"
    return "bytes" if name.endswith("bytes_written") else "count"


def _per_layer(results, ok):
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    out = {name: (median(r["layers"][name] for r in traced), _unit(name))
           for name in traced[0]["layers"]}
    # exact counts, identical in every traced worker (_repeat_errors)
    out.update((name, (traced[0]["layers"][name], _unit(name)))
               for name in tracer.COUNTS)
    # plain seconds: traced workers take no calibration samples (speed.py)
    wall = median(r["raw_wall_s"] for r in traced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - median(r["raw_wall_s"] for r in plain),
                               "s")
    out["runner.checks_failed"] = (max(
        sum(1 for c in r["checks"] if not c[1])
        for r in results if "checks" in r), "count")
    out["trace.spans_silent"] = (len(_silent(out)), "count")
    return out


def _repeat_errors(ok, trace):
    """Counts that differ between workers of one run (must be none)."""
    errs = [f"per-step {key} counts differ between workers"
            for key in ("picard", "cg") if any(r[key] != ok[0][key] for r in ok)]
    if not trace:
        return errs
    traced = [r for r in ok if r["traced"]]
    if len(traced) < 2:
        return errs + [f"{len(traced)} successful traced worker(s); "
                       "the work counts need two to compare"]
    return errs + [f"{key} differs between traced workers"
                   for key in tracer.COUNTS
                   if any(r["layers"][key] != traced[0]["layers"][key]
                          for r in traced)]


def _silent(layers):
    """The tracer self-test: spans that never fired (must be none)."""
    return [n for n in tracer.SPANS if layers[f"{n}.calls"][0] == 0]


def _profile(layers, workload):
    """Largest spans by self time and the profile that justifies a workload."""
    whole = layers["runner.busy_ms"][0]
    share = {n: layers[f"{n}.ms"][0] / whole for n in tracer.SPANS}
    lines = [f"  {share[n]:6.1%}  {layers[n + '.ms'][0]:10.1f} ms  {n}"
             for n in sorted(share, key=share.get, reverse=True)[:8]]
    if workload == "fine32":
        what = "face_velocities + evaluate_at"
        s = share["continuity.face_velocities"] + share["galerkin.evaluate_at"]
        met, expected = s >= 0.60, ">= 60 %"
    elif workload == "powerlaw8":
        what = "rheology.*"
        s = sum(v for n, v in share.items() if n.startswith("rheology."))
        met, expected = s >= 0.85, ">= 85 %"
    else:
        what, s = "largest span", max(share.values())
        met, expected = s <= 0.35, "<= 35 %"
    lines.append(f"  profile: {what} = {s:.1%}, expected {expected}: "
                 + ("met" if met else "NOT MET (not a gate)"))
    return lines


def _measure(args, ref):
    """Run workers until the time is used; returns their results."""
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    results = []

    def run(traced, setup_only):
        """Run one worker; returns it and when another like it would end."""
        budget = HARD_LIMIT_S - (time.perf_counter() - start)
        res = _run_worker(args, traced, len(results), budget, setup_only)
        _gate(res, ref)
        results.append(res)
        _log(len(results), res)
        return res, time.perf_counter() - start + res["elapsed_s"]

    least = MIN_TRACED_WORKERS if args.trace else MIN_WORKERS
    n = 0
    while True:
        res, ends = run(bool(args.trace) and n % 2 == 0, False)
        n += 1
        if not args.trace:      # leave room for the set-up-only workers
            ends += MIN_SETUP_ONLY * res.get("setup_s", 0.0)
        if ends > HARD_LIMIT_S or (n >= least and ends > args.seconds):
            break
    n = 0
    while not args.trace and ends <= HARD_LIMIT_S:
        res, ends = run(False, True)
        n += 1
        if n >= MIN_SETUP_ONLY and ends > args.seconds:
            break
    try:
        os.rmdir(OUT_DIR)
    except OSError:
        pass
    return results


def _log(index, res):
    if not res["ok"]:
        detail = f"FAILED {res['error']}"
    elif not res["whole"]:
        detail = (f"setup {res['setup_s']:.3f} s (raw {res['raw_setup_s']:.3f}"
                  f" s, set-up only)")
    else:
        detail = (f"setup {res['setup_s']:.3f} s (raw {res['raw_setup_s']:.3f}"
                  f" s) wall {res['wall_s']:.3f} s (raw "
                  f"{res['raw_wall_s']:.3f} s, {res['samples']} samples)"
                  + (f" drift {res['drift']:.2g} x tol"
                     if "drift" in res else ""))
    print(f"run {index}: traced={int(res['traced'])} "
          f"elapsed {res['elapsed_s']:.2f} s {detail}")


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nematoflow",
                                       "runner.py")):
        print(f"perfbench: no nematoflow sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    ref = reference.load(args.workload).get(args.seed)
    results = _measure(args, ref)

    setups = [r for r in results if r["ok"]]
    ok = [r for r in setups if r["whole"]]
    metrics = {}
    problems = _repeat_errors(ok, args.trace) if ok else ["no successful run"]
    if args.trace and ok and not any(not r["traced"] for r in ok):
        problems.append("no successful untraced worker to measure the "
                        "tracing overhead against")
    if not problems:
        if args.trace:
            metrics = _per_layer(results, ok)
            print(f"traced profile of {args.workload} "
                  "(self time, share of run_scenario):")
            print("\n".join(_profile(metrics, args.workload)))
            problems = [f"tracer self-test: span {n} never fired"
                        for n in _silent(metrics)]
        else:
            metrics = _end_to_end(ok, setups)
            n_steps = sum(len(r["step_s"]) for r in ok)
            for name, (value, unit) in metrics.items():
                print(f"{name} {value:.6g} {unit}")
            print(f"step_ms_p50 over {n_steps} steps in {len(ok)} workers, "
                  f"setup_s over {len(setups)} workers")
        print("reference: " + (f"seed {args.seed}" if ref else
                               "none for this seed, report checks only"))
        print("provenance: " + json.dumps(dict(machine(), **ok[0]["versions"])))
    for p in problems:
        print("correctness:", p)
    failed = len(results) - len(setups)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
