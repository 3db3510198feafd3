"""Repeatability check: run every workload on several seeds, report spreads.

    python3 perfbench/spread.py --seeds 1-10 [--workloads channel16,fine32]
        [--save perfbench/results/<name>.json] [--against <saved>.json]

Runs ``run.py`` once per (seed, workload), each in a fresh process,
alternating the workload order from one seed to the next.  For every
end-to-end metric it prints the median and the quartile spread
``(Q3 - Q1) / median`` over the seeds, next to the metric's bound from
``BENCHMARK.json``; a benchmark is steady when each spread is below a
third of its bound.  ``--save`` writes every run's metrics with the
machine's provenance (CPU model, nproc, L2 size, numpy and scipy).
``--against`` takes a file that ``--save`` wrote earlier, on the same
commit, and fails unless every exact count (``picard_per_step``,
``cg_per_step``, ``checks_passed``) is identical for each workload and
seed that both sets ran.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import machine  # noqa: E402

EXACT = ("picard_per_step", "cg_per_step", "checks_passed")


def seed_range(text):
    """Seeds from "lo-hi" (inclusive) or a single "n"."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def provenance():
    """Machine and library description recorded with the results."""
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    return dict(machine(), numpy=versions[0], scipy=versions[1])


def count_mismatches(runs, earlier):
    """Exact counts that differ from an earlier set's run of the same seed."""
    before = {(r["workload"], r["seed"]): r["metrics"] for r in earlier}
    out = []
    for r in runs:
        old = before.get((r["workload"], r["seed"]))
        if old is None:
            continue
        out += [f"{r['workload']} seed {r['seed']} {k}: "
                f"{old[k]['value']} then {r['metrics'][k]['value']}"
                for k in EXACT if k in old and k in r["metrics"]
                and old[k]["value"] != r["metrics"][k]["value"]]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--save", default=None)
    p.add_argument("--against", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    prov = provenance()
    print("provenance:", json.dumps(prov), flush=True)

    runs = []
    for i, seed in enumerate(seed_range(args.seeds)):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            took = time.perf_counter() - t0
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = {"correct": False, "metrics": {},
                       "error": proc.stderr[-500:]}
            res.update(workload=name, seed=seed, exit=proc.returncode,
                       took_s=took, log=proc.stdout.splitlines()[:-1])
            runs.append(res)
            brief = {k: round(v["value"], 4)
                     for k, v in res["metrics"].items() if k in bounds}
            print(f"{name} seed {seed}: exit {proc.returncode} "
                  f"correct {res['correct']} {took:.1f} s {brief}",
                  flush=True)

    print("\nworkload metric median spread bound")
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in mine
                    if metric in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[metric] / 3 else "  <-- wide"
            print(f"{name} {metric} {med:.6g} {spread:.4f} "
                  f"{bounds[metric]}{flag}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"provenance": prov, "runs": runs}, fh, indent=1)
    mismatches = []
    if args.against:
        with open(args.against) as fh:
            mismatches = count_mismatches(runs, json.load(fh)["runs"])
        print(f"\nexact counts against {args.against}: "
              + ("identical" if not mismatches else "DIFFER"))
        for line in mismatches:
            print("  " + line)
    return 0 if all(r["correct"] for r in runs) and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
