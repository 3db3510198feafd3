"""Write the correctness reference of one workload for a range of seeds.

    python3 perfbench/make_reference.py --workload channel16 --seeds 0-15

Run it only on the commit whose results are the reference; every later
commit is compared against the file it writes, ``reference/<workload>.json``.
Existing seeds in that file are kept unless regenerated.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spread import seed_range  # noqa: E402


def _rounded(value):
    """12 significant digits: far below the tolerance, a third less text."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return float(f"{value:.12g}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", required=True, help="lo-hi, inclusive")
    args = p.parse_args(argv)
    path = os.path.join(reference.REF_DIR, f"{args.workload}.json")
    doc = {"workload": args.workload, "tolerance": reference.TOL,
           "seeds": {}}
    if os.path.isfile(path):
        with open(path) as fh:
            doc["seeds"].update(json.load(fh)["seeds"])
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for seed in seed_range(args.seeds):
        res = run._run_worker(argparse.Namespace(workload=args.workload,
                                                 seed=seed), False, 0, 170.0)
        run._gate(res, None)
        if not res["ok"]:
            print(f"seed {seed}: {res['error']}", file=sys.stderr)
            return 1
        doc["seeds"][str(seed)] = _rounded(res["digest"])
        print(f"seed {seed}: {res['elapsed_s']:.1f} s", flush=True)
    os.makedirs(reference.REF_DIR, exist_ok=True)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
