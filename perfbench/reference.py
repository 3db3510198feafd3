"""Correctness gate: compare a run's final state and ledger to a reference.

A reference file ``reference/<workload>.json`` holds, for each stored seed,
a digest of the run that the benchmark's first commit produced: the full
Galerkin coefficient vector ``v``, every ledger row, and for ``rho``, ``c``
and ``q`` a fixed sample of entries plus their sum, sum of squares, minimum
and maximum.  A sample keeps a 32^3 field out of the repository while any
change of the solution still shows in it and in the sums.

Tolerance.  Picard iteration stops once the coefficient increment falls
below ``picard_tol = 1e-10``; at the measured contraction rate 0.48 the
accepted ``v`` is then within about 1e-10 of the step's fixed point.  Two
iterations that converge to the same fixed point therefore differ by at
most 2e-10 per step, and the dissipative dynamics at most add these up:
4e-9 after 20 steps.  ``TOL = 1e-7`` leaves a factor 25 above that (an
Anderson variant differs by at most 2e-11), yet any change of the scheme
moves the fields by far more.  A value passes when
``|run - ref| <= TOL * (1 + |ref|)``.  ``picard_iters`` is not compared:
another iteration may need fewer.  Only the pure-Python standard library
is used here, so the orchestrator never loads numpy.
"""

import json
import os

TOL = 1e-7
SAMPLE = 64
SAMPLE_SEED = 20260117
SKIP_COLUMNS = ("picard_iters",)

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference")


def digest(state, ledger_rows):
    """JSON-ready digest of a final state and its ledger rows."""
    import numpy as np

    out = {"t": float(state.t), "v": [float(x) for x in state.v]}
    for key in ("rho", "c", "q"):
        a = np.asarray(getattr(state, key), dtype=float).ravel()
        rng = np.random.default_rng(SAMPLE_SEED)
        idx = np.sort(rng.choice(a.size, size=min(SAMPLE, a.size),
                                 replace=False))
        out[key] = [float(x) for x in a[idx]]
        out[key + "_stats"] = [float(a.sum()), float((a * a).sum()),
                               float(a.min()), float(a.max())]
    out["ledger"] = {col: [float(r[col]) for r in ledger_rows]
                     for col in ledger_rows[0] if col not in SKIP_COLUMNS}
    return out


def load(workload):
    """{seed: digest} stored for a workload; empty when there is none."""
    path = os.path.join(REF_DIR, f"{workload}.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return {int(k): v for k, v in json.load(fh)["seeds"].items()}


def _flatten(d, prefix=""):
    if isinstance(d, dict):
        for k, v in d.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(d, list):
        for i, v in enumerate(d):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), d


def compare(run, ref):
    """(worst excess over the tolerance, where); excess <= 1 passes.

    Every value in the reference must be present in the run.
    """
    got = dict(_flatten(run))
    worst, where = 0.0, ""
    for key, r in _flatten(ref):
        if key not in got:
            return float("inf"), f"{key} missing"
        excess = abs(got[key] - r) / (TOL * (1.0 + abs(r)))
        if excess != excess:
            return float("inf"), f"{key} is not a number"
        if excess > worst:
            worst, where = excess, key
    return worst, where
