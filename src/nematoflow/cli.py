"""Command line: run a scenario, check invariant suites, tabulate a
conjugate potential.

Exit codes: 0 success, 1 a check failed or a numerical failure (a
stability, fixed-point or conditioning error), 2 bad input: a
``ConfigError`` from whichever layer found it (a scenario key, a law, the
grid, boundary data), any other ``ValueError``, or an unreadable file.
NEMATOFLOW_THREADS caps the linear-algebra thread pools; it must be applied
before numpy loads, so this module defers every heavy import into main().
"""

import argparse
import math
import os
import sys

from .errors import (ConditioningError, ConfigError, FixedPointError,
                     StabilityError)


def _apply_thread_env():
    n = os.environ.get("NEMATOFLOW_THREADS")
    if not n:
        return
    if not n.isdigit() or int(n) < 1:
        raise ConfigError(f"NEMATOFLOW_THREADS must be a positive integer, got {n!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _parser():
    p = argparse.ArgumentParser(prog="nematoflow")
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a scenario and write "
                                       "ledger, report, snapshots")
    p_run.add_argument("scenario", help="scenario file (key = value lines)")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--resume", default=None,
                       help="snapshot file to continue from")

    p_check = sub.add_parser("check", help="run invariant suites")
    p_check.add_argument("--suite", default=None,
                         help="one suite name (default: all)")
    p_check.add_argument("--scenario", default=None,
                         help="optional scenario file for trajectory suites")

    p_conj = sub.add_parser("conjugate", help="tabulate a dual potential "
                                              "on a stress grid")
    p_conj.add_argument("law", help="newtonian[:mu,lam] | power_law[:mu0,q]")
    p_conj.add_argument("grid", help="ns x nsigma, e.g. 33x33")
    p_conj.add_argument("--s-max", type=float, default=3.0)
    p_conj.add_argument("--sigma-max", type=float, default=3.0)
    p_conj.add_argument("--delta", type=float, default=0.0,
                        help="mollification radius")
    return p


def _cmd_run(args):
    from . import scenarios as sn
    from .runner import run_scenario
    sc = sn.load_scenario(args.scenario)
    report = run_scenario(sc, out_dir=args.out, resume_from=args.resume)
    print(report.table())
    return 0 if report.all_pass else 1


def _cmd_check(args):
    from . import scenarios as sn
    from .checks import run_checks
    from .runner import check_table
    sc = sn.load_scenario(args.scenario) if args.scenario else None
    ok, rows = run_checks(suite=args.suite, sc=sc)
    print(check_table(rows))
    return 0 if ok else 1


def _parse_law(spec, delta):
    from . import rheology as rh
    name, _, args = spec.partition(":")
    parts = [float(a) for a in args.split(",")] if args else []
    if len(parts) > 2 or not all(map(math.isfinite, parts)):
        raise ConfigError(f"law {spec!r} takes at most two finite numbers")
    if name == "newtonian":
        mu = parts[0] if parts else 1.0
        lam = parts[1] if len(parts) > 1 else 0.0
        law = rh.newtonian_law(mu, lam)
    elif name == "power_law":
        mu0 = parts[0] if parts else 1.0
        q = parts[1] if len(parts) > 1 else 4.0 / 3.0
        law = rh.power_law(mu0, q)
    else:
        raise ConfigError(f"unknown law {name!r}")
    return rh.mollify(law, delta) if delta > 0 else law


def _cmd_conjugate(args):
    import numpy as np

    from . import rheology as rh
    for flag, val in (("--s-max", args.s_max), ("--sigma-max", args.sigma_max),
                      ("--delta", args.delta)):
        if not 0.0 <= val < math.inf:
            raise ConfigError(f"{flag} must be finite and >= 0, got {val!r}")
    law = _parse_law(args.law, args.delta)
    try:
        ns, nsig = (int(x) for x in args.grid.lower().split("x"))
    except ValueError:
        raise ConfigError(f"grid must look like 33x33, got {args.grid!r}")
    if min(ns, nsig) < 1:
        raise ConfigError(f"grid counts must be >= 1, got {args.grid!r}")
    s = np.linspace(0.0, args.s_max, ns)
    sig = np.linspace(-args.sigma_max, args.sigma_max, nsig)
    S, G = np.meshgrid(s, sig, indexing="ij")
    vals = rh.conjugate_batch(law, S.reshape(-1), G.reshape(-1))
    print("# s sigma conjugate")
    for row in np.column_stack([S.reshape(-1), G.reshape(-1), vals]):
        print(f"{row[0]:.17g} {row[1]:.17g} {row[2]:.17g}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _apply_thread_env()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "conjugate":
            return _cmd_conjugate(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, FixedPointError, ConditioningError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
