"""Scenario driver: invariant tracking and reporting around the time loop.

run_scenario advances a scenario from 0 to T in its own loop over
``CoupledStepper.step``.  Each pass appends one energy-ledger row, tracks
the solute bounds, the density envelope and the discrete mass balance, and
writes snapshots at the configured cadence; the run closes with a
PASS/FAIL table.  Trace and symmetry of the order tensor are
structural (packed Q), so their rows judge the final state only.  The
report object only ever appends; nothing is revised after the fact.  A
snapshot holds the state and the text of its scenario; a run resumes from
it only when ``scenarios.check_resume`` finds the stored scenario, grid and
Galerkin modes included, the same as its own.
"""

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import energy as en
from . import scenarios as sn
from . import snapshots as sp
from . import tensors
from .domain import volume_integral
from .simulation import q_components


def check_table(rows):
    """One PASS/FAIL line per (name, passed, detail) row."""
    return "\n".join(f"{'PASS' if passed else 'FAIL'}  {name}"
                     + (f"  [{detail}]" if detail else "")
                     for name, passed, detail in rows)


@dataclass
class RunReport:
    checks: list = field(default_factory=list)   # (name, passed, detail)
    picard_iters: list = field(default_factory=list)
    contractions: list = field(default_factory=list)  # steps with >= 2 iters
    timings: dict = field(default_factory=dict)
    monitor: object = None

    def add_check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    @property
    def all_pass(self):
        return all(p for _, p, _ in self.checks)

    def table(self):
        return check_table(self.checks)


def _write_report(path, report):
    with open(path, "w") as fh:
        fh.write(report.table() + "\n")
        if report.picard_iters:
            fh.write(f"picard max {max(report.picard_iters)} "
                     f"mean {statistics.fmean(report.picard_iters):.2f}\n")
        if report.contractions:
            fh.write(f"picard contraction p50 "
                     f"{statistics.median(report.contractions):.3g} "
                     f"max {max(report.contractions):.3g}\n")
        for key, val in report.timings.items():
            fh.write(f"time {key} {val:.3f}s\n")


def run_scenario(sc, out_dir=None, resume_from=None):
    """Run a scenario to completion; returns a RunReport.

    out_dir: where ledger.csv, report.txt, and snapshots go (omit to skip
    all file output).  resume_from: path to a snapshot file; the run
    continues from its state to the scenario's final time, reproducing the
    uninterrupted trajectory exactly.  ConfigError, before any output, if
    the snapshot time is not a whole step in [0, T], or if the snapshot's
    scenario differs from sc in a key the trajectory depends on (the grid
    and the Galerkin modes among them; ``scenarios.check_resume``).
    """
    setup = sn.build(sc)
    stepper, state = setup.stepper, setup.state0
    grid = stepper.grid
    n_steps = sc.n_steps()
    start_step = 0
    text = sn.scenario_text(sc)
    if resume_from is not None:
        state, stored = sp.read_snapshot(resume_from)
        when = f"snapshot time t = {state.t!r}"
        start_step = sc.steps_to(state.t, when)
        if not 0 <= start_step <= n_steps:
            raise sn.ConfigError(f"{when} is not in [0, {sc.final_time!r}]")
        sn.check_resume(sc, stored, f"snapshot {resume_from}")
    report = RunReport()
    monitor = en.EnergyMonitor(stepper)
    report.monitor = monitor
    monitor.rows.append(monitor.row(state))

    c_lo0, c_hi0 = float(state.c.min()), float(state.c.max())
    rho_lo0, rho_hi0 = float(state.rho.min()), float(state.rho.max())
    rho_b_probe = stepper.boundary.rho_b
    rho_hi0 = max([rho_hi0] + [float(rb.max()) for rb in rho_b_probe])
    rho_lo0 = min([rho_lo0] + [float(rb.min()) for rb in rho_b_probe])

    mass0 = float(volume_integral(grid, state.rho))

    worst = {"c_lo": c_lo0, "c_hi": c_hi0, "rho_envelope": 0.0,
             "div_inf": 0.0, "mass_balance": 0.0}

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        sp.write_snapshot(sp.snapshot_path(out_dir, start_step), state, text)

    tau = 0.0
    t_ledger = 0.0
    t_wall = time.perf_counter()
    for step in range(start_step + 1, n_steps + 1):
        prev = state
        state, info = stepper.step(prev)
        t_row = time.perf_counter()
        # the step's fields die with the row, before the next step
        monitor.rows.append(monitor.row(state, info["picard_iters"],
                                        info.pop("fields")))
        t_ledger += time.perf_counter() - t_row
        report.picard_iters.append(info["picard_iters"])
        if "contraction" in info:
            report.contractions.append(info["contraction"])
        worst["div_inf"] = max(worst["div_inf"], info.get("div_inf", 0.0))
        tau += sc.dt
        worst["c_lo"] = min(worst["c_lo"], float(state.c.min()))
        worst["c_hi"] = max(worst["c_hi"], float(state.c.max()))
        env_hi = rho_hi0 * np.exp(tau * worst["div_inf"])
        env_lo = rho_lo0 * np.exp(-tau * worst["div_inf"])
        over = max(float(state.rho.max()) - env_hi * (1 + 1e-6), 0.0)
        under = max(env_lo * (1 - 1e-6) - float(state.rho.min()), 0.0)
        worst["rho_envelope"] = max(worst["rho_envelope"], over, under)
        # vol*sum(rho^{n+1} - rho^n) against the step's boundary mass ledger
        budget = info["mass_in"] - info["mass_out"] + info["eps_boundary_flux"]
        defect = abs(float(volume_integral(grid, state.rho - prev.rho))
                     - budget)
        worst["mass_balance"] = max(worst["mass_balance"], defect)
        if out_dir is not None and sc.snapshot_every > 0 \
                and step % sc.snapshot_every == 0:
            sp.write_snapshot(sp.snapshot_path(out_dir, step), state, text)
    report.timings["stepping"] = time.perf_counter() - t_wall
    report.timings["ledger"] = t_ledger    # part of stepping

    m = tensors.to_matrix(q_components(state.q))
    tr_q = float(np.max(np.abs(m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2])))
    asym_q = float(np.max(np.abs(m - np.swapaxes(m, -1, -2))))
    report.add_check("order tensor trace free", tr_q == 0.0,
                     f"structural (packed Q), final max |tr Q| = {tr_q:.3e}")
    report.add_check("order tensor symmetric", asym_q == 0.0,
                     f"structural (packed Q), final max asym = {asym_q:.3e}")
    report.add_check(
        "solute bounds", worst["c_lo"] >= c_lo0 - 1e-12
        and worst["c_hi"] <= c_hi0 + 1e-12,
        f"range [{worst['c_lo']:.6f}, {worst['c_hi']:.6f}]")
    report.add_check("density envelope", worst["rho_envelope"] == 0.0,
                     f"worst excess {worst['rho_envelope']:.3e}")
    report.add_check("mass balance",
                     worst["mass_balance"] <= 1e-12 * (1.0 + abs(mass0)),
                     f"max defect {worst['mass_balance']:.3e}")
    rows = monitor.rows
    diss_min = min(min(r[k2] for k2 in ("d_visc", "d_conc", "d_relax",
                                        "d_six")) for r in rows)
    report.add_check("dissipation nonnegative", diss_min >= -1e-14,
                     f"min entry {diss_min:.3e}")
    gap_min = min(r["gap_min"] for r in rows)
    report.add_check("inflow convexity gap", gap_min >= -1e-10,
                     f"min {gap_min:.3e}")
    ineq = monitor.inequality_residual()
    report.add_check("energy inequality", ineq["pass"], "no step taken"
                     if ineq["slack"] is None else
                     f"slack min(RHS - LHS) over t > 0 {ineq['slack']:.6g}, "
                     f"RHS/LHS there {ineq['ratio']:.4g}")

    if out_dir is not None:
        monitor.to_csv(os.path.join(out_dir, "ledger.csv"))
        _write_report(os.path.join(out_dir, "report.txt"), report)
    return report
