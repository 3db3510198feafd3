"""Named invariant suites behind the `check` subcommand.

Each suite is a callable returning rows (name, passed, detail).  The rows
mirror the module invariants: algebraic identities run on fresh random
samples, trajectory properties run on freshly built scenarios, so a pass
certifies the installed code, not a cached artifact.
"""

import dataclasses

import numpy as np

from . import energy as en
from . import pressure as pr
from . import rheology as rh
from . import scenarios as sn
from . import tensors
from . import weakforms as wf
from .errors import ConfigError
from .runner import run_scenario
from .simulation import gamma_step_limit


def _row(name, passed, detail=""):
    return (name, bool(passed), detail)


def _states(scen):
    """(setup, states): the built scenario and its states at every step."""
    setup = sn.build(scen)
    states = [setup.state0]
    for _ in range(scen.n_steps()):
        states.append(setup.stepper.step(states[-1])[0])
    return setup, states


def suite_tensors(sc=None):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((400, 5)).T
    b = rng.standard_normal((400, 5)).T
    ma, mb = tensors.to_matrix(a), tensors.to_matrix(b)
    gap = np.max(np.abs(tensors.packed_dot(a, b) - tensors.frobenius(ma, mb)))
    rows = [_row("packed pairing matches matrix pairing", gap < 1e-12,
                 f"gap {gap:.2e}")]
    m = rng.standard_normal((400, 3, 3))
    p = tensors.project_s30(m)
    mp = tensors.to_matrix(p)
    tr = np.max(np.abs(np.trace(mp, axis1=-2, axis2=-1)))
    asym = np.max(np.abs(mp - np.swapaxes(mp, -1, -2)))
    rows.append(_row("projection lands in the admissible space",
                     tr < 1e-14 and asym == 0.0,
                     f"tr {tr:.2e} asym {asym:.2e}"))
    return rows


def suite_rheology(sc=None):
    rng = np.random.default_rng(23)
    rows = []
    for label, law in [("newtonian", rh.newtonian_law(1.0, 0.5)),
                       ("power_law", rh.power_law(0.8))]:
        D = rng.standard_normal((1000, 3, 3))
        D = 0.5 * (D + np.swapaxes(D, -1, -2))
        S = rh.subgradient(law, D)
        res = rh.fenchel_young_residual(law, D, S)
        worst = float(np.max(np.abs(res)))
        rows.append(_row(f"duality equality ({label})", worst <= 1e-8,
                         f"worst {worst:.2e}"))
        S2 = rh.subgradient(law, np.flip(D, axis=0))
        res2 = rh.fenchel_young_residual(law, D, S2)
        rows.append(_row(f"duality inequality ({label})",
                         float(np.max(res2)) <= 1e-12,
                         f"max {float(np.max(res2)):.2e}"))
    sups = []
    base = rh.power_law(1.0)
    probe = np.linspace(0.0, 3.0, 301)
    Dp = np.zeros((301, 3, 3))
    Dp[:, 0, 1] = Dp[:, 1, 0] = probe / np.sqrt(2.0)
    for delta in (0.1, 0.05, 0.025):
        fd = rh.potential(rh.mollify(base, delta), Dp)
        f0 = rh.potential(base, Dp)
        sups.append(float(np.max(np.abs(fd - f0))))
    rows.append(_row("mollification error monotone",
                     sups[0] > sups[1] > sups[2],
                     " > ".join(f"{s:.2e}" for s in sups)))
    z = rh.potential(rh.mollify(base, 0.05), np.zeros((1, 3, 3)))
    rows.append(_row("mollified potential vanishes at rest",
                     float(abs(z[0])) <= 1e-10, f"{float(z[0]):.2e}"))
    cert = rh.certify_coercivity(rh.mollify(base, 0.05))
    rows.append(_row("coercivity certificate", cert["mu1"] >= 0.5 * 1.0,
                     f"mu1 {cert['mu1']:.3f}"))
    return rows


def suite_pressure(sc=None):
    rows = []
    for gamma in (1.2, 1.4, 2.0):
        law = pr.isentropic_law(1.0, gamma)
        rho = np.linspace(0.2, 9.9, 100)
        h = 1e-5 * 10.0
        dP = (pr.potential(law, rho + h)
              - pr.potential(law, rho - h)) / (2.0 * h)
        resid = float(np.max(np.abs(
            dP * rho - pr.potential(law, rho) - pr.pressure(law, rho))))
        rows.append(_row(f"potential identity (gamma={gamma})",
                         resid <= 1e-8, f"max {resid:.2e}"))
        cert = pr.certify_s2(law)
        c = 1.0 / (gamma - 1.0)
        ok = cert["pass"] and abs(cert["a_lower"] - c) < 1e-12 \
            and abs(cert["a_upper"] - c) < 1e-12
        rows.append(_row(f"growth coefficients (gamma={gamma})", ok,
                         f"[{cert['a_lower']:.6f}, {cert['a_upper']:.6f}]"))
        fit_grid = np.geomspace(1.0, 10.0, 200)
        Pf = pr.potential(law, fit_grid)
        slope = float(np.polyfit(np.log(fit_grid), np.log(Pf), 1)[0])
        rows.append(_row(f"coercivity exponent (gamma={gamma})",
                         abs(slope - gamma) <= 0.01 * gamma,
                         f"fit {slope:.4f}"))
    return rows


def suite_energy(sc=None):
    rows = []
    for sign in (+1.0, -1.0):
        scen = sc or sn.default_scenario()
        scen = dataclasses.replace(
            scen, sigma_star=sign * abs(scen.sigma_star))
        rep = run_scenario(scen)
        for name, passed, detail in rep.checks:
            rows.append(_row(f"{name} (sigma*={scen.sigma_star:+g})",
                             passed, detail))
    # The ledger budget holds for either forcing sign by construction, so a
    # corrupted forcing term inside the solver cannot trip it.  Cross-check
    # against the weak momentum balance instead: its paired stress tensor is
    # rebuilt from field formulas, independent of the solver's assembly, so
    # a solver-side sign flip leaves a gap well above the discretization
    # floor.  Calibrated on this fixed scenario: intact 3.5e-3, flipped
    # forcing 3.0e-2; the threshold sits between.
    scen = sn.default_scenario(grid_cells=8, final_time=0.05, dt=1e-3,
                               snapshot_every=0, sigma_star=1.0,
                               init_q="bump:0.4", init_c="uniform:1.4",
                               gamma_q=0.1)
    setup, states = _states(scen)
    rep = wf.weak_residuals_dissipative(states, setup.stepper)
    worst = rep["max_abs"]["momentum"]
    rows.append(_row("active forcing consistent with momentum balance",
                     worst < 1e-2, f"max {worst:.2e}"))
    return rows


def suite_weakforms(sc=None):
    scen = sc or sn.default_scenario(grid_cells=8, final_time=0.05, dt=2e-3,
                                     snapshot_every=0)
    setup, states = _states(scen)
    rep = wf.weak_residuals_dissipative(states, setup.stepper)
    # Continuity is the solver's own eps-regularised identity, so only the
    # discretization error remains.  Calibrated on this suite's default
    # scenario: intact 3.3e-6, eps doubled inside the density solve 4.7e-3;
    # the bound sits between.  The other rows keep the loose 1e-2.
    rows = []
    for eq, worst in rep["max_abs"].items():
        bound, detail = 1e-2, f"max {worst:.2e}"
        if eq == "continuity":
            bound = 1e-4
            detail += ", bound 1e-4 calibrated on the default scenario"
        rows.append(_row(f"weak residual bounded ({eq})", worst < bound,
                         detail))
    return rows


def suite_defect(sc=None):
    coarse = sc or sn.default_scenario(grid_cells=8, final_time=0.05,
                                       snapshot_every=0)
    fine = dataclasses.replace(coarse, grid_cells=2 * coarse.grid_cells,
                               modes=2 * coarse.modes)
    # the fine run keeps the coarse dt, so check its Q relaxation limit
    # before either run (build rejects a Gamma that is not positive)
    bound = (gamma_step_limit(fine.grid_extent / fine.grid_cells,
                              fine.gamma_q) if fine.gamma_q > 0 else np.inf)
    if not fine.dt <= bound:
        raise ConfigError(
            f"defect suite: dt = {fine.dt:g} exceeds the fine grid's "
            f"({fine.grid_cells}^3) limit 0.9*h^2/(6*Gamma) = {bound:g}")
    fields = []
    for scen in (coarse, fine):
        setup, states = _states(scen)
        fields += [states[-1].rho, setup.stepper.velocity(states[-1].v)]
    est = en.defect_diagnostic(*fields, sn.build_pressure_law(coarse))
    rows = [_row("two-grid sandwich rate", est.rate >= 0.95,
                 f"rate {est.rate:.3f} over {est.n_active} cells")]
    return rows


def suite_reduction(sc=None):
    scen = sc or sn.default_scenario(grid_cells=8, final_time=0.05,
                                     init_c="uniform:0.0", init_q="zero",
                                     sigma_star=0.0, snapshot_every=0)
    if scen.init_q != "zero" or scen.init_c != "uniform:0.0" \
            or scen.sigma_star != 0.0:
        raise ConfigError("reduction suite needs zero order, zero solute, "
                          "zero activity")
    _, states = _states(scen)
    worst_q = max(float(np.max(np.abs(s.q))) for s in states)
    worst_c = max(float(np.max(np.abs(s.c))) for s in states)
    return [_row("order tensor stays zero", worst_q == 0.0,
                 f"max {worst_q:.2e}"),
            _row("solute stays zero", worst_c == 0.0, f"max {worst_c:.2e}")]


SUITES = {
    "tensors": suite_tensors,
    "rheology": suite_rheology,
    "pressure": suite_pressure,
    "energy": suite_energy,
    "weakforms": suite_weakforms,
    "defect": suite_defect,
    "reduction": suite_reduction,
}


def run_checks(suite=None, sc=None):
    """Run one named suite or all of them; returns (all_pass, rows)."""
    if suite is not None and suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; have "
                          f"{', '.join(sorted(SUITES))}")
    names = [suite] if suite else list(SUITES)
    rows = []
    for name in names:
        for row in SUITES[name](sc):
            rows.append((f"{name}: {row[0]}", row[1], row[2]))
    return all(p for _, p, _ in rows), rows
