import csv

import numpy as np
import pytest

from nematoflow import domain as dom
from nematoflow import energy as en
from nematoflow import galerkin as gk
from nematoflow import pressure as pr
from nematoflow import rheology as rh
from nematoflow import scenarios as sn
from nematoflow import tensors
from nematoflow.errors import ConfigError
from nematoflow.continuity import ContinuitySolver
from nematoflow.simulation import CoupledStepper, Physics, State


def make_stepper(n=8, m=2, dt=1e-3, ub_kind="zero", rho_b=1.0, q_amp=0.0,
                 peak=0.25, sigma_star=0.1):
    grid = dom.Grid((1.0, 1.0, 1.0), (n, n, n))
    if ub_kind == "zero":
        ub = dom.BoundaryVelocity(grid)
    else:
        ub = dom.BoundaryVelocity(grid, peak=peak)
    q_b = tensors.uniaxial(q_amp, np.array([1.0, 0.0, 0.0]))
    bdata = dom.BoundaryData(ub, rho_b, q_b)
    basis = gk.build_basis(grid, m)
    physics = Physics(sigma_star=sigma_star)
    law = rh.newtonian_law(1.0)
    plaw = pr.isentropic_law(1.0, 2.0)
    stepper = CoupledStepper(grid, basis, physics, law, plaw, bdata, dt)
    return grid, basis, stepper


def zero_state(grid, basis, rho=0.0):
    shp = grid.shape
    return State(0.0, np.full(shp, rho), np.zeros(shp),
                 np.zeros(shp + (5,)), np.zeros(basis.n))


def test_zero_state_all_entries_zero():
    grid, basis, stepper = make_stepper()
    mon = en.EnergyMonitor(stepper)
    row = mon.row(zero_state(grid, basis))
    for key in en.LEDGER_COLUMNS:
        assert abs(row[key]) < 1e-15, key


def test_zero_state_residual_is_c_tau_and_passes():
    grid, basis, stepper = make_stepper()
    mon = en.EnergyMonitor(stepper)
    st = zero_state(grid, basis)
    mon.rows = []
    for k in range(4):
        st.t = k * stepper.dt
        mon.rows.append(mon.row(st))
    rep = mon.inequality_residual()
    tau = np.arange(4) * stepper.dt
    # zero boundary velocity: default constants are both exactly 1
    assert rep["c_growth"] == 1.0 and rep["c_const"] == 1.0
    assert np.allclose(rep["residual"], rep["c_const"] * tau, atol=1e-15)
    assert rep["pass"]


def test_uniform_rest_state_oracle():
    grid, basis, stepper = make_stepper()
    mon = en.EnergyMonitor(stepper)
    shp = grid.shape
    st = State(0.0, np.full(shp, 1.3), np.full(shp, 0.5),
               np.zeros(shp + (5,)), np.zeros(basis.n))
    row = mon.row(st)
    # P(rho) = a rho^2 / (gamma - 1) = 1.69 on the unit box
    assert abs(row["E_press"] - 1.69) < 1e-12
    assert abs(row["E_conc"] - 0.125) < 1e-13
    assert abs(row["E_kin"]) < 1e-15
    assert abs(row["E_Q"]) < 1e-15
    for key in ("d_visc", "d_conc", "d_relax", "d_six",
                "flux_out", "flux_eps", "gap_in"):
        assert abs(row[key]) < 1e-14, key


def test_wall_gradient_term_of_a_linear_wall_tensor():
    # Q_B = Q0 + x Q1 is affine in x, so the half-cell one-sided difference
    # is its exact normal derivative: -Q1 on x = 0, +Q1 on x = Lx, zero on
    # the y and z walls.  rhs_qgrad is the sum over the walls of
    # 2 c* Gamma area tr(Q_B^2) (Q_B : dQ_B/dn), here on 3x3 matrices.
    grid = dom.Grid((1.5, 1.0, 0.8), (8, 6, 4))
    q0 = tensors.uniaxial(0.3, np.array([1.0, 0.0, 0.0]))
    q1 = tensors.uniaxial(0.2, np.array([1.0, 1.0, 0.0]))

    def q_b(x, y, z):
        x = np.broadcast_arrays(x, y, z)[0]
        return np.multiply.outer(q0, np.ones_like(x)) \
            + np.multiply.outer(q1, x)

    bdata = dom.BoundaryData(dom.BoundaryVelocity(grid), 1.0, q_b)
    physics = Physics(c_star=1.3, gamma=0.4)
    stepper = CoupledStepper(grid, gk.build_basis(grid, 1), physics,
                             rh.newtonian_law(1.0),
                             pr.isentropic_law(1.0, 2.0), bdata, 1e-3)
    row = en.EnergyMonitor(stepper).row(zero_state(grid, stepper.basis, 1.0))
    m1 = tensors.to_matrix(q1)
    want = 0.0
    for x_wall, sign in ((0.0, -1.0), (grid.extents[0], 1.0)):
        m = tensors.to_matrix(q0 + x_wall * q1)
        per_cell = 2.0 * physics.c_star * physics.gamma * np.trace(m @ m) \
            * tensors.frobenius(m, sign * m1)
        want += grid.h[1] * grid.h[2] * grid.shape[1] * grid.shape[2] \
            * per_cell
    assert abs(want) > 1e-3
    assert row["rhs_qgrad"] == pytest.approx(want, rel=1e-12)


def test_outflow_flux_nonnegative_and_gap_convex():
    grid, basis, stepper = make_stepper(ub_kind="channel", q_amp=0.2)
    mon = en.EnergyMonitor(stepper)
    rng = np.random.default_rng(3)
    shp = grid.shape
    st = State(0.0, 0.8 + 0.4 * rng.random(shp), np.zeros(shp),
               np.zeros(shp + (5,)), np.zeros(basis.n))
    row = mon.row(st)
    assert row["flux_out"] >= 0.0
    assert row["gap_in"] >= 0.0
    assert row["gap_min"] >= -1e-10
    assert row["rhs_pb"] >= 0.0


def newtonian_decay_monitor(n=8, m=2, dt=1e-3, n_steps=40):
    grid, basis, stepper = make_stepper(n=n, m=m, dt=dt, sigma_star=0.1)
    rng = np.random.default_rng(11)
    shp = grid.shape
    v0 = 1e-2 * rng.standard_normal(basis.n)
    st0 = State(0.0, np.ones(shp), np.zeros(shp),
                np.zeros(shp + (5,)), v0)
    mon = en.EnergyMonitor(stepper)
    mon.rows.append(mon.row(st0))
    state = st0
    for _ in range(n_steps):
        state, info = stepper.step(state)
        mon.rows.append(mon.row(state, info["picard_iters"]))
    return mon


def test_newtonian_decay_kinetic_plus_dissipation_monotone():
    mon = newtonian_decay_monitor()
    rows = mon.rows
    dt = mon.stepper.dt
    series = []
    acc = 0.0
    for j, r in enumerate(rows):
        series.append(r["E_kin"] + acc)
        acc += dt * r["d_visc"]
    series = np.array(series)
    e0 = rows[0]["E_total"]
    h2 = max(mon.stepper.grid.h) ** 2
    tau = np.array([r["t"] for r in rows])
    rate = max(mon.weighted_dissipation(r) for r in rows)
    tol = 1e-6 * (e0 + 1.0) + 10.0 * (dt + h2) * tau * (1.0 + e0 + rate)
    assert np.all(series <= series[0] + tol)
    # ledger invariants along the run
    for r in rows:
        for key in ("d_visc", "d_conc", "d_relax", "d_six",
                    "E_kin", "E_press"):
            assert r[key] >= -1e-14


def test_inequality_pass_persists_under_refinement():
    mon_c = newtonian_decay_monitor(n=8, dt=2e-3, n_steps=25)
    mon_f = newtonian_decay_monitor(n=16, dt=1e-3, n_steps=50)
    rep_c = mon_c.inequality_residual()
    rep_f = mon_f.inequality_residual()
    assert rep_c["pass"] and rep_f["pass"]
    # the tolerance budget shrinks with (dt, h^2) yet the verdict holds
    assert rep_f["tol"][-1] < rep_c["tol"][-1]


def test_gronwall_bound_on_decay_run():
    mon = newtonian_decay_monitor()
    sup_lhs = mon.lhs_series().max()
    assert sup_lhs <= 1.0
    assert sup_lhs < 0.1


def test_ledger_csv_round_trip(tmp_path):
    mon = newtonian_decay_monitor(n_steps=5)
    path = tmp_path / "ledger.csv"
    mon.to_csv(path)
    with open(path, newline="") as fh:
        rows = [{k: (int(v) if k == "picard_iters" else float(v))
                 for k, v in rec.items()} for rec in csv.DictReader(fh)]
    assert len(rows) == len(mon.rows)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == en.LEDGER_COLUMNS
    for saved, orig in zip(rows, mon.rows):
        for key in en.LEDGER_COLUMNS:
            assert saved[key] == pytest.approx(orig[key], rel=0, abs=0)


def test_tabulated_ledger_row_certifies_its_conjugate(monkeypatch):
    # a full root search per point kept this row running for over 14 min;
    # with D's own (d, t) certified as the maximiser the row needs one
    # partials call for the subgradient and one for the certificate
    setup = sn.build(sn.default_scenario(grid_cells=8,
                                         rheology_kind="tabulated"))
    st = setup.stepper
    calls = []
    partials = rh.RheologyLaw.partials_dt

    def counted(self, d, t):
        calls.append(np.size(d))
        # fail at the fourth call, not after minutes of root search
        assert len(calls) <= 3, calls
        return partials(self, d, t)
    monkeypatch.setattr(rh.RheologyLaw, "partials_dt", counted)
    row = en.EnergyMonitor(st).row(setup.state0)
    monkeypatch.undo()
    assert 1 <= len(calls) <= 3
    # at rest (v = 0) D is the symmetric gradient of u_B
    J = np.moveaxis(st.boundary.jac_cells, (0, 1), (-2, -1))
    D = 0.5 * (J + np.swapaxes(J, -1, -2))
    S = rh.subgradient(st.law, D)
    gap = rh.fenchel_young_residual(st.law, D, S)
    assert np.max(np.abs(gap)) <= 1e-10
    pairing = np.einsum("...ij,...ij->...", S, D)
    assert row["d_visc"] == pytest.approx(
        dom.volume_integral(st.grid, pairing - gap), rel=1e-12)


def test_defect_gamma2_algebraic_identity():
    # tr of the flux defect must equal 2 kinetic + 3 pressure defect parts
    rng = np.random.default_rng(1)
    fine = (16, 16, 16)
    rho_f = 1.0 + 0.4 * rng.random(fine)
    u_f = rng.standard_normal((3,) + fine)
    rho_c = en.block_average(rho_f, 2)
    u_c = en.block_average(u_f, 2)
    plaw = pr.isentropic_law(1.0, 2.0)
    est = en.defect_diagnostic(rho_c, u_c, rho_f, u_f, plaw)
    assert est.d_lo == 2.0 and est.d_hi == 3.0
    kin = en.block_average(
        0.5 * rho_f * np.einsum("a...,a...->...", u_f, u_f), 2) \
        - 0.5 * rho_c * np.einsum("a...,a...->...", u_c, u_c)
    press = en.block_average(pr.potential(plaw, rho_f), 2) \
        - pr.potential(plaw, rho_c)
    tr_r = np.trace(est.stress_defect)
    assert np.allclose(tr_r, 2.0 * kin + 3.0 * press, atol=1e-12)


def test_defect_sandwich_rate_when_defects_nonnegative():
    # constant velocity: kinetic defect vanishes, pressure defect is a
    # Jensen gap >= 0, so the sandwich holds in every active cell
    rng = np.random.default_rng(2)
    fine = (16, 16, 16)
    rho_f = 1.0 + 0.5 * rng.random(fine)
    u_f = np.broadcast_to(np.array([0.3, -0.2, 0.1])[:, None, None, None],
                          (3,) + fine).copy()
    rho_c = en.block_average(rho_f, 2)
    u_c = en.block_average(u_f, 2)
    plaw = pr.isentropic_law(1.0, 2.0)
    est = en.defect_diagnostic(rho_c, u_c, rho_f, u_f, plaw)
    assert est.n_active > 0
    assert est.rate == 1.0


def test_defect_mismatch_raises():
    rho4, rho8 = np.ones((4, 4, 4)), np.ones((8, 8, 8))
    u4, u8 = np.zeros((3, 4, 4, 4)), np.zeros((3, 8, 8, 8))
    glaw = pr.general_law(np.linspace(0.0, 3.0, 20),
                          np.linspace(0.0, 3.0, 20) ** 2)
    with pytest.raises(ConfigError, match="isentropic"):
        en.defect_diagnostic(rho4, u4, rho8, u8, glaw)


# 8^3 channel flows from a noisy start: Newtonian, the power law, and the
# tabulated pressure law
ROW_REUSE_CASES = {
    "newtonian": {},
    "power_law": {"rheology_kind": "power_law"},
    "pressure_table": {"pressure_kind": "table"},
}


def _stepped(overrides, n_steps=3):
    """The setup of an 8^3 channel flow and its first n_steps (state, info)
    pairs."""
    setup = sn.build(sn.default_scenario(grid_cells=8, init_v="noise:0.01",
                                         seed=4, **overrides))
    state, out = setup.state0, []
    for _ in range(n_steps):
        state, info = setup.stepper.step(state)
        out.append((state, info))
    return setup, out


@pytest.mark.parametrize("case", sorted(ROW_REUSE_CASES))
def test_row_from_the_steps_fields_is_the_row_it_computes(case):
    # the step's fields are the derivatives of the state it returned, so
    # reusing them changes no bit of the row
    setup, steps = _stepped(ROW_REUSE_CASES[case])
    mon = en.EnergyMonitor(setup.stepper)
    for state, info in steps:
        given = mon.row(state, info["picard_iters"], info["fields"])
        own = mon.row(state, info["picard_iters"])
        assert list(given) == list(own)
        for key in own:
            assert given[key] == own[key], key


def test_row_given_the_steps_fields_differentiates_no_field(monkeypatch):
    setup, [(state, info)] = _stepped({}, n_steps=1)
    calls = {}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("pad", "gradient_padded", "laplacian_padded"):
        monkeypatch.setattr(en, name, counted(name, getattr(en, name)))
    monkeypatch.setattr(ContinuitySolver, "grad_rho",
                        counted("grad_rho", ContinuitySolver.grad_rho))
    mon = en.EnergyMonitor(setup.stepper)
    mon.row(state, info["picard_iters"], info["fields"])
    assert calls == {}
    # the initial row has no step to take them from
    mon.row(setup.state0)
    assert sorted(calls) == ["grad_rho", "gradient_padded",
                             "laplacian_padded", "pad"]
