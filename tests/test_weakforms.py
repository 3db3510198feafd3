import numpy as np
import pytest

from nematoflow import domain as dom
from nematoflow import galerkin as gk
from nematoflow import pressure as pr
from nematoflow import rheology as rh
from nematoflow import tensors
from nematoflow import weakforms as wf
from nematoflow.simulation import CoupledStepper, Physics, State, q_exchange


def make_stepper(n, m, dt, eps, ub_kind="channel", peak=0.25):
    grid = dom.Grid((1.0, 1.0, 1.0), (n, n, n))
    if ub_kind == "zero":
        ub = dom.BoundaryVelocity(grid)
    else:
        ub = dom.BoundaryVelocity(grid, peak=peak)
    q_b = tensors.uniaxial(0.0, np.array([1.0, 0.0, 0.0]))
    bdata = dom.BoundaryData(ub, 1.0, q_b)
    basis = gk.build_basis(grid, m)
    physics = Physics(eps=eps)
    law = rh.newtonian_law(1.0)
    plaw = pr.isentropic_law(1.0, 2.0)
    return grid, basis, CoupledStepper(grid, basis, physics, law, plaw,
                                       bdata, dt)


def rich_state(grid, basis):
    X, Y, Z = grid.coords()
    shp = grid.shape
    rho = 1.0 + 0.05 * np.sin(np.pi * X) * np.cos(np.pi * Y)
    c = 1.0 + 0.2 * np.cos(np.pi * X) * np.sin(np.pi * Z)
    bump = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z)
    q = np.zeros((5,) + shp)
    q[0] = 0.1 * bump
    q[1] = 0.06 * bump
    q[3] = -0.05 * bump
    q = q_exchange(tensors.project_s30(tensors.to_matrix(q)))
    return State(0.0, rho, c, q, np.zeros(basis.n))


def run_states(stepper, st0, n_steps):
    """st0 and the states of n_steps coupled steps after it."""
    states = [st0]
    for _ in range(n_steps):
        states.append(stepper.step(states[-1])[0])
    return states


def test_catalog_sizes():
    grid, basis, _ = make_stepper(8, 2, 1e-3, 0.05)
    assert len(wf.scalar_catalog()) >= 6
    assert len(wf.momentum_catalog(basis)) >= 6
    assert len(wf.nematic_catalog()) >= 6


def test_stationary_state_residuals_vanish():
    grid, basis, stepper = make_stepper(8, 2, 1e-3, 0.05, ub_kind="zero")
    shp = grid.shape
    st0 = State(0.0, np.ones(shp), np.ones(shp), np.zeros(shp + (5,)),
                np.zeros(basis.n))
    rep = wf.weak_residuals_dissipative(run_states(stepper, st0, 5), stepper)
    for eq, worst in rep["max_abs"].items():
        assert worst < 1e-10, eq


def test_mean_concentration_identity_exact():
    # no flow and insulated walls: the constant test function reduces the
    # concentration identity to exact conservation of the mean
    grid, basis, stepper = make_stepper(8, 2, 1e-3, 0.05, ub_kind="zero")
    st0 = rich_state(grid, basis)
    st0.rho = np.ones(grid.shape)
    st0.q = np.zeros(grid.shape + (5,))
    rep = wf.weak_residuals_dissipative(run_states(stepper, st0, 10),
                                        stepper)
    assert abs(rep["concentration"]["one"]) < 1e-13
    assert abs(rep["continuity"]["one"]) < 1e-13


@pytest.fixture(scope="module")
def refinement_pair():
    out = {}
    for lbl, (n, dt, eps, steps) in {
            "coarse": (8, 2e-3, 0.05, 25),
            "fine": (16, 1e-3, 0.025, 50)}.items():
        grid, basis, stepper = make_stepper(n, 2, dt, eps)
        states = run_states(stepper, rich_state(grid, basis), steps)
        out[lbl] = wf.weak_residuals_dissipative(states, stepper)
    return out


@pytest.mark.parametrize("lbl,n", [("coarse", 8), ("fine", 16)])
def test_constant_test_function_closes_the_mass_balance(refinement_pair, lbl,
                                                        n):
    # phi = 1 leaves only the scheme's own wall fluxes, so the continuity
    # residual is the discrete mass balance, to the runner's tolerance
    grid, basis, _ = make_stepper(n, 2, 1e-3, 0.05)
    mass0 = dom.volume_integral(grid, rich_state(grid, basis).rho)
    res = refinement_pair[lbl]["continuity"]["one"]
    assert abs(res) <= 1e-12 * (1.0 + abs(mass0))


@pytest.mark.parametrize("eq", ["continuity", "momentum", "concentration",
                                "nematic"])
def test_residuals_halve_under_refinement(refinement_pair, eq):
    coarse = refinement_pair["coarse"]["max_abs"][eq]
    fine = refinement_pair["fine"]["max_abs"][eq]
    assert coarse > 1e-8, "coarse residual should be resolvable"
    ratio = coarse / fine
    assert 1.5 <= ratio <= 3.0, f"{eq}: {ratio}"


def test_refinement_residual_magnitudes(refinement_pair):
    # first-order scheme at dt=2e-3, h=1/8 on a mild channel flow: the
    # worst residual per equation sits in a narrow, reproducible band
    expect = {"continuity": 3.040e-6, "momentum": 1.640e-3,
              "concentration": 7.981e-5, "nematic": 7.602e-5}
    for eq, val in expect.items():
        got = refinement_pair["coarse"]["max_abs"][eq]
        assert abs(got - val) < 0.05 * val, (eq, got)


def test_residuals_add_up_step_by_step():
    # every identity pairs each step's increment with the test function at
    # the step's end, so a trajectory's residual is the sum of its steps'
    grid, basis, stepper = make_stepper(8, 2, 2e-3, 0.05)
    states = run_states(stepper, rich_state(grid, basis), 4)
    whole = wf.weak_residuals_dissipative(states, stepper)
    steps = [wf.weak_residuals_dissipative(states[k:k + 2], stepper)
             for k in range(len(states) - 1)]
    for eq in ("continuity", "momentum", "concentration", "nematic"):
        for name, val in whole[eq].items():
            total = sum(rep[eq][name] for rep in steps)
            assert abs(val - total) <= 1e-15, (eq, name, val - total)
