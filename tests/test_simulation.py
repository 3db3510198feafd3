import numpy as np
import pytest

from nematoflow.domain import BoundaryData, BoundaryVelocity, Grid
from nematoflow.errors import FixedPointError
from nematoflow import momentum as mom
from nematoflow import simulation
from nematoflow.galerkin import build_basis
from nematoflow.pressure import isentropic_law
from nematoflow.rheology import newtonian_law
from nematoflow.simulation import CoupledStepper, Physics, State, run_coupled
from nematoflow.tensors import uniaxial

Q_UNIFORM = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))


def make_stepper(n=8, m=2, dt=1e-3, ub_kind="zero", picard_tol=1e-10,
                 physics=None, **ub_kw):
    grid = Grid(extents=(1.0, 1.0, 1.0), shape=(n, n, n))
    basis = build_basis(grid, m)
    u_b = BoundaryVelocity(ub_kind, grid, **ub_kw)
    bdata = BoundaryData(u_b, 1.0, Q_UNIFORM)
    stepper = CoupledStepper(
        grid=grid, basis=basis, physics=physics or Physics(),
        law=newtonian_law(mu=1.0, lam=0.0),
        pressure_law=isentropic_law(1.0, 2.0), bdata=bdata, dt=dt,
        picard_tol=picard_tol)
    return grid, basis, stepper


def uniform_state(grid, basis, v=None):
    q = np.broadcast_to(Q_UNIFORM, grid.shape + (5,)).copy()
    return State(t=0.0, rho=np.ones(grid.shape), c=np.ones(grid.shape),
                 q=q, v=np.zeros(basis.n) if v is None else v)


def test_zero_data_converges_first_iteration():
    grid, basis, stepper = make_stepper()
    state = uniform_state(grid, basis)
    new_state, info = stepper.step(state)
    assert info["picard_iters"] == 1
    assert np.max(np.abs(new_state.v)) < 1e-12
    assert np.max(np.abs(new_state.rho - 1.0)) < 1e-12
    assert np.max(np.abs(new_state.c - 1.0)) < 1e-12
    # Q relaxes through the bulk field but stays spatially uniform
    assert np.max(np.abs(new_state.q - new_state.q[0, 0, 0])) < 1e-12


def test_small_data_contraction():
    # increments must decrease monotonically, by at least a factor 2 on
    # average, on the small-data scenario
    rng = np.random.default_rng(4)
    grid, basis, stepper = make_stepper(picard_tol=1e-13)
    v0 = rng.standard_normal(basis.n)
    v0 *= 1e-3 / np.linalg.norm(v0)
    state = uniform_state(grid, basis, v=v0)
    _, info = stepper.step(state)
    inc = info["increments"]
    assert len(inc) >= 3
    for a, b in zip(inc, inc[1:]):
        assert b < a
    overall = (inc[-1] / inc[0]) ** (1.0 / (len(inc) - 1))
    assert overall < 0.5


def test_tolerance_halves_iterations(monkeypatch):
    # measured on the seeded small-data scenario with the plain damped
    # iteration (no Anderson history, theta=0.5): the increments contract by
    # ~0.47 per iteration, so counts for (1e-5, 2e-5) are (4, 3)
    monkeypatch.setattr(simulation, "ANDERSON_DEPTH", 0)
    counts = {}
    for tol in (1e-5, 2e-5):
        rng = np.random.default_rng(4)
        grid, basis, stepper = make_stepper(picard_tol=tol)
        stepper.theta = 0.5
        v0 = rng.standard_normal(basis.n)
        v0 *= 1e-3 / np.linalg.norm(v0)
        state = uniform_state(grid, basis, v=v0)
        _, info = stepper.step(state)
        counts[tol] = info["picard_iters"]
    assert counts[1e-5] == 4
    assert counts[2e-5] == 3
    assert abs(counts[2e-5] - counts[1e-5] / 2) <= 1.0


def test_anderson_reaches_damped_fixed_point_in_half_the_iterations(
        monkeypatch):
    grid, basis, stepper = make_stepper(ub_kind="channel", peak=0.25)
    new_state, info = stepper.step(uniform_state(grid, basis))
    monkeypatch.setattr(simulation, "ANDERSON_DEPTH", 0)
    stepper.theta = 0.5
    damped_state, damped_info = stepper.step(uniform_state(grid, basis))
    assert np.max(np.abs(new_state.v - damped_state.v)) <= 1e-9
    assert 2 * info["picard_iters"] <= damped_info["picard_iters"]
    for res in (info, damped_info):
        inc = res["increments"]
        assert res["contraction"] == pytest.approx(
            (inc[-1] / inc[0]) ** (1.0 / (len(inc) - 1)))
    assert info["contraction"] < 0.1
    assert damped_info["contraction"] > 0.4


@pytest.mark.parametrize("depth", [0, simulation.ANDERSON_DEPTH])
def test_safeguard_recovers_from_oscillating_map(monkeypatch, depth):
    # v -> v* - 1.5 (v - v*): the undamped iteration flips sign and grows by
    # 1.5 per sweep; the step must notice the growth and still converge (at
    # depth 0 only the halved mixing factor can bring it back)
    monkeypatch.setattr(simulation, "ANDERSON_DEPTH", depth)
    grid, basis, stepper = make_stepper(picard_tol=1e-11)
    v_star = np.random.default_rng(2).standard_normal(basis.n) * 1e-3
    seen = []
    velocity_fields = stepper.velocity_fields

    def recording_fields(v):
        seen.append(v.copy())
        return velocity_fields(v)

    monkeypatch.setattr(stepper, "velocity_fields", recording_fields)
    monkeypatch.setattr(mom, "step_momentum",
                        lambda *args: v_star - 1.5 * (seen[-1] - v_star))
    new_state, info = stepper.step(uniform_state(grid, basis))
    inc = info["increments"]
    assert inc[1] == pytest.approx(1.5 * inc[0])
    assert inc[-1] <= 1e-11
    assert np.max(np.abs(new_state.v - v_star)) <= 1e-11


def test_picard_nonconvergence_reports_increment():
    grid, basis, stepper = make_stepper(picard_tol=1e-30)
    stepper.picard_max_iter = 3
    rng = np.random.default_rng(1)
    v0 = rng.standard_normal(basis.n) * 1e-3
    state = uniform_state(grid, basis, v=v0)
    with pytest.raises(FixedPointError) as err:
        stepper.step(state)
    assert err.value.last_increment is not None
    assert err.value.last_increment > 0


def test_run_records_trajectory():
    grid, basis, stepper = make_stepper()
    state = uniform_state(grid, basis)
    final, traj = run_coupled(stepper, state, 5)
    assert len(traj.times) == 6
    assert traj.times[-1] == pytest.approx(5e-3)
    assert final.t == pytest.approx(5e-3)


def test_boundary_driven_flow_moves_velocity():
    # channel boundary forcing with interior initially at rest: the Picard
    # velocity must pick up a nonzero interior correction
    grid, basis, stepper = make_stepper(ub_kind="channel", peak=0.25)
    state = uniform_state(grid, basis)
    new_state, info = stepper.step(state)
    assert np.linalg.norm(new_state.v) > 1e-8
    assert info["picard_iters"] < 30
