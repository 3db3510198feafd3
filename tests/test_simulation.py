import dataclasses

import numpy as np
import pytest

from nematoflow.domain import BoundaryData, BoundaryVelocity, Grid
from nematoflow.errors import FixedPointError, StabilityError
from nematoflow import momentum as mom
from nematoflow import scenarios as sn
from nematoflow import simulation
from nematoflow.continuity import ContinuitySolver
from nematoflow.galerkin import build_basis
from nematoflow.pressure import isentropic_law
from nematoflow.rheology import newtonian_law
from nematoflow.simulation import CoupledStepper, Physics, State
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
    monkeypatch.setattr(simulation, "THETA", 0.5)
    counts = {}
    for tol in (1e-5, 2e-5):
        rng = np.random.default_rng(4)
        grid, basis, stepper = make_stepper(picard_tol=tol)
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
    monkeypatch.setattr(simulation, "THETA", 0.5)
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


def test_safeguard_drops_the_carried_pairs(monkeypatch):
    # carried pairs that send sweep 2 far away make its increment grow:
    # the reset drops them with the step's own, so sweep 3 is the plain
    # damped step from sweep 2, and the step still reaches the fixed point
    grid, basis, stepper = make_stepper(picard_tol=1e-11)
    rng = np.random.default_rng(3)
    v_star = rng.standard_normal(basis.n) * 1e-3
    seen = []
    velocity_fields = stepper.velocity_fields

    def recording_fields(v):
        seen.append(v.copy())
        return velocity_fields(v)

    monkeypatch.setattr(stepper, "velocity_fields", recording_fields)
    monkeypatch.setattr(mom, "step_momentum",
                        lambda *args: v_star - 0.5 * (seen[-1] - v_star))
    k = simulation.ANDERSON_DEPTH
    state = dataclasses.replace(
        uniform_state(grid, basis),
        anderson_dv=10.0 * rng.standard_normal((k, basis.n)),
        anderson_df=rng.standard_normal((k, basis.n)))
    new_state, info = stepper.step(state)
    inc = info["increments"]
    assert inc[1] > inc[0]
    assert inc[-1] <= 1e-11
    assert np.max(np.abs(new_state.v - v_star)) <= 1e-11
    damped = 0.5 * (v_star - 0.5 * (seen[1] - v_star)) + 0.5 * seen[1]
    assert np.max(np.abs(seen[2] - damped)) <= 1e-15


def test_picard_nonconvergence_reports_increment(monkeypatch):
    grid, basis, stepper = make_stepper(picard_tol=1e-30)
    monkeypatch.setattr(simulation, "PICARD_MAX_ITER", 3)
    rng = np.random.default_rng(1)
    v0 = rng.standard_normal(basis.n) * 1e-3
    state = uniform_state(grid, basis, v=v0)
    with pytest.raises(FixedPointError) as err:
        stepper.step(state)
    assert err.value.last_increment is not None
    assert err.value.last_increment > 0


def test_step_runs_one_field_sweep_per_picard_iteration(monkeypatch):
    # the converged iterate's fields are the stored ones: no sweep after
    # the loop re-derives them
    grid, basis, stepper = make_stepper(ub_kind="channel", peak=0.25)
    calls = {"velocity_fields": 0, "advance_fields": 0}
    for name in calls:
        method = getattr(stepper, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(stepper, name, counted)
    _, info = stepper.step(uniform_state(grid, basis))
    assert info["picard_iters"] > 1
    assert calls == {"velocity_fields": info["picard_iters"],
                     "advance_fields": info["picard_iters"]}


def test_step_builds_upwind_differences_once(monkeypatch):
    # the face differences of c^n and Q^n do not depend on the iterate: one
    # build each per step, whatever the sweep count
    grid, basis, stepper = make_stepper(ub_kind="channel", peak=0.25)
    built = []
    build = simulation.upwind_differences

    def counted(g, P):
        built.append(P.shape)
        return build(g, P)

    monkeypatch.setattr(simulation, "upwind_differences", counted)
    sweeps = set()
    for tol in (1e-2, 1e-5, 1e-13):
        stepper.picard_tol = tol
        built.clear()
        _, info = stepper.step(uniform_state(grid, basis))
        sweeps.add(info["picard_iters"])
        assert built == [(10, 10, 10), (5, 10, 10, 10)]
    assert len(sweeps) == 3


def _power_law_scenario(**kw):
    """The default channel flow under the mollified power law: no viscous
    stiffness is taken implicitly, so a step takes more sweeps than the
    two a Newtonian step at 8^3 takes, and a start or a history that
    saves some shows."""
    return sn.default_scenario(grid_cells=8, rheology_kind="power_law", **kw)


def _third_step():
    """The 8^3 power-law channel flow from noise after two steps, the first
    state whose step starts from the quadratic extrapolation."""
    setup = sn.build(_power_law_scenario(init_v="noise:0.01"))
    state = setup.state0
    for _ in range(2):
        state, _ = setup.stepper.step(state)
    return setup.stepper, state


def _without_history(state):
    """state with its carried Anderson history dropped."""
    return dataclasses.replace(state, anderson_dv=None, anderson_df=None)


def _record_sweeps(monkeypatch, stepper):
    """Per sweep (v, density CG start, density, CG iterations)."""
    sweeps = []
    advance = stepper.advance_fields

    def recording(state, q, diffs, rho_start, v, u, lam):
        out = advance(state, q, diffs, rho_start, v, u, lam)
        sweeps.append((v, rho_start, out[0], out[3]["cg_iters"]))
        return out

    monkeypatch.setattr(stepper, "advance_fields", recording)
    return sweeps


def test_density_cg_starts_from_the_anderson_mixed_density(monkeypatch):
    # sweep 1 starts the density CG from its right side, each later sweep
    # from the density of the sweep before, the density the Anderson-mixed
    # iterate of that sweep gave; the accepted solve is the last one and
    # takes fewer iterations than the first.  The step carries its last
    # ANDERSON_DEPTH (dv, df) pairs on, the converged sweep's own pair
    # last, and no density differences
    stepper, state = _third_step()
    state = _without_history(state)
    outputs = []
    step_momentum = mom.step_momentum

    def momentum(*args):
        outputs.append(step_momentum(*args))
        return outputs[-1]

    sweeps = _record_sweeps(monkeypatch, stepper)
    monkeypatch.setattr(mom, "step_momentum", momentum)
    new_state, info = stepper.step(state)
    inc = info["increments"]
    assert len(sweeps) == info["picard_iters"] > 3
    assert all(b < a for a, b in zip(inc, inc[1:]))    # no history reset
    v, starts, rhos, iters = zip(*sweeps)
    f = [out - vk for out, vk in zip(outputs, v)]
    assert starts[0] is None
    assert all(start is rho for start, rho in zip(starts[1:], rhos))
    assert new_state.rho is rhos[-1]
    assert info["cg_iters"] == iters[-1] < iters[0]
    last = range(max(1, len(sweeps) - simulation.ANDERSON_DEPTH), len(sweeps))
    for key, seq in (("anderson_dv", v), ("anderson_df", f)):
        assert np.array_equal(getattr(new_state, key),
                              np.stack([seq[j] - seq[j - 1] for j in last]))
    assert [fd.name for fd in dataclasses.fields(State)
            if fd.name.startswith("anderson")] == ["anderson_dv",
                                                   "anderson_df"]


def test_boundary_driven_flow_moves_velocity():
    # channel boundary forcing with interior initially at rest: the Picard
    # velocity must pick up a nonzero interior correction
    grid, basis, stepper = make_stepper(ub_kind="channel", peak=0.25)
    state = uniform_state(grid, basis)
    new_state, info = stepper.step(state)
    assert np.linalg.norm(new_state.v) > 1e-8
    assert info["picard_iters"] < 30


def test_extrapolated_start_and_bound_stop_keep_the_fixed_point():
    # the power-law channel flow at 8^3, m=2: the stored v of every step is
    # within picard_tol of a tight re-solve from the same state, with and
    # without its extrapolated start and carried history; starting each
    # step from v^n instead of the extrapolation 2 v^n - v^{n-1} costs
    # sweeps but reaches the same states
    sc = _power_law_scenario()
    setup = sn.build(sc)
    stepper = setup.stepper
    tight = sn.build(dataclasses.replace(sc, picard_tol=1e-14)).stepper
    state = plain = setup.state0
    sweeps = plain_sweeps = 0
    for _ in range(6):
        new, info = stepper.step(state)
        bare = _without_history(dataclasses.replace(state, v_prev=None,
                                                    v_prev2=None))
        for start in (state, bare):
            ref, _ = tight.step(start)
            assert np.linalg.norm(new.v - ref.v) <= stepper.picard_tol
        state, sweeps = new, sweeps + info["picard_iters"]
        plain, info = stepper.step(dataclasses.replace(plain, v_prev=None))
        plain_sweeps += info["picard_iters"]
    assert state.v_prev is not None and state.anderson_dv is not None
    assert plain_sweeps > sweeps
    for key in ("rho", "c", "q", "v"):
        ref, got = getattr(state, key), getattr(plain, key)
        assert np.all(np.abs(got - ref) <= 1e-9 * (1.0 + np.abs(ref)))


def test_carried_history_saves_sweeps_and_keeps_the_states():
    # the 8^3 power-law channel flow: each step mixes its first sweep with
    # the pairs the step before ended with; dropping them costs sweeps over
    # 6 steps and reaches the same states
    setup = sn.build(_power_law_scenario())
    stepper = setup.stepper
    kept = dropped = setup.state0
    kept_sweeps = dropped_sweeps = 0
    for _ in range(6):
        kept, info = stepper.step(kept)
        kept_sweeps += info["picard_iters"]
        dropped, info = stepper.step(_without_history(dropped))
        dropped_sweeps += info["picard_iters"]
    assert kept_sweeps < dropped_sweeps
    for key in ("rho", "c", "q", "v"):
        ref, got = getattr(kept, key), getattr(dropped, key)
        assert np.all(np.abs(got - ref) <= 1e-9 * (1.0 + np.abs(ref)))


def test_newtonian_step_takes_the_viscous_stiffness_implicitly():
    # the 16^3 channel flow at m=4 from rest: with the Newtonian stiffness
    # in the sweep's solve the step takes 3 sweeps; the explicit map
    # (K = 0) takes 8 to the same fixed point
    setup = sn.build(sn.default_scenario(grid_cells=16, modes=4))
    stepper = setup.stepper
    new, info = stepper.step(setup.state0)
    assert info["picard_iters"] <= 3
    stepper.stiffness = np.zeros_like(stepper.stiffness)
    plain, plain_info = stepper.step(setup.state0)
    assert plain_info["picard_iters"] > 3
    assert np.linalg.norm(new.v - plain.v) <= stepper.picard_tol


def test_channel_sweep_and_accepted_cg_counts(monkeypatch):
    # the benchmark's 16^3 channel workload (noise:0.01 start, 20 steps)
    # on seeds 0-3: at most 2.1 sweeps per step on average, no accepted
    # density CG iteration on any step, and at most 15 applications of the
    # density operator per step on average, one per column it is applied to
    # (CG iterations, initial residuals and Jacobi sweeps alike)
    applied = [0]
    neg_lap_hom = ContinuitySolver._neg_lap_hom

    def counted(self, x):
        applied[0] += x.size // self.neg_lap_diag.size
        return neg_lap_hom(self, x)

    monkeypatch.setattr(ContinuitySolver, "_neg_lap_hom", counted)
    picard, cg = [], []
    for seed in range(4):
        sc = sn.default_scenario(init_v="noise:0.01", seed=seed,
                                 final_time=0.02, snapshot_every=20)
        setup = sn.build(sc)
        state = setup.state0
        for _ in range(sc.n_steps()):
            state, info = setup.stepper.step(state)
            picard.append(info["picard_iters"])
            cg.append(info["cg_iters"])
    assert len(picard) == 80
    assert np.mean(picard) <= 2.1
    assert cg == [0] * 80
    assert applied[0] / 80 <= 15


def test_quadratic_start_saves_sweeps_over_the_linear_one(monkeypatch):
    # the 8^3 power-law channel flow: from the third step on the first
    # iterate is 3 v^n - 3 v^{n-1} + v^{n-2}; it takes fewer sweeps than the
    # linear start 2 v^n - v^{n-1} (v_prev2 dropped) and reaches the same
    # states
    setup = sn.build(_power_law_scenario())
    stepper = setup.stepper
    quad = lin = setup.state0
    quad_sweeps = lin_sweeps = 0
    for _ in range(6):
        quad, info = stepper.step(quad)
        quad_sweeps += info["picard_iters"]
        lin, info = stepper.step(dataclasses.replace(lin, v_prev2=None))
        lin_sweeps += info["picard_iters"]
    assert quad_sweeps < lin_sweeps
    for key in ("rho", "c", "q", "v"):
        ref, got = getattr(quad, key), getattr(lin, key)
        assert np.all(np.abs(got - ref) <= 1e-9 * (1.0 + np.abs(ref)))
    first = []
    velocity_fields = stepper.velocity_fields
    monkeypatch.setattr(stepper, "velocity_fields",
                        lambda v: first.append(v) or velocity_fields(v))
    stepper.step(quad)
    assert np.array_equal(first[0],
                          3.0 * (quad.v - quad.v_prev) + quad.v_prev2)


WEIGHT = r"advective weight dt\*sum\(\|u_d\|/h_d\)"

# (cells per axis, dt, Physics overrides, face velocity, cell velocity,
# message or None), velocities as constant vectors.  One case per condition,
# and one per pair of neighbouring conditions that both fail, which pins the
# order they raise in.
STEP_CASES = {
    "admissible": (8, 1e-3, {}, (0.5, 0.5, 0.5), (0.5, 0.5, 0.5), None),
    # the density and solute diffusion solves are implicit: dt above
    # 0.9*h^2/(6 eps) = 0.046875 and 0.9*h^2/(6 D0) = 0.009375 at h = 1/8
    # is admitted at rest when the Gamma limit is slack
    "eps_limit": (8, 0.05, {"gamma": 1e-3}, (0, 0, 0), (0, 0, 0), None),
    "d0_limit": (8, 2e-2, {"gamma": 1e-3}, (0, 0, 0), (0, 0, 0), None),
    # h/|u| = (1/16)/2, 0.9x = 0.028125 < dt
    "cfl_limit": (16, 0.03, {"gamma": 1e-3}, (2, 0, 0), (0, 0, 0),
                  r"dt = 0\.03 exceeds 0\.9\*h/\|u\| = 0\.028125"),
    # NaN fails every comparison: a test written weight > 1 would pass it
    "nan_face_velocity": (8, 1e-3, {}, (0, np.nan, 0), (0, 0, 0), WEIGHT),
    # dt*|u|/h = 0.5 per axis is within the CFL limit, weight 1.5 is not
    "face_weight_before_cell_weight": (8, 2e-2, {}, (3.125,) * 3,
                                       (100, 0, 0), WEIGHT + r" = 1\.5 > 1"),
    "nan_cell_velocity": (8, 1e-3, {}, (0, 0, 0), (0, 0, np.nan), WEIGHT),
    # the Gamma limit is 0.009375, below dt
    "cell_weight_before_gamma": (8, 2e-2, {}, (0, 0, 0), (100, 0, 0),
                                 WEIGHT + r" = 16 > 1"),
    "gamma_limit": (8, 2e-2, {}, (0, 0, 0), (0, 0, 0),
                    r"dt = 0\.02 exceeds 0\.9\*h\^2/\(6\*Gamma\) = 0\.009375"),
}


def constant_velocity(shapes, vec):
    """One array per axis equal to vec[axis]; a NaN component is zero but
    for one NaN entry."""
    out = [np.full(shape, np.nan_to_num(float(x)))
           for shape, x in zip(shapes, vec)]
    for U, x in zip(out, vec):
        U[3, 4, 5] = x
    return out


@pytest.mark.parametrize("n,dt,phys,face,cell,message",
                         STEP_CASES.values(), ids=STEP_CASES.keys())
def test_check_step(n, dt, phys, face, cell, message):
    grid = Grid(extents=(1.0, 1.0, 1.0), shape=(n, n, n))
    fv = constant_velocity([[n + (a == axis) for a in range(3)]
                            for axis in range(3)], face)
    u = np.stack(constant_velocity([grid.shape] * 3, cell))
    if message is None:
        simulation.check_step(grid, dt, fv, u, Physics(**phys))
    else:
        with pytest.raises(StabilityError, match=message):
            simulation.check_step(grid, dt, fv, u, Physics(**phys))


def test_implicit_solute_diffusion_takes_a_step_past_the_explicit_limit():
    # 8^3, D0 = 1, Gamma = 0.1: dt = 0.01 is four times the explicit
    # diffusion limit 0.9*h^2/(6*D0) = 0.00234 and within the Gamma limit
    # 0.0234.  Without activity, order or a density gradient the flow stays
    # at rest, so the implicit solute solve alone moves c: it keeps c inside
    # its initial range and conserves the cell sum.
    grid = Grid(extents=(1.0, 1.0, 1.0), shape=(8, 8, 8))
    basis = build_basis(grid, 2)
    stepper = CoupledStepper(
        grid, basis, Physics(d0=1.0, gamma=0.1, sigma_star=0.0),
        newtonian_law(mu=1.0, lam=0.0), isentropic_law(1.0, 2.0),
        BoundaryData(BoundaryVelocity("zero", grid), 1.0, np.zeros(5)), 1e-2)
    c0 = np.random.default_rng(8).uniform(0.2, 1.0, grid.shape)
    state = State(t=0.0, rho=np.ones(grid.shape), c=c0,
                  q=np.zeros(grid.shape + (5,)), v=np.zeros(basis.n))
    new_state, _ = stepper.step(state)
    assert np.max(np.abs(new_state.v)) < 1e-15
    assert c0.min() <= new_state.c.min() and new_state.c.max() <= c0.max()
    assert np.ptp(new_state.c) < 0.5 * np.ptp(c0)
    assert abs(new_state.c.sum() - c0.sum()) <= 1e-12


def test_nan_velocity_fails_before_any_field_moves(monkeypatch):
    grid, basis, stepper = make_stepper()

    def moved(*args, **kwargs):
        raise AssertionError("a field solver ran on a NaN velocity")

    monkeypatch.setattr(stepper.continuity, "step", moved)
    monkeypatch.setattr(simulation, "step_concentration", moved)
    monkeypatch.setattr(simulation, "step_q", moved)
    state = uniform_state(grid, basis, v=np.full(basis.n, np.nan))
    with pytest.raises(StabilityError, match="advective weight"):
        stepper.step(state)
