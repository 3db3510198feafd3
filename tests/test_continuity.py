import sys

import numpy as np
import pytest

from nematoflow import continuity
from nematoflow.continuity import (
    ContinuitySolver,
    ContinuityTrajectory,
    face_divergence,
    face_velocities,
    renormalized_balance,
    weak_residual_continuity,
)
from nematoflow.domain import (
    BoundaryData,
    BoundaryFaces,
    BoundaryVelocity,
    Grid,
    laplacian,
    volume_integral,
)
from nematoflow.errors import ConditioningError, ConfigError, StabilityError
from nematoflow.galerkin import build_basis
from nematoflow.tensors import uniaxial

Q_B = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))


def make_setup(n=8, eps=0.05, dt=1e-3, rho_b=1.0, v=None, m=2,
               extent=1.0, **ub_kw):
    grid = Grid(extents=(extent,) * 3, shape=(n,) * 3)
    u_b = BoundaryVelocity(grid, **ub_kw)
    boundary = BoundaryFaces(grid, BoundaryData(u_b, rho_b, Q_B))
    solver = ContinuitySolver(grid=grid, eps=eps, dt=dt, boundary=boundary)
    basis = build_basis(grid, m)
    if v is None:
        v = np.zeros(basis.n)
    fv = face_velocities(grid, basis, v, boundary.u_faces)
    return grid, solver, fv, basis


def run_continuity(solver, rho0, fv, n_steps):
    """Drive the density solver alone at a constant face velocity."""
    rhos = [np.array(rho0, dtype=float)]
    for _ in range(n_steps):
        rhos.append(solver.step(rhos[-1], fv)[0])
    times = [k * solver.dt for k in range(n_steps + 1)]
    return ContinuityTrajectory(solver, times, rhos, [fv] * n_steps)


def test_density_data_checked_on_every_face():
    # positive at the origin, where BoundaryData probes, negative on x = 1
    with pytest.raises(ConfigError, match="every face"):
        make_setup(rho_b=lambda x, y, z: 1.0 - 2.0 * x)


@pytest.mark.parametrize("ub_kind,ub_kw", [("channel", {"peak": 0.3}),
                                           ("shear", {"rate": 0.7})])
def test_face_velocities_match_brute_force_mode_sum(ub_kind, ub_kw):
    grid = Grid(extents=(1.0, 2.0, 1.0), shape=(8, 8, 8))
    u_b = BoundaryVelocity(grid, **ub_kw)
    m = 2
    basis = build_basis(grid, m)
    v = np.random.default_rng(5).standard_normal(basis.n)
    lift = BoundaryFaces(grid, BoundaryData(u_b, 1.0, Q_B)).u_faces
    fv = face_velocities(grid, basis, v, lift)
    V = v.reshape(m, m, m, 3)
    L = grid.extents
    norm = np.sqrt(8.0 / (L[0] * L[1] * L[2]))
    for axis in range(3):
        coords = [grid.centers(a) for a in range(3)]
        coords[axis] = np.arange(grid.shape[axis] + 1) * grid.h[axis]
        X = np.meshgrid(*coords, indexing="ij")
        modes = np.zeros(X[0].shape)
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                for mm in range(1, m + 1):
                    modes += V[k - 1, l - 1, mm - 1, axis] \
                        * np.sin(k * np.pi * X[0] / L[0]) \
                        * np.sin(l * np.pi * X[1] / L[1]) \
                        * np.sin(mm * np.pi * X[2] / L[2])
        ubn = u_b(*X)[axis]
        assert fv[axis].shape == X[0].shape
        assert np.max(np.abs(fv[axis] - (norm * modes + ubn))) < 1e-13
        for wall in (0, -1):
            idx = [slice(None)] * 3
            idx[axis] = wall
            assert np.all(fv[axis][tuple(idx)] == ubn[tuple(idx)])


def test_uniform_state_is_stationary():
    grid, solver, fv, _ = make_setup(rho_b=1.3)
    rho = np.full(grid.shape, 1.3)
    for _ in range(10):
        rho, info = solver.step(rho, fv)
    assert np.max(np.abs(rho - 1.3)) < 1e-14


def test_mass_ledger_closes():
    rng = np.random.default_rng(7)
    grid, solver, fv, basis = make_setup(
        n=8, vector=(0.2, 0.05, 0.0),
        v=0.05 * rng.standard_normal(3 * 2 ** 3))
    X, Y, Z = grid.coords()
    rho = 1.0 + 0.1 * np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z)
    mass0 = volume_integral(grid, rho)
    for _ in range(50):
        mass_before = volume_integral(grid, rho)
        rho, info = solver.step(rho, fv)
        mass_after = volume_integral(grid, rho)
        budget = info["mass_in"] - info["mass_out"] + info["eps_boundary_flux"]
        assert abs((mass_after - mass_before) - budget) < 1e-10 * mass0


def test_max_principle_bounds():
    # inflow everywhere along +x with rho_B above the interior maximum: the
    # solution must stay inside [min(rho0, rho_B), max(rho0, rho_B)] exp-bands
    rng = np.random.default_rng(3)
    grid, solver, fv, basis = make_setup(
        n=8, vector=(0.3, 0.0, 0.0), rho_b=1.5,
        v=0.02 * rng.standard_normal(3 * 2 ** 3))
    X, Y, Z = grid.coords()
    rho0 = 1.0 + 0.2 * np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    rho = rho0.copy()
    hi0 = max(np.max(rho0), 1.5, 0.3)
    lo0 = min(np.min(rho0), 1.5)
    div_inf = 0.0
    tau = 0.0
    for _ in range(100):
        rho, info = solver.step(rho, fv)
        div_inf = max(div_inf, info["div_inf"])
        tau += solver.dt
        assert np.max(rho) <= hi0 * np.exp(tau * div_inf) * (1 + 1e-6)
        assert np.min(rho) >= lo0 * np.exp(-tau * div_inf) * (1 - 1e-6)


def test_inflow_raises_interior_density():
    grid, solver, fv, _ = make_setup(
        n=8, vector=(0.3, 0.0, 0.0), rho_b=2.0)
    rho = np.ones(grid.shape)
    for _ in range(200):
        rho, _ = solver.step(rho, fv)
    # upstream cells drift toward the inflow value; downstream lags behind
    assert np.min(rho[0]) > 1.4
    assert np.min(rho) > 1.0
    assert np.max(rho) < 2.0 + 1e-12


def test_weak_residual_mass_balance_stationary():
    grid, solver, fv, _ = make_setup(rho_b=1.0)
    rho0 = np.ones(grid.shape)
    traj = run_continuity(solver, rho0, fv, 20)
    one = lambda x, y, z, t: np.ones_like(x)
    zero3 = lambda x, y, z, t: np.zeros((3,) + x.shape)
    res = weak_residual_continuity(traj, one, zero3)
    assert abs(res) < 1e-12


def test_weak_residual_linear_in_time_stationary():
    grid, solver, fv, _ = make_setup(rho_b=1.0)
    rho0 = np.ones(grid.shape)
    traj = run_continuity(solver, rho0, fv, 20)
    phi = lambda x, y, z, t: x * t
    def gphi(x, y, z, t):
        g = np.zeros((3,) + x.shape)
        g[0] = t
        return g
    res = weak_residual_continuity(traj, phi, gphi)
    assert abs(res) < 1e-10


def _refinement_residual(n, dt, n_steps):
    # advection-diffusion of rho0 = 1 + 0.1 sin(pi x) at u = (0.25, 0, 0)
    grid, solver, fv, _ = make_setup(
        n=n, eps=0.02, dt=dt, vector=(0.25, 0.0, 0.0),
        rho_b=1.0)
    X, Y, Z = grid.coords()
    rho0 = 1.0 + 0.1 * np.sin(np.pi * X)
    traj = run_continuity(solver, rho0, fv, n_steps)
    phi = lambda x, y, z, t: np.sin(np.pi * x) + 0.5 * y
    def gphi(x, y, z, t):
        g = np.zeros((3,) + x.shape)
        g[0] = np.pi * np.cos(np.pi * x)
        g[1] = 0.5
        return g
    return weak_residual_continuity(traj, phi, gphi)


def test_weak_residual_refinement_halves():
    coarse = _refinement_residual(8, 2e-3, 25)
    fine = _refinement_residual(16, 1e-3, 50)
    ratio = abs(coarse) / abs(fine)
    assert 1.5 <= ratio <= 3.0


def test_renormalized_stationary():
    grid, solver, fv, _ = make_setup(rho_b=1.0)
    rho0 = np.ones(grid.shape)
    traj = run_continuity(solver, rho0, fv, 20)
    for b_name in ("square", "rlogr"):
        res, eps_term = renormalized_balance(traj, b_name)
        assert abs(res) < 1e-10
        assert eps_term <= 1e-15


def test_renormalized_dissipation_sign_and_refinement():
    def run(n, dt, n_steps):
        grid, solver, fv, _ = make_setup(
            n=n, dt=dt, vector=(0.2, 0.0, 0.0), rho_b=1.2)
        X, Y, Z = grid.coords()
        rho0 = 1.0 + 0.15 * np.sin(np.pi * X) * np.sin(np.pi * Y)
        traj = run_continuity(solver, rho0, fv, n_steps)
        return traj

    chi = lambda t: 0.4 + 0.1 * t
    dchi = lambda t: 0.1
    coarse = run(8, 2e-3, 25)
    fine = run(16, 1e-3, 50)
    res_c, eps_c = renormalized_balance(coarse, "square", chi, dchi)
    res_f, eps_f = renormalized_balance(fine, "square", chi, dchi)
    assert eps_c < 0 and eps_f < 0
    assert abs(res_f) < abs(res_c)
    res_c2, eps_c2 = renormalized_balance(coarse, "rlogr")
    assert eps_c2 < 0
    assert abs(res_c2) < 0.05


def test_face_divergence_of_galerkin_mode():
    # single sine mode has analytic divergence; face-difference approximation
    # converges at second order
    errs = []
    for n in (8, 16):
        grid, solver, fv, basis = make_setup(n=n, m=1, v=np.array([0.7, 0.0, 0.0]))
        div = face_divergence(grid, fv)
        X, Y, Z = grid.coords()
        norm = np.sqrt(8.0)
        exact = 0.7 * norm * np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y) \
            * np.sin(np.pi * Z)
        errs.append(np.max(np.abs(div - exact)))
    assert errs[0] / errs[1] > 3.5


def test_cg_converges_fast():
    grid, solver, fv, _ = make_setup(n=16)
    rng = np.random.default_rng(0)
    rho = 1.0 + 0.2 * rng.random(grid.shape)
    _, info = solver.step(rho, fv)
    assert info["cg_iters"] < 60


def _homogeneous_robin_reference(solver, x):
    """-Laplacian through the padded route, ghosts alpha * x[wall]."""
    return -laplacian(solver.grid, x,
                      tuple((alpha, 0.0) for alpha in solver.alphas))


def test_cg_operator_matches_padded_robin_laplacian():
    grid, solver, _, _ = make_setup(n=16, peak=0.3)
    assert any(np.any(alpha != 1.0) for alpha in solver.alphas)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal((2,) + grid.shape)
        ax, ay = solver._neg_lap_hom(x), solver._neg_lap_hom(y)
        ref = _homogeneous_robin_reference(solver, x)
        assert np.max(np.abs(ax - ref)) <= 1e-14 * np.max(np.abs(ref))
        norm = np.linalg.norm
        asym = abs(float((y * ax).sum()) - float((x * ay).sum()))
        assert asym <= 1e-13 * (norm(y) * norm(ax) + norm(x) * norm(ay))


def test_diffusion_solve_pads_nothing(monkeypatch):
    grid, solver, _, _ = make_setup(n=8, peak=0.3)
    rhs = 1.0 + 0.2 * np.random.default_rng(2).random(grid.shape)

    def no_pad(*args, **kwargs):
        raise AssertionError("the diffusion solve ghost-pads")

    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.startswith("nematoflow") and hasattr(module, "pad"):
                m.setattr(module, "pad", no_pad)
        x, iters = solver._solve_diffusion(rhs)
    assert iters > 0
    a = solver.eps * solver.dt
    ax = x + a * _homogeneous_robin_reference(solver, x)
    assert np.max(np.abs(ax - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_warm_started_cg_meets_the_residual_bound():
    # from any start the accepted iterate meets the bound of a cold start;
    # from the exact solution no iteration runs
    grid, solver, _, _ = make_setup(n=12, peak=0.3)
    a = solver.eps * solver.dt

    def apply_a(x):
        return x + a * solver._neg_lap_hom(x)

    rng = np.random.default_rng(4)
    rhs = 1.0 + 0.2 * rng.random(grid.shape)
    cold, cold_iters = solver._solve_diffusion(rhs)
    norm = np.linalg.norm
    for start in (rng.random(grid.shape), cold + 1e-6 * rng.random(grid.shape)):
        x, iters = solver._solve_diffusion(rhs, start)
        assert norm(apply_a(x) - rhs) <= continuity._CG_TOL * norm(rhs)
        assert np.max(np.abs(x - cold)) <= 1e-12
    assert iters < cold_iters
    exact = rng.random(grid.shape)
    x, iters = solver._solve_diffusion(apply_a(exact), exact)
    assert iters == 0
    assert np.array_equal(x, exact)


@pytest.mark.parametrize("where", ["rhs", "start", "start_inf"])
def test_cg_rejects_non_finite_input(where):
    # NaN fails every comparison: a stop test written res > tol returned
    # the NaN right side after 0 iterations
    grid, solver, _, _ = make_setup(n=8)
    rhs = np.ones(grid.shape)
    start = rhs.copy()
    bad = rhs if where == "rhs" else start
    bad[2, 3, 4] = np.inf if where == "start_inf" else np.nan
    with pytest.raises(StabilityError, match="non-finite"):
        solver._solve_diffusion(rhs, start)


def test_density_step_rejects_nan_density():
    grid, solver, fv, _ = make_setup(n=8)
    rho = np.ones(grid.shape)
    rho[1, 2, 3] = np.nan
    with pytest.raises(StabilityError, match="non-finite"):
        solver.step(rho, fv)


def test_cg_iteration_cap_raises_conditioning_error(monkeypatch):
    grid, solver, _, _ = make_setup(n=8)
    rhs = 1.0 + 0.2 * np.random.default_rng(3).random(grid.shape)
    monkeypatch.setattr(continuity, "_CG_MAXITER", 1)
    with pytest.raises(ConditioningError, match="failed in 1 iterations"):
        solver._solve_diffusion(rhs)


def test_a_given_start_takes_jacobi_sweeps_before_the_cg(monkeypatch):
    # a start off the step's density by 1e-9 in one cell, about 150 times
    # the CG tolerance in residual: the step's Jacobi sweeps take it below
    # the tolerance, so the CG takes no iteration; without them it takes
    # at least one.  Both reach the density of the cold start
    rng = np.random.default_rng(7)
    v = 1e-2 * rng.normal(size=24)
    grid, solver, fv, _ = make_setup(n=16, peak=0.3, v=v)
    rho = 1.0 + 0.1 * rng.random(grid.shape)
    exact, info = solver.step(rho, fv)
    assert info["cg_iters"] > 3
    start = exact.copy()
    start[5, 6, 7] += 1e-9
    swept, info = solver.step(rho, fv, start=start)
    assert info["cg_iters"] == 0
    monkeypatch.setattr(continuity, "_JACOBI_SWEEPS", 0)
    plain, info = solver.step(rho, fv, start=start)
    assert info["cg_iters"] >= 1
    for got in (swept, plain):
        assert np.max(np.abs(got - exact)) <= 1e-12


def test_jacobi_sweeps_stop_once_the_residual_meets_the_cg_test(monkeypatch):
    # the step's own density as start costs one application of the
    # operator, its residual; a start off by 1e-9 in one cell takes sweeps
    # until its residual meets the CG's test, short of the cap, and hands
    # that residual to the CG, which takes no iteration
    rng = np.random.default_rng(7)
    v = 1e-2 * rng.normal(size=24)
    grid, solver, fv, _ = make_setup(n=16, peak=0.3, v=v)
    rho = 1.0 + 0.1 * rng.random(grid.shape)
    exact, _ = solver.step(rho, fv)
    applied = [0]
    neg_lap_hom = ContinuitySolver._neg_lap_hom

    def counted(self, x):
        applied[0] += 1
        return neg_lap_hom(self, x)

    monkeypatch.setattr(ContinuitySolver, "_neg_lap_hom", counted)
    got, info = solver.step(rho, fv, start=exact)
    assert applied[0] == 1 and info["cg_iters"] == 0
    assert np.array_equal(got, exact)
    start = exact.copy()
    start[5, 6, 7] += 1e-9
    applied[0] = 0
    got, info = solver.step(rho, fv, start=start)
    assert 1 < applied[0] - 1 < continuity._JACOBI_SWEEPS
    assert info["cg_iters"] == 0
    assert np.max(np.abs(got - exact)) <= 1e-12
