import numpy as np
import pytest

from nematoflow.continuity import (
    ContinuitySolver,
    face_divergence,
    face_lift,
    face_velocities,
    renormalized_balance,
    run_continuity,
    weak_residual_continuity,
)
from nematoflow.domain import (
    BoundaryData,
    BoundaryFaces,
    BoundaryVelocity,
    DomainError,
    Grid,
    volume_integral,
)
from nematoflow.errors import StabilityError
from nematoflow.galerkin import build_basis
from nematoflow.tensors import uniaxial

Q_B = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))


def make_setup(n=8, eps=0.05, dt=1e-3, ub_kind="zero", rho_b=1.0, v=None, m=2,
               source=None, extent=1.0, **ub_kw):
    grid = Grid(extents=(extent,) * 3, shape=(n,) * 3)
    u_b = BoundaryVelocity(ub_kind, grid, **ub_kw)
    boundary = BoundaryFaces(grid, BoundaryData(u_b, rho_b, Q_B))
    solver = ContinuitySolver(grid=grid, eps=eps, dt=dt, boundary=boundary,
                              source=source)
    basis = build_basis(grid, m)
    if v is None:
        v = np.zeros(basis.n)
    fv = face_velocities(grid, basis, v, face_lift(grid, u_b))
    return grid, solver, fv, basis


def test_density_data_checked_on_every_face():
    # positive at the origin, where BoundaryData probes, negative on x = 1
    with pytest.raises(DomainError, match="every face"):
        make_setup(rho_b=lambda x, y, z: 1.0 - 2.0 * x)


@pytest.mark.parametrize("ub_kind,ub_kw", [("channel", {"peak": 0.3}),
                                           ("shear", {"rate": 0.7})])
def test_face_velocities_match_brute_force_mode_sum(ub_kind, ub_kw):
    grid = Grid(extents=(1.0, 2.0, 1.0), shape=(8, 8, 8))
    u_b = BoundaryVelocity(ub_kind, grid, **ub_kw)
    m = 2
    basis = build_basis(grid, m)
    v = np.random.default_rng(5).standard_normal(basis.n)
    fv = face_velocities(grid, basis, v, face_lift(grid, u_b))
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
        ubn = u_b(*X)[..., axis]
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


def test_stability_guard_diffusion():
    grid, solver, fv, _ = make_setup(n=8, eps=0.05, dt=1e-3)
    # h = 1/8, h^2/(6 eps) = 0.0521, 0.9x = 0.0469: dt = 0.05 must raise
    solver_bad = ContinuitySolver(grid=grid, eps=0.05, dt=0.05,
                                  boundary=solver.boundary)
    rho = np.ones(grid.shape)
    with pytest.raises(StabilityError):
        solver_bad.step(rho, fv)


def test_stability_guard_advection():
    grid, solver, fv, _ = make_setup(n=16, eps=1e-4, dt=5e-3,
                                     ub_kind="constant", vector=(2.0, 0, 0))
    rho = np.ones(grid.shape)
    # h/|u| = (1/16)/2 = 0.03125, 0.9x = 0.028; diffusion limit is ~5.8, so
    # the advective branch is the binding one
    solver_bad = ContinuitySolver(grid=grid, eps=1e-4, dt=0.03,
                                  boundary=solver.boundary)
    with pytest.raises(StabilityError):
        solver_bad.step(rho, fv)


def test_mass_ledger_closes():
    rng = np.random.default_rng(7)
    grid, solver, fv, basis = make_setup(
        n=8, ub_kind="constant", vector=(0.2, 0.05, 0.0),
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
        n=8, ub_kind="constant", vector=(0.3, 0.0, 0.0), rho_b=1.5,
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
        n=8, ub_kind="constant", vector=(0.3, 0.0, 0.0), rho_b=2.0)
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
    zero = lambda x, y, z, t: np.zeros_like(x)
    zero3 = lambda x, y, z, t: np.zeros(x.shape + (3,))
    res = weak_residual_continuity(traj, one, zero, zero3)
    assert abs(res) < 1e-12


def test_weak_residual_linear_in_time_stationary():
    grid, solver, fv, _ = make_setup(rho_b=1.0)
    rho0 = np.ones(grid.shape)
    traj = run_continuity(solver, rho0, fv, 20)
    phi = lambda x, y, z, t: x * t
    dphi = lambda x, y, z, t: x
    def gphi(x, y, z, t):
        g = np.zeros(x.shape + (3,))
        g[..., 0] = t
        return g
    res = weak_residual_continuity(traj, phi, dphi, gphi)
    assert abs(res) < 1e-10


def _mms_residual(n, dt, n_steps):
    eps = 0.02

    def source(x, y, z, t):
        # rho = 1 + 0.1 sin(pi x) exp(-t), u = (0.25, 0, 0)
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        drho_dt = -0.1 * s * np.exp(-t)
        div_rho_u = 0.25 * 0.1 * np.pi * c * np.exp(-t)
        lap = -0.1 * np.pi ** 2 * s * np.exp(-t)
        return drho_dt + div_rho_u - eps * lap

    grid, solver, fv, _ = make_setup(
        n=n, eps=eps, dt=dt, ub_kind="constant", vector=(0.25, 0.0, 0.0),
        rho_b=1.0, source=source)
    X, Y, Z = grid.coords()
    rho0 = 1.0 + 0.1 * np.sin(np.pi * X)
    traj = run_continuity(solver, rho0, fv, n_steps)
    phi = lambda x, y, z, t: np.sin(np.pi * x) + 0.5 * y
    dphi = lambda x, y, z, t: np.zeros_like(x)
    def gphi(x, y, z, t):
        g = np.zeros(x.shape + (3,))
        g[..., 0] = np.pi * np.cos(np.pi * x)
        g[..., 1] = 0.5
        return g
    return weak_residual_continuity(traj, phi, dphi, gphi,
                                    source=source)


def test_weak_residual_refinement_halves():
    coarse = _mms_residual(8, 2e-3, 25)
    fine = _mms_residual(16, 1e-3, 50)
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
            n=n, dt=dt, ub_kind="constant", vector=(0.2, 0.0, 0.0), rho_b=1.2)
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
