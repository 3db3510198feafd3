import numpy as np
import pytest
import scipy.fft

from nematoflow.domain import (
    BoundaryData,
    BoundaryFaces,
    BoundaryVelocity,
    Grid,
    laplacian,
    pad,
    upwind_differences,
    volume_integral,
)
from nematoflow.errors import StabilityError
from nematoflow.galerkin import build_basis, synthesize
from nematoflow.nematic import (
    _dct_table,
    diffuse_neumann,
    ldg_energy,
    molecular_field,
    step_concentration,
    step_q,
)
from nematoflow.simulation import Physics, check_step
from nematoflow.tensors import (
    from_matrix,
    packed_dot,
    project_s30,
    to_matrix,
    trace_q2,
    uniaxial,
)


def make_grid(n=8):
    return Grid(extents=(1.0, 1.0, 1.0), shape=(n, n, n))


def uniform_boundary(grid, q5):
    return BoundaryFaces(grid, BoundaryData(BoundaryVelocity(grid),
                                            1.0, q5))


def uniform_q_faces(grid, q5):
    return uniform_boundary(grid, q5).q_rules


def uniform(q5, shape):
    """Packed (5, ...) field equal to q5 everywhere."""
    return np.broadcast_to(q5[:, None, None, None], (5,) + shape).copy()


def diffs(grid, f, rules=None):
    """The upwind differences a coupled step builds once for f."""
    return upwind_differences(grid, pad(f, rules))


def test_concentration_uniform_stationary():
    grid = make_grid()
    c = np.full(grid.shape, 0.7)
    u = np.zeros((3,) + grid.shape)
    for _ in range(5):
        c = step_concentration(grid, c, diffs(grid, c), u, d0=0.25,
                               dt=1e-3)
    assert np.max(np.abs(c - 0.7)) < 1e-14


def test_concentration_diffusion_eigenmode_exact():
    grid = make_grid(16)
    d0, dt = 0.25, 1e-3
    N = 16
    k = 3
    i = np.arange(N)
    mode = np.cos(np.pi * k * (i + 0.5) / N)
    c = np.broadcast_to(mode[:, None, None], grid.shape).copy()
    u = np.zeros((3,) + grid.shape)
    lam = (2.0 - 2.0 * np.cos(np.pi * k / N)) / grid.h[0] ** 2
    expected = c / (1.0 + d0 * dt * lam)
    out = step_concentration(grid, c, diffs(grid, c), u, d0, dt)
    assert np.max(np.abs(out - expected)) < 1e-13


def test_concentration_max_principle_and_mass():
    rng = np.random.default_rng(5)
    grid = make_grid(8)
    basis = build_basis(grid, 2)
    v = 0.1 * rng.standard_normal(basis.n)
    u_b = BoundaryVelocity(grid)
    u = synthesize(basis, v) + u_b(*grid.coords())
    c = rng.random(grid.shape)
    lo, hi = c.min(), c.max()
    mass = volume_integral(grid, c)
    for _ in range(50):
        c = step_concentration(grid, c, diffs(grid, c), u, d0=0.25,
                               dt=1e-3)
    assert c.min() >= lo - 1e-12
    assert c.max() <= hi + 1e-12
    # pure diffusion preserves the mean exactly; advective-form transport
    # perturbs it only through div u, bounded by the step budget
    c2 = rng.random(grid.shape)
    m2 = volume_integral(grid, c2)
    zero_u = np.zeros((3,) + grid.shape)
    for _ in range(20):
        c2 = step_concentration(grid, c2, diffs(grid, c2), zero_u,
                                d0=0.25, dt=1e-3)
    assert abs(volume_integral(grid, c2) - m2) < 1e-13


# a non-cubic, non-unit grid, so a swapped axis or extent shows
ODD_GRID = Grid(extents=(1.0, 1.5, 0.7), shape=(6, 8, 10))
ODD_COEFF, ODD_DT = 0.3, 0.02


def test_diffuse_neumann_matches_scipy_dct():
    grid = ODD_GRID
    f = np.random.default_rng(11).standard_normal(grid.shape)
    denom = np.ones(grid.shape)
    for axis, (n, h) in enumerate(zip(grid.shape, grid.h)):
        lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / h ** 2
        denom = denom + ODD_COEFF * ODD_DT * np.moveaxis(
            lam[:, None, None], 0, axis)
    ref = scipy.fft.idctn(scipy.fft.dctn(f, type=2, norm="ortho") / denom,
                          type=2, norm="ortho")
    out = diffuse_neumann(grid, f, ODD_COEFF, ODD_DT)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_diffuse_neumann_inverts_the_mirror_laplacian():
    grid = ODD_GRID
    f = np.random.default_rng(12).standard_normal(grid.shape)
    g = diffuse_neumann(grid, f, ODD_COEFF, ODD_DT)
    residual = g - ODD_COEFF * ODD_DT * laplacian(grid, g) - f
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(f))
    assert abs(g.sum() - f.sum()) <= 1e-13 * np.abs(f).sum()
    const = np.full(grid.shape, 2.5)
    out = diffuse_neumann(grid, const, ODD_COEFF, ODD_DT)
    assert np.max(np.abs(out - const)) <= 1e-14 * 2.5


@pytest.mark.parametrize("n", ODD_GRID.shape + (32,))
def test_dct_table_is_orthonormal(n):
    C = _dct_table(n)
    assert np.max(np.abs(C @ C.T - np.eye(n))) <= 1e-14
    assert np.max(np.abs(C.T @ C - np.eye(n))) <= 1e-14


def test_molecular_field_frozen_uniform():
    # uniform Q = diag(-1/3,-1/3,2/3), c = c*, b = 1, c* = 1, wall value
    # equal to the interior: the Laplacian drops and the bulk terms give
    # diag(1/9, 1/9, -2/9)
    grid = make_grid(8)
    q5 = from_matrix(np.diag([-1.0 / 3, -1.0 / 3, 2.0 / 3]))
    q = uniform(q5, grid.shape)
    c = np.ones(grid.shape)
    faces = uniform_q_faces(grid, q5)
    h = molecular_field(grid, q, c, b=1.0, c_star=1.0, q_rules=faces)
    expected = from_matrix(np.diag([1.0 / 9, 1.0 / 9, -2.0 / 9]))
    assert np.max(np.abs(h - expected[:, None, None, None])) < 1e-12


def test_q_amplitude_ode_oracle():
    # uniform Q, c = c*, b = 0, no flow: |Q(t)| = |Q0| / sqrt(1 + 2 Gamma
    # c* |Q0|^2 t); explicit stepping must track it within 1% at t = 1
    grid = make_grid(8)
    gamma, c_star, dt = 0.25, 1.0, 1e-3
    q5 = uniaxial(0.6, np.array([1.0, 0.0, 0.0]))
    amp0 = np.sqrt(trace_q2(q5))
    q = uniform(q5, grid.shape)
    c = np.full(grid.shape, c_star)
    u = np.zeros((3,) + grid.shape)
    lam = np.zeros((3,) + grid.shape)
    faces = uniform_q_faces(grid, q5)
    n_steps = 1000
    for k in range(n_steps):
        # walls follow the same uniform evolution: rebuild face data from the
        # current uniform value so the Laplacian stays zero
        faces = uniform_q_faces(grid, q[:, 0, 0, 0])
        q = step_q(grid, q, diffs(grid, q, faces), u, lam, c, dt, gamma,
                   0.0, c_star, faces)
    amp = np.sqrt(trace_q2(q[:, 0, 0, 0]))
    exact = amp0 / np.sqrt(1.0 + 2.0 * gamma * c_star * amp0 ** 2 * 1.0)
    assert abs(amp - exact) / exact < 0.01
    # field stayed uniform
    assert np.max(np.abs(q - q[:, :1, :1, :1])) < 1e-12


def test_q_corotation_rotates_director():
    # rigid rotation u = (-y, x, 0): lam12 = -1; pure corotation carries a
    # uniform uniaxial state along the flow, Q(t) = R(t) Q0 R(t)^T
    grid = make_grid(8)
    dt, t_end = 1e-3, 0.5
    q5 = uniaxial(0.5, np.array([1.0, 0.0, 0.0]))
    q = uniform(q5, grid.shape)
    c = np.ones(grid.shape)
    u = np.zeros((3,) + grid.shape)   # uniform Q: advection is irrelevant
    lam = np.zeros((3,) + grid.shape)
    lam[0] = -1.0
    faces = uniform_q_faces(grid, q5)
    n_steps = int(round(t_end / dt))
    for _ in range(n_steps):
        faces = uniform_q_faces(grid, q[:, 0, 0, 0])
        q = step_q(grid, q, diffs(grid, q, faces), u, lam, c, dt,
                   gamma=0.0, b=0.0, c_star=1.0, q_rules=faces)
    expected = uniaxial(0.5, np.array([np.cos(t_end), np.sin(t_end), 0.0]))
    assert np.max(np.abs(q[:, 0, 0, 0] - expected)) < 5e-3


def test_step_q_rejects_nonfinite_order_tensor():
    grid = make_grid()
    q5 = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))
    q = uniform(q5, grid.shape)
    q[1, 3, 4, 5] = np.nan
    zero3 = np.zeros((3,) + grid.shape)
    faces = uniform_q_faces(grid, q5)
    with pytest.raises(StabilityError, match="non-finite"):
        step_q(grid, q, diffs(grid, q, faces), zero3, zero3,
               np.ones(grid.shape), dt=1e-3, gamma=0.25, b=0.2, c_star=1.0,
               q_rules=faces)


def _descent_setup(n=8):
    grid = make_grid(n)
    X, Y, Z = grid.coords()
    qb = uniform_boundary(grid, np.zeros(5))
    bump = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z)
    q = np.zeros((5,) + grid.shape)
    q[0] = 0.15 * bump
    q[1] = 0.1 * bump * np.cos(np.pi * Z)
    q[3] = -0.08 * bump
    q[4] = 0.05 * bump * np.cos(np.pi * X)
    q = project_s30(to_matrix(q))
    return grid, q, qb


def test_ldg_energy_gradient_is_molecular_field():
    # directional finite difference of the discrete free energy against the
    # pairing with the molecular field: the two must agree, which ties the
    # Dirichlet-form wall weights to the ghost-cell Laplacian
    grid, q, qb = _descent_setup()
    c = np.full(grid.shape, 3.0)
    rng = np.random.default_rng(5)
    dq = project_s30(to_matrix(rng.standard_normal((5,) + grid.shape)))
    h = molecular_field(grid, q, c, b=0.5, c_star=1.0, q_rules=qb.q_rules)
    pred = -grid.cell_volume * float(packed_dot(h, dq).sum())
    eps = 1e-6
    ep = ldg_energy(grid, q + eps * dq, c, 0.5, 1.0, qb)
    em = ldg_energy(grid, q - eps * dq, c, 0.5, 1.0, qb)
    fd = (ep - em) / (2 * eps)
    assert abs(fd - pred) / abs(pred) < 1e-8


def test_relaxation_descends_free_energy():
    # no flow, uniform concentration, zero wall anchoring: each relaxation
    # step lowers the discrete free energy
    grid, q, qb = _descent_setup()
    c = np.full(grid.shape, 3.0)
    u = np.zeros((3,) + grid.shape)
    lam = np.zeros((3,) + grid.shape)
    gamma, b, c_star, dt = 0.1, 0.5, 1.0, 1e-3
    e_prev = ldg_energy(grid, q, c, b, c_star, qb)
    e0 = e_prev
    for _ in range(100):
        q = step_q(grid, q, diffs(grid, q, qb.q_rules), u, lam, c, dt,
                   gamma, b, c_star, qb.q_rules)
        e = ldg_energy(grid, q, c, b, c_star, qb)
        assert e <= e_prev + 1e-10
        e_prev = e
    assert e0 - e_prev > 0.04


def test_q_wall_anchoring_pulls_interior():
    grid = make_grid(8)
    q_wall = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))
    q = np.zeros((5,) + grid.shape)
    c = np.ones(grid.shape)
    u = np.zeros((3,) + grid.shape)
    lam = np.zeros((3,) + grid.shape)
    faces = uniform_q_faces(grid, q_wall)
    err0 = np.max(np.abs(q - q_wall[:, None, None, None]))
    for _ in range(200):
        q = step_q(grid, q, diffs(grid, q, faces), u, lam, c, dt=5e-3,
                   gamma=0.25, b=0.2, c_star=1.0, q_rules=faces)
    err = np.max(np.abs(q - q_wall[:, None, None, None]))
    assert err < 0.5 * err0
    # packing invariants survive the run
    m = to_matrix(q)
    assert np.max(np.abs(m - np.swapaxes(m, -1, -2))) == 0.0
    assert np.max(np.abs(np.trace(m, axis1=-2, axis2=-1))) < 1e-15


def nan_velocity(grid):
    u = np.zeros((3,) + grid.shape)
    u[2, 1, 2, 3] = np.nan
    return u


def still_faces(grid):
    return [np.zeros(grid.shape[:a] + (grid.shape[a] + 1,) + grid.shape[a + 1:])
            for a in range(3)]


# NaN fails every comparison, so a guard written weight > 1 lets a NaN
# velocity through.  The steppers no longer guard dt: check_step admits
# each sweep's velocity before step_concentration and step_q run


def test_nan_velocity_raises_in_concentration_step():
    grid = make_grid()
    with pytest.raises(StabilityError, match="advective weight"):
        check_step(grid, 1e-3, still_faces(grid), nan_velocity(grid),
                   Physics(d0=0.25))


def test_nan_velocity_raises_in_q_step():
    grid = make_grid()
    with pytest.raises(StabilityError, match="advective weight"):
        check_step(grid, 1e-3, still_faces(grid), nan_velocity(grid),
                   Physics(gamma=0.25))
    # step_q itself still refuses the NaN result it would return
    q5 = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))
    q, faces = uniform(q5, grid.shape), uniform_q_faces(grid, q5)
    with pytest.raises(StabilityError, match="non-finite"):
        step_q(grid, q, diffs(grid, q, faces), nan_velocity(grid),
               np.zeros((3,) + grid.shape), np.ones(grid.shape), dt=1e-3,
               gamma=0.25, b=0.2, c_star=1.0, q_rules=faces)
