import numpy as np
import pytest

from nematoflow.domain import (
    BoundaryData,
    BoundaryFaces,
    BoundaryVelocity,
    Grid,
    volume_integral,
)
from nematoflow.errors import StabilityError
from nematoflow.galerkin import build_basis, synthesize
from nematoflow.nematic import (
    diffuse_neumann,
    ldg_energy,
    molecular_field,
    step_concentration,
    step_q,
)
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
    return BoundaryFaces(grid, BoundaryData(BoundaryVelocity("zero", grid),
                                            1.0, q5))


def uniform_q_faces(grid, q5):
    return uniform_boundary(grid, q5).q_rules


def test_concentration_uniform_stationary():
    grid = make_grid()
    c = np.full(grid.shape, 0.7)
    u = np.zeros(grid.shape + (3,))
    for _ in range(5):
        c = step_concentration(grid, c, u, d0=0.25, dt=1e-3)
    assert np.max(np.abs(c - 0.7)) < 1e-14


def test_concentration_diffusion_eigenmode_exact():
    grid = make_grid(16)
    d0, dt = 0.25, 1e-3
    N = 16
    k = 3
    i = np.arange(N)
    mode = np.cos(np.pi * k * (i + 0.5) / N)
    c = np.broadcast_to(mode[:, None, None], grid.shape).copy()
    u = np.zeros(grid.shape + (3,))
    lam = (2.0 - 2.0 * np.cos(np.pi * k / N)) / grid.h[0] ** 2
    expected = c / (1.0 + d0 * dt * lam)
    out = step_concentration(grid, c, u, d0, dt)
    assert np.max(np.abs(out - expected)) < 1e-13


def test_concentration_max_principle_and_mass():
    rng = np.random.default_rng(5)
    grid = make_grid(8)
    basis = build_basis(grid, 2)
    v = 0.1 * rng.standard_normal(basis.n)
    u_b = BoundaryVelocity("zero", grid)
    u = synthesize(basis, v, u_b)
    c = rng.random(grid.shape)
    lo, hi = c.min(), c.max()
    mass = volume_integral(grid, c)
    for _ in range(50):
        c = step_concentration(grid, c, u, d0=0.25, dt=1e-3)
    assert c.min() >= lo - 1e-12
    assert c.max() <= hi + 1e-12
    # pure diffusion preserves the mean exactly; advective-form transport
    # perturbs it only through div u, bounded by the step budget
    c2 = rng.random(grid.shape)
    m2 = volume_integral(grid, c2)
    zero_u = np.zeros(grid.shape + (3,))
    for _ in range(20):
        c2 = step_concentration(grid, c2, zero_u, d0=0.25, dt=1e-3)
    assert abs(volume_integral(grid, c2) - m2) < 1e-13


def test_concentration_stability_guard():
    grid = make_grid(8)
    c = np.ones(grid.shape)
    u = np.zeros(grid.shape + (3,))
    with pytest.raises(StabilityError):
        step_concentration(grid, c, u, d0=0.25, dt=2e-2)


def test_molecular_field_frozen_uniform():
    # uniform Q = diag(-1/3,-1/3,2/3), c = c*, b = 1, c* = 1, wall value
    # equal to the interior: the Laplacian drops and the bulk terms give
    # diag(1/9, 1/9, -2/9)
    grid = make_grid(8)
    q5 = from_matrix(np.diag([-1.0 / 3, -1.0 / 3, 2.0 / 3]))
    q = np.broadcast_to(q5, grid.shape + (5,)).copy()
    c = np.ones(grid.shape)
    faces = uniform_q_faces(grid, q5)
    h = molecular_field(grid, q, c, b=1.0, c_star=1.0, q_rules=faces)
    expected = from_matrix(np.diag([1.0 / 9, 1.0 / 9, -2.0 / 9]))
    assert np.max(np.abs(h - expected)) < 1e-12


def test_q_amplitude_ode_oracle():
    # uniform Q, c = c*, b = 0, no flow: |Q(t)| = |Q0| / sqrt(1 + 2 Gamma
    # c* |Q0|^2 t); explicit stepping must track it within 1% at t = 1
    grid = make_grid(8)
    gamma, c_star, dt = 0.25, 1.0, 1e-3
    q5 = uniaxial(0.6, np.array([1.0, 0.0, 0.0]))
    amp0 = np.sqrt(trace_q2(q5))
    q = np.broadcast_to(q5, grid.shape + (5,)).copy()
    c = np.full(grid.shape, c_star)
    u = np.zeros(grid.shape + (3,))
    lam = np.zeros(grid.shape + (3,))
    faces = uniform_q_faces(grid, q5)
    n_steps = 1000
    for k in range(n_steps):
        # walls follow the same uniform evolution: rebuild face data from the
        # current uniform value so the Laplacian stays zero
        faces = uniform_q_faces(grid, q[0, 0, 0])
        q = step_q(grid, q, u, lam, c, dt, gamma, 0.0, c_star, faces)
    amp = np.sqrt(trace_q2(q[0, 0, 0]))
    exact = amp0 / np.sqrt(1.0 + 2.0 * gamma * c_star * amp0 ** 2 * 1.0)
    assert abs(amp - exact) / exact < 0.01
    # field stayed uniform
    assert np.max(np.abs(q - q[0, 0, 0])) < 1e-12


def test_q_corotation_rotates_director():
    # rigid rotation u = (-y, x, 0): lam12 = -1; pure corotation carries a
    # uniform uniaxial state along the flow, Q(t) = R(t) Q0 R(t)^T
    grid = make_grid(8)
    dt, t_end = 1e-3, 0.5
    q5 = uniaxial(0.5, np.array([1.0, 0.0, 0.0]))
    q = np.broadcast_to(q5, grid.shape + (5,)).copy()
    c = np.ones(grid.shape)
    u = np.zeros(grid.shape + (3,))   # uniform Q: advection is irrelevant
    lam = np.zeros(grid.shape + (3,))
    lam[..., 0] = -1.0
    faces = uniform_q_faces(grid, q5)
    n_steps = int(round(t_end / dt))
    for _ in range(n_steps):
        faces = uniform_q_faces(grid, q[0, 0, 0])
        q = step_q(grid, q, u, lam, c, dt, gamma=0.0, b=0.0, c_star=1.0,
                   q_rules=faces)
    expected = uniaxial(0.5, np.array([np.cos(t_end), np.sin(t_end), 0.0]))
    assert np.max(np.abs(q[0, 0, 0] - expected)) < 5e-3


def test_q_stability_guard():
    grid = make_grid(8)
    q5 = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))
    q = np.broadcast_to(q5, grid.shape + (5,)).copy()
    c = np.ones(grid.shape)
    u = np.zeros(grid.shape + (3,))
    lam = np.zeros(grid.shape + (3,))
    faces = uniform_q_faces(grid, q5)
    with pytest.raises(StabilityError):
        step_q(grid, q, u, lam, c, dt=2e-2, gamma=0.25, b=0.2, c_star=1.0,
               q_rules=faces)


def _descent_setup(n=8):
    grid = make_grid(n)
    X, Y, Z = grid.coords()
    qb = uniform_boundary(grid, np.zeros(5))
    bump = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z)
    q = np.zeros(grid.shape + (5,))
    q[..., 0] = 0.15 * bump
    q[..., 1] = 0.1 * bump * np.cos(np.pi * Z)
    q[..., 3] = -0.08 * bump
    q[..., 4] = 0.05 * bump * np.cos(np.pi * X)
    q = project_s30(to_matrix(q))
    return grid, q, qb


def test_ldg_energy_gradient_is_molecular_field():
    # directional finite difference of the discrete free energy against the
    # pairing with the molecular field: the two must agree, which ties the
    # Dirichlet-form wall weights to the ghost-cell Laplacian
    grid, q, qb = _descent_setup()
    c = np.full(grid.shape, 3.0)
    rng = np.random.default_rng(5)
    dq = project_s30(to_matrix(rng.standard_normal(grid.shape + (5,))))
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
    u = np.zeros(grid.shape + (3,))
    lam = np.zeros(grid.shape + (3,))
    gamma, b, c_star, dt = 0.1, 0.5, 1.0, 1e-3
    e_prev = ldg_energy(grid, q, c, b, c_star, qb)
    e0 = e_prev
    for _ in range(100):
        q = step_q(grid, q, u, lam, c, dt, gamma, b, c_star, qb.q_rules)
        e = ldg_energy(grid, q, c, b, c_star, qb)
        assert e <= e_prev + 1e-10
        e_prev = e
    assert e0 - e_prev > 0.04


def test_q_wall_anchoring_pulls_interior():
    grid = make_grid(8)
    q_wall = uniaxial(0.2, np.array([1.0, 0.0, 0.0]))
    q = np.zeros(grid.shape + (5,))
    c = np.ones(grid.shape)
    u = np.zeros(grid.shape + (3,))
    lam = np.zeros(grid.shape + (3,))
    faces = uniform_q_faces(grid, q_wall)
    err0 = np.max(np.abs(q - q_wall))
    for _ in range(200):
        q = step_q(grid, q, u, lam, c, dt=5e-3, gamma=0.25, b=0.2, c_star=1.0,
                   q_rules=faces)
    err = np.max(np.abs(q - q_wall))
    assert err < 0.5 * err0
    # packing invariants survive the run
    m = to_matrix(q)
    assert np.max(np.abs(m - np.swapaxes(m, -1, -2))) == 0.0
    assert np.max(np.abs(np.trace(m, axis1=-2, axis2=-1))) < 1e-15
