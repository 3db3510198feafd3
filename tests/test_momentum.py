import numpy as np
import pytest

from nematoflow.domain import BoundaryData, BoundaryFaces, BoundaryVelocity, Grid
from nematoflow.errors import ConditioningError
from nematoflow.galerkin import build_basis, project, synthesize
from nematoflow.momentum import (
    active_stress,
    assemble_stresses,
    elastic_stress,
    galerkin_rhs,
    mass_solve,
    rotational_stress,
    step_momentum,
)
from nematoflow.nematic import molecular_field
from nematoflow.pressure import isentropic_law
from nematoflow.rheology import newtonian_law
from nematoflow.tensors import from_matrix, to_matrix, uniaxial


def make_grid(n=8):
    return Grid(extents=(1.0, 1.0, 1.0), shape=(n, n, n))


def uniform_q_faces(grid, q5):
    return BoundaryFaces(grid, BoundaryData(BoundaryVelocity("zero", grid),
                                            1.0, q5)).q_rules


def zero_q_faces(grid):
    return uniform_q_faces(grid, np.zeros(5))


def test_active_stress_frozen():
    q5 = from_matrix(np.diag([-1.0 / 3, -1.0 / 3, 2.0 / 3]))
    c = np.ones((4, 4, 4))
    q = np.broadcast_to(q5, (4, 4, 4, 5)).copy()
    sig = active_stress(q, c, sigma_star=-1.0)
    assert np.max(np.abs(sig - (-to_matrix(q)))) < 1e-15


def test_elastic_stress_uniform_frozen():
    # uniform Q = diag(-1/3,-1/3,2/3), c* = 1: tr Q^2 = 2/3,
    # G = 1/3 + (1/4)(4/9) = 4/9, gradient term zero
    grid = make_grid()
    q5 = from_matrix(np.diag([-1.0 / 3, -1.0 / 3, 2.0 / 3]))
    q = np.broadcast_to(q5, grid.shape + (5,)).copy()
    faces = uniform_q_faces(grid, q5)
    tau = elastic_stress(grid, q, faces, c_star=1.0)
    expected = (4.0 / 9.0) * np.eye(3)
    assert np.max(np.abs(tau - expected)) < 1e-13


def test_elastic_stress_nonuniform_matrix_route():
    # recompute grad Q (.) grad Q by unpacking every directional slice to
    # full matrices; the packed pairing must agree entry for entry
    from nematoflow.domain import gradient
    from nematoflow.tensors import frobenius, trace_q2

    grid = make_grid()
    X, Y, Z = grid.coords()
    q = np.zeros(grid.shape + (5,))
    q[..., 0] = 0.1 * np.sin(np.pi * X) * np.cos(np.pi * Y)
    q[..., 1] = 0.05 * np.cos(np.pi * Z)
    q[..., 3] = -0.07 * np.sin(np.pi * Y)
    q[..., 4] = 0.03 * X * Y
    faces = zero_q_faces(grid)
    tau = elastic_stress(grid, q, faces, c_star=1.3)

    gq = gradient(grid, q, faces)
    slices = [to_matrix(gq[..., i]) for i in range(3)]
    odot = np.empty(grid.shape + (3, 3))
    for i in range(3):
        for j in range(3):
            odot[..., i, j] = frobenius(slices[i], slices[j])
    t2 = trace_q2(q)
    g_scal = 0.5 * np.einsum("...ii->...", odot) + 0.5 * t2 \
        + 0.25 * 1.3 * t2 * t2
    expected = g_scal[..., None, None] * np.eye(3) - odot
    assert np.max(np.abs(tau - expected)) < 1e-12
    assert np.max(np.abs(odot)) > 1e-3


def test_rotational_stress_uniform_zero():
    grid = make_grid()
    q5 = uniaxial(0.3, np.array([0.0, 1.0, 0.0]))
    q = np.broadcast_to(q5, grid.shape + (5,)).copy()
    faces = uniform_q_faces(grid, q5)
    sig = rotational_stress(grid, q, faces)
    assert np.max(np.abs(sig)) < 1e-13


def test_rotational_stress_equals_full_molecular_commutator():
    # the bulk molecular-field terms commute with Q, so Q H - H Q computed
    # with the full field must agree with the Laplacian-only shortcut
    rng = np.random.default_rng(11)
    grid = make_grid()
    X, Y, Z = grid.coords()
    q = np.zeros(grid.shape + (5,))
    q[..., 0] = 0.1 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    q[..., 2] = 0.05 * np.sin(np.pi * Z)
    q[..., 3] = -0.04 * np.sin(np.pi * X)
    faces = zero_q_faces(grid)
    c = 1.0 + 0.2 * np.sin(np.pi * X)
    h_full = molecular_field(grid, q, c, b=0.7, c_star=1.3, q_rules=faces)
    qm, hm = to_matrix(q), to_matrix(h_full)
    direct = qm @ hm - hm @ qm
    shortcut = rotational_stress(grid, q, faces)
    assert np.max(np.abs(direct - shortcut)) < 1e-12


def test_rotational_stress_antisymmetric():
    grid = make_grid()
    X, Y, Z = grid.coords()
    q = np.zeros(grid.shape + (5,))
    q[..., 1] = 0.2 * np.sin(np.pi * X) * np.sin(2 * np.pi * Z)
    sig = rotational_stress(grid, q, zero_q_faces(grid))
    assert np.max(np.abs(sig + np.swapaxes(sig, -1, -2))) < 1e-15


def test_viscous_stress_shear_oracle():
    # u = (y, 0, 0): D has D12 = D21 = 1/2, so S = mu D for the linear law
    grid = make_grid()
    law = newtonian_law(mu=2.0, lam=0.0)
    J = np.zeros(grid.shape + (3, 3))
    J[..., 0, 1] = 1.0
    rho = np.ones(grid.shape)
    c = np.zeros(grid.shape)
    q = np.zeros(grid.shape + (5,))
    bundle = assemble_stresses(grid, rho, J, c, q, law, isentropic_law(1.0, 2.0),
                               zero_q_faces(grid), c_star=1.0, sigma_star=0.1)
    D = 0.5 * (J + np.swapaxes(J, -1, -2))
    assert np.max(np.abs(bundle.viscous - 2.0 * D)) < 1e-14


def test_rhs_rest_state_zero():
    grid = make_grid()
    basis = build_basis(grid, 2)
    law = newtonian_law(mu=1.0, lam=0.0)
    plaw = isentropic_law(1.0, 2.0)
    rho = np.ones(grid.shape)
    c = np.ones(grid.shape)
    q = np.zeros(grid.shape + (5,))
    J = np.zeros(grid.shape + (3, 3))
    u = np.zeros(grid.shape + (3,))
    bundle = assemble_stresses(grid, rho, J, c, q, law, plaw,
                               zero_q_faces(grid), c_star=1.0, sigma_star=0.1)
    grad_rho = np.zeros(grid.shape + (3,))
    rhs = galerkin_rhs(basis, bundle, rho, u, J, eps=0.05, grad_rho=grad_rho)
    assert np.max(np.abs(rhs)) < 1e-12


def test_rhs_pressure_gradient_1d_oracle():
    # rho = 1 + 0.1 sin(pi x), everything else off; the (1,1,1,e1) mode
    # entry is a product of three 1-D midpoint sums
    n = 16
    grid = make_grid(n)
    basis = build_basis(grid, 2)
    law = newtonian_law(mu=1.0, lam=0.0)
    plaw = isentropic_law(1.0, 2.0)
    X, Y, Z = grid.coords()
    rho = 1.0 + 0.1 * np.sin(np.pi * X)
    c = np.zeros(grid.shape)
    q = np.zeros(grid.shape + (5,))
    J = np.zeros(grid.shape + (3, 3))
    u = np.zeros(grid.shape + (3,))
    bundle = assemble_stresses(grid, rho, J, c, q, law, plaw,
                               zero_q_faces(grid), c_star=1.0, sigma_star=0.0)
    rhs = galerkin_rhs(basis, bundle, rho, u, J, eps=0.05,
                       grad_rho=np.zeros(grid.shape + (3,)))
    x = grid.centers(0)
    h = grid.h[0]
    norm = np.sqrt(8.0)
    p_vals = 1.0 * (1.0 + 0.1 * np.sin(np.pi * x)) ** 2.0
    oracle = norm * np.pi * (p_vals * np.cos(np.pi * x)).sum() * h \
        * ((np.sin(np.pi * x).sum() * h) ** 2)
    # coefficient layout: (k,l,m,component) C-order; mode (1,1,1,e1) is entry 0
    assert abs(rhs[0] - oracle) < 1e-8


def test_rhs_linear_in_active_stress():
    rng = np.random.default_rng(2)
    grid = make_grid()
    basis = build_basis(grid, 2)
    law = newtonian_law(mu=1.0, lam=0.0)
    plaw = isentropic_law(1.0, 2.0)
    X, Y, Z = grid.coords()
    rho = 1.0 + 0.1 * np.sin(np.pi * X)
    c = 1.0 + 0.3 * np.sin(np.pi * Y)
    q = np.zeros(grid.shape + (5,))
    q[..., 0] = 0.1 * np.sin(np.pi * Z)
    J = np.zeros(grid.shape + (3, 3))
    u = np.zeros(grid.shape + (3,))
    grad_rho = np.zeros(grid.shape + (3,))

    def rhs_for(sig):
        bundle = assemble_stresses(grid, rho, J, c, q, law, plaw,
                                   zero_q_faces(grid), c_star=1.0,
                                   sigma_star=sig)
        return galerkin_rhs(basis, bundle, rho, u, J, 0.05, grad_rho)

    r0, r1, r2 = rhs_for(0.0), rhs_for(0.1), rhs_for(0.2)
    assert np.max(np.abs((r2 - r1) - (r1 - r0))) < 1e-12


def test_step_momentum_identity_mass():
    grid = make_grid()
    basis = build_basis(grid, 2)
    rho = np.ones(grid.shape)
    v = np.zeros(basis.n)
    rhs = np.zeros(basis.n)
    rhs[0] = 1.0
    out = step_momentum(basis, v, rho, rhs, dt=1e-3)
    expected = np.zeros(basis.n)
    expected[0] = 1e-3
    assert np.max(np.abs(out - expected)) < 1e-10


def test_step_momentum_zero_rhs():
    grid = make_grid()
    basis = build_basis(grid, 2)
    rng = np.random.default_rng(0)
    rho = 1.0 + 0.2 * rng.random(grid.shape)
    v = rng.standard_normal(basis.n)
    out = step_momentum(basis, v, rho, np.zeros(basis.n), dt=1e-3)
    assert np.max(np.abs(out - v)) == 0.0


def test_mass_solve_conditioning_error():
    grid = make_grid()
    basis = build_basis(grid, 2)
    rho = np.full(grid.shape, 1e-300)
    rho[0, 0, 0] = 1e300
    with pytest.raises(ConditioningError):
        mass_solve(basis, rho, np.ones(basis.n))
