import numpy as np
import pytest

from nematoflow import tensors
from nematoflow.domain import (
    BoundaryData,
    BoundaryFaces,
    BoundaryVelocity,
    Grid,
    gradient,
    laplacian,
    pad,
    volume_integral,
)
from nematoflow.errors import ConditioningError
from nematoflow.galerkin import (
    build_basis,
    synthesize,
    synthesize_jacobian,
    viscous_stiffness,
)
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
from nematoflow.pressure import isentropic_law, pressure
from nematoflow.rheology import (
    mollify,
    newtonian_law,
    power_law,
    subgradient,
    tabulated_law,
)
from nematoflow.tensors import from_matrix, to_matrix, uniaxial


def make_grid(n=8):
    return Grid(extents=(1.0, 1.0, 1.0), shape=(n, n, n))


def uniform_q_faces(grid, q5):
    return BoundaryFaces(grid, BoundaryData(BoundaryVelocity(grid),
                                            1.0, q5)).q_rules


def zero_q_faces(grid):
    return uniform_q_faces(grid, np.zeros(5))


def uniform(q5, shape):
    """Packed (5, ...) field equal to q5 everywhere."""
    return np.broadcast_to(q5[:, None, None, None], (5,) + shape).copy()


def matrices(T):
    """(..., 3, 3) view of a (3, 3, ...) tensor field."""
    return np.moveaxis(T, (0, 1), (-2, -1))


def unpack(entries, skew=False):
    """(..., 3, 3) matrices from the six upper entries (11, 12, 13, 22, 23,
    33) of a symmetric field, or from (r12, r13, r23) of a skew one."""
    if skew:
        r12, r13, r23 = entries
        z = np.zeros_like(r12)
        rows = (z, r12, r13, -r12, z, r23, -r13, -r23, z)
    else:
        t11, t12, t13, t22, t23, t33 = entries
        rows = (t11, t12, t13, t12, t22, t23, t13, t23, t33)
    return np.stack(rows, axis=-1).reshape(entries[0].shape + (3, 3))


def test_active_stress_frozen():
    q5 = from_matrix(np.diag([-1.0 / 3, -1.0 / 3, 2.0 / 3]))
    c = np.ones((4, 4, 4))
    q = uniform(q5, (4, 4, 4))
    sig = active_stress(q, c, sigma_star=-1.0)
    assert np.max(np.abs(to_matrix(sig) - (-to_matrix(q)))) < 1e-15


def test_elastic_stress_uniform_frozen():
    # uniform Q = diag(-1/3,-1/3,2/3), c* = 1: tr Q^2 = 2/3,
    # G = 1/3 + (1/4)(4/9) = 4/9, gradient term zero
    grid = make_grid()
    q5 = from_matrix(np.diag([-1.0 / 3, -1.0 / 3, 2.0 / 3]))
    q = uniform(q5, grid.shape)
    faces = uniform_q_faces(grid, q5)
    tau = elastic_stress(grid, pad(q, faces), c_star=1.0)
    expected = (4.0 / 9.0) * np.eye(3)
    assert np.max(np.abs(unpack(tau) - expected)) < 1e-13


def test_elastic_stress_nonuniform_matrix_route():
    # recompute grad Q (.) grad Q by unpacking every directional slice to
    # full matrices; the packed pairing must agree entry for entry
    from nematoflow.tensors import frobenius, trace_q2

    grid = make_grid()
    X, Y, Z = grid.coords()
    q = np.zeros((5,) + grid.shape)
    q[0] = 0.1 * np.sin(np.pi * X) * np.cos(np.pi * Y)
    q[1] = 0.05 * np.cos(np.pi * Z)
    q[3] = -0.07 * np.sin(np.pi * Y)
    q[4] = 0.03 * X * Y
    faces = zero_q_faces(grid)
    tau = elastic_stress(grid, pad(q, faces), c_star=1.3)

    gq = gradient(grid, q, faces)
    slices = [to_matrix(gq[i]) for i in range(3)]
    odot = np.empty(grid.shape + (3, 3))
    for i in range(3):
        for j in range(3):
            odot[..., i, j] = frobenius(slices[i], slices[j])
    t2 = trace_q2(q)
    g_scal = 0.5 * np.einsum("...ii->...", odot) + 0.5 * t2 \
        + 0.25 * 1.3 * t2 * t2
    expected = g_scal[..., None, None] * np.eye(3) - odot
    assert np.max(np.abs(unpack(tau) - expected)) < 1e-12
    assert np.max(np.abs(odot)) > 1e-3


def test_rotational_stress_uniform_zero():
    grid = make_grid()
    q5 = uniaxial(0.3, np.array([0.0, 1.0, 0.0]))
    q = uniform(q5, grid.shape)
    faces = uniform_q_faces(grid, q5)
    sig = rotational_stress(grid, pad(q, faces))
    assert np.max(np.abs(sig)) < 1e-13


def test_rotational_stress_equals_full_molecular_commutator():
    # the bulk molecular-field terms commute with Q, so Q H - H Q computed
    # with the full field must agree with the Laplacian-only shortcut
    rng = np.random.default_rng(11)
    grid = make_grid()
    X, Y, Z = grid.coords()
    q = np.zeros((5,) + grid.shape)
    q[0] = 0.1 * np.sin(np.pi * X) * np.sin(np.pi * Y)
    q[2] = 0.05 * np.sin(np.pi * Z)
    q[3] = -0.04 * np.sin(np.pi * X)
    faces = zero_q_faces(grid)
    c = 1.0 + 0.2 * np.sin(np.pi * X)
    h_full = molecular_field(grid, q, c, b=0.7, c_star=1.3, q_rules=faces)
    qm, hm = to_matrix(q), to_matrix(h_full)
    direct = qm @ hm - hm @ qm
    shortcut = rotational_stress(grid, pad(q, faces))
    assert np.max(np.abs(direct - unpack(shortcut, skew=True))) < 1e-12


def test_rotational_stress_antisymmetric():
    grid = make_grid()
    X, Y, Z = grid.coords()
    q = np.zeros((5,) + grid.shape)
    q[1] = 0.2 * np.sin(np.pi * X) * np.sin(2 * np.pi * Z)
    sig = unpack(rotational_stress(grid, pad(q, zero_q_faces(grid))),
                 skew=True)
    assert np.max(np.abs(sig + np.swapaxes(sig, -1, -2))) < 1e-15


def test_packed_rotational_stress_matches_matrix_route_on_fields():
    # the three closed-form entries of 2 skew(Q lap Q) against 3x3 matmuls
    # on a random 16^3 field with random wall values
    rng = np.random.default_rng(12)
    grid = make_grid(16)
    q = rng.normal(size=(5,) + grid.shape)
    faces = uniform_q_faces(grid, rng.normal(size=5))
    qm, lm = to_matrix(q), to_matrix(laplacian(grid, q, faces))
    want = qm @ lm - lm @ qm
    got = unpack(rotational_stress(grid, pad(q, faces)), skew=True)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-15


def test_viscous_stress_shear_oracle():
    # u = (y, 0, 0): D has D12 = D21 = 1/2, so S = mu D for the linear law
    grid = make_grid()
    law = newtonian_law(mu=2.0, lam=0.0)
    J = np.zeros((3, 3) + grid.shape)
    J[0, 1] = 1.0
    rho = np.ones(grid.shape)
    c = np.zeros(grid.shape)
    q = np.zeros((5,) + grid.shape)
    u = np.zeros((3,) + grid.shape)
    T = assemble_stresses(grid, rho, u, J, c, q, law, isentropic_law(1.0, 2.0),
                          zero_q_faces(grid), c_star=1.0, sigma_star=0.1)
    # u = 0, Q = 0 and c = 0 leave T = p I - S, with p(1) = 1
    viscous = np.eye(3) - matrices(T)
    D = 0.5 * (matrices(J) + np.swapaxes(matrices(J), -1, -2))
    assert np.max(np.abs(viscous - 2.0 * D)) < 1e-14


def test_rhs_rest_state_zero():
    grid = make_grid()
    basis = build_basis(grid, 2)
    law = newtonian_law(mu=1.0, lam=0.0)
    plaw = isentropic_law(1.0, 2.0)
    rho = np.ones(grid.shape)
    c = np.ones(grid.shape)
    q = np.zeros((5,) + grid.shape)
    J = np.zeros((3, 3) + grid.shape)
    u = np.zeros((3,) + grid.shape)
    T = assemble_stresses(grid, rho, u, J, c, q, law, plaw,
                          zero_q_faces(grid), c_star=1.0, sigma_star=0.1)
    grad_rho = np.zeros((3,) + grid.shape)
    rhs = galerkin_rhs(basis, T, J, eps=0.05, grad_rho=grad_rho)
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
    q = np.zeros((5,) + grid.shape)
    J = np.zeros((3, 3) + grid.shape)
    u = np.zeros((3,) + grid.shape)
    T = assemble_stresses(grid, rho, u, J, c, q, law, plaw,
                          zero_q_faces(grid), c_star=1.0, sigma_star=0.0)
    rhs = galerkin_rhs(basis, T, J, eps=0.05,
                       grad_rho=np.zeros((3,) + grid.shape))
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
    q = np.zeros((5,) + grid.shape)
    q[0] = 0.1 * np.sin(np.pi * Z)
    J = np.zeros((3, 3) + grid.shape)
    u = np.zeros((3,) + grid.shape)
    grad_rho = np.zeros((3,) + grid.shape)

    def rhs_for(sig):
        T = assemble_stresses(grid, rho, u, J, c, q, law, plaw,
                              zero_q_faces(grid), c_star=1.0, sigma_star=sig)
        return galerkin_rhs(basis, T, J, 0.05, grad_rho)

    r0, r1, r2 = rhs_for(0.0), rhs_for(0.1), rhs_for(0.2)
    assert np.max(np.abs((r2 - r1) - (r1 - r0))) < 1e-12


def _tabulated():
    d = np.linspace(0.0, 6.0, 121)
    t = np.linspace(-6.0, 6.0, 121)
    D, T = np.meshgrid(d, t, indexing="ij")
    return mollify(tabulated_law(d, t, 0.75 * D ** (4.0 / 3.0) + T * T / 6.0,
                                 mu0=1.0), 0.05)


def _wall_q(x, y, z):
    x, y, z = np.broadcast_arrays(x, y, z)
    return np.stack([0.2 * np.sin(x + y), 0.1 * np.cos(z), 0.05 * x * y,
                     -0.1 * z, 0.07 + 0.0 * x])


def _random_flux_inputs(seed=21):
    """Random fields on a non-cubic grid with non-zero wall Q_B."""
    grid = Grid(extents=(2.0, 1.0, 1.5), shape=(16, 12, 8))
    rng = np.random.default_rng(seed)
    rules = BoundaryFaces(grid, BoundaryData(BoundaryVelocity(grid),
                                             1.0, _wall_q)).q_rules
    return dict(grid=grid, rules=rules,
                rho=1.0 + 0.3 * rng.random(grid.shape),
                u=rng.normal(size=(3,) + grid.shape),
                J=0.5 * rng.normal(size=(3, 3) + grid.shape),
                c=1.0 + 0.5 * rng.random(grid.shape),
                q=0.3 * rng.normal(size=(5,) + grid.shape),
                grad_rho=rng.normal(size=(3,) + grid.shape))


def matrix_route_flux(grid, rho, u, Jm, c, q, law, plaw, rules, c_star,
                      sigma_star):
    """rho u (x) u + p I - S - tau - sigma_r - sigma_a on (..., 3, 3)
    matrices: einsum products, the matrix subgradient and to_matrix."""
    T = np.einsum("a...,b...->...ab", u, rho * u)
    T = T + pressure(plaw, rho)[..., None, None] * np.eye(3)
    T = T - subgradient(law, 0.5 * (Jm + np.swapaxes(Jm, -1, -2)))
    gq = gradient(grid, q, rules)
    G = np.stack([to_matrix(gq[i]) for i in range(3)], axis=-3)
    odot = np.einsum("...iab,...jab->...ij", G, G)
    qm = to_matrix(q)
    t2 = np.einsum("...ab,...ba->...", qm, qm)
    g_scal = 0.5 * np.einsum("...ii->...", odot) + 0.5 * t2 \
        + 0.25 * c_star * t2 * t2
    T = T - (g_scal[..., None, None] * np.eye(3) - odot)
    lm = to_matrix(laplacian(grid, q, rules))
    T = T - (qm @ lm - lm @ qm)
    return T - sigma_star * (c * c)[..., None, None] * qm


LAWS = [newtonian_law(1.3, 0.4), mollify(power_law(0.8), 0.05), _tabulated()]


@pytest.mark.parametrize("law", LAWS, ids=["newtonian", "power_law",
                                           "tabulated"])
def test_flux_and_rhs_match_matrix_route(law):
    f = _random_flux_inputs()
    grid, J = f["grid"], f["J"]
    plaw = isentropic_law(1.0, 2.0)
    want = matrix_route_flux(grid, f["rho"], f["u"], matrices(J), f["c"],
                             f["q"], law, plaw, f["rules"], 1.3, 0.7)
    T = assemble_stresses(grid, f["rho"], f["u"], J, f["c"], f["q"], law,
                          plaw, f["rules"], c_star=1.3, sigma_star=0.7)
    assert T.shape == (3, 3) + grid.shape
    assert np.max(np.abs(matrices(T) - want)) <= 1e-14 * np.max(np.abs(want))

    # the right side against mode-by-mode pairings with the matrix flux
    basis = build_basis(grid, 2)
    coupling = np.einsum("d...,ad...->a...", f["grad_rho"], J)
    oracle = np.empty(basis.n)
    for i in range(basis.n):
        e = np.zeros(basis.n)
        e[i] = 1.0
        gw = matrices(synthesize_jacobian(basis, e))
        oracle[i] = volume_integral(grid, np.sum(want * gw, axis=(-2, -1))) \
            - 0.05 * volume_integral(
                grid, np.sum(coupling * synthesize(basis, e), axis=0))
    rhs = galerkin_rhs(basis, T, J, eps=0.05, grad_rho=f["grad_rho"])
    assert np.max(np.abs(rhs - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_flux_builds_no_matrices(monkeypatch):
    # the flux and the right side stay component-first: with np.einsum and
    # tensors.to_matrix unavailable they still run
    f = _random_flux_inputs()
    grid = f["grid"]
    basis = build_basis(grid, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("einsum or to_matrix called by the flux")

    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(tensors, "to_matrix", forbidden)
    for law in LAWS[:2]:
        T = assemble_stresses(grid, f["rho"], f["u"], f["J"], f["c"], f["q"],
                              law, isentropic_law(1.0, 2.0), f["rules"],
                              c_star=1.3, sigma_star=0.7)
        galerkin_rhs(basis, T, f["J"], eps=0.05, grad_rho=f["grad_rho"])


def test_flux_allocates_one_tensor_field(monkeypatch):
    # tau, sigma_r and sigma_a stay in their packed encodings (6, 3 and 5
    # entries), so the flux T is the one (3, 3, ...) array the assembly
    # makes; the parent built four (tau, a zero-filled sigma_r, sigma_a, T)
    f = _random_flux_inputs()
    made = []
    for name in ("empty", "zeros", "ones", "full", "stack", "empty_like",
                 "zeros_like", "negative", "multiply"):
        def recording(*args, _make=getattr(np, name), **kwargs):
            out = _make(*args, **kwargs)
            made.append(np.shape(out))
            return out

        monkeypatch.setattr(np, name, recording)
    T = assemble_stresses(f["grid"], f["rho"], f["u"], f["J"], f["c"],
                          f["q"], LAWS[1], isentropic_law(1.0, 2.0),
                          f["rules"], c_star=1.3, sigma_star=0.7)
    monkeypatch.undo()
    assert [shape for shape in made if shape[:2] == (3, 3)] == [T.shape]


def test_step_momentum_identity_mass():
    grid = make_grid()
    basis = build_basis(grid, 2)
    rho = np.ones(grid.shape)
    v = np.zeros(basis.n)
    rhs = np.zeros(basis.n)
    rhs[0] = 1.0
    out = step_momentum(basis, v, v, rho, rhs, 1e-3,
                        np.zeros((basis.n, basis.n)))
    expected = np.zeros(basis.n)
    expected[0] = 1e-3
    assert np.max(np.abs(out - expected)) < 1e-10


def test_step_momentum_zero_rhs():
    grid = make_grid()
    basis = build_basis(grid, 2)
    rng = np.random.default_rng(0)
    rho = 1.0 + 0.2 * rng.random(grid.shape)
    v = rng.standard_normal(basis.n)
    out = step_momentum(basis, v, v, rho, np.zeros(basis.n), 1e-3,
                        viscous_stiffness(basis, 1.0, 0.5))
    assert np.max(np.abs(out - v)) == 0.0


def test_step_momentum_solves_a_viscous_balance_in_one_sweep():
    # rhs(v) = g - K v, the Newtonian part alone: the step from any iterate
    # lands on the fixed point M (v - v_old) = dt rhs(v), which the explicit
    # map (K = 0) only approaches sweep by sweep
    grid = make_grid()
    basis = build_basis(grid, 2)
    rng = np.random.default_rng(5)
    rho = 1.0 + 0.2 * rng.random(grid.shape)
    K = viscous_stiffness(basis, 1.0, 0.5)
    v_old, g = rng.standard_normal((2, basis.n))
    dt = 1e-3
    fixed = np.linalg.solve(dense_mass_matrix(basis, rho) + dt * K,
                            dense_mass_matrix(basis, rho) @ v_old + dt * g)
    v = rng.standard_normal(basis.n)
    out = step_momentum(basis, v_old, v, rho, g - K @ v, dt, K)
    assert np.max(np.abs(out - fixed)) <= 1e-12 * np.max(np.abs(fixed))
    plain = step_momentum(basis, v_old, v, rho, g - K @ v, dt, 0.0 * K)
    assert np.max(np.abs(plain - fixed)) > 1e-3 * np.max(np.abs(v - fixed))


def test_mass_solve_conditioning_error():
    grid = make_grid()
    basis = build_basis(grid, 2)
    rho = np.full(grid.shape, 1e-300)
    rho[0, 0, 0] = 1e300
    with pytest.raises(ConditioningError):
        mass_solve(basis, rho, np.ones(basis.n))


def dense_mass_matrix(basis, rho):
    """M_ij = int rho w_i . w_j by midpoint quadrature of the synthesized
    modes: the full 3 m^3 matrix, built without ``mass_matrix``."""
    W = np.stack([synthesize(basis, e) for e in np.eye(basis.n)])
    return basis.grid.cell_volume * np.einsum("iaxyz,jaxyz,xyz->ij", W, W, rho)


def test_mass_solve_matches_dense_solve():
    # non-cubic, non-unit grid; m = 2 needs at least 8 cells per axis
    grid = Grid(extents=(1.0, 1.5, 0.7), shape=(8, 10, 12))
    basis = build_basis(grid, 2)
    rng = np.random.default_rng(3)
    rho = 0.5 + rng.random(grid.shape)
    rhs = rng.standard_normal(basis.n)
    ref = np.linalg.solve(dense_mass_matrix(basis, rho), rhs)
    out = mass_solve(basis, rho, rhs)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _bad_density(kind, shape):
    rho = np.ones(shape)
    if kind == "nan":
        rho[1, 2, 3] = np.nan
    elif kind == "inf":
        rho[1, 2, 3] = np.inf
    elif kind == "negative_half":
        rho[shape[0] // 2:] = -1.0
    else:
        rho = -rho
    return rho


@pytest.mark.parametrize("kind, cause", [
    ("nan", "not finite"), ("inf", "not finite"),
    ("negative_half", "not positive definite"),
    ("all_negative", "not positive definite")])
def test_mass_solve_bad_density_is_a_conditioning_error(kind, cause, capfd):
    grid = make_grid()
    basis = build_basis(grid, 2)
    with pytest.raises(ConditioningError, match=cause) as info:
        mass_solve(basis, _bad_density(kind, grid.shape), np.ones(basis.n))
    # a numerical failure, not a configuration error (ValueError, exit 2)
    assert not isinstance(info.value, ValueError)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("kind, cause", [
    ("nan", "not finite"), ("inf", "not finite"),
    ("negative_half", "not positive definite"),
    ("all_negative", "not positive definite")])
def test_bad_density_is_a_conditioning_error_under_a_viscous_shift(kind,
                                                                  cause):
    # M(rho) + dt K can be SPD for a density that is not: a shift must not
    # hide the mass matrix's own checks
    grid = make_grid()
    basis = build_basis(grid, 2)
    shift = 1e3 * viscous_stiffness(basis, 1.0, 0.0)
    with pytest.raises(ConditioningError, match=cause):
        mass_solve(basis, _bad_density(kind, grid.shape), np.ones(basis.n),
                   np.ones(basis.n), shift)
