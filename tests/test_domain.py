"""Grid, ghost-cell operators, quadrature, and boundary decomposition."""

import numpy as np
import pytest

from nematoflow import domain as dm


def unit_grid(n=16):
    return dm.Grid(extents=(1.0, 1.0, 1.0), shape=(n, n, n))


def exact_ghost_rules(grid, fn, trail=0):
    """Ghost values from a closed form evaluated at ghost-cell centers."""
    rules = []
    for axis in range(3):
        t1, t2 = [a for a in range(3) if a != axis]
        c1, c2 = grid.centers(t1), grid.centers(t2)
        C1, C2 = np.meshgrid(c1, c2, indexing="ij")
        for side in range(2):
            coord = -0.5 * grid.h[axis] if side == 0 else grid.extents[axis] + 0.5 * grid.h[axis]
            xyz = [None, None, None]
            xyz[axis] = np.full_like(C1, coord)
            xyz[t1], xyz[t2] = C1, C2
            rules.append(("given", fn(*xyz)))
    return tuple(rules)


def test_grid_validation():
    with pytest.raises(dm.DomainError):
        dm.Grid(extents=(1.0, 1.0, 1.0), shape=(3, 8, 8))
    with pytest.raises(dm.DomainError):
        dm.Grid(extents=(0.0, 1.0, 1.0), shape=(8, 8, 8))
    g = dm.Grid(extents=(2.0, 1.0, 1.0), shape=(8, 4, 4))
    assert g.h == (0.25, 0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.25 ** 3)


def test_gradient_exact_on_linear():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    f = X.copy()
    grad = dm.gradient(g, f, exact_ghost_rules(g, lambda x, y, z: x))
    assert np.max(np.abs(grad[..., 0] - 1.0)) < 1e-12
    assert np.max(np.abs(grad[..., 1])) < 1e-12
    assert np.max(np.abs(grad[..., 2])) < 1e-12


def test_laplacian_exact_on_quadratic():
    g = unit_grid(16)
    X, _, _ = g.coords()
    f = X ** 2
    lap = dm.laplacian(g, f, exact_ghost_rules(g, lambda x, y, z: x ** 2))
    assert np.max(np.abs(lap - 2.0)) < 1e-11


def test_shear_divergence_and_skew():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    u = np.zeros(g.shape + (3,))
    u[..., 0] = Y
    rules = exact_ghost_rules(g, lambda x, y, z: y)
    div = dm.divergence(g, u, "mirror")
    assert np.max(np.abs(div)) < 1e-12     # u1 depends on y only
    J = np.empty(g.shape + (3, 3))
    for a in range(3):
        r = rules if a == 0 else "mirror"
        J[..., a, :] = dm.gradient(g, u[..., a], r)
    D = 0.5 * (J + np.swapaxes(J, -1, -2))
    lam12 = 0.5 * (J[..., 0, 1] - J[..., 1, 0])
    assert np.allclose(D[..., 0, 1], 0.5, atol=1e-12)
    assert np.allclose(lam12, 0.5, atol=1e-12)


def test_sym_skew_gradient_rigid_rotation():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    u = np.stack([-Y, X, np.zeros_like(X)], axis=-1)
    # interior columns only: mirror ghosts pollute the boundary layer
    D, lam = dm.sym_skew_gradient(g, u, "mirror")
    inner = (slice(1, -1),) * 3
    assert np.max(np.abs(D[inner])) < 1e-12
    assert np.allclose(lam[inner + (0,)], -1.0, atol=1e-12)
    assert np.max(np.abs(lam[inner + (1,)])) < 1e-12
    assert np.max(np.abs(lam[inner + (2,)])) < 1e-12


def test_sym_skew_gradient_dilation():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    u = np.stack([X, Y, Z], axis=-1)
    D, lam = dm.sym_skew_gradient(g, u, "mirror")
    inner = (slice(1, -1),) * 3
    assert np.allclose(D[inner], np.eye(3), atol=1e-12)
    assert np.max(np.abs(lam[inner])) < 1e-12


def test_dirichlet_ghost_recovers_face_value():
    g = unit_grid(4)
    f = np.ones(g.shape)
    B = np.full((4, 4), 3.0)
    rules = [("mirror",)] * 6
    rules[0] = ("dirichlet", B)
    P = dm.pad(f, tuple(rules))
    assert np.allclose(0.5 * (P[0, 1:-1, 1:-1] + P[1, 1:-1, 1:-1]), 3.0)


def test_volume_integral_frozen():
    g = unit_grid(16)
    X, _, _ = g.coords()
    assert dm.volume_integral(g, np.ones(g.shape)) == pytest.approx(1.0, abs=1e-14)
    assert dm.volume_integral(g, X) == pytest.approx(0.5, abs=1e-3)


def test_surface_integral_frozen():
    g = unit_grid(8)
    faces = dm.decompose_boundary(g, dm.BoundaryVelocity("zero", g))
    assert dm.surface_integral(faces, lambda x, y, z: np.ones_like(x)) \
        == pytest.approx(6.0, abs=1e-14)


def test_decompose_boundary_constant_flow():
    g = unit_grid(8)
    ub = dm.BoundaryVelocity("constant", g, vector=(1.0, 0.0, 0.0))
    faces = dm.decompose_boundary(g, ub)
    by_name = {f.name: f for f in faces}
    assert by_name["x-"].inflow.all()
    assert not by_name["x+"].inflow.any()
    for name in ("y-", "y+", "z-", "z+"):
        assert not by_name[name].inflow.any()   # ties go to outflow
    # mirrored flow swaps the x faces
    faces_m = dm.decompose_boundary(g, dm.BoundaryVelocity("constant", g, vector=(-1.0, 0.0, 0.0)))
    by_name_m = {f.name: f for f in faces_m}
    assert by_name_m["x+"].inflow.all()
    assert not by_name_m["x-"].inflow.any()


def test_decompose_boundary_zero_velocity_all_outflow():
    g = unit_grid(8)
    faces = dm.decompose_boundary(g, dm.BoundaryVelocity("zero", g))
    assert all(not f.inflow.any() for f in faces)


def test_decompose_boundary_shear():
    g = unit_grid(8)
    faces = dm.decompose_boundary(g, dm.BoundaryVelocity("shear", g, rate=1.0))
    by_name = {f.name: f for f in faces}
    assert by_name["x-"].inflow.all()          # u.n = -y < 0
    assert not by_name["x+"].inflow.any()
    assert not by_name["y+"].inflow.any()      # tangential walls


def test_channel_profile_shape():
    g = dm.Grid(extents=(2.0, 1.0, 1.0), shape=(8, 8, 8))
    ub = dm.BoundaryVelocity("channel", g, peak=0.25)
    mid = ub(np.array(0.0), np.array(0.5), np.array(0.5))
    assert mid[0] == pytest.approx(0.25)
    wall = ub(np.array(0.0), np.array(0.0), np.array(0.5))
    assert wall[0] == 0.0
    # exact jacobian against finite differences
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y, z = rng.uniform(0.1, 0.9, size=3)
        J = ub.jacobian(np.array(x), np.array(y), np.array(z))
        eps = 1e-6
        for d, pt in enumerate([x, y, z]):
            args_p = [x, y, z]
            args_m = [x, y, z]
            args_p[d] += eps
            args_m[d] -= eps
            fd = (ub(*map(np.asarray, args_p)) - ub(*map(np.asarray, args_m))) / (2 * eps)
            assert np.allclose(J[:, d], fd, atol=1e-8)


def test_boundary_data_validates_density():
    g = unit_grid(8)
    ub = dm.BoundaryVelocity("zero", g)
    with pytest.raises(dm.DomainError):
        dm.BoundaryData(ub, rho_b=0.0, q_b=np.zeros(5))
    bd = dm.BoundaryData(ub, rho_b=1.0, q_b=np.zeros(5))
    vals = bd.rho_b(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    assert vals.shape == (2, 2)
    qv = bd.q_b(np.zeros(3), np.zeros(3), np.zeros(3))
    assert qv.shape == (3, 5)


def test_boundary_faces_share_pad_rule_order():
    # rule k of pad must write the ghost layer next to f[faces[k].wall]: a
    # 'given' ghost equal to that layer reproduces the mirror padding exactly
    g = dm.Grid(extents=(1.0, 2.0, 1.5), shape=(4, 5, 6))
    f = np.random.default_rng(3).standard_normal(g.shape + (2,))
    bdata = dm.BoundaryData(dm.BoundaryVelocity("zero", g), 1.0, np.zeros(5))
    faces = dm.BoundaryFaces(g, bdata).faces
    mirror = dm.pad(f, "mirror")
    for k, face in enumerate(faces):
        assert (face.axis, face.side) == (k // 2, k % 2)
        rules = [("mirror",)] * 6
        rules[k] = ("given", f[face.wall])
        assert np.array_equal(dm.pad(f, tuple(rules)), mirror)


@pytest.mark.parametrize("k", range(6))
def test_boundary_faces_reject_nonpositive_density_on_one_face(k):
    g = unit_grid(4)
    axis, side = k // 2, k % 2

    def rho_b(x, y, z):
        xyz = np.broadcast_arrays(x, y, z)
        on_face = xyz[axis] == (0.0 if side == 0 else g.extents[axis])
        inner = [xyz[a] > 0.0 for a in range(3) if a != axis]
        # zero on face k's centroids only; BoundaryData's origin probe is 1
        return np.where(on_face & inner[0] & inner[1], 0.0, 1.0)

    bdata = dm.BoundaryData(dm.BoundaryVelocity("zero", g), rho_b,
                            np.zeros(5))
    with pytest.raises(dm.DomainError,
                       match=f"every face \\(axis {axis}, side {side}\\)"):
        dm.BoundaryFaces(g, bdata)


def test_upwind_advection_exact_on_linear():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    f = 2.0 * X
    P = dm.pad(f, exact_ghost_rules(g, lambda x, y, z: 2.0 * x))
    for sgn in (+1.0, -1.0):
        u = np.zeros(g.shape + (3,))
        u[..., 0] = sgn * 0.7
        adv = dm.advect_upwind(g, P, u)
        assert np.allclose(adv, sgn * 1.4, atol=1e-12)
        advc = dm.advect_central(g, P, u)
        assert np.allclose(advc, sgn * 1.4, atol=1e-12)


def _smooth_f(x, y, z):
    return np.exp(x) * np.cos(np.pi * y) + 0.3 * z ** 3


def _smooth_v(x, y, z):
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
    v = np.zeros(shape + (3,))
    v[..., 0] = np.sin(np.pi * y) + z * z
    v[..., 1] = np.cos(np.pi * z) * x
    v[..., 2] = x * y * (1.0 + 0.5 * z)
    return v


def ibp_residual(n):
    g = unit_grid(n)
    X, Y, Z = g.coords()
    f = _smooth_f(X, Y, Z)
    v = _smooth_v(X, Y, Z)
    rules_f = exact_ghost_rules(g, _smooth_f)
    div_v = np.zeros(g.shape)
    for a in range(3):
        rules_a = exact_ghost_rules(g, lambda x, y, z, a=a: _smooth_v(x, y, z)[..., a])
        div_v += dm.gradient(g, v[..., a], rules_a)[..., a]
    grad_f = dm.gradient(g, f, rules_f)
    bulk = dm.volume_integral(g, f * div_v + np.einsum("...i,...i->...", v, grad_f))
    faces = dm.decompose_boundary(g, dm.BoundaryVelocity("zero", g))
    surf = dm.surface_integral(
        faces, [(_smooth_f(*fc.xyz) * (_smooth_v(*fc.xyz) @ fc.normal)) for fc in faces])
    return abs(bulk - surf)


def test_integration_by_parts_second_order():
    r1 = ibp_residual(8)
    r2 = ibp_residual(16)
    assert r1 / r2 >= 3.0


def test_operator_refinement_order():
    errs = []
    for n in (8, 16):
        g = unit_grid(n)
        X, Y, Z = g.coords()
        f = _smooth_f(X, Y, Z)
        grad = dm.gradient(g, f, exact_ghost_rules(g, _smooth_f))
        exact = np.stack([np.exp(X) * np.cos(np.pi * Y),
                          -np.pi * np.exp(X) * np.sin(np.pi * Y),
                          0.9 * Z ** 2], axis=-1)
        errs.append(np.max(np.abs(grad - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9
