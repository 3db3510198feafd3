"""Grid, ghost-cell operators, quadrature, and boundary decomposition."""

import numpy as np
import pytest

from nematoflow import domain as dm
from nematoflow.errors import ConfigError


def unit_grid(n=16):
    return dm.Grid(extents=(1.0, 1.0, 1.0), shape=(n, n, n))


def exact_ghost_rules(grid, fn):
    """Ghost values from a closed form evaluated at ghost-cell centers, as
    affine rules (0, G)."""
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
            rules.append((0.0, fn(*xyz)))
    return tuple(rules)


def test_grid_validation():
    with pytest.raises(ConfigError):
        dm.Grid(extents=(1.0, 1.0, 1.0), shape=(3, 8, 8))
    with pytest.raises(ConfigError):
        dm.Grid(extents=(0.0, 1.0, 1.0), shape=(8, 8, 8))
    g = dm.Grid(extents=(2.0, 1.0, 1.0), shape=(8, 4, 4))
    assert g.h == (0.25, 0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.25 ** 3)


def test_gradient_exact_on_linear():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    f = X.copy()
    grad = dm.gradient(g, f, exact_ghost_rules(g, lambda x, y, z: x))
    assert np.max(np.abs(grad[0] - 1.0)) < 1e-12
    assert np.max(np.abs(grad[1])) < 1e-12
    assert np.max(np.abs(grad[2])) < 1e-12


def test_laplacian_exact_on_quadratic():
    g = unit_grid(16)
    X, _, _ = g.coords()
    f = X ** 2
    lap = dm.laplacian(g, f, exact_ghost_rules(g, lambda x, y, z: x ** 2))
    assert np.max(np.abs(lap - 2.0)) < 1e-11


def test_shear_divergence_and_skew():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    u = np.zeros((3,) + g.shape)
    u[0] = Y
    rules = exact_ghost_rules(g, lambda x, y, z: y)
    div = sum(dm.gradient(g, u[a])[a] for a in range(3))
    assert np.max(np.abs(div)) < 1e-12     # u1 depends on y only
    J = np.empty((3, 3) + g.shape)
    for a in range(3):
        r = rules if a == 0 else None
        J[a] = dm.gradient(g, u[a], r)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))
    lam12 = 0.5 * (J[0, 1] - J[1, 0])
    assert np.allclose(D[0, 1], 0.5, atol=1e-12)
    assert np.allclose(lam12, 0.5, atol=1e-12)


def test_dirichlet_ghost_recovers_face_value():
    g = unit_grid(4)
    f = np.ones(g.shape)
    B = np.full((4, 4), 3.0)
    rules = [(1.0, 0.0)] * 6
    rules[0] = (-1.0, 2.0 * B)
    P = dm.pad(f, tuple(rules))
    assert np.allclose(0.5 * (P[0, 1:-1, 1:-1] + P[1, 1:-1, 1:-1]), 3.0)


def test_volume_integral_frozen():
    g = unit_grid(16)
    X, _, _ = g.coords()
    assert dm.volume_integral(g, np.ones(g.shape)) == pytest.approx(1.0, abs=1e-14)
    assert dm.volume_integral(g, X) == pytest.approx(0.5, abs=1e-3)


def _faces(g, ub):
    """The six Face records of boundary velocity ub on grid g."""
    return dm.BoundaryFaces(g, dm.BoundaryData(ub, 1.0, np.zeros(5))).faces


def _by_name(faces):
    """Faces keyed "x-", "x+", ..., "z+" by their axis and side."""
    return {"xyz"[f.axis] + "-+"[f.side]: f for f in faces}


def test_decompose_boundary_constant_flow():
    g = unit_grid(8)
    ub = dm.BoundaryVelocity(g, vector=(1.0, 0.0, 0.0))
    by_name = _by_name(_faces(g, ub))
    assert by_name["x-"].inflow.all()
    assert not by_name["x+"].inflow.any()
    for name in ("y-", "y+", "z-", "z+"):
        assert not by_name[name].inflow.any()   # ties go to outflow
    # mirrored flow swaps the x faces
    by_name_m = _by_name(
        _faces(g, dm.BoundaryVelocity(g, vector=(-1.0, 0.0, 0.0))))
    assert by_name_m["x+"].inflow.all()
    assert not by_name_m["x-"].inflow.any()


def test_decompose_boundary_zero_velocity_all_outflow():
    g = unit_grid(8)
    faces = _faces(g, dm.BoundaryVelocity(g))
    assert all(not f.inflow.any() for f in faces)


def test_decompose_boundary_shear():
    g = unit_grid(8)
    by_name = _by_name(_faces(g, dm.BoundaryVelocity(g, rate=1.0)))
    assert by_name["x-"].inflow.all()          # u.n = -y < 0
    assert not by_name["x+"].inflow.any()
    assert not by_name["y+"].inflow.any()      # tangential walls


class _Stretch:
    """u_B = (x, 0, 0), whose normal part varies along the x normal."""

    def __call__(self, x, y, z):
        x, y, z = np.broadcast_arrays(x, y, z)
        return np.stack([1.0 * x, 0.0 * y, 0.0 * z])

    def jacobian(self, x, y, z):
        J = np.zeros((3, 3) + np.broadcast(x, y, z).shape)
        J[0, 0] = 1.0
        return J


def test_wall_normal_velocity_is_the_wall_plane_of_the_face_values():
    # 49 * (1/49) is not 1: the last face plane must be the extent itself,
    # where the x+ wall lies, for u_B to be sampled once per wall
    g = dm.Grid((1.0, 1.0, 1.0), (49, 4, 4))
    assert g.face_meshes[0][0][-1] == 1.0
    bf = dm.BoundaryFaces(g, dm.BoundaryData(_Stretch(), 1.0, np.zeros(5)))
    for face in bf.faces:
        plane = bf.u_faces[face.axis][dm.slab(face.axis, (0, -1)[face.side])]
        assert np.array_equal(face.ubn, plane if face.side else -plane)
    assert np.all(bf.faces[1].ubn == 1.0)


def test_channel_profile_shape():
    g = dm.Grid(extents=(2.0, 1.0, 1.0), shape=(8, 8, 8))
    ub = dm.BoundaryVelocity(g, peak=0.25)
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


def test_boundary_velocity_terms_add_up():
    g = dm.Grid(extents=(1.0, 2.0, 1.5), shape=(4, 5, 6))
    vector, rate, peak = (0.2, -0.1, 0.05), 0.7, 0.3
    ub = dm.BoundaryVelocity(g, vector=vector, rate=rate, peak=peak)
    parts = [dm.BoundaryVelocity(g, vector=vector),
             dm.BoundaryVelocity(g, rate=rate), dm.BoundaryVelocity(g, peak=peak)]
    X, Y, Z = g.coords()
    assert np.allclose(ub(X, Y, Z), sum(p(X, Y, Z) for p in parts),
                       rtol=0.0, atol=1e-15)
    assert np.allclose(ub.jacobian(X, Y, Z),
                       sum(p.jacobian(X, Y, Z) for p in parts),
                       rtol=0.0, atol=1e-15)
    assert np.all(ub(X, Y, Z)[1:] == np.reshape(vector[1:], (2, 1, 1, 1)))
    eps = 1e-6
    for d in range(3):
        hi = [c + eps * (a == d) for a, c in enumerate((X, Y, Z))]
        lo = [c - eps * (a == d) for a, c in enumerate((X, Y, Z))]
        fd = (ub(*hi) - ub(*lo)) / (2 * eps)
        assert np.allclose(ub.jacobian(X, Y, Z)[:, d], fd, atol=1e-8)


def test_boundary_data_validates_density():
    g = unit_grid(8)
    ub = dm.BoundaryVelocity(g)
    with pytest.raises(ConfigError):
        dm.BoundaryData(ub, rho_b=0.0, q_b=np.zeros(5))
    bd = dm.BoundaryData(ub, rho_b=1.0, q_b=np.zeros(5))
    vals = bd.rho_b(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    assert vals.shape == (2, 2)
    qv = bd.q_b(np.zeros(3), np.zeros(3), np.zeros(3))
    assert qv.shape == (5, 3)


def test_boundary_faces_share_pad_rule_order():
    # rule k of pad must write the ghost layer next to f[faces[k].wall]: a
    # ghost (0, w) given as that layer reproduces the mirror padding exactly
    g = dm.Grid(extents=(1.0, 2.0, 1.5), shape=(4, 5, 6))
    f = np.random.default_rng(3).standard_normal((2,) + g.shape)
    bdata = dm.BoundaryData(dm.BoundaryVelocity(g), 1.0, np.zeros(5))
    faces = dm.BoundaryFaces(g, bdata).faces
    mirror = dm.pad(f)
    for k, face in enumerate(faces):
        assert (face.axis, face.side) == (k // 2, k % 2)
        rules = [(1.0, 0.0)] * 6
        rules[k] = (0.0, f[face.wall])
        assert np.array_equal(dm.pad(f, tuple(rules)), mirror)


def test_face_planes_keep_their_own_component_alone():
    # each u_faces entry owns its memory, so the (3, plane) u_B it was read
    # from is not kept alive; the values are that component's
    g = dm.Grid(extents=(1.0, 2.0, 1.5), shape=(4, 5, 6))
    ub = dm.BoundaryVelocity(g, vector=(0.0, 0.3, 0.0), rate=0.5, peak=0.25)
    bf = dm.BoundaryFaces(g, dm.BoundaryData(ub, 1.0, np.zeros(5)))
    for axis, plane in enumerate(bf.u_faces):
        assert plane.base is None and plane.flags.c_contiguous
        assert np.array_equal(plane, ub(*g.face_meshes[axis])[axis])
    assert np.any(bf.u_faces[1]) and not np.any(bf.u_faces[2])


@pytest.mark.parametrize("k", range(6))
def test_boundary_faces_reject_nonpositive_density_on_one_face(k):
    g = unit_grid(4)
    axis, side = k // 2, k % 2

    def rho_b(x, y, z):
        xyz = np.broadcast_arrays(x, y, z)
        on_face = xyz[axis] == (0.0 if side == 0 else g.extents[axis])
        inner = [xyz[a] > 0.0 for a in range(3) if a != axis]
        # zero on face k's centroids only
        return np.where(on_face & inner[0] & inner[1], 0.0, 1.0)

    bdata = dm.BoundaryData(dm.BoundaryVelocity(g), rho_b,
                            np.zeros(5))
    with pytest.raises(ConfigError,
                       match=f"every face \\(axis {axis}, side {side}\\)"):
        dm.BoundaryFaces(g, bdata)


def test_callable_density_checked_on_faces_not_at_the_corner():
    g = unit_grid(4)
    ub = dm.BoundaryVelocity(g)
    # negative at the corner (0, 0, 0), smallest face-centroid value 0.24
    bdata = dm.BoundaryData(ub, lambda x, y, z: x + y + z - 0.01, np.zeros(5))
    faces = dm.BoundaryFaces(g, bdata)
    assert min(float(r.min()) for r in faces.rho_b) == pytest.approx(0.24)
    bdata = dm.BoundaryData(ub, lambda x, y, z: x + y + z - 0.3, np.zeros(5))
    with pytest.raises(ConfigError):
        dm.BoundaryFaces(g, bdata)


def test_upwind_advection_exact_on_linear():
    g = unit_grid(8)
    X, Y, Z = g.coords()
    f = 2.0 * X
    P = dm.pad(f, exact_ghost_rules(g, lambda x, y, z: 2.0 * x))
    for sgn in (+1.0, -1.0):
        u = np.zeros((3,) + g.shape)
        u[0] = sgn * 0.7
        adv = dm.advect_upwind(g, dm.upwind_differences(g, P), u)
        assert np.allclose(adv, sgn * 1.4, atol=1e-12)


def _advect_upwind_in_one_pass(grid, P, u):
    """Reference: upwind u . grad f with the face quotients of the padded
    P built inside the advection, as before they were hoisted."""
    out = np.zeros(P[..., 1:-1, 1:-1, 1:-1].shape)
    for axis in range(3):
        d = np.diff(P[dm.slab(axis, slice(None), slice(1, -1))],
                    axis=axis - 3) / grid.h[axis]
        bwd = d[dm.slab(axis, slice(None, -1))]
        fwd = d[dm.slab(axis, slice(1, None))]
        out += u[axis] * np.where(u[axis] > 0.0, bwd, fwd)
    return out


def test_hoisted_upwind_advection_is_bit_identical():
    # differences built once, then only the upwind select: the same
    # operations in the same order as the one-pass formula, scalar and
    # packed, on a non-cubic grid with non-unit extents and wall rules
    g = dm.Grid(extents=(2.0, 1.0, 1.5), shape=(7, 5, 6))
    rng = np.random.default_rng(21)
    u = rng.standard_normal((3,) + g.shape)
    u[:, 2] = 0.0          # u = 0 picks the forward difference
    for lead in ((), (5,)):
        rules = []
        for axis in range(3):
            tangential = tuple(g.shape[a] for a in range(3) if a != axis)
            rules += [(-1.0, rng.standard_normal(lead + tangential))
                      for _ in range(2)]
        P = dm.pad(rng.standard_normal(lead + g.shape), tuple(rules))
        diffs = dm.upwind_differences(g, P)
        assert [d.shape[-3:] for d in diffs] == [(8, 5, 6), (7, 6, 6),
                                                 (7, 5, 7)]
        assert np.array_equal(dm.advect_upwind(g, diffs, u),
                              _advect_upwind_in_one_pass(g, P, u))


def _smooth_f(x, y, z):
    return np.exp(x) * np.cos(np.pi * y) + 0.3 * z ** 3


def _smooth_v(x, y, z):
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))
    v = np.zeros((3,) + shape)
    v[0] = np.sin(np.pi * y) + z * z
    v[1] = np.cos(np.pi * z) * x
    v[2] = x * y * (1.0 + 0.5 * z)
    return v


def ibp_residual(n):
    g = unit_grid(n)
    X, Y, Z = g.coords()
    f = _smooth_f(X, Y, Z)
    v = _smooth_v(X, Y, Z)
    rules_f = exact_ghost_rules(g, _smooth_f)
    div_v = np.zeros(g.shape)
    for a in range(3):
        rules_a = exact_ghost_rules(g, lambda x, y, z, a=a: _smooth_v(x, y, z)[a])
        div_v += dm.gradient(g, v[a], rules_a)[a]
    grad_f = dm.gradient(g, f, rules_f)
    bulk = dm.volume_integral(g, f * div_v + np.einsum("i...,i...->...", v, grad_f))
    faces = _faces(g, dm.BoundaryVelocity(g))
    surf = 0.0
    for fc in faces:
        # outward normal -e_axis on the low wall, +e_axis on the high one
        sign = 1.0 if fc.side else -1.0
        vals = _smooth_f(*fc.xyz) * sign * _smooth_v(*fc.xyz)[fc.axis]
        surf += fc.area_element * vals.sum()
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
                          0.9 * Z ** 2])
        errs.append(np.max(np.abs(grad - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_stencils_on_packed_field_match_componentwise_calls():
    # one layout, grid axes last: on a (5, nx, ny, nz) field every stencil
    # equals the stacked calls on its scalar components, bit for bit
    g = dm.Grid(extents=(2.0, 1.0, 1.5), shape=(7, 5, 6))
    rng = np.random.default_rng(8)
    q = rng.standard_normal((5,) + g.shape)
    u = rng.standard_normal((3,) + g.shape)
    face_rules = []
    for axis in range(3):
        tangential = tuple(g.shape[a] for a in range(3) if a != axis)
        for _ in range(2):
            face_rules.append((rng.standard_normal(tangential),
                               rng.standard_normal((5,) + tangential)))
    for rules in (None, tuple(face_rules)):
        P = dm.pad(q, rules)
        parts = [dm.pad(q[k], None if rules is None
                        else tuple((a, b[k]) for a, b in rules))
                 for k in range(5)]
        assert np.array_equal(P, np.stack(parts))
        assert np.array_equal(dm.gradient_padded(g, P), np.stack(
            [dm.gradient_padded(g, p) for p in parts], axis=1))
        assert np.array_equal(dm.laplacian_padded(g, P), np.stack(
            [dm.laplacian_padded(g, p) for p in parts]))
        assert np.array_equal(
            dm.advect_upwind(g, dm.upwind_differences(g, P), u),
            np.stack([dm.advect_upwind(g, dm.upwind_differences(g, p), u)
                      for p in parts]))
