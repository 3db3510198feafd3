"""Sine-mode velocity space: orthonormality, round trips, analytic gradients.

The quadrature oracle used throughout: build mode fields directly from the
defining formula with numpy and integrate by the midpoint rule, bypassing the
library's sum-factorised transforms.
"""

import numpy as np
import pytest

from nematoflow import domain as dm
from nematoflow import galerkin as gk
from nematoflow.errors import ConfigError
from nematoflow.rheology import newtonian_law, subgradient


def unit_grid(n=16, extents=(1.0, 1.0, 1.0)):
    return dm.Grid(extents=extents, shape=(n, n, n))


def noncubic_grid():
    """Unequal cell counts and extents: a swapped axis cannot hide here."""
    return dm.Grid(extents=(2.0, 1.0, 1.5), shape=(16, 12, 8))


def mode_field(grid, k, l, m, alpha):
    """Direct formula for one basis mode, written out independently."""
    lx, ly, lz = grid.extents
    X, Y, Z = grid.coords()
    norm = np.sqrt(8.0 / (lx * ly * lz))
    w = norm * np.sin(k * np.pi * X / lx) * np.sin(l * np.pi * Y / ly) \
        * np.sin(m * np.pi * Z / lz)
    out = np.zeros((3,) + grid.shape)
    out[alpha] = w
    return out


def all_mode_indices(m):
    return [(k, l, mm, a)
            for k in range(1, m + 1)
            for l in range(1, m + 1)
            for mm in range(1, m + 1)
            for a in range(3)]


def test_build_basis_counts_and_validation():
    g = unit_grid(8)
    basis = gk.build_basis(g, 1)
    assert basis.n == 3
    assert gk.build_basis(g, 2).n == 24
    with pytest.raises(ConfigError):
        gk.build_basis(g, 3)        # 8 < 4*3
    with pytest.raises(ConfigError):
        gk.build_basis(g, 0)


@pytest.mark.parametrize("m,n_cells", [(1, 8), (2, 16)])
def test_gram_matrix_identity(m, n_cells):
    g = unit_grid(n_cells)
    modes = [mode_field(g, *idx) for idx in all_mode_indices(m)]
    n = len(modes)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = dm.volume_integral(
                g, np.einsum("a...,a...->...", modes[i], modes[j]))
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_synthesize_zero_gives_boundary_velocity():
    g = unit_grid(8)
    basis = gk.build_basis(g, 2)
    ub = dm.BoundaryVelocity("channel", g, peak=0.25)
    X, Y, Z = g.coords()
    u = gk.synthesize(basis, np.zeros(basis.n)) + ub(X, Y, Z)
    assert np.array_equal(u, ub(X, Y, Z))


def test_synthesize_unit_coefficient_is_first_mode():
    g = unit_grid(8)
    basis = gk.build_basis(g, 2)
    v = np.zeros(basis.n)
    v[0] = 1.0
    u = gk.synthesize(basis, v)
    assert np.allclose(u, mode_field(g, 1, 1, 1, 0), atol=1e-14)


def test_projection_roundtrip():
    g = unit_grid(16, extents=(2.0, 1.0, 1.5))
    basis = gk.build_basis(g, 2)
    rng = np.random.default_rng(0)
    v = rng.normal(size=basis.n)
    back = gk.project(basis, gk.synthesize(basis, v))
    assert np.max(np.abs(back - v)) < 1e-8


def test_parseval_on_resolved_content():
    g = unit_grid(16)
    basis = gk.build_basis(g, 3)
    rng = np.random.default_rng(1)
    v = rng.normal(size=basis.n)
    u = gk.synthesize(basis, v)
    norm2 = dm.volume_integral(g, np.einsum("a...,a...->...", u, u))
    assert norm2 == pytest.approx(np.dot(v, v), abs=1e-8)


def test_boundary_trace_exact_zero():
    g = unit_grid(8)
    basis = gk.build_basis(g, 2)
    rng = np.random.default_rng(2)
    v = rng.normal(size=basis.n)
    for axis in range(3):
        for wall in (0.0, g.extents[axis]):
            coords = [g.centers(a) for a in range(3)]
            coords[axis] = np.array([wall])
            for comp in range(3):
                vals = gk.evaluate_at(basis, v, *np.ix_(*coords), comp)
                assert vals.shape == tuple(len(c) for c in coords)
                assert np.all(vals == 0.0)


def test_mass_matrix_identity_for_unit_density():
    g = unit_grid(16)
    basis = gk.build_basis(g, 2)
    R = gk.mass_matrix(basis, np.ones(g.shape))
    assert np.max(np.abs(R - np.eye(8))) < 1e-12


@pytest.mark.parametrize("g", [unit_grid(8), noncubic_grid()],
                         ids=["cube8", "noncubic"])
def test_mass_matrix_against_brute_quadrature(g):
    basis = gk.build_basis(g, 2)
    X, Y, Z = g.coords()
    rho = 1.0 + 0.3 * np.sin(np.pi * X) * np.cos(np.pi * Y) * Z
    R = gk.mass_matrix(basis, rho)
    idx_scalar = [(k, l, mm) for k in (1, 2) for l in (1, 2) for mm in (1, 2)]
    for i, (k1, l1, m1) in enumerate(idx_scalar):
        for j, (k2, l2, m2) in enumerate(idx_scalar):
            wi = mode_field(g, k1, l1, m1, 0)[0]
            wj = mode_field(g, k2, l2, m2, 0)[0]
            want = dm.volume_integral(g, rho * wi * wj)
            assert R[i, j] == pytest.approx(want, abs=1e-13)


def test_jacobian_matches_closed_form():
    g = unit_grid(16, extents=(2.0, 1.0, 1.0))
    basis = gk.build_basis(g, 2)
    v = np.zeros(basis.n)
    # coefficient for (k,l,m,a) = (2,1,1,e_y): flat index ((1*2+0)*2+0)*3+1
    v[((1 * 2 + 0) * 2 + 0) * 3 + 1] = 1.3
    J = gk.synthesize_jacobian(basis, v)
    lx, ly, lz = g.extents
    X, Y, Z = g.coords()
    norm = np.sqrt(8.0 / (lx * ly * lz))
    sx = np.sin(2 * np.pi * X / lx)
    cx = (2 * np.pi / lx) * np.cos(2 * np.pi * X / lx)
    sy, cy = np.sin(np.pi * Y / ly), (np.pi / ly) * np.cos(np.pi * Y / ly)
    sz, cz = np.sin(np.pi * Z / lz), (np.pi / lz) * np.cos(np.pi * Z / lz)
    assert np.allclose(J[1, 0], 1.3 * norm * cx * sy * sz, atol=1e-13)
    assert np.allclose(J[1, 1], 1.3 * norm * sx * cy * sz, atol=1e-13)
    assert np.allclose(J[1, 2], 1.3 * norm * sx * sy * cz, atol=1e-13)
    assert np.max(np.abs(J[0])) == 0.0
    assert np.max(np.abs(J[2])) == 0.0


@pytest.mark.parametrize("g,m", [(unit_grid(8), 1), (noncubic_grid(), 2)],
                         ids=["cube8-m1", "noncubic-m2"])
def test_tensor_divergence_projection_against_brute_force(g, m):
    basis = gk.build_basis(g, m)
    rng = np.random.default_rng(3)
    T = rng.normal(size=(3, 3) + g.shape)
    got = gk.project_tensor_divergence(basis, T)
    lx, ly, lz = g.extents
    X, Y, Z = g.coords()
    norm = np.sqrt(8.0 / (lx * ly * lz))
    for i, (k, l, mm, a) in enumerate(all_mode_indices(m)):
        sx, cx = np.sin(k * np.pi * X / lx), (k * np.pi / lx) * np.cos(k * np.pi * X / lx)
        sy, cy = np.sin(l * np.pi * Y / ly), (l * np.pi / ly) * np.cos(l * np.pi * Y / ly)
        sz, cz = np.sin(mm * np.pi * Z / lz), (mm * np.pi / lz) * np.cos(mm * np.pi * Z / lz)
        gradw = np.stack([cx * sy * sz, sx * cy * sz, sx * sy * cz]) * norm
        want = dm.volume_integral(g, np.einsum("d...,d...->...", T[a], gradw))
        assert got[i] == pytest.approx(want, abs=1e-13)


def test_adjoint_identities_on_noncubic_grid():
    """project and project_tensor_divergence are the quadrature adjoints of
    synthesize and synthesize_jacobian, axis by axis."""
    g = noncubic_grid()
    basis = gk.build_basis(g, 2)
    rng = np.random.default_rng(5)
    v = rng.normal(size=basis.n)
    f = rng.normal(size=(3,) + g.shape)
    T = rng.normal(size=(3, 3) + g.shape)
    vol = g.cell_volume
    lhs = v @ gk.project(basis, f)
    rhs = vol * np.sum(gk.synthesize(basis, v) * f)
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)
    lhs = v @ gk.project_tensor_divergence(basis, T)
    rhs = vol * np.sum(gk.synthesize_jacobian(basis, v) * T)
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


@pytest.mark.parametrize("lam", [0.0, 0.5, -1.3 / 3.0 + 0.01])
def test_viscous_stiffness_is_the_projected_newtonian_stress(lam):
    """Column j of K is project_tensor_divergence(S) of mode j, S the
    Newtonian law's stress of its synthesized Jacobian; K is symmetric
    positive definite down to lam = -mu/3 + 0.01."""
    g = dm.Grid(extents=(1.0, 1.5, 0.7), shape=(8, 10, 12))
    basis = gk.build_basis(g, 2)
    law = newtonian_law(mu=1.3, lam=lam)
    K = gk.viscous_stiffness(basis, law.mu, law.lam)
    cols = []
    for e in np.eye(basis.n):
        J = np.moveaxis(gk.synthesize_jacobian(basis, e), (0, 1), (-2, -1))
        S = subgradient(law, 0.5 * (J + np.swapaxes(J, -1, -2)))
        cols.append(gk.project_tensor_divergence(
            basis, np.moveaxis(S, (-2, -1), (0, 1))))
    ref = np.stack(cols, axis=1)
    assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(K - K.T)) <= 1e-15 * np.max(np.abs(K))
    assert np.linalg.eigvalsh(K)[0] > 0.0


def test_transforms_use_no_einsum(monkeypatch):
    """Every transform runs through the sum-factorised contraction."""
    g = noncubic_grid()
    basis = gk.build_basis(g, 2)
    rng = np.random.default_rng(6)
    v = rng.normal(size=basis.n)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.einsum called by a Galerkin transform")

    monkeypatch.setattr(np, "einsum", forbidden)
    gk.synthesize(basis, v)
    gk.synthesize_jacobian(basis, v)
    gk.evaluate_at(basis, v, *np.ix_(*(g.centers(a) for a in range(3))), 0)
    gk.project(basis, rng.normal(size=(3,) + g.shape))
    gk.project_tensor_divergence(basis, rng.normal(size=(3, 3) + g.shape))
    gk.mass_matrix(basis, 1.0 + rng.random(g.shape))


def test_evaluate_at_matches_grid_synthesis():
    g = unit_grid(8, extents=(1.0, 2.0, 1.0))
    basis = gk.build_basis(g, 2)
    rng = np.random.default_rng(4)
    v = rng.normal(size=basis.n)
    u_grid = gk.synthesize(basis, v)
    mesh = np.ix_(*(g.centers(a) for a in range(3)))
    u_pts = np.stack([gk.evaluate_at(basis, v, *mesh, comp)
                      for comp in range(3)])
    assert u_pts.shape == u_grid.shape
    assert np.allclose(u_pts, u_grid, atol=1e-12)


def test_evaluate_at_rejects_dense_mesh():
    g = unit_grid(8)
    basis = gk.build_basis(g, 2)
    v = np.zeros(basis.n)
    with pytest.raises(ConfigError, match="open mesh"):
        gk.evaluate_at(basis, v, *g.coords(), 0)
    face = dm.BoundaryFaces(g, dm.BoundaryData(
        dm.BoundaryVelocity("zero", g), 1.0, np.zeros(5))).faces[0]
    with pytest.raises(ConfigError, match="open mesh"):
        gk.evaluate_at(basis, v, *face.xyz, 0)
    # one coefficient vector only: a (k, n) batch is refused
    with pytest.raises(ConfigError, match="coefficients"):
        gk.evaluate_at(basis, np.stack([v, v]), *g.face_meshes[0], 0)


def test_evaluate_at_builds_each_mesh_table_once(monkeypatch):
    # the face meshes of a grid are evaluated on every sweep: their sine
    # tables are built on the first call and shared, read-only, after it
    g = noncubic_grid()
    basis = gk.build_basis(g, 2)
    v = np.random.default_rng(8).normal(size=basis.n)
    first = [gk.evaluate_at(basis, v, *g.face_meshes[axis], axis)
             for axis in range(3)]
    other = gk.build_basis(g, 2)
    sin = np.sin

    def counted(*args, **kwargs):
        calls.append(1)
        return sin(*args, **kwargs)

    calls = []
    monkeypatch.setattr(np, "sin", counted)
    again = [gk.evaluate_at(basis, v, *g.face_meshes[axis], axis)
             for axis in range(3)]
    assert calls == []
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    # a basis of its own builds its own tables
    gk.evaluate_at(other, v, *g.face_meshes[0], 0)
    assert len(calls) == 3
