"""Finite-dimensional velocity space: L2-orthonormal sine modes.

Modes are tensor products sin(k pi x/Lx) sin(l pi y/Ly) sin(m pi z/Lz) e_a
with wavenumbers 1..m per axis and unit vectors e_a, n = 3 m^3 in total.
Midpoint quadrature at cell centers is *exactly* orthogonal for these modes
(discrete sine transform identity) as long as wavenumbers stay below the cell
count, so the Gram check is a pure floating-point identity.

Every transform is one ``domain.contract`` over per-axis tables, one axis
at a time, at cost O(m N^3): synthesis uses the m x N sine tables,
projection their transposes, derivatives the cosine table on one axis, and
the mass matrix the pair tables S[k, i] S[K, i].  Fields have their grid
axes last, as everywhere in the package but ``State.q``: a velocity is
(3, nx, ny, nz), the Jacobian J[a, d] and a tensor field T[a, d] are
(3, 3, nx, ny, nz), and ``contract`` treats the component axis as a batch,
so each component is one contiguous block.

Coefficient layout: reshape(m, m, m, 3) in C order; the first mode is
(k, l, m, a) = (1, 1, 1, e_x).  It is the order of snapshot coefficients and
of the mass solve's right-hand sides; ``_coeff_grid`` and ``_pairings`` are its
two transposes to and from the component-first (3, m, m, m) grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import contract
from .errors import ConfigError


@dataclass
class VelocityBasis:
    grid: object
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("need at least one mode per axis")
        if any(n < 4 * self.m for n in self.grid.shape):
            raise ConfigError(
                f"grid {self.grid.shape} under-resolves m={self.m} modes; need N >= 4m")
        lx, ly, lz = self.grid.extents
        self.norm = math.sqrt(8.0 / (lx * ly * lz))
        ks = np.arange(1, self.m + 1)
        sin, cos = [], []
        for axis in range(3):
            x = self.grid.centers(axis)
            L = self.grid.extents[axis]
            phase = np.pi * np.outer(ks, x) / L            # (m, N_axis)
            sin.append(np.sin(phase))
            cos.append((np.pi * ks / L)[:, None] * np.cos(phase))
        self.sin = tuple(sin)
        # grad[d]: the tables of d/dx_d, the cosine table on axis d
        self.grad = tuple(tuple(cos[a] if a == d else sin[a] for a in range(3))
                          for d in range(3))
        # evaluate_at's sine tables by (axis, coordinate bytes)
        self._tables = {}

    @property
    def n(self):
        return 3 * self.m ** 3


def build_basis(grid, m):
    return VelocityBasis(grid=grid, m=m)


def _coeffs(basis, v):
    """Coefficient vector v as V[k, l, m, a] in its own C order."""
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.n,):
        raise ConfigError(f"expected {basis.n} coefficients, got {v.shape}")
    return v.reshape((basis.m,) * 3 + (3,))


def _coeff_grid(basis, v):
    """Coefficient vector v as the component-first grid V[a, k, l, m]."""
    return _coeffs(basis, v).transpose(3, 0, 1, 2)


def _pairings(basis, V):
    """Quadrature pairings V[a, k, l, m] as a coefficient vector."""
    scale = basis.grid.cell_volume * basis.norm
    return scale * V.transpose(1, 2, 3, 0).reshape(basis.n)


def synthesize(basis, v):
    """Grid samples of sum_i v_i w_i at cell centers, shape (3, nx, ny, nz)."""
    return contract(basis.norm * _coeff_grid(basis, v), *basis.sin)


def project(basis, f):
    """L2 inner products <f, w_i> by midpoint quadrature; f is a
    (3, nx, ny, nz) vector field."""
    return _pairings(basis, contract(np.asarray(f, dtype=float),
                                     *(S.T for S in basis.sin)))


def synthesize_jacobian(basis, v):
    """Analytic J[a, d] = d(mode part)_a / dx_d on grid nodes, shape
    (3, 3, nx, ny, nz)."""
    V = basis.norm * _coeff_grid(basis, v)
    return np.stack([contract(V, *F) for F in basis.grad], axis=1)


def project_tensor_divergence(basis, T):
    """g_i = int T : grad(w_i) for a tensor field T[a, d] of shape
    (3, 3, nx, ny, nz): entry a pairs with velocity component a, entry d
    with the derivative d/dx_d."""
    T = np.asarray(T, dtype=float)
    return _pairings(basis, sum(contract(T[:, d], *(F.T for F in tables))
                                for d, tables in enumerate(basis.grad)))


def mass_matrix(basis, rho):
    """R[i, j] = int rho w_i^x . w_j^x per scalar block (shared by e_a).

    Returned shape (m^3, m^3); the full matrix is block-diagonal with this
    block repeated for each vector component.
    """
    m = basis.m
    pairs = ((S[:, None, :] * S[None, :, :]).reshape(m * m, -1)
             for S in basis.sin)                    # P[kK, i] = S[k,i] S[K,i]
    R = contract(np.asarray(rho, dtype=float), *(P.T for P in pairs))
    R = R.reshape((m,) * 6).transpose(0, 2, 4, 1, 3, 5)   # [k,l,m,K,L,M]
    scale = basis.grid.cell_volume * basis.norm ** 2
    return scale * R.reshape(m ** 3, m ** 3)


def viscous_stiffness(basis, mu, lam):
    """K (n, n) in the coefficient layout with -K v =
    project_tensor_divergence(-S) for S = mu D + lam tr(D) I of the modes
    of v (D the symmetric part of ``synthesize_jacobian``).

    With G(dj, di)[i, j] = int d_di phi_i d_dj phi_j by midpoint
    quadrature, a Kronecker product of the per-axis pairings of the tables
    ``grad[di]`` and ``grad[dj]``, the block of components (a, b) is
    K_ab = mu/2 (delta_ab sum_d G(d, d) + G(a, b)) + lam G(b, a).
    Symmetric, and positive definite for mu > 0 and lam + mu/3 >= 0.
    """
    def G(dj, di):
        A, B, C = (T @ U.T for T, U in zip(basis.grad[di], basis.grad[dj]))
        return np.kron(np.kron(A, B), C)

    lap = sum(G(d, d) for d in range(3))
    m3 = basis.m ** 3
    K = np.empty((m3, 3, m3, 3))
    for a in range(3):
        for b in range(3):
            K[:, a, :, b] = 0.5 * mu * ((a == b) * lap + G(a, b)) \
                + lam * G(b, a)
    scale = basis.grid.cell_volume * basis.norm ** 2
    return scale * K.reshape(basis.n, basis.n)


def _mesh_table(basis, axis, c):
    """sin(k pi c / L) along axis for the coordinates c, (m, len(c)), with
    an exact zero at 0 and L.  Built once per basis and coordinate vector
    and shared, so read-only."""
    key = (axis, c.tobytes())
    table = basis._tables.get(key)
    if table is None:
        t = c / basis.grid.extents[axis]
        table = np.sin(np.pi * np.outer(np.arange(1, basis.m + 1), t))
        table[:, (t == 0.0) | (t == 1.0)] = 0.0
        table.flags.writeable = False
        basis._tables[key] = table
    return table


def evaluate_at(basis, v, x, y, z, component):
    """Component `component` of the mode-part velocity on the tensor mesh
    x * y * z; exactly zero on the walls.

    x, y, z form an open mesh in the ``np.ix_`` layout: shapes (nx,1,1),
    (1,ny,1) and (1,1,nz).  The result has shape (nx, ny, nz); only that
    component's coefficients are contracted.  One m x n sine table per
    axis is contracted one axis at a time (sum factorisation), as in
    ``synthesize``; the tables of a mesh are built on its first call.
    Raises ConfigError for any other layout, and for any v but one vector
    of n coefficients.
    """
    V = _coeffs(basis, v)[..., component]
    pts = [np.asarray(c, dtype=float) for c in (x, y, z)]
    for axis, c in enumerate(pts):
        if c.ndim != 3 or any(c.shape[d] != 1 for d in range(3) if d != axis):
            raise ConfigError("evaluate_at expects an open mesh np.ix_(x, y, z); "
                              f"got shapes {[p.shape for p in pts]}")
    return contract(basis.norm * V, *(_mesh_table(basis, axis, c.reshape(-1))
                                      for axis, c in enumerate(pts)))
