"""Finite-dimensional velocity space: L2-orthonormal sine modes.

Modes are tensor products sin(k pi x/Lx) sin(l pi y/Ly) sin(m pi z/Lz) e_a
with wavenumbers 1..m per axis and unit vectors e_a, n = 3 m^3 in total.
Midpoint quadrature at cell centers is *exactly* orthogonal for these modes
(discrete sine transform identity) as long as wavenumbers stay below the cell
count, so the Gram check is a pure floating-point identity.

Coefficient layout: reshape(m, m, m, 3) in C order; the first mode is
(k, l, m, a) = (1, 1, 1, e_x).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class VelocityBasis:
    grid: object
    m: int
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("need at least one mode per axis")
        if any(n < 4 * self.m for n in self.grid.shape):
            raise ConfigError(
                f"grid {self.grid.shape} under-resolves m={self.m} modes; need N >= 4m")
        lx, ly, lz = self.grid.extents
        self.norm = math.sqrt(8.0 / (lx * ly * lz))
        ks = np.arange(1, self.m + 1)
        for axis in range(3):
            x = self.grid.centers(axis)
            L = self.grid.extents[axis]
            phase = np.pi * np.outer(ks, x) / L            # (m, N_axis)
            self._cache[f"S{axis}"] = np.sin(phase)
            self._cache[f"C{axis}"] = (np.pi * ks / L)[:, None] * np.cos(phase)

    @property
    def n(self):
        return 3 * self.m ** 3

    def factors(self, axis, kind="sin"):
        return self._cache[f"{'S' if kind == 'sin' else 'C'}{axis}"]


def build_basis(grid, m):
    return VelocityBasis(grid=grid, m=m)


def _coeff_grid(basis, v):
    v = np.asarray(v, dtype=float)
    if v.shape != (basis.n,):
        raise ConfigError(f"expected {basis.n} coefficients, got {v.shape}")
    return v.reshape(basis.m, basis.m, basis.m, 3)


def _contract(basis, V, Fx, Fy, Fz):
    """out[i,j,c,a] = norm * sum_klm V[k,l,m,a] Fx[k,i] Fy[l,j] Fz[m,c].

    Sum factorisation: one axis at a time, each a (batched) matrix product,
    so the cost is O(m N^3) rather than O(m^3 N^3).
    """
    m = basis.m
    A = Fx.T @ (basis.norm * V).reshape(m, 3 * m * m)        # [i, (l, m, a)]
    A = Fy.T @ A.reshape(-1, m, 3 * m)                        # [i, j, (m, a)]
    return Fz.T @ A.reshape(A.shape[0], A.shape[1], m, 3)     # [i, j, c, a]


def synthesize(basis, v):
    """Grid samples of sum_i v_i w_i at cell centers."""
    V = _coeff_grid(basis, v)
    return _contract(basis, V, *(basis.factors(a) for a in range(3)))


def project(basis, f):
    """L2 inner products <f, w_i> by midpoint quadrature."""
    f = np.asarray(f, dtype=float)
    Sx, Sy, Sz = (basis.factors(a) for a in range(3))
    A = np.einsum("ijca,ki->kjca", f, Sx)
    A = np.einsum("kjca,lj->klca", A, Sy)
    V = np.einsum("klca,mc->klma", A, Sz)
    return (basis.grid.cell_volume * basis.norm) * V.reshape(basis.n)


def synthesize_jacobian(basis, v):
    """Analytic J[..., a, d] = d(mode part)_a / dx_d on grid nodes."""
    V = _coeff_grid(basis, v)
    Sx, Sy, Sz = (basis.factors(a) for a in range(3))
    Cx, Cy, Cz = (basis.factors(a, "cos") for a in range(3))
    out = np.empty(basis.grid.shape + (3, 3), dtype=float)
    for d, F in enumerate([(Cx, Sy, Sz), (Sx, Cy, Sz), (Sx, Sy, Cz)]):
        out[..., :, d] = _contract(basis, V, *F)
    return out


def project_tensor_divergence(basis, T):
    """g_i = int T : grad(w_i) for a tensor field T[..., a, d]."""
    T = np.asarray(T, dtype=float)
    Sx, Sy, Sz = (basis.factors(a) for a in range(3))
    Cx, Cy, Cz = (basis.factors(a, "cos") for a in range(3))
    G = np.zeros((basis.m, basis.m, basis.m, 3), dtype=float)
    for d, (Fx, Fy, Fz) in enumerate([(Cx, Sy, Sz), (Sx, Cy, Sz), (Sx, Sy, Cz)]):
        A = np.einsum("ijca,ki->kjca", T[..., :, d], Fx)
        A = np.einsum("kjca,lj->klca", A, Fy)
        G += np.einsum("klca,mc->klma", A, Fz)
    return (basis.grid.cell_volume * basis.norm) * G.reshape(basis.n)


def mass_matrix(basis, rho):
    """R[i, j] = int rho w_i^x . w_j^x per scalar block (shared by e_a).

    Returned shape (m^3, m^3); the full matrix is block-diagonal with this
    block repeated for each vector component.
    """
    rho = np.asarray(rho, dtype=float)
    Sx, Sy, Sz = (basis.factors(a) for a in range(3))
    Px = np.einsum("ki,Ki->kKi", Sx, Sx)
    Py = np.einsum("lj,Lj->lLj", Sy, Sy)
    Pz = np.einsum("mc,Mc->mMc", Sz, Sz)
    A = np.einsum("ijc,kKi->kKjc", rho, Px)
    A = np.einsum("kKjc,lLj->kKlLc", A, Py)
    R = np.einsum("kKlLc,mMc->klmKLM", A, Pz)
    scale = basis.grid.cell_volume * basis.norm ** 2
    m3 = basis.m ** 3
    return scale * R.reshape(m3, m3)


def evaluate_at(basis, v, x, y, z):
    """Mode-part velocity on the tensor mesh x * y * z; exactly zero on the walls.

    x, y, z form an open mesh in the ``np.ix_`` layout: shapes (nx,1,1),
    (1,ny,1) and (1,1,nz).  The result has shape (nx, ny, nz, 3).  One m x n
    sine table per axis is contracted one axis at a time (sum factorisation),
    as in ``synthesize``; points at 0 or L along an axis get an exact zero.
    Raises ConfigError for any other layout.
    """
    V = _coeff_grid(basis, v)
    pts = [np.asarray(c, dtype=float) for c in (x, y, z)]
    for axis, c in enumerate(pts):
        if c.ndim != 3 or any(c.shape[d] != 1 for d in range(3) if d != axis):
            raise ConfigError("evaluate_at expects an open mesh np.ix_(x, y, z); "
                              f"got shapes {[p.shape for p in pts]}")
    ks = np.arange(1, basis.m + 1)
    factors = []
    for axis in range(3):
        t = pts[axis].reshape(-1) / basis.grid.extents[axis]
        s = np.sin(np.pi * np.outer(ks, t))
        s[:, (t == 0.0) | (t == 1.0)] = 0.0
        factors.append(s)
    return _contract(basis, V, *factors)
