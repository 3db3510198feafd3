"""Uniform box grid, ghost-cell finite differences, quadrature, and the
inflow/outflow boundary decomposition.

Fields are plain numpy arrays with grid axes first and any component axes
trailing: scalars (Nx,Ny,Nz), vectors (Nx,Ny,Nz,3), packed Q fields
(Nx,Ny,Nz,5).  The exception is the velocity Jacobian and the stresses of
the momentum flux, which are component-first, (3,3,Nx,Ny,Nz), so each entry
is one contiguous field; ``pad``, ``gradient_padded`` and
``laplacian_padded`` take ``first=True`` for such arrays (grid axes last).
Velocity gradients follow the Jacobian convention J[a, d] = du_a/dx_d; the
skew part is packed as (l12, l13, l23) with l_ad = (J_ad - J_da)/2, so
plane shear u = (y, 0, 0) has l12 = +1/2.

Differential operators act on ghost-padded arrays; stencils are
axis-aligned, so padding fills faces only, and every wall condition is one
affine ghost rule ghost = a * w + b (``pad``: mirror, Dirichlet Q_B, Robin
density).  The six ghost rules of ``pad`` and the six faces of
``decompose_boundary`` and ``BoundaryFaces`` share one order, x-, x+, y-,
y+, z-, z+ (index 2 * axis + side), so per-face data and ghost rules line
up by index.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    extents: tuple          # (Lx, Ly, Lz)
    shape: tuple            # (Nx, Ny, Nz) cell counts

    def __post_init__(self):
        if len(self.extents) != 3 or len(self.shape) != 3:
            raise DomainError("grid needs three extents and three cell counts")
        if any(n < 4 for n in self.shape):
            raise DomainError("need at least 4 cells per axis")
        if any(not (l > 0) for l in self.extents):
            raise DomainError("extents must be positive")

    @cached_property
    def h(self):
        return tuple(l / n for l, n in zip(self.extents, self.shape))

    @property
    def cell_volume(self):
        hx, hy, hz = self.h
        return hx * hy * hz

    def centers(self, axis):
        n = self.shape[axis]
        h = self.h[axis]
        return (np.arange(n) + 0.5) * h

    def coords(self):
        return np.meshgrid(self.centers(0), self.centers(1), self.centers(2),
                           indexing="ij")


# ------------------------------------------------------------- ghost cells


def pad(f, rules=None, first=False):
    """Ghost-pad the three grid axes of f by one cell.

    Every ghost is affine in the adjacent interior value w, ghost = a*w + b.
    rules: None (mirror, a = 1, b = 0) or six (a, b) pairs in face order;
    a, b are scalars or face arrays (two tangential grid axes plus the
    trailing axes of f).  Uses: mirror for the no-flux concentration,
    (-1, 2 Q_B) for the Dirichlet order tensor (``BoundaryFaces.q_rules``),
    (alpha, (1 - alpha) rho_B) for the Robin density (``ContinuitySolver``).
    first=True: f is component-first, its grid axes last, and so are the
    face arrays of the rules (leading axes of f plus the two tangential
    grid axes).
    """
    f = np.asarray(f)
    if rules is not None and len(rules) != 6:
        raise DomainError("need one ghost rule per face (6)")
    lead = f.ndim - 3 if first else 0
    grid_axes = range(lead, lead + 3)
    P = np.zeros(tuple(n + 2 if ax in grid_axes else n
                       for ax, n in enumerate(f.shape)))
    _shift(P, 0, 0, lead)[...] = f
    for k in range(6):
        axis, side = divmod(k, 2)
        ghost = [slice(None)] * lead + [slice(1, -1)] * 3
        inner = list(ghost)
        ghost[lead + axis], inner[lead + axis] = (0, 1) if side == 0 else (-1, -2)
        w = P[tuple(inner)]
        P[tuple(ghost)] = w if rules is None else rules[k][0] * w + rules[k][1]
    return P


def _shift(P, axis, step, lead=0):
    """Interior block of the padded P moved by step cells along grid axis
    `axis`; the three grid axes of P start at axis `lead`."""
    idx = [slice(None)] * lead + [slice(1, -1)] * 3
    idx[lead + axis] = slice(1 + step, P.shape[lead + axis] - 1 + step)
    return P[tuple(idx)]


def gradient(grid, f, rules=None):
    """Central-difference gradient; returns (..., 3) with grid axes first."""
    return gradient_padded(grid, pad(f, rules))


def gradient_padded(grid, P, first=False):
    """Central-difference gradient from an already ghost-padded array.

    first=False: grid axes first, (nx+2, ny+2, nz+2, ...) -> (nx, ny, nz, ..., 3).
    first=True: component-first, grid axes last,
    (..., nx+2, ny+2, nz+2) -> (3, ..., nx, ny, nz), so every component of
    every derivative is one contiguous block.
    """
    lead = P.ndim - 3 if first else 0
    inner = _shift(P, 0, 0, lead).shape
    out = np.empty((3,) + inner if first else inner + (3,))
    for axis in range(3):
        d = out[axis] if first else out[..., axis]
        np.subtract(_shift(P, axis, 1, lead), _shift(P, axis, -1, lead), out=d)
        d /= 2.0 * grid.h[axis]
    return out


def laplacian(grid, f, rules=None):
    return laplacian_padded(grid, pad(f, rules))


def laplacian_padded(grid, P, first=False):
    """Laplacian from an already ghost-padded array; first=True takes a
    component-first array, grid axes last, as ``gradient_padded`` does."""
    lead = P.ndim - 3 if first else 0
    twice = 2.0 * _shift(P, 0, 0, lead)
    out = np.zeros(twice.shape)
    term = np.empty(twice.shape)
    for axis in range(3):
        np.subtract(_shift(P, axis, 1, lead), twice, out=term)
        term += _shift(P, axis, -1, lead)
        term /= grid.h[axis] ** 2
        out += term
    return out


def advect_upwind(grid, P, u):
    """u . grad(f) with first-order upwinding; P is the ghost-padded field."""
    out = np.zeros(P[1:-1, 1:-1, 1:-1].shape)
    for axis in range(3):
        ua = u[..., axis].reshape(u.shape[:3] + (1,) * (P.ndim - 3))
        # difference quotients on the n + 1 faces along the axis: cell i
        # has its backward one on face i and its forward one on face i + 1
        idx = [slice(1, -1)] * 3
        idx[axis] = slice(None)
        d = np.diff(P[tuple(idx)], axis=axis) / grid.h[axis]
        bwd, fwd = [slice(None)] * 3, [slice(None)] * 3
        bwd[axis], fwd[axis] = slice(None, -1), slice(1, None)
        out += ua * np.where(ua > 0.0, d[tuple(bwd)], d[tuple(fwd)])
    return out


# -------------------------------------------------------------- quadrature


def volume_integral(grid, f):
    """Midpoint rule over cell centers; f may carry trailing component axes."""
    f = np.asarray(f)
    return grid.cell_volume * f.sum(axis=(0, 1, 2))


# ---------------------------------------------------- boundary description


_AXIS_NAMES = ("x", "y", "z")


@dataclass
class Face:
    axis: int
    side: int               # 0 = low wall, 1 = high wall
    normal: np.ndarray      # outward unit normal
    area_element: float     # tangential cell area
    xyz: tuple              # coordinate arrays on face centroids (2-D each)
    ub: np.ndarray          # boundary velocity at centroids (..., 3)
    ubn: np.ndarray         # u_B . n  (2-D)
    inflow: np.ndarray      # boolean mask, u_B . n < 0

    @property
    def name(self):
        return f"{_AXIS_NAMES[self.axis]}{'-' if self.side == 0 else '+'}"

    @property
    def wall(self):
        """Index of the wall-adjacent cell layer: ``f[face.wall]``."""
        idx = [slice(None)] * 3
        idx[self.axis] = 0 if self.side == 0 else -1
        return tuple(idx)


def decompose_boundary(grid, u_b):
    """Six faces, each split into inflow (u_B.n < 0) and outflow (>= 0).

    Faces come in ``pad`` rule order x-, x+, y-, y+, z-, z+: face k has
    axis k // 2 and side k % 2.
    """
    faces = []
    for axis in range(3):
        t1, t2 = [a for a in range(3) if a != axis]
        c1, c2 = grid.centers(t1), grid.centers(t2)
        C1, C2 = np.meshgrid(c1, c2, indexing="ij")
        for side in range(2):
            coord = 0.0 if side == 0 else grid.extents[axis]
            xyz = [None, None, None]
            xyz[axis] = np.full_like(C1, coord)
            xyz[t1], xyz[t2] = C1, C2
            normal = np.zeros(3)
            normal[axis] = -1.0 if side == 0 else 1.0
            ub = u_b(xyz[0], xyz[1], xyz[2])
            ubn = ub @ normal
            faces.append(Face(axis=axis, side=side, normal=normal,
                              area_element=grid.h[t1] * grid.h[t2],
                              xyz=tuple(xyz), ub=ub, ubn=ubn,
                              inflow=ubn < 0.0))
    return faces


class BoundaryFaces:
    """The six walls of a run with the boundary data sampled on them.

    Built once per stepper from (grid, bdata).  Every per-face list is in
    ``pad`` rule order: entry k belongs to ``faces[k]``, and the ghost layer
    that rule k of ``pad`` writes lies next to ``f[faces[k].wall]``.

      faces     the six Face records (axis k // 2, side k % 2)
      rho_b     inflow density rho_B on each face; DomainError unless it
                is positive on every face centroid
      q_b       wall order tensor Q_B on each face, packed (..., 5)
      q_rules   ghost rules (-1, 2 Q_B), ghost = 2 Q_B - w, imposing Q_B
    """

    def __init__(self, grid, bdata):
        self.faces = decompose_boundary(grid, bdata.u_b)
        self.rho_b = [bdata.rho_b(*face.xyz) for face in self.faces]
        for face, rho_b in zip(self.faces, self.rho_b):
            if not np.all(rho_b > 0.0):
                raise DomainError("inflow density boundary data must be "
                                  f"positive on every face (axis {face.axis}, "
                                  f"side {face.side})")
        self.q_b = [bdata.q_b(*face.xyz) for face in self.faces]
        self.q_rules = tuple((-1.0, 2.0 * q_b) for q_b in self.q_b)


# ------------------------------------------------------ boundary-data catalog


class BoundaryVelocity:
    """Closed-form boundary velocity from a small catalog, C1 on the box.

    kinds:
      zero
      constant  params: vector (3,)
      shear     params: rate s    -> u = (s*y, 0, 0)
      channel   params: peak U    -> u = (U * 16 y (Ly-y) z (Lz-z) / (Ly^2 Lz^2), 0, 0)
    """

    def __init__(self, kind, grid, vector=None, rate=0.0, peak=0.0):
        self.kind = kind
        self.grid = grid
        self.vector = None if vector is None else np.asarray(vector, dtype=float)
        self.rate = float(rate)
        self.peak = float(peak)
        if kind not in ("zero", "constant", "shear", "channel"):
            raise DomainError(f"unknown boundary velocity kind {kind!r}")
        if kind == "constant" and self.vector is None:
            raise DomainError("constant boundary velocity needs a vector")

    def __call__(self, x, y, z):
        x, y, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                      np.asarray(z, float))
        out = np.zeros(x.shape + (3,), dtype=float)
        if self.kind == "constant":
            out[...] = self.vector
        elif self.kind == "shear":
            out[..., 0] = self.rate * y
        elif self.kind == "channel":
            _, ly, lz = self.grid.extents
            out[..., 0] = self.peak * 16.0 * y * (ly - y) * z * (lz - z) / (ly * ly * lz * lz)
        return out

    def jacobian(self, x, y, z):
        """Exact J[..., a, d] = du_a/dx_d of the catalog expression."""
        x, y, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                      np.asarray(z, float))
        J = np.zeros(x.shape + (3, 3), dtype=float)
        if self.kind == "shear":
            J[..., 0, 1] = self.rate
        elif self.kind == "channel":
            _, ly, lz = self.grid.extents
            s = self.peak * 16.0 / (ly * ly * lz * lz)
            J[..., 0, 1] = s * (ly - 2.0 * y) * z * (lz - z)
            J[..., 0, 2] = s * y * (ly - y) * (lz - 2.0 * z)
        return J


class BoundaryData:
    """Velocity, inflow density, and director boundary data as one bundle."""

    def __init__(self, u_b, rho_b, q_b):
        self.u_b = u_b
        if not callable(rho_b):
            # callable data is checked on every face by BoundaryFaces
            if float(rho_b) <= 0.0:
                raise DomainError("inflow density boundary data must be positive")
            rho_b = _constant_scalar(float(rho_b))
        self.rho_b = rho_b
        self.q_b = q_b if callable(q_b) else _constant_q(np.asarray(q_b, dtype=float))


def _constant_scalar(v):
    def f(x, y, z):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, v)
    return f


def _constant_q(q5):
    def f(x, y, z):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (5,), dtype=float)
        out[...] = q5
        return out
    return f
