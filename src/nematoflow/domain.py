"""Uniform box grid, ghost-cell finite differences, quadrature, and the
inflow/outflow boundary decomposition.

Fields are plain numpy arrays whose grid axes are the last three axes, with
any component axes in front: scalars (Nx,Ny,Nz), vectors (3,Nx,Ny,Nz),
packed Q fields (5,Nx,Ny,Nz), velocity Jacobians and stresses
(3,3,Nx,Ny,Nz).  Each component is then one contiguous field, and every
stencil here works on any number of leading axes.  The one exception is
``State.q``, kept as (Nx,Ny,Nz,5) for the benchmark's reference digests
and converted by ``simulation.q_components`` and ``simulation.q_exchange``.
Velocity gradients follow the Jacobian convention J[a, d] = du_a/dx_d; the
skew part is packed as (l12, l13, l23) with l_ad = (J_ad - J_da)/2, so
plane shear u = (y, 0, 0) has l12 = +1/2.

Differential operators act on ghost-padded arrays; stencils are
axis-aligned, so padding fills faces only, and every wall condition is one
affine ghost rule ghost = a * w + b (``pad``: mirror, Dirichlet Q_B, Robin
density).  The six ghost rules of ``pad`` and the six faces of
``decompose_boundary`` and ``BoundaryFaces`` share one order, x-, x+, y-,
y+, z-, z+ (index 2 * axis + side), so per-face data and ghost rules line
up by index.  ``BoundaryFaces`` alone samples the boundary data: rho_B, Q_B
and its normal derivative on the walls, u_B . e_axis on the face planes
(the first and last planes are the walls, and each face's u_B . n is read
from them), u_B and its Jacobian at the cell centres.  u_B is one closed
form, ``BoundaryVelocity``: a constant plus a shear and a channel term.
A grid, ghost rules or boundary data that cannot describe a run raise
``errors.ConfigError``.
``upwind_differences`` depend on the field alone, so a coupled step builds
them once and ``advect_upwind`` only selects.
``contract``, one table per grid axis, serves galerkin and nematic alike.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Grid:
    extents: tuple          # (Lx, Ly, Lz)
    shape: tuple            # (Nx, Ny, Nz) cell counts

    def __post_init__(self):
        if len(self.extents) != 3 or len(self.shape) != 3:
            raise ConfigError("grid needs three extents and three cell counts")
        if any(n < 4 for n in self.shape):
            raise ConfigError("need at least 4 cells per axis")
        if any(not (l > 0) for l in self.extents):
            raise ConfigError("extents must be positive")

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

    @cached_property
    def face_meshes(self):
        """Per axis, the open mesh (np.ix_) of the N+1 face planes normal to
        it; the planes are i * h, the last exactly at the extent (the wall).
        Built once per grid and shared, so read-only."""
        meshes = []
        for axis in range(3):
            coords = [self.centers(a) for a in range(3)]
            coords[axis] = np.linspace(0.0, self.extents[axis],
                                       self.shape[axis] + 1)
            for c in coords:
                c.flags.writeable = False
            meshes.append(np.ix_(*coords))
        return tuple(meshes)


# ------------------------------------------------------------- ghost cells


def slab(axis, index, rest=slice(None)):
    """Index of the last three (grid) axes: `index` on grid axis `axis`,
    `rest` on the other two; leading component axes are kept whole."""
    idx = [Ellipsis, rest, rest, rest]
    idx[1 + axis] = index
    return tuple(idx)


def pad(f, rules=None):
    """Ghost-pad the last three (grid) axes of f by one cell.

    Every ghost is affine in the adjacent interior value w, ghost = a*w + b.
    rules: None (mirror, a = 1, b = 0) or six (a, b) pairs in face order;
    a, b are scalars or face arrays (the leading axes of f, then the two
    tangential grid axes).  Uses: mirror for the no-flux concentration,
    (-1, 2 Q_B) for the Dirichlet order tensor (``BoundaryFaces.q_rules``),
    (alpha, (1 - alpha) rho_B) for the Robin density (``ContinuitySolver``).
    """
    f = np.asarray(f)
    if rules is not None and len(rules) != 6:
        raise ConfigError("need one ghost rule per face (6)")
    P = np.zeros(f.shape[:-3] + tuple(n + 2 for n in f.shape[-3:]))
    _shift(P, 0, 0)[...] = f
    for k in range(6):
        axis, side = divmod(k, 2)
        w = P[slab(axis, (1, -2)[side], slice(1, -1))]
        P[slab(axis, (0, -1)[side], slice(1, -1))] = \
            w if rules is None else rules[k][0] * w + rules[k][1]
    return P


def _shift(P, axis, step):
    """Interior block of the padded P moved by step cells along grid axis
    `axis`."""
    n = P.shape[axis - 3]
    return P[slab(axis, slice(1 + step, n - 1 + step), slice(1, -1))]


def gradient(grid, f, rules=None):
    """Central-difference gradient; returns (3, ...) with the derivative
    axis first."""
    return gradient_padded(grid, pad(f, rules))


def gradient_padded(grid, P):
    """Central-difference gradient from an already ghost-padded array,
    (..., nx+2, ny+2, nz+2) -> (3, ..., nx, ny, nz)."""
    out = np.empty((3,) + _shift(P, 0, 0).shape)
    for axis in range(3):
        np.subtract(_shift(P, axis, 1), _shift(P, axis, -1), out=out[axis])
        out[axis] /= 2.0 * grid.h[axis]
    return out


def laplacian(grid, f, rules=None):
    return laplacian_padded(grid, pad(f, rules))


def laplacian_padded(grid, P):
    """Laplacian from an already ghost-padded array."""
    twice = 2.0 * _shift(P, 0, 0)
    out = np.zeros(twice.shape)
    term = np.empty(twice.shape)
    for axis in range(3):
        np.subtract(_shift(P, axis, 1), twice, out=term)
        term += _shift(P, axis, -1)
        term /= grid.h[axis] ** 2
        out += term
    return out


def upwind_differences(grid, P):
    """Per grid axis, the difference quotients of the padded P on the n + 1
    faces: cell i has its backward one on face i, its forward one on i + 1."""
    return [np.diff(P[slab(axis, slice(None), slice(1, -1))],
                    axis=axis - 3) / grid.h[axis] for axis in range(3)]


def advect_upwind(grid, diffs, u):
    """u . grad(f) with first-order upwinding; diffs: the face quotients
    of f from ``upwind_differences``, u the (3, nx, ny, nz) velocity."""
    out = np.zeros(diffs[0].shape[:-3] + grid.shape)
    for axis, d in enumerate(diffs):
        bwd, fwd = d[slab(axis, slice(None, -1))], d[slab(axis, slice(1, None))]
        out += u[axis] * np.where(u[axis] > 0.0, bwd, fwd)
    return out


def contract(V, Fx, Fy, Fz):
    """out[..., i, j, c] = sum_klm V[..., k, l, m] Fx[k, i] Fy[l, j] Fz[m, c].

    Sum factorisation: one axis at a time, each a (batched) matrix product,
    so the cost is O(K N^3) rather than O(K^3 N^3) for tables of K modes.
    The axes in front of the last three are a batch: every entry of the
    batch gives one contiguous block of the result.
    """
    (k, i), (l, j), (m, c) = Fx.shape, Fy.shape, Fz.shape
    A = Fx.T @ V.reshape(-1, k, l * m)              # [a, i, (l, m)]
    A = Fy.T @ A.reshape(-1, i, l, m)               # [a, i, j, m]
    A = A.reshape(-1, m) @ Fz                       # [(a, i, j), c]
    return A.reshape(V.shape[:-3] + (i, j, c))


# -------------------------------------------------------------- quadrature


def volume_integral(grid, f):
    """Midpoint rule over cell centers; f may carry leading component axes."""
    f = np.asarray(f)
    return grid.cell_volume * f.sum(axis=(-3, -2, -1))


# ---------------------------------------------------- boundary description


@dataclass
class Face:
    axis: int
    side: int               # 0 = low wall, 1 = high wall
    area_element: float     # tangential cell area
    xyz: tuple              # coordinate arrays on face centroids (2-D each)
    ubn: np.ndarray         # u_B . n  (2-D)
    inflow: np.ndarray      # boolean mask, u_B . n < 0

    @property
    def wall(self):
        """Index of the wall-adjacent cell layer of the last three axes:
        ``f[face.wall]``."""
        return slab(self.axis, 0 if self.side == 0 else -1)


def decompose_boundary(grid, u_faces):
    """Six faces, each split into inflow (u_B.n < 0) and outflow (>= 0).

    u_faces: u_B . e_axis on the face planes of each axis
    (``BoundaryFaces.u_faces``); a face's u_B . n is the wall plane of its
    axis.  Faces come in ``pad`` rule order x-, x+, y-, y+, z-, z+: face k
    has axis k // 2 and side k % 2.
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
            wall = u_faces[axis][slab(axis, (0, -1)[side])]
            ubn = wall if side else -wall
            faces.append(Face(axis=axis, side=side,
                              area_element=grid.h[t1] * grid.h[t2],
                              xyz=tuple(xyz), ubn=ubn,
                              inflow=ubn < 0.0))
    return faces


class BoundaryFaces:
    """The boundary data of a run, sampled once on the walls, the face
    planes and the cell centres.

    Built once per stepper from (grid, bdata).  Every per-face list is in
    ``pad`` rule order: entry k belongs to ``faces[k]``, and the ghost layer
    that rule k of ``pad`` writes lies next to ``f[faces[k].wall]``.  Face
    arrays have the two tangential grid axes last, like the fields.

      faces      the six Face records (axis k // 2, side k % 2)
      rho_b      inflow density rho_B on each face; ConfigError unless it
                 is positive on every face centroid
      q_b        wall order tensor Q_B on each face, packed (5, n1, n2)
      dq_b       outward normal derivative of Q_B on each face, one-sided
                 from Q_B half a cell inside (exact for affine Q_B)
      q_rules    ghost rules (-1, 2 Q_B), ghost = 2 Q_B - w, imposing Q_B
      u_cells    the lift u_B at the cell centres, (3, nx, ny, nz)
      jac_cells  its Jacobian J[a, d] = du_a/dx_d, (3, 3, nx, ny, nz)
      u_faces    u_B . e_axis on the N+1 face planes normal to each axis
                 (``Grid.face_meshes``), the wall part of ``face_velocities``;
                 its first and last planes give each face's ``ubn``
    """

    def __init__(self, grid, bdata):
        # each plane's one component as its own array, so the whole
        # (3, plane) u_B is not kept alive; a component that is zero
        # everywhere stays untouched np.zeros pages, as in BoundaryVelocity
        u_planes = [bdata.u_b(*grid.face_meshes[axis])[axis]
                    for axis in range(3)]
        self.u_faces = [u.copy() if u.any() else np.zeros(u.shape)
                        for u in u_planes]
        del u_planes
        self.faces = decompose_boundary(grid, self.u_faces)
        self.rho_b = [bdata.rho_b(*face.xyz) for face in self.faces]
        for face, rho_b in zip(self.faces, self.rho_b):
            if not np.all(rho_b > 0.0):
                raise ConfigError("inflow density boundary data must be "
                                  f"positive on every face (axis {face.axis}, "
                                  f"side {face.side})")
        self.q_b = [bdata.q_b(*face.xyz) for face in self.faces]
        self.dq_b = []
        for face, q_wall in zip(self.faces, self.q_b):
            h = grid.h[face.axis]
            inner_xyz = list(face.xyz)
            inner_xyz[face.axis] = face.xyz[face.axis] + (
                -0.5 * h if face.side == 1 else 0.5 * h)
            self.dq_b.append((q_wall - bdata.q_b(*inner_xyz)) / (0.5 * h))
        self.q_rules = tuple((-1.0, 2.0 * q_b) for q_b in self.q_b)
        X, Y, Z = grid.coords()
        self.u_cells = bdata.u_b(X, Y, Z)
        self.jac_cells = bdata.u_b.jacobian(X, Y, Z)


# ------------------------------------------------------ boundary-data catalog


class BoundaryVelocity:
    """Closed-form boundary velocity, C1 on the box of extents (Lx, Ly, Lz):

      u_B = vector + (rate y + peak 16 y (Ly-y) z (Lz-z) / (Ly^2 Lz^2)) e_x

    a constant, a plane shear and a channel profile, each zero by default.
    Returns (3, ...) velocities and (3, 3, ...) Jacobians, components first.
    """

    def __init__(self, grid, vector=(0.0, 0.0, 0.0), rate=0.0, peak=0.0):
        self.grid = grid
        self.vector = np.asarray(vector, dtype=float)
        self.rate = float(rate)
        self.peak = float(peak)

    def __call__(self, x, y, z):
        x, y, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                      np.asarray(z, float))
        # zero components stay unwritten: pages of np.zeros cost no memory
        # until touched, and the face planes keep one component each
        out = np.zeros((3,) + x.shape, dtype=float)
        for a in np.flatnonzero(self.vector):
            out[a] = self.vector[a]
        _, ly, lz = self.grid.extents
        out[0] += self.rate * y + (self.peak * 16.0 * y * (ly - y) * z * (lz - z)
                                   / (ly * ly * lz * lz))
        return out

    def jacobian(self, x, y, z):
        """Exact J[a, d, ...] = du_a/dx_d of u_B."""
        x, y, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                      np.asarray(z, float))
        J = np.zeros((3, 3) + x.shape, dtype=float)
        _, ly, lz = self.grid.extents
        s = self.peak * 16.0 / (ly * ly * lz * lz)
        J[0, 1] = self.rate + s * (ly - 2.0 * y) * z * (lz - z)
        J[0, 2] = s * y * (ly - y) * (lz - 2.0 * z)
        return J


class BoundaryData:
    """Velocity, inflow density, and director boundary data as one bundle."""

    def __init__(self, u_b, rho_b, q_b):
        self.u_b = u_b
        if not callable(rho_b):
            # callable data is checked on every face by BoundaryFaces
            if float(rho_b) <= 0.0:
                raise ConfigError("inflow density boundary data must be positive")
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
        out = np.empty((5,) + x.shape, dtype=float)
        out[...] = q5.reshape((5,) + (1,) * x.ndim)
        return out
    return f
