"""Uniform box grid, ghost-cell finite differences, quadrature, and the
inflow/outflow boundary decomposition.

Fields are plain numpy arrays with grid axes first and any component axes
trailing: scalars (Nx,Ny,Nz), vectors (Nx,Ny,Nz,3), packed Q fields
(Nx,Ny,Nz,5).  Velocity gradients follow the Jacobian convention
J[..., a, d] = du_a/dx_d; the skew part is packed as (l12, l13, l23) with
l_ad = (J_ad - J_da)/2, so plane shear u = (y, 0, 0) has l12 = +1/2.

Differential operators act on ghost-padded arrays.  Ghost corners are never
touched (all stencils are axis-aligned), so padding fills faces only.  The
six ghost rules of ``pad`` and the six faces of ``decompose_boundary`` and
``BoundaryFaces`` share one order, x-, x+, y-, y+, z-, z+ (index
2 * axis + side), so per-face data and ghost rules line up by index.
"""

from dataclasses import dataclass

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

    @property
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


def _face_slices(ndim_trailing):
    """Interior slice helper: grid axes first, trailing axes untouched."""
    return (slice(1, -1),) * 3 + (slice(None),) * ndim_trailing


def pad(f, rules):
    """Ghost-pad the three grid axes of f by one cell.

    rules: either the string 'mirror', or a 6-tuple (x_lo, x_hi, y_lo, y_hi,
    z_lo, z_hi) where each entry is one of
        ('mirror',)              ghost = adjacent interior value
        ('dirichlet', B)         ghost = 2*B - interior (B on face centroids)
        ('given', G)             ghost = G verbatim
    Face arrays B, G carry the two tangential grid axes plus any trailing
    component axes of f.
    """
    f = np.asarray(f)
    trail = f.ndim - 3
    if isinstance(rules, str):
        rules = (( rules,),) * 6
    if len(rules) != 6:
        raise DomainError("need one ghost rule per face (6)")
    padded_shape = tuple(n + 2 for n in f.shape[:3]) + f.shape[3:]
    P = np.zeros(padded_shape, dtype=float)
    P[_face_slices(trail)] = f
    for axis in range(3):
        for side in range(2):
            rule = rules[2 * axis + side]
            idx_ghost = [slice(1, -1)] * 3 + [slice(None)] * trail
            idx_inner = [slice(1, -1)] * 3 + [slice(None)] * trail
            idx_ghost[axis] = 0 if side == 0 else -1
            idx_inner[axis] = 1 if side == 0 else -2
            inner = P[tuple(idx_inner)]
            kind = rule[0]
            if kind == "mirror":
                P[tuple(idx_ghost)] = inner
            elif kind == "dirichlet":
                P[tuple(idx_ghost)] = 2.0 * np.asarray(rule[1]) - inner
            elif kind == "given":
                P[tuple(idx_ghost)] = np.asarray(rule[1])
            else:
                raise DomainError(f"unknown ghost rule {kind!r}")
    return P


def _shift(P, axis, step, trail):
    idx = [slice(1, -1)] * 3 + [slice(None)] * trail
    idx[axis] = slice(1 + step, P.shape[axis] - 1 + step)
    return P[tuple(idx)]


def gradient(grid, f, rules="mirror"):
    """Central-difference gradient; returns (..., 3) with grid axes first."""
    f = np.asarray(f)
    trail = f.ndim - 3
    P = pad(f, rules)
    out = np.empty(f.shape + (3,), dtype=float)
    for axis in range(3):
        out[..., axis] = (_shift(P, axis, 1, trail) - _shift(P, axis, -1, trail)) \
            / (2.0 * grid.h[axis])
    return out


def divergence(grid, v, rules="mirror"):
    v = np.asarray(v)
    if v.shape[3:] != (3,):
        raise DomainError("divergence expects a vector field (..., 3)")
    out = np.zeros(v.shape[:3], dtype=float)
    for axis in range(3):
        P = pad(v[..., axis], rules)
        out += (_shift(P, axis, 1, 0) - _shift(P, axis, -1, 0)) / (2.0 * grid.h[axis])
    return out


def laplacian(grid, f, rules="mirror"):
    f = np.asarray(f)
    trail = f.ndim - 3
    P = pad(f, rules)
    out = np.zeros(f.shape, dtype=float)
    for axis in range(3):
        out += (_shift(P, axis, 1, trail) - 2.0 * f + _shift(P, axis, -1, trail)) \
            / grid.h[axis] ** 2
    return out


def laplacian_padded(grid, P, trail=0):
    """Laplacian from an already ghost-padded array."""
    center = P[_face_slices(trail)]
    out = np.zeros(center.shape, dtype=float)
    for axis in range(3):
        out += (_shift(P, axis, 1, trail) - 2.0 * center + _shift(P, axis, -1, trail)) \
            / grid.h[axis] ** 2
    return out


def jacobian(grid, u, rules="mirror"):
    """J[..., a, d] = du_a/dx_d by central differences."""
    u = np.asarray(u)
    if u.shape[3:] != (3,):
        raise DomainError("jacobian expects a vector field (..., 3)")
    out = np.empty(u.shape[:3] + (3, 3), dtype=float)
    for a in range(3):
        out[..., a, :] = gradient(grid, u[..., a], rules)
    return out


def sym_skew_gradient(grid, u, rules="mirror"):
    """(D, lam): symmetric part as (...,3,3), skew packed (l12, l13, l23)."""
    J = jacobian(grid, u, rules)
    D = 0.5 * (J + np.swapaxes(J, -1, -2))
    lam = np.stack([
        0.5 * (J[..., 0, 1] - J[..., 1, 0]),
        0.5 * (J[..., 0, 2] - J[..., 2, 0]),
        0.5 * (J[..., 1, 2] - J[..., 2, 1]),
    ], axis=-1)
    return D, lam


def advect_upwind(grid, P, u, trail=0):
    """u . grad(f) with first-order upwinding; P is the ghost-padded field."""
    center = P[_face_slices(trail)]
    out = np.zeros(center.shape, dtype=float)
    for axis in range(3):
        ua = u[..., axis]
        if trail:
            ua = ua.reshape(ua.shape + (1,) * trail)
        fwd = (_shift(P, axis, 1, trail) - center) / grid.h[axis]
        bwd = (center - _shift(P, axis, -1, trail)) / grid.h[axis]
        out += np.where(ua > 0.0, ua * bwd, ua * fwd)
    return out


def advect_central(grid, P, u, trail=0):
    """u . grad(f) with central differences; P is the ghost-padded field."""
    center = P[_face_slices(trail)]
    out = np.zeros(center.shape, dtype=float)
    for axis in range(3):
        ua = u[..., axis]
        if trail:
            ua = ua.reshape(ua.shape + (1,) * trail)
        out += ua * (_shift(P, axis, 1, trail) - _shift(P, axis, -1, trail)) \
            / (2.0 * grid.h[axis])
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


def surface_integral(faces, values, subset="all"):
    """Midpoint quadrature of per-face centroid values over a boundary subset.

    values: callable(x, y, z) or a list of six arrays matching face shapes.
    """
    total = 0.0
    for k, face in enumerate(faces):
        g = values(*face.xyz) if callable(values) else np.asarray(values[k])
        if subset == "inflow":
            g = np.where(face.inflow, g, 0.0)
        elif subset == "outflow":
            g = np.where(face.inflow, 0.0, g)
        elif subset != "all":
            raise DomainError(f"unknown boundary subset {subset!r}")
        total += face.area_element * g.sum()
    return total


class BoundaryFaces:
    """The six walls of a run with the boundary data sampled on them.

    Built once per stepper from (grid, bdata).  Every per-face list is in
    ``pad`` rule order: entry k belongs to ``faces[k]``, and the ghost layer
    that rule k of ``pad`` writes lies next to ``f[faces[k].wall]``.

      faces     the six Face records (axis k // 2, side k % 2)
      rho_b     inflow density rho_B on each face; DomainError unless it
                is positive on every face centroid
      q_b       wall order tensor Q_B on each face, packed (..., 5)
      q_rules   the six Dirichlet ghost rules that impose Q_B
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
        self.q_rules = tuple(("dirichlet", q_b) for q_b in self.q_b)


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
        self.rho_b = rho_b if callable(rho_b) else _constant_scalar(float(rho_b))
        self.q_b = q_b if callable(q_b) else _constant_q(np.asarray(q_b, dtype=float))
        probe = self.rho_b(np.array([0.0]), np.array([0.0]), np.array([0.0]))
        if np.any(probe <= 0.0):
            raise DomainError("inflow density boundary data must be positive")


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
