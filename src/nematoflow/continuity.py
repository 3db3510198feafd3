"""Density transport with artificial diffusion and inflow/outflow data.

Scheme per step: explicit conservative upwind advection through cell faces,
then one implicit diffusion solve.  Face-normal velocities are supplied at
all (N+1) face planes per axis; at the domain walls the modes vanish, so the
face velocity there is the boundary datum itself, and the upwind rule with
outside value rho_B reproduces the inflow/outflow flux split without any
special cases.

The diffusion solve imposes the Robin condition
    eps * drho/dn + (rho_B - rho) * min(u_B . n, 0) = 0
through ghost cells rho_g = alpha * rho_i + (1 - alpha) * rho_B with
alpha = (eps/h + ubn_neg/2) / (eps/h - ubn_neg/2), a convex combination, so
the implicit operator stays symmetric positive definite and the discrete
maximum principle survives the boundary.  The linear solve is matrix-free
Jacobi-preconditioned conjugate gradients with relative tolerance 1e-13.
"""

from dataclasses import dataclass, field

import numpy as np

from . import galerkin as gk
from .errors import StabilityError

_CG_TOL = 1.0e-13
_CG_MAXITER = 2000


def _face_mesh(grid, axis):
    """Open mesh (np.ix_ layout) of the N+1 face planes normal to `axis`."""
    coords = [grid.centers(a) for a in range(3)]
    coords[axis] = np.arange(grid.shape[axis] + 1) * grid.h[axis]
    return np.ix_(*coords)


def face_lift(grid, u_b):
    """u_B . e_axis at every face plane, per axis; fixed for a run."""
    return [u_b(*_face_mesh(grid, axis))[..., axis] for axis in range(3)]


def face_velocities(grid, basis, v, lift):
    """Normal velocity at every face plane, per axis; walls carry u_B.

    Entry `axis` is indexed like the grid with axis `axis` one longer: the
    mode part of v, evaluated separably on the face planes' open mesh, plus
    the fixed boundary lift from ``face_lift``.  The modes vanish on the
    walls, so wall planes carry the lift alone.
    """
    return [gk.evaluate_at(basis, v, *_face_mesh(grid, axis))[..., axis] + lift[axis]
            for axis in range(3)]


def face_divergence(grid, fv):
    """Discrete divergence of the face velocity field (per cell)."""
    div = np.zeros(grid.shape)
    for axis in range(3):
        U = fv[axis]
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        div += (U[tuple(hi)] - U[tuple(lo)]) / grid.h[axis]
    return div


@dataclass
class ContinuitySolver:
    grid: object
    eps: float
    dt: float
    bdata: object                      # BoundaryData
    source: object = None              # optional callable (x, y, z, t) -> field
    _geom: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (self.eps > 0.0 and self.dt > 0.0):
            raise ValueError("need eps > 0 and dt > 0")
        g = self.grid
        from .domain import DomainError, decompose_boundary
        faces = decompose_boundary(g, self.bdata.u_b)
        alphas, rho_faces, ubns = [], [], []
        for face in faces:
            h = g.h[face.axis]
            ubn_neg = np.minimum(face.ubn, 0.0)
            r = self.eps / h
            alpha = (r + 0.5 * ubn_neg) / (r - 0.5 * ubn_neg)
            alphas.append(alpha)
            rho_faces.append(self.bdata.rho_b(*face.xyz))
            ubns.append(face.ubn)
            if not np.all(rho_faces[-1] > 0.0):
                raise DomainError("inflow density boundary data must be "
                                  f"positive on every face (axis {face.axis}, "
                                  f"side {face.side})")
        # diagonal of -L: ghost elimination (ghost = alpha*rho_i + const)
        # folds -alpha/h^2 into the diagonal of each wall-adjacent cell
        diag = np.zeros(g.shape)
        for axis in range(3):
            diag += 2.0 / g.h[axis] ** 2
        for k, face in enumerate(faces):
            idx = [slice(None)] * 3
            idx[face.axis] = 0 if face.side == 0 else -1
            diag[tuple(idx)] -= alphas[k] / g.h[face.axis] ** 2
        self._geom.update(faces=faces, alphas=alphas, rho_faces=rho_faces,
                          ubns=ubns, neg_lap_diag=diag)

    # ----------------------------------------------------------- operators

    def _ghost_rules(self, rho, homogeneous):
        faces = self._geom["faces"]
        rules = []
        for k, face in enumerate(faces):
            idx = [slice(None)] * 3
            idx[face.axis] = 0 if face.side == 0 else -1
            inner = rho[tuple(idx)]
            ghost = self._geom["alphas"][k] * inner
            if not homogeneous:
                ghost = ghost + (1.0 - self._geom["alphas"][k]) * self._geom["rho_faces"][k]
            rules.append(("given", ghost))
        return tuple(rules)

    def _neg_lap_hom(self, rho):
        """-Laplacian with homogeneous (rho_B = 0) Robin ghosts."""
        from .domain import pad, laplacian_padded
        P = pad(rho, self._ghost_rules(rho, homogeneous=True))
        return -laplacian_padded(self.grid, P)

    def _solve_diffusion(self, rhs):
        """(I + eps*dt*(-L)) rho = rhs by Jacobi-preconditioned CG."""
        a = self.eps * self.dt
        M_inv = 1.0 / (1.0 + a * self._geom["neg_lap_diag"])

        def apply_A(x):
            return x + a * self._neg_lap_hom(x)

        x = rhs.copy()
        r = rhs - apply_A(x)
        z = M_inv * r
        p = z.copy()
        rz = float((r * z).sum())
        norm0 = float(np.sqrt((rhs * rhs).sum())) or 1.0
        iters = 0
        while np.sqrt((r * r).sum()) > _CG_TOL * norm0 and iters < _CG_MAXITER:
            Ap = apply_A(p)
            alpha = rz / float((p * Ap).sum())
            x += alpha * p
            r -= alpha * Ap
            z = M_inv * r
            rz_new = float((r * z).sum())
            p = z + (rz_new / rz) * p
            rz = rz_new
            iters += 1
        if iters >= _CG_MAXITER:
            raise RuntimeError("diffusion solve failed to converge")
        return x, iters

    # ----------------------------------------------------------- stepping

    def check_stability(self, fv):
        g = self.grid
        umax = max(float(np.max(np.abs(U))) for U in fv)
        h_min = min(g.h)
        limit = 0.9 * min(h_min ** 2 / (6.0 * self.eps),
                          h_min / umax if umax > 0 else np.inf)
        if self.dt > limit:
            raise StabilityError(
                f"dt = {self.dt:g} exceeds 0.9*min(h^2/6eps, h/|u|) = {limit:g}")
        weight = self.dt * sum(float(np.max(np.abs(U))) / g.h[a]
                               for a, U in enumerate(fv))
        if weight > 1.0:
            raise StabilityError(
                f"advective weight dt*sum(|u_d|/h_d) = {weight:g} > 1")

    def advective_flux_divergence(self, rho, fv):
        """div of the upwinded face flux, plus boundary flux tallies."""
        g = self.grid
        div = np.zeros(g.shape)
        inflow_mass = 0.0
        outflow_mass = 0.0
        for axis in range(3):
            U = fv[axis]
            t1, t2 = [a for a in range(3) if a != axis]
            area = g.h[t1] * g.h[t2]
            # upwind values on all faces, outside value = rho_B at the walls
            face_lo = self._face_for(axis, 0)
            face_hi = self._face_for(axis, 1)
            rho_b_lo = self._geom["rho_faces"][face_lo]
            rho_b_hi = self._geom["rho_faces"][face_hi]
            up_shape = list(g.shape)
            up_shape[axis] += 1
            up = np.empty(up_shape)
            sl_interior = [slice(None)] * 3
            sl_interior[axis] = slice(1, -1)
            U_int = U[tuple(sl_interior)]
            lidx = [slice(None)] * 3
            lidx[axis] = slice(0, -1)
            ridx = [slice(None)] * 3
            ridx[axis] = slice(1, None)
            up[tuple(sl_interior)] = np.where(U_int > 0.0, rho[tuple(lidx)],
                                              rho[tuple(ridx)])
            lo = [slice(None)] * 3
            lo[axis] = 0
            hi = [slice(None)] * 3
            hi[axis] = -1
            first = [slice(None)] * 3
            first[axis] = 0
            last = [slice(None)] * 3
            last[axis] = -1
            up[tuple(lo)] = np.where(U[tuple(lo)] > 0.0, rho_b_lo, rho[tuple(first)])
            up[tuple(hi)] = np.where(U[tuple(hi)] > 0.0, rho[tuple(last)], rho_b_hi)
            F = U * up
            div += (F[tuple(ridx)] - F[tuple(lidx)]) / g.h[axis]
            # outward boundary fluxes: low wall outward = -F_lo, high = +F_hi
            flux_lo = -F[tuple(lo)]
            flux_hi = F[tuple(hi)]
            for flux in (flux_lo, flux_hi):
                inflow_mass += -area * float(flux[flux < 0].sum())
                outflow_mass += area * float(flux[flux > 0].sum())
        return div, inflow_mass, outflow_mass

    def _face_for(self, axis, side):
        for k, face in enumerate(self._geom["faces"]):
            if face.axis == axis and face.side == side:
                return k
        raise KeyError

    def grad_rho(self, rho):
        """Central-difference gradient using this solver's boundary ghosts."""
        from .domain import pad
        g = self.grid
        P = pad(rho, self._ghost_rules(rho, homogeneous=False))
        out = np.empty(g.shape + (3,))
        for axis in range(3):
            sl_hi = [slice(1, -1)] * 3
            sl_lo = [slice(1, -1)] * 3
            sl_hi[axis] = slice(2, None)
            sl_lo[axis] = slice(0, -2)
            out[..., axis] = (P[tuple(sl_hi)] - P[tuple(sl_lo)]) / (2 * g.h[axis])
        return out

    def step(self, rho, fv, t=0.0):
        """One step; returns (rho_new, info dict)."""
        self.check_stability(fv)
        g = self.grid
        div, mass_in, mass_out = self.advective_flux_divergence(rho, fv)
        star = rho - self.dt * div
        if self.source is not None:
            X, Y, Z = g.coords()
            star = star + self.dt * self.source(X, Y, Z, t)
        # implicit diffusion: affine boundary term moves to the right side
        rhs = star.copy()
        a = self.eps * self.dt
        for k, face in enumerate(self._geom["faces"]):
            idx = [slice(None)] * 3
            idx[face.axis] = 0 if face.side == 0 else -1
            boundary_src = (1.0 - self._geom["alphas"][k]) \
                * self._geom["rho_faces"][k] / g.h[face.axis] ** 2
            rhs[tuple(idx)] += a * boundary_src
        rho_new, iters = self._solve_diffusion(rhs)
        # diffusive boundary flux at the new state (outward normal direction)
        eps_flux = 0.0
        for k, face in enumerate(self._geom["faces"]):
            idx = [slice(None)] * 3
            idx[face.axis] = 0 if face.side == 0 else -1
            inner = rho_new[tuple(idx)]
            ghost = self._geom["alphas"][k] * inner \
                + (1.0 - self._geom["alphas"][k]) * self._geom["rho_faces"][k]
            t1, t2 = [a2 for a2 in range(3) if a2 != face.axis]
            area = g.h[t1] * g.h[t2]
            eps_flux += self.eps * area * float(((ghost - inner) / g.h[face.axis]).sum())
        info = {
            "mass_in": self.dt * mass_in,
            "mass_out": self.dt * mass_out,
            "eps_boundary_flux": self.dt * eps_flux,
            "div_inf": float(np.max(np.abs(face_divergence(g, fv)))),
            "cg_iters": iters,
        }
        return rho_new, info


def step_continuity(solver, rho, fv, t=0.0):
    """One transport step; returns (rho_new, info)."""
    return solver.step(rho, fv, t=t)


# ------------------------------------------------------- trajectory records


@dataclass
class ContinuityTrajectory:
    grid: object
    solver: ContinuitySolver
    times: list = field(default_factory=list)
    rhos: list = field(default_factory=list)
    fvs: list = field(default_factory=list)

    def record(self, t, rho, fv):
        self.times.append(float(t))
        self.rhos.append(rho.copy())
        self.fvs.append([U.copy() for U in fv])


def run_continuity(solver, rho0, fv, n_steps, t0=0.0):
    """Constant-velocity convenience driver; returns the trajectory."""
    traj = ContinuityTrajectory(grid=solver.grid, solver=solver)
    rho = np.array(rho0, dtype=float)
    t = t0
    traj.record(t, rho, fv)
    for _ in range(n_steps):
        rho, _ = solver.step(rho, fv, t=t)
        t += solver.dt
        traj.record(t, rho, fv)
    return traj


# --------------------------------------------------------- weak residuals


def _cell_velocity_from_faces(grid, fv):
    """Cell-center velocity by averaging the two bounding faces, per axis."""
    u = np.zeros(grid.shape + (3,))
    for axis in range(3):
        U = fv[axis]
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        u[..., axis] = 0.5 * (U[tuple(lo)] + U[tuple(hi)])
    return u


def weak_residual_continuity(traj, phi, dphi_dt, grad_phi, source=None):
    """Space-time weak-form residual along a stored trajectory.

    phi, dphi_dt: callables (x, y, z, t) -> array; grad_phi -> (..., 3).
    Time integrals use the left-rectangle rule; the boundary terms use the
    scheme's own upwind/Robin flux realization, so the residual measures
    discretization error only.
    """
    from .domain import volume_integral, pad, laplacian_padded
    g = traj.grid
    solver = traj.solver
    X, Y, Z = g.coords()
    t_end = traj.times[-1]
    lhs = volume_integral(g, traj.rhos[-1] * phi(X, Y, Z, t_end)) \
        - volume_integral(g, traj.rhos[0] * phi(X, Y, Z, traj.times[0]))
    rhs = 0.0
    for k in range(len(traj.times) - 1):
        t = traj.times[k]
        dt = traj.times[k + 1] - t
        rho = traj.rhos[k]
        fv = traj.fvs[k]
        u = _cell_velocity_from_faces(g, fv)
        gphi = grad_phi(X, Y, Z, t)
        P = pad(rho, solver._ghost_rules(rho, homogeneous=False))
        grad_rho = np.empty(g.shape + (3,))
        for axis in range(3):
            sl_hi = [slice(1, -1)] * 3
            sl_lo = [slice(1, -1)] * 3
            sl_hi[axis] = slice(2, None)
            sl_lo[axis] = slice(0, -2)
            grad_rho[..., axis] = (P[tuple(sl_hi)] - P[tuple(sl_lo)]) / (2 * g.h[axis])
        interior = volume_integral(
            g, rho * dphi_dt(X, Y, Z, t)
            + rho * np.einsum("...a,...a->...", u, gphi)
            - solver.eps * np.einsum("...a,...a->...", grad_rho, gphi))
        if source is not None:
            interior += volume_integral(g, source(X, Y, Z, t) * phi(X, Y, Z, t))
        boundary = 0.0
        for kf, face in enumerate(solver._geom["faces"]):
            idx = [slice(None)] * 3
            idx[face.axis] = 0 if face.side == 0 else -1
            inner = rho[tuple(idx)]
            alpha = solver._geom["alphas"][kf]
            rho_b = solver._geom["rho_faces"][kf]
            ghost = alpha * inner + (1.0 - alpha) * rho_b
            h = g.h[face.axis]
            t1, t2 = [a for a in range(3) if a != face.axis]
            area = g.h[t1] * g.h[t2]
            phi_face = phi(*face.xyz, t)
            # diffusive flux (outward)
            diff_flux = solver.eps * (ghost - inner) / h
            # advective flux (outward) with the scheme's upwinding
            ubn = solver._geom["ubns"][kf]
            adv_flux = np.where(ubn < 0.0, ubn * rho_b,
                                ubn * inner)
            boundary += area * float(((diff_flux - adv_flux) * phi_face).sum())
        rhs += dt * (interior + boundary)
    return float(lhs - rhs)


_B_CATALOG = {
    "square": (lambda r: r * r, lambda r: 2.0 * r, lambda r: 2.0 + 0.0 * r),
    "rlogr": (lambda r: np.where(r > 0, r * np.log(np.maximum(r, 1e-300)), 0.0),
              lambda r: np.log(np.maximum(r, 1e-300)) + 1.0,
              lambda r: 1.0 / np.maximum(r, 1e-300)),
}


def renormalized_balance(traj, b_name="square", chi=None, dchi_dt=None):
    """Residual of the renormalized balance for B in {r^2, r log r}.

    r = rho - chi(t).  Returns (residual, eps_term) where eps_term is the
    accumulated -eps * int B''(r) |grad r|^2 contribution (always <= 0 for
    convex B).
    """
    from .domain import volume_integral, pad
    B, Bp, Bpp = _B_CATALOG[b_name]
    if chi is None:
        chi = lambda t: 0.0
        dchi_dt = lambda t: 0.0
    g = traj.grid
    solver = traj.solver
    t_end = traj.times[-1]
    r_end = traj.rhos[-1] - chi(t_end)
    r_start = traj.rhos[0] - chi(traj.times[0])
    lhs = volume_integral(g, B(r_end)) - volume_integral(g, B(r_start))
    rhs = 0.0
    eps_term_total = 0.0
    for k in range(len(traj.times) - 1):
        t = traj.times[k]
        dt = traj.times[k + 1] - t
        rho = traj.rhos[k]
        fv = traj.fvs[k]
        r = rho - chi(t)
        div_flux, _, _ = solver.advective_flux_divergence(rho, fv)
        P = pad(r, tuple(
            ("given", solver._geom["alphas"][kf] * r[_face_idx(face)]
             + (1.0 - solver._geom["alphas"][kf])
             * (solver._geom["rho_faces"][kf] - chi(t)))
            for kf, face in enumerate(solver._geom["faces"])))
        grad_r = np.empty(g.shape + (3,))
        for axis in range(3):
            sl_hi = [slice(1, -1)] * 3
            sl_lo = [slice(1, -1)] * 3
            sl_hi[axis] = slice(2, None)
            sl_lo[axis] = slice(0, -2)
            grad_r[..., axis] = (P[tuple(sl_hi)] - P[tuple(sl_lo)]) / (2 * g.h[axis])
        grad_r2 = np.einsum("...a,...a->...", grad_r, grad_r)
        eps_term = -solver.eps * volume_integral(g, Bpp(r) * grad_r2)
        eps_term_total += dt * eps_term
        bulk = volume_integral(g, Bp(r) * (-div_flux - dchi_dt(t))) + eps_term
        boundary = 0.0
        for kf, face in enumerate(solver._geom["faces"]):
            inner_r = r[_face_idx(face)]
            alpha = solver._geom["alphas"][kf]
            rho_b = solver._geom["rho_faces"][kf]
            ghost_r = alpha * inner_r + (1.0 - alpha) * (rho_b - chi(t))
            h = g.h[face.axis]
            t1, t2 = [a for a in range(3) if a != face.axis]
            area = g.h[t1] * g.h[t2]
            diff_flux = solver.eps * (ghost_r - inner_r) / h
            boundary += area * float((Bp(inner_r) * diff_flux).sum())
        rhs += dt * (bulk + boundary)
    return float(lhs - rhs), float(eps_term_total)


def _face_idx(face):
    idx = [slice(None)] * 3
    idx[face.axis] = 0 if face.side == 0 else -1
    return tuple(idx)
