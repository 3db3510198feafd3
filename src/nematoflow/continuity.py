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

``ContinuitySolver.ghost_rules`` builds the six Robin ghost rules in ``pad``
order (x-, x+, y-, y+, z-, z+, as ``domain.BoundaryFaces``).  The CG
operator uses them with outside data 0 (homogeneous); the density gradient,
the diffusive boundary flux and the weak residuals use rho_B, or rho_B - chi
for a shifted density, so every layer sees the same boundary realization.
"""

from dataclasses import dataclass, field

import numpy as np

from . import galerkin as gk
from .domain import gradient, laplacian_padded, pad, volume_integral
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
    boundary: object                   # domain.BoundaryFaces
    source: object = None              # optional callable (x, y, z, t) -> field

    def __post_init__(self):
        if not (self.eps > 0.0 and self.dt > 0.0):
            raise ValueError("need eps > 0 and dt > 0")
        g = self.grid
        # Robin weight of each face, in pad order
        self.alphas = []
        for face in self.boundary.faces:
            ubn_neg = np.minimum(face.ubn, 0.0)
            r = self.eps / g.h[face.axis]
            self.alphas.append((r + 0.5 * ubn_neg) / (r - 0.5 * ubn_neg))
        # diagonal of -L: ghost elimination (ghost = alpha*rho_i + const)
        # folds -alpha/h^2 into the diagonal of each wall-adjacent cell
        diag = np.zeros(g.shape)
        for axis in range(3):
            diag += 2.0 / g.h[axis] ** 2
        for face, alpha in zip(self.boundary.faces, self.alphas):
            diag[face.wall] -= alpha / g.h[face.axis] ** 2
        self.neg_lap_diag = diag

    # ----------------------------------------------------------- operators

    def ghost_rules(self, f, data=None):
        """The six Robin ghost rules for f, in ``pad`` order.

        Face k gets ('given', alpha_k * f[wall] + (1 - alpha_k) * data[k]).
        data: per-face outside values; rho_B when omitted, zeros for the
        homogeneous operator, rho_B - chi for a shifted density.
        """
        if data is None:
            data = self.boundary.rho_b
        return tuple(("given", alpha * f[face.wall] + (1.0 - alpha) * d)
                     for face, alpha, d in zip(self.boundary.faces,
                                               self.alphas, data))

    def _neg_lap_hom(self, rho):
        """-Laplacian with homogeneous (rho_B = 0) Robin ghosts."""
        P = pad(rho, self.ghost_rules(rho, (0.0,) * 6))
        return -laplacian_padded(self.grid, P)

    def _solve_diffusion(self, rhs):
        """(I + eps*dt*(-L)) rho = rhs by Jacobi-preconditioned CG."""
        a = self.eps * self.dt
        M_inv = 1.0 / (1.0 + a * self.neg_lap_diag)

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
        faces = self.boundary.faces
        for axis in range(3):
            U = fv[axis]
            area = faces[2 * axis].area_element
            # upwind values on all faces, outside value = rho_B at the walls
            rho_b_lo = self.boundary.rho_b[2 * axis]
            rho_b_hi = self.boundary.rho_b[2 * axis + 1]
            # the wall face plane of U and the wall cell layer of rho
            lo = faces[2 * axis].wall
            hi = faces[2 * axis + 1].wall
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
            up[lo] = np.where(U[lo] > 0.0, rho_b_lo, rho[lo])
            up[hi] = np.where(U[hi] > 0.0, rho[hi], rho_b_hi)
            F = U * up
            div += (F[tuple(ridx)] - F[tuple(lidx)]) / g.h[axis]
            # outward boundary fluxes: low wall outward = -F_lo, high = +F_hi
            flux_lo = -F[lo]
            flux_hi = F[hi]
            for flux in (flux_lo, flux_hi):
                inflow_mass += -area * float(flux[flux < 0].sum())
                outflow_mass += area * float(flux[flux > 0].sum())
        return div, inflow_mass, outflow_mass

    def grad_rho(self, rho):
        """Central-difference gradient using this solver's boundary ghosts."""
        return gradient(self.grid, rho, self.ghost_rules(rho))

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
        for face, alpha, rho_b in zip(self.boundary.faces, self.alphas,
                                      self.boundary.rho_b):
            boundary_src = (1.0 - alpha) * rho_b / g.h[face.axis] ** 2
            rhs[face.wall] += a * boundary_src
        rho_new, iters = self._solve_diffusion(rhs)
        # diffusive boundary flux at the new state (outward normal direction)
        eps_flux = 0.0
        for face, (_, ghost) in zip(self.boundary.faces,
                                    self.ghost_rules(rho_new)):
            inner = rho_new[face.wall]
            eps_flux += self.eps * face.area_element * float(
                ((ghost - inner) / g.h[face.axis]).sum())
        info = {
            "mass_in": self.dt * mass_in,
            "mass_out": self.dt * mass_out,
            "eps_boundary_flux": self.dt * eps_flux,
            "div_inf": float(np.max(np.abs(face_divergence(g, fv)))),
            "cg_iters": iters,
        }
        return rho_new, info


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
        rules = solver.ghost_rules(rho)
        grad_rho = gradient(g, rho, rules)
        interior = volume_integral(
            g, rho * dphi_dt(X, Y, Z, t)
            + rho * np.einsum("...a,...a->...", u, gphi)
            - solver.eps * np.einsum("...a,...a->...", grad_rho, gphi))
        if source is not None:
            interior += volume_integral(g, source(X, Y, Z, t) * phi(X, Y, Z, t))
        boundary = 0.0
        for face, (_, ghost), rho_b in zip(solver.boundary.faces, rules,
                                           solver.boundary.rho_b):
            inner = rho[face.wall]
            phi_face = phi(*face.xyz, t)
            # diffusive flux (outward)
            diff_flux = solver.eps * (ghost - inner) / g.h[face.axis]
            # advective flux (outward) with the scheme's upwinding
            adv_flux = np.where(face.ubn < 0.0, face.ubn * rho_b,
                                face.ubn * inner)
            boundary += face.area_element * float(
                ((diff_flux - adv_flux) * phi_face).sum())
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
        rules = solver.ghost_rules(
            r, [rho_b - chi(t) for rho_b in solver.boundary.rho_b])
        grad_r = gradient(g, r, rules)
        grad_r2 = np.einsum("...a,...a->...", grad_r, grad_r)
        eps_term = -solver.eps * volume_integral(g, Bpp(r) * grad_r2)
        eps_term_total += dt * eps_term
        bulk = volume_integral(g, Bp(r) * (-div_flux - dchi_dt(t))) + eps_term
        boundary = 0.0
        for face, (_, ghost_r) in zip(solver.boundary.faces, rules):
            inner_r = r[face.wall]
            diff_flux = solver.eps * (ghost_r - inner_r) / g.h[face.axis]
            boundary += face.area_element * float(
                (Bp(inner_r) * diff_flux).sum())
        rhs += dt * (bulk + boundary)
    return float(lhs - rhs), float(eps_term_total)
