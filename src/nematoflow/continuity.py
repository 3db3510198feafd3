"""Density transport with artificial diffusion and inflow/outflow data.

Scheme per step: explicit conservative upwind advection through cell faces,
then one implicit diffusion solve.  Face-normal velocities are supplied at
all (N+1) face planes per axis; at the domain walls the modes vanish, so the
face velocity there is the boundary lift ``BoundaryFaces.u_faces`` alone,
and the upwind rule with outside value rho_B reproduces the inflow/outflow
flux split without any special cases.

The diffusion solve imposes the Robin condition
    eps * drho/dn + (rho_B - rho) * min(u_B . n, 0) = 0
through ghost cells rho_g = alpha * rho_i + (1 - alpha) * rho_B with
alpha = (eps/h + ubn_neg/2) / (eps/h - ubn_neg/2), a convex combination, so
the implicit operator stays symmetric positive definite and the discrete
maximum principle survives the boundary.  The linear solve is matrix-free
Jacobi-preconditioned conjugate gradients with relative tolerance 1e-13,
started from the right side or from the start the coupling sweep gives
after Jacobi sweeps of the system, which stop once the residual meets the
CG's own test, after ``_JACOBI_SWEEPS`` at most; a non-finite residual
raises StabilityError, the cap ConditioningError.
The step assumes an admissible dt (``simulation.check_step``).

``ContinuitySolver.rules`` holds the six affine ``pad`` rules
(alpha, (1 - alpha) rho_B) in face order.  ``grad_rho`` (the eps term of
the momentum balance), ``wall_fluxes`` (the step's boundary tally) and
``weak_residual_continuity`` read them, and ``renormalized_balance`` the
pairs for rho_B - chi, so every layer sees one boundary realization.  The
CG operator pads nothing: its Robin ghost sits in the diagonal it shares
with the Jacobi preconditioner, and b / h^2 moves to the right side.
"""

from dataclasses import dataclass

import numpy as np

from . import galerkin as gk
from .domain import gradient, slab, volume_integral
from .errors import ConditioningError, ConfigError, StabilityError

_CG_TOL = 1.0e-13
_CG_MAXITER = 2000
# the most Jacobi sweeps a given CG start takes; each multiplies the error
# by at most s / (1 + s), s = 6 eps dt / h^2 (0.071 at 16^3 with the
# default eps, dt), and they stop once the residual meets the CG's test
_JACOBI_SWEEPS = 8
# the lower and the upper n of n + 1 entries along an axis
_LO, _HI = slice(None, -1), slice(1, None)


def face_velocities(grid, basis, v, lift):
    """Normal velocity at every face plane, per axis; walls carry u_B.

    Entry `axis` is indexed like the grid with axis `axis` one longer: the
    component `axis` of the modes of v on ``grid.face_meshes[axis]`` plus
    the lift ``u_faces`` of ``BoundaryFaces``; the modes vanish on the
    walls, which carry the lift.
    """
    return [gk.evaluate_at(basis, v, *grid.face_meshes[axis], axis) + L
            for axis, L in enumerate(lift)]


def face_divergence(grid, fv):
    """Discrete divergence of the face velocity field (per cell)."""
    div = np.zeros(grid.shape)
    for axis, U in enumerate(fv):
        div += (U[slab(axis, _HI)] - U[slab(axis, _LO)]) / grid.h[axis]
    return div


@dataclass
class ContinuitySolver:
    grid: object
    eps: float
    dt: float
    boundary: object                   # domain.BoundaryFaces

    def __post_init__(self):
        if not (self.eps > 0.0 and self.dt > 0.0):
            raise ConfigError("need eps > 0 and dt > 0")
        g = self.grid
        # Robin weight of each face, in pad order
        self.alphas = []
        for face in self.boundary.faces:
            ubn_neg = np.minimum(face.ubn, 0.0)
            r = self.eps / g.h[face.axis]
            self.alphas.append((r + 0.5 * ubn_neg) / (r - 0.5 * ubn_neg))
        self.rules = self.robin_rules(self.boundary.rho_b)
        # diagonal of -L: ghost elimination (ghost = alpha*rho_i + const)
        # folds -alpha/h^2 into the diagonal of each wall-adjacent cell
        diag = np.full(g.shape, sum(2.0 / h ** 2 for h in g.h))
        for face, alpha in zip(self.boundary.faces, self.alphas):
            diag[face.wall] -= alpha / g.h[face.axis] ** 2
        self.neg_lap_diag = diag

    # ----------------------------------------------------------- operators

    def robin_rules(self, data):
        """The Robin rules (alpha_k, (1 - alpha_k) data[k]) in ``pad`` order
        for per-face outside values data: rho_B, or rho_B - chi if shifted."""
        return tuple((alpha, (1.0 - alpha) * d)
                     for alpha, d in zip(self.alphas, data))

    def wall_fluxes(self, f, rules=None):
        """Outward flux eps * (ghost - w) / h per face, w = f[face.wall]."""
        return [self.eps * (a * f[face.wall] + b - f[face.wall])
                / self.grid.h[face.axis]
                for face, (a, b) in zip(self.boundary.faces,
                                        rules or self.rules)]

    def _neg_lap_hom(self, x):
        """-Laplacian with homogeneous Robin ghosts alpha * x[wall], which
        sit in ``neg_lap_diag``; off the diagonal only interior neighbours."""
        out = self.neg_lap_diag * x
        for axis, h in enumerate(self.grid.h):
            lo, hi = slab(axis, _LO), slab(axis, _HI)
            xs = x / h ** 2
            out[lo] -= xs[hi]
            out[hi] -= xs[lo]
        return out

    def _diffusion(self):
        """The implicit operator x -> (I + eps*dt*(-L)) x and the inverse of
        its diagonal, the Jacobi preconditioner."""
        a = self.eps * self.dt
        return (lambda x: x + a * self._neg_lap_hom(x),
                1.0 / (1.0 + a * self.neg_lap_diag))

    def _solve_diffusion(self, rhs, start=None):
        """(I + eps*dt*(-L)) rho = rhs, Jacobi-preconditioned CG from start.

        A given start first takes Jacobi sweeps x <- x + M^{-1} (rhs - A x)
        of the system, at most ``_JACOBI_SWEEPS``, until the residual meets
        the CG's test (or is not finite, which the CG rejects); the CG goes
        on from the last residual, so the stop costs no application of A.
        """
        apply_A, M_inv = self._diffusion()
        stop = _CG_TOL * (float(np.sqrt((rhs * rhs).sum())) or 1.0)
        x = (rhs if start is None else start).copy()
        r = rhs - apply_A(x)
        for _ in range(0 if start is None else _JACOBI_SWEEPS):
            if not stop < np.sqrt((r * r).sum()) < np.inf:
                break
            x += M_inv * r
            r = rhs - apply_A(x)
        z = M_inv * r
        p = z.copy()
        rz = float((r * z).sum())
        iters = 0
        while not (res := np.sqrt((r * r).sum())) <= stop:
            if not np.isfinite(res):
                raise StabilityError("density CG: non-finite residual")
            if iters >= _CG_MAXITER:
                raise ConditioningError(f"density CG failed in {iters} iterations")
            Ap = apply_A(p)
            alpha = rz / float((p * Ap).sum())
            x += alpha * p
            r -= alpha * Ap
            z = M_inv * r
            rz_new = float((r * z).sum())
            p = z + (rz_new / rz) * p
            rz = rz_new
            iters += 1
        return x, iters

    # ----------------------------------------------------------- stepping

    def upwind_values(self, rho, fv):
        """Per axis, rho on every face plane of fv[axis], from the cell the
        face velocity comes out of; rho_B outside the walls."""
        faces = self.boundary.faces
        ups = []
        for axis, U in enumerate(fv):
            rho_b_lo = self.boundary.rho_b[2 * axis]
            rho_b_hi = self.boundary.rho_b[2 * axis + 1]
            # the wall face plane of U and the wall cell layer of rho
            lo = faces[2 * axis].wall
            hi = faces[2 * axis + 1].wall
            up = np.empty(U.shape)
            inner = slab(axis, slice(1, -1))
            left, right = slab(axis, _LO), slab(axis, _HI)
            up[inner] = np.where(U[inner] > 0.0, rho[left], rho[right])
            up[lo] = np.where(U[lo] > 0.0, rho_b_lo, rho[lo])
            up[hi] = np.where(U[hi] > 0.0, rho[hi], rho_b_hi)
            ups.append(up)
        return ups

    def advective_flux_divergence(self, rho, fv):
        """div of the upwinded face flux, plus boundary flux tallies."""
        flux = [U * up for U, up in zip(fv, self.upwind_values(rho, fv))]
        inflow_mass = 0.0
        outflow_mass = 0.0
        faces = self.boundary.faces
        for axis, F in enumerate(flux):
            area = faces[2 * axis].area_element
            # outward boundary fluxes: low wall outward = -F_lo, high = +F_hi
            for flux_out in (-F[faces[2 * axis].wall],
                             F[faces[2 * axis + 1].wall]):
                inflow_mass += -area * float(flux_out[flux_out < 0].sum())
                outflow_mass += area * float(flux_out[flux_out > 0].sum())
        return face_divergence(self.grid, flux), inflow_mass, outflow_mass

    def grad_rho(self, rho):
        """Central-difference gradient using this solver's boundary ghosts."""
        return gradient(self.grid, rho, self.rules)

    def step(self, rho, fv, start=None):
        """One step with the CG from start; returns (rho_new, info dict).

        A start first takes Jacobi sweeps of the step's own system
        (``_solve_diffusion``), which damp the start's error by at least
        (1 + s) / s each: the coupling starts each sweep after the first
        from the density of the sweep before, off by what the velocity
        moved since.
        """
        g = self.grid
        div, mass_in, mass_out = self.advective_flux_divergence(rho, fv)
        rhs = rho - self.dt * div
        # implicit diffusion: affine boundary term moves to the right side
        a = self.eps * self.dt
        for face, (_, b) in zip(self.boundary.faces, self.rules):
            rhs[face.wall] += a * (b / g.h[face.axis] ** 2)
        rho_new, iters = self._solve_diffusion(rhs, start)
        # diffusive boundary flux at the new state (outward normal direction)
        eps_flux = sum(face.area_element * float(flux.sum()) for face, flux
                       in zip(self.boundary.faces, self.wall_fluxes(rho_new)))
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
    """Densities at times[k] and the face velocities fvs[k] that carried
    rhos[k] to rhos[k + 1]."""
    solver: ContinuitySolver
    times: list
    rhos: list
    fvs: list


# --------------------------------------------------------- weak residuals


def _cell_velocity_from_faces(fv):
    """Cell-center velocity (3, nx, ny, nz) by averaging the two bounding
    faces, per axis."""
    return np.stack([0.5 * (U[slab(axis, _LO)] + U[slab(axis, _HI)])
                     for axis, U in enumerate(fv)])


def weak_residual_continuity(traj, phi, grad_phi):
    """Space-time weak-form residual of the eps-regularised continuity
    equation along a stored trajectory.

    phi: callable (x, y, z, t) -> array; grad_phi -> (3, ...).  Step k pairs
    the increment rho^{k+1} - rho^k with phi(t_{k+1}), so stationary states
    give exactly zero, and takes the flux terms at t_k: the advective flux
    of rho^k through fvs[k], upwinded with rho_B on inflow walls, and the
    eps bulk term and Robin wall flux of rho^{k+1}, the implicit half of the
    step.  The boundary terms are the scheme's own, so the residual measures
    discretization error only; for phi = 1 it is the discrete mass balance.
    """
    solver = traj.solver
    g = solver.grid
    X, Y, Z = g.coords()
    times, rhos = traj.times, traj.rhos
    res = 0.0
    for k in range(len(times) - 1):
        t, t_new = times[k], times[k + 1]
        dt = t_new - t
        rho, rho_new = rhos[k], rhos[k + 1]
        flux = rho * _cell_velocity_from_faces(traj.fvs[k]) \
            - solver.eps * solver.grad_rho(rho_new)
        res += volume_integral(g, (rho_new - rho) * phi(X, Y, Z, t_new)) \
            - dt * volume_integral(g, np.einsum("a...,a...->...", flux,
                                                grad_phi(X, Y, Z, t)))
        for face, diff_flux, rho_b in zip(solver.boundary.faces,
                                          solver.wall_fluxes(rho_new),
                                          solver.boundary.rho_b):
            # outward advective flux with the scheme's upwind trace
            adv_flux = face.ubn * np.where(face.inflow, rho_b, rho[face.wall])
            res -= dt * face.area_element * float(
                ((diff_flux - adv_flux) * phi(*face.xyz, t)).sum())
    return float(res)


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
    solver = traj.solver
    g = solver.grid
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
        rules = solver.robin_rules(
            [rho_b - chi(t) for rho_b in solver.boundary.rho_b])
        grad_r = gradient(g, r, rules)
        grad_r2 = np.einsum("a...,a...->...", grad_r, grad_r)
        eps_term = -solver.eps * volume_integral(g, Bpp(r) * grad_r2)
        eps_term_total += dt * eps_term
        bulk = volume_integral(g, Bp(r) * (-div_flux - dchi_dt(t))) + eps_term
        boundary = 0.0
        for face, diff_flux in zip(solver.boundary.faces,
                                   solver.wall_fluxes(r, rules)):
            boundary += face.area_element * float(
                (Bp(r[face.wall]) * diff_flux).sum())
        rhs += dt * (bulk + boundary)
    return float(lhs - rhs), float(eps_term_total)
