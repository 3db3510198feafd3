"""Coupled time stepping of density, concentration, order tensor, velocity.

Each step resolves the velocity through a fixed-point iteration on the
Galerkin coefficient vector: a candidate drives one step of the three field
solvers, the resulting fields feed the projected momentum balance, and the
momentum solve returns the next candidate.  The first candidate is the
quadratic extrapolation ``3 v^n - 3 v^{n-1} + v^{n-2}`` when the state
carries ``v_prev`` and ``v_prev2`` (every state after the second step does),
the linear ``2 v^n - v^{n-1}`` when it carries ``v_prev`` alone, otherwise
``v^n``.  On the 16^3 channel flow the quadratic start lands about 17x
closer to the accepted v^{n+1} than the linear one, about one sweep fewer
per step.  The step is a pure function of the state, so a restart from a
snapshot (``v_prev`` and ``v_prev2`` stored as ``coeffs_prev`` and
``coeffs_prev2``) follows the same iterates.  Candidates are combined by
Anderson mixing (type II, Walker & Ni, SIAM J. Numer. Anal. 49, 2011) over
the last ``ANDERSON_DEPTH`` iterates, with mixing factor ``THETA``; at
depth 0 this is the damped Picard step ``THETA * v_next + (1 - THETA) * v``.
If an increment grows, the history, carried pairs included, is dropped and
the mixing factor is halved for the rest of the step.

The momentum solve of an iterate v_k returns
v_k + (M + dt K)^{-1} [M (v^n - v_k) + dt rhs(v_k)], M = M(rho_k)
(``momentum.step_momentum``).  K is a Newtonian viscous stiffness
(``galerkin.viscous_stiffness``) built once per stepper from the scenario
alone (``momentum.implicit_stiffness``): the law's own for a Newtonian
law; for every other law that of the smallest secant viscosity f_d/d over
the cells at the lift's rate of strain, a frozen Kacanov-type secant
linearisation (Heid & Wihler, Math. Comp. 89, 2020), and zero for a lift
with no shear.  The fixed point M (v - v^n) = dt rhs(v) does not depend on
K, but the map does.  Applied explicitly (K = 0), the viscous term makes
the plain map contract at dt lam_max(M^{-1} K), 0.165 per sweep on the
32^3, m=4 Newtonian channel flow (0.03-0.11 with Anderson mixing); taken
implicitly (IMEX; Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995),
it leaves the rest of rhs, which contracts at about 1e-3 per sweep there:
3 sweeps per step instead of 7.  On the 8^3 power-law channel flow, with
only the stress beyond the secant K explicit: 4 sweeps per step, not 5-5.33
over 3 steps, and 2.5-2.83, not 4.23-4.47, over 30 (seeds 0 and 5).  K
depends on no state, so a restart meets the same map, and the carried
pairs below always belong to the map of the step they start.

The history outlives the step.  A step ends with its last
``ANDERSON_DEPTH`` (dv, df) pairs in ``State.anderson_dv`` and
``State.anderson_df``, the converged sweep's own pair appended before it
stops, so a two-sweep step still renews them; the next step starts from
them and mixes its first sweep at once.  The fixed-point map moves by O(dt)
per step, so the old secant pairs predict the new correction: on the 16^3
channel flow a step took about 2.3 sweeps instead of 4.1 with the explicit
viscous term, and takes about 2.05 with the implicit one.  Snapshots store
the pairs, so a restart follows the same iterates.

The iteration stops, within ``PICARD_MAX_ITER`` iterations or
``FixedPointError``, once the l2 increment ``incr`` of the coefficient
vector is at most ``picard_tol``, or once the a-posteriori contraction
bound says the returned velocity is that close to the fixed point: with r
the ratio of the last two increments, r <= ``BOUND_MAX_RATIO`` and
``r/(1-r)*incr + |v_mixed - v_next| <= picard_tol``.  The bound r/(1-r)*incr
(Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995)
is on the error of the next mixed iterate; r alone does not bound the error
of ``v_next``, which the plain map contracts more slowly than Anderson
mixing does.  The step stores the fields of the last sweep with the
velocity that sweep returned, so no further sweep is run: the fields were
advanced by an iterate within one increment of it (within ``picard_tol``
when the plain test stopped the iteration).  Built once per step: the
packed old Q and the upwind differences of c^n and Q^n.

The density CG of sweep 1 starts from its right side, that of each later
sweep from the density of the sweep before; ``ContinuitySolver.step``
gives such a start Jacobi sweeps of its own system before the CG, until
its residual meets the CG's test, so on the 16^3 channel flow the
accepted solve takes no CG iteration.  Only the start moves; the solution
is the CG's to its own tolerance.
``check_step`` admits dt for each sweep's velocity before any field moves.

A step hands its accepted sweep's derivatives of rho_k and Q_k to its
caller in ``info["fields"]``: |grad Q|^2 and tr(Q^2) of the elastic
stress, lap Q of the rotational stress and grad rho of the momentum right
side, the arrays the energy ledger row of the new state needs
(``energy.EnergyMonitor.row``).  Each sweep fills a new dict, so the
record of the sweep before is freed before the next one allocates; the
caller drops the accepted one after the row (``runner.run_scenario``
pops it), so it does not live into the next step.

``CoupledStepper.velocity`` is the cell-centre velocity of a coefficient
vector, its modes plus the lift ``BoundaryFaces.u_cells``.  Callers loop
over ``CoupledStepper.step`` themselves.  No code mutates a state once a
step has returned it, so a list of returned states is a trajectory.

Layout: the solvers work on fields with grid axes last.  ``State.q`` alone
keeps the (nx, ny, nz, 5) layout that snapshots store and the benchmark's
digests sample; ``q_components`` and ``q_exchange`` are its only conversions.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import galerkin as gk
from . import momentum as mom
from .continuity import ContinuitySolver, face_velocities
from .domain import BoundaryFaces, pad, upwind_differences
from .errors import ConfigError, FixedPointError, StabilityError
from .nematic import step_concentration, step_q

# number of past iterate/residual differences kept by the Anderson mixing
ANDERSON_DEPTH = 4
# mixing factor of the new candidate, and the iteration budget of one step
THETA = 1.0
PICARD_MAX_ITER = 60
# largest ratio r of successive increments at which the contraction bound
# may stop the iteration: Anderson's superlinear tail runs at r ~ 0.01-0.02,
# where the bound is sharp; a damped iteration (r ~ 0.25-0.5) keeps the
# plain increment test
BOUND_MAX_RATIO = 0.1
# entries (a, d) of the three skew components l12, l13, l23
_SKEW = ((0, 0, 1), (1, 2, 2))


@dataclass
class Physics:
    eps: float = 0.05
    d0: float = 0.25
    gamma: float = 0.25
    c_star: float = 1.0
    b: float = 0.2
    sigma_star: float = 0.1

    def __post_init__(self):
        # c* > 0: the quartic 0.25 c* tr^2(Q^2) bounds the Q energy below
        if not (self.eps > 0 and self.d0 > 0 and self.gamma > 0
                and self.c_star > 0):
            raise ConfigError("eps, D0, Gamma, c_star must be positive")


@dataclass
class State:
    t: float
    rho: np.ndarray
    c: np.ndarray
    q: np.ndarray
    v: np.ndarray
    v_prev: np.ndarray = None    # coefficients one step back, if any
    v_prev2: np.ndarray = None   # coefficients two steps back, if any
    # Anderson history the step to this state ended with: differences of
    # iterates and residuals, (k, n) with 1 <= k <= ANDERSON_DEPTH; None
    # when it kept none
    anderson_dv: np.ndarray = None
    anderson_df: np.ndarray = None


def q_components(q):
    """Packed Q (5, nx, ny, nz), contiguous, from a ``State.q`` array
    (nx, ny, nz, 5); no copy when q is a ``q_exchange`` view."""
    return np.ascontiguousarray(np.moveaxis(q, -1, 0))


def q_exchange(q):
    """``State.q`` view (nx, ny, nz, 5) of a packed Q (5, nx, ny, nz); its
    ravel is the exchange order of snapshot ``q`` records and digests."""
    return np.moveaxis(q, 0, -1)


def gamma_step_limit(h_min, gamma):
    """Largest dt the explicit Q relaxation admits on cells of smallest
    width h_min: 0.9*h^2/(6*Gamma)."""
    return 0.9 * h_min ** 2 / (6.0 * gamma)


def check_step(grid, dt, fv, u, physics):
    """StabilityError unless dt is admissible for a sweep with face
    velocities fv and cell-center velocity u.  In order: the face CFL limit,
    the advective weight dt*sum(|u_d|/h_d) <= 1 of fv, the weight of u, the
    Gamma limit of the explicit Q relaxation (the diffusion solves are
    implicit).  A NaN fails a weight test."""
    h_min = min(grid.h)

    def limit(bound, text):
        if not dt <= bound:
            raise StabilityError(f"dt = {dt:g} exceeds 0.9*{text} = {bound:g}")

    def weight(vel):
        w = dt * sum(float(np.max(np.abs(U))) / h for U, h in zip(vel, grid.h))
        if not w <= 1.0:
            raise StabilityError(
                f"advective weight dt*sum(|u_d|/h_d) = {w:g} > 1")

    umax = max(float(np.max(np.abs(U))) for U in fv)
    limit(0.9 * (h_min / umax) if umax > 0 else np.inf, "h/|u|")
    weight(fv)
    weight(u)
    limit(gamma_step_limit(h_min, physics.gamma), "h^2/(6*Gamma)")


class CoupledStepper:
    def __init__(self, grid, basis, physics, law, pressure_law, bdata, dt,
                 picard_tol=1e-10):
        self.grid = grid
        self.basis = basis
        self.physics = physics
        self.law = law
        self.pressure_law = pressure_law
        self.dt = float(dt)
        self.picard_tol = float(picard_tol)
        self.boundary = BoundaryFaces(grid, bdata)
        self.continuity = ContinuitySolver(grid=grid, eps=physics.eps, dt=dt,
                                           boundary=self.boundary)
        # the viscous stiffness each sweep takes implicitly, fixed for the
        # run: the Newtonian law's own, a frozen secant one for other laws
        self.stiffness = mom.implicit_stiffness(basis, law,
                                                self.boundary.jac_cells)

    # ------------------------------------------------------- field helpers

    def velocity(self, v):
        """Cell-center velocity u = modes of v + u_B, (3, nx, ny, nz)."""
        return gk.synthesize(self.basis, v) + self.boundary.u_cells

    def velocity_fields(self, v):
        """Cell-center velocity u (3, nx, ny, nz), Jacobian J[a, d]
        (3, 3, nx, ny, nz) and packed skew part lam (3, nx, ny, nz) for v,
        grid axes last like every field but ``State.q``."""
        u = self.velocity(v)
        J = gk.synthesize_jacobian(self.basis, v) + self.boundary.jac_cells
        a, d = _SKEW
        return u, J, 0.5 * (J[a, d] - J[d, a])

    def advance_fields(self, state, q, diffs, rho_start, v, u, lam):
        """One step of rho, c, Q driven by the velocity for v.

        q, diffs: packed state.q and the upwind differences of state.c and
        q; rho_start: first density CG iterate; u, lam: cell-center velocity
        and packed skew part for v (``velocity_fields``).  Returns Q packed.
        """
        fv = face_velocities(self.grid, self.basis, v, self.boundary.u_faces)
        check_step(self.grid, self.dt, fv, u, self.physics)
        rho_new, cont_info = self.continuity.step(state.rho, fv,
                                                  start=rho_start)
        c_new = step_concentration(self.grid, state.c, diffs[0], u,
                                   self.physics.d0, self.dt)
        q_new = step_q(self.grid, q, diffs[1], u, lam, state.c,
                       self.dt, self.physics.gamma, self.physics.b,
                       self.physics.c_star, self.boundary.q_rules)
        return rho_new, c_new, q_new, cont_info

    def momentum_rhs(self, rho, c, q, u, J, fields):
        """Projected momentum right-hand side for fields rho, c, packed
        q (5, ...) and the cell-center velocity u with Jacobian J.  The
        dict fields receives the derivatives of q and rho it was built
        from: "grad_q2", "t2", "lap_q" (``momentum.assemble_stresses``) and
        "grad_rho"."""
        T = mom.assemble_stresses(
            self.grid, rho, u, J, c, q, self.law, self.pressure_law,
            self.boundary.q_rules, self.physics.c_star, self.physics.sigma_star,
            fields)
        fields["grad_rho"] = grad_rho = self.continuity.grad_rho(rho)
        return mom.galerkin_rhs(self.basis, T, J, self.physics.eps, grad_rho)

    # ------------------------------------------------------------ stepping

    def step(self, state):
        """Advance the coupled state by dt; returns (new_state, info)."""
        v0 = state.v
        if state.v_prev is None:
            v_cur = v0.copy()
        elif state.v_prev2 is None:
            v_cur = 2.0 * v0 - state.v_prev
        else:
            v_cur = 3.0 * (v0 - state.v_prev) + state.v_prev2
        beta = THETA
        # differences of iterates and residuals, the previous step's last
        # ones first
        d_v, d_f = (deque(() if h is None else h, maxlen=ANDERSON_DEPTH)
                    for h in (state.anderson_dv, state.anderson_df))
        # last iterate and residual; the next density CG start
        v_last = f_last = rho_start = None
        increments = []
        q = q_components(state.q)
        diffs = [upwind_differences(self.grid, P) for P in
                 (pad(state.c), pad(q, self.boundary.q_rules))]
        for _ in range(PICARD_MAX_ITER):
            # a new record each sweep, so the last one dies before this
            # sweep allocates
            fields = {}
            u, J, lam = self.velocity_fields(v_cur)
            rho_k, c_k, q_k, cont_info = self.advance_fields(
                state, q, diffs, rho_start, v_cur, u, lam)
            rhs = self.momentum_rhs(rho_k, c_k, q_k, u, J, fields)
            v_next = mom.step_momentum(self.basis, v0, v_cur, rho_k, rhs,
                                       self.dt, self.stiffness)
            f = v_next - v_cur
            incr = float(np.linalg.norm(f))
            increments.append(incr)
            if len(increments) > 1 and incr > increments[-2]:
                beta *= 0.5
                d_v.clear()
                d_f.clear()
            elif f_last is not None:
                d_v.append(v_cur - v_last)
                d_f.append(f - f_last)
            if incr <= self.picard_tol:
                break
            v_last, f_last, rho_start = v_cur, f, rho_k
            v_new = beta * v_next + (1.0 - beta) * v_cur
            if d_v:
                dV = np.stack(d_v, axis=1)
                dF = np.stack(d_f, axis=1)
                gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
                v_new -= (dV + beta * dF) @ gamma
            # the contraction bound r/(1-r)*incr holds for the mixed iterate
            # v_new; the stored v_next is within |v_new - v_next| of it
            r = incr / increments[-2] if len(increments) > 1 else 1.0
            if r <= BOUND_MAX_RATIO and r / (1.0 - r) * incr + float(
                    np.linalg.norm(v_new - v_next)) <= self.picard_tol:
                break
            v_cur = v_new
        else:
            raise FixedPointError(
                f"coupling iteration did not reach {self.picard_tol:g} in "
                f"{PICARD_MAX_ITER} iterations "
                f"(last increment {increments[-1]:.3e})",
                last_increment=increments[-1])
        new_state = State(state.t + self.dt, rho_k, c_k, q_exchange(q_k),
                          v_next, v0, state.v_prev,
                          *(np.stack(d) if d else None for d in (d_v, d_f)))
        info = {"picard_iters": len(increments), "increments": increments,
                "fields": fields}
        if len(increments) >= 2:
            # geometric mean of the successive increment ratios
            info["contraction"] = (increments[-1] / increments[0]) ** (
                1.0 / (len(increments) - 1))
        info.update(cont_info)
        return new_state, info
