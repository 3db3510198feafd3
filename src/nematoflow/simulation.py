"""Coupled time stepping of density, concentration, order tensor, velocity.

Each step resolves the velocity through a fixed-point iteration on the
Galerkin coefficient vector: a candidate drives one step of the three field
solvers, the resulting fields feed the projected momentum balance, and the
momentum solve returns the next candidate.  The first candidate is the
linear extrapolation ``2 v^n - v^{n-1}`` when the state carries ``v_prev``
(every state a step returns does), otherwise ``v^n``; the step is a pure
function of the state, so a restart from a snapshot (``v_prev`` stored as
``coeffs_prev``) follows the same iterates.  Candidates are combined by
Anderson mixing (type II, Walker & Ni, SIAM J. Numer. Anal. 49, 2011) over
the last ``ANDERSON_DEPTH`` iterates, with mixing factor ``THETA``; at
depth 0 this is the damped Picard step ``THETA * v_next + (1 - THETA) * v``.
If an increment grows, the history is dropped and the mixing factor is
halved for the rest of the step.

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
packed old Q and the upwind differences of c^n and Q^n.  The density CG of
each sweep starts from the density of the sweep before.

Layout: the solvers work on fields with grid axes last.  ``State.q`` alone
keeps the (nx, ny, nz, 5) layout that snapshots store and the benchmark's
digests sample; ``q_components`` and ``q_exchange`` are its only conversions.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import galerkin as gk
from . import momentum as mom
from .continuity import ContinuitySolver, face_lift, face_velocities
from .domain import BoundaryFaces, pad, upwind_differences
from .errors import FixedPointError
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
        if not (self.eps > 0 and self.d0 > 0 and self.gamma > 0):
            raise ValueError("eps, D0, Gamma must be positive")


@dataclass
class State:
    t: float
    rho: np.ndarray
    c: np.ndarray
    q: np.ndarray
    v: np.ndarray
    v_prev: np.ndarray = None    # coefficients one step back, if any

    def copy(self):
        return State(self.t, self.rho.copy(), self.c.copy(), self.q.copy(),
                     self.v.copy(),
                     None if self.v_prev is None else self.v_prev.copy())


def q_components(q):
    """Packed Q (5, nx, ny, nz), contiguous, from a ``State.q`` array
    (nx, ny, nz, 5); no copy when q is a ``q_exchange`` view."""
    return np.ascontiguousarray(np.moveaxis(q, -1, 0))


def q_exchange(q):
    """``State.q`` view (nx, ny, nz, 5) of a packed Q (5, nx, ny, nz); its
    ravel is the exchange order of snapshot ``q`` records and digests."""
    return np.moveaxis(q, 0, -1)


class CoupledStepper:
    def __init__(self, grid, basis, physics, law, pressure_law, bdata, dt,
                 picard_tol=1e-10):
        self.grid = grid
        self.basis = basis
        self.physics = physics
        self.law = law
        self.pressure_law = pressure_law
        self.bdata = bdata
        self.dt = float(dt)
        self.picard_tol = float(picard_tol)
        self.boundary = BoundaryFaces(grid, bdata)
        self.continuity = ContinuitySolver(grid=grid, eps=physics.eps, dt=dt,
                                           boundary=self.boundary)
        X, Y, Z = grid.coords()
        self._ub_cc = bdata.u_b(X, Y, Z)
        self._ub_jac_cc = bdata.u_b.jacobian(X, Y, Z)
        self._ub_faces = face_lift(grid, bdata.u_b)

    # ------------------------------------------------------- field helpers

    def velocity_fields(self, v):
        """Cell-center velocity u (3, nx, ny, nz), Jacobian J[a, d]
        (3, 3, nx, ny, nz) and packed skew part lam (3, nx, ny, nz) for v,
        grid axes last like every field but ``State.q``."""
        u = gk.synthesize(self.basis, v) + self._ub_cc
        J = gk.synthesize_jacobian(self.basis, v) + self._ub_jac_cc
        a, d = _SKEW
        return u, J, 0.5 * (J[a, d] - J[d, a])

    def advance_fields(self, state, q, diffs, rho_start, v, u, lam):
        """One step of rho, c, Q driven by the velocity for v.

        q, diffs: packed state.q and the upwind differences of state.c and
        q; rho_start: first density CG iterate; u, lam: cell-center velocity
        and packed skew part for v (``velocity_fields``).  Returns Q packed.
        """
        fv = face_velocities(self.grid, self.basis, v, self._ub_faces)
        rho_new, cont_info = self.continuity.step(state.rho, fv, t=state.t,
                                                  start=rho_start)
        c_new = step_concentration(self.grid, state.c, diffs[0], u,
                                   self.physics.d0, self.dt)
        q_new = step_q(self.grid, q, diffs[1], u, lam, state.c,
                       self.dt, self.physics.gamma, self.physics.b,
                       self.physics.c_star, self.boundary.q_rules)
        return rho_new, c_new, q_new, cont_info

    def momentum_rhs(self, rho, c, q, u, J):
        """Projected momentum right-hand side for fields rho, c, packed
        q (5, ...) and the cell-center velocity u with Jacobian J."""
        T = mom.assemble_stresses(
            self.grid, rho, u, J, c, q, self.law, self.pressure_law,
            self.boundary.q_rules, self.physics.c_star, self.physics.sigma_star)
        grad_rho = self.continuity.grad_rho(rho)
        return mom.galerkin_rhs(self.basis, T, J, self.physics.eps, grad_rho)

    # ------------------------------------------------------------ stepping

    def step(self, state):
        """Advance the coupled state by dt; returns (new_state, info)."""
        v0 = state.v
        v_cur = v0.copy() if state.v_prev is None else 2.0 * v0 - state.v_prev
        beta = THETA
        d_v = deque(maxlen=ANDERSON_DEPTH)    # differences of iterates
        d_f = deque(maxlen=ANDERSON_DEPTH)    # differences of residuals
        v_last = f_last = rho_k = None    # last iterate, residual, density
        increments = []
        q = q_components(state.q)
        diffs = [upwind_differences(self.grid, P) for P in
                 (pad(state.c), pad(q, self.boundary.q_rules))]
        for _ in range(PICARD_MAX_ITER):
            u, J, lam = self.velocity_fields(v_cur)
            rho_k, c_k, q_k, cont_info = self.advance_fields(
                state, q, diffs, rho_k, v_cur, u, lam)
            rhs = self.momentum_rhs(rho_k, c_k, q_k, u, J)
            v_next = mom.step_momentum(self.basis, v0, rho_k, rhs, self.dt)
            f = v_next - v_cur
            incr = float(np.linalg.norm(f))
            increments.append(incr)
            if incr <= self.picard_tol:
                break
            if len(increments) > 1 and incr > increments[-2]:
                beta *= 0.5
                d_v.clear()
                d_f.clear()
            elif f_last is not None:
                d_v.append(v_cur - v_last)
                d_f.append(f - f_last)
            v_last, f_last = v_cur, f
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
                          v_next, v_prev=v0)
        info = {"picard_iters": len(increments), "increments": increments}
        if len(increments) >= 2:
            # geometric mean of the successive increment ratios
            info["contraction"] = (increments[-1] / increments[0]) ** (
                1.0 / (len(increments) - 1))
        info.update(cont_info)
        return new_state, info


@dataclass
class Trajectory:
    """Stored per-step fields for the weak-form and balance checks."""
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)

    def record(self, state):
        self.times.append(state.t)
        self.states.append(state.copy())


def run_coupled(stepper, state0, n_steps, record=True, monitor=None):
    """Drive n_steps of the coupled system.

    monitor: optional callable (state_before, state_after, info) -> None,
    invoked after every accepted step (the energy ledger hooks in here).
    Returns (final_state, trajectory or None).
    """
    traj = Trajectory() if record else None
    state = state0
    if record:
        traj.record(state)
    for _ in range(n_steps):
        prev = state
        state, info = stepper.step(state)
        if monitor is not None:
            monitor(prev, state, info)
        if record:
            traj.record(state)
    return state, traj
