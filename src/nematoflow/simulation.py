"""Coupled time stepping of density, concentration, order tensor, velocity.

Each step resolves the velocity through a fixed-point iteration on the
Galerkin coefficient vector: a candidate drives one step of the three field
solvers, the resulting fields feed the projected momentum balance, and the
momentum solve returns the next candidate.  Candidates are combined by
Anderson mixing (type II, in the form of Walker & Ni, SIAM J. Numer. Anal.
49, 2011) over the last ``ANDERSON_DEPTH`` iterates, with mixing factor
``theta``; at depth 0 this is the damped Picard step
``theta * v_next + (1 - theta) * v``.  If an increment grows, the history is
dropped and ``theta`` is halved for the rest of the step.  Convergence is
declared on the l2 increment of the coefficient vector; the accepted
velocity then advances the fields once more so the stored state is
consistent with it.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import galerkin as gk
from . import momentum as mom
from .continuity import ContinuitySolver, face_lift, face_velocities
from .domain import BoundaryFaces
from .errors import FixedPointError
from .nematic import step_concentration, step_q

# number of past iterate/residual differences kept by the Anderson mixing
ANDERSON_DEPTH = 4


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

    def copy(self):
        return State(self.t, self.rho.copy(), self.c.copy(), self.q.copy(),
                     self.v.copy())


class CoupledStepper:
    def __init__(self, grid, basis, physics, law, pressure_law, bdata, dt,
                 picard_tol=1e-10, picard_max_iter=60, theta=1.0):
        self.grid = grid
        self.basis = basis
        self.physics = physics
        self.law = law
        self.pressure_law = pressure_law
        self.bdata = bdata
        self.dt = float(dt)
        self.picard_tol = float(picard_tol)
        self.picard_max_iter = int(picard_max_iter)
        self.theta = float(theta)
        self.boundary = BoundaryFaces(grid, bdata)
        self.continuity = ContinuitySolver(grid=grid, eps=physics.eps, dt=dt,
                                           boundary=self.boundary)
        X, Y, Z = grid.coords()
        self._ub_cc = bdata.u_b(X, Y, Z)
        self._ub_jac_cc = bdata.u_b.jacobian(X, Y, Z)
        self._ub_faces = face_lift(grid, bdata.u_b)

    # ------------------------------------------------------- field helpers

    def velocity_fields(self, v):
        """Cell-center velocity, Jacobian, and packed skew part for v."""
        u = gk.synthesize(self.basis, v) + self._ub_cc
        J = gk.synthesize_jacobian(self.basis, v) + self._ub_jac_cc
        lam = np.empty(self.grid.shape + (3,))
        lam[..., 0] = 0.5 * (J[..., 0, 1] - J[..., 1, 0])
        lam[..., 1] = 0.5 * (J[..., 0, 2] - J[..., 2, 0])
        lam[..., 2] = 0.5 * (J[..., 1, 2] - J[..., 2, 1])
        return u, J, lam

    def advance_fields(self, state, v, u, lam):
        """One step of rho, c, Q driven by the velocity for v.

        u, lam: cell-center velocity and packed skew part for v, as returned
        by ``velocity_fields``.
        """
        fv = face_velocities(self.grid, self.basis, v, self._ub_faces)
        rho_new, cont_info = self.continuity.step(state.rho, fv, t=state.t)
        c_new = step_concentration(self.grid, state.c, u, self.physics.d0,
                                   self.dt)
        q_new = step_q(self.grid, state.q, u, lam, state.c, self.dt,
                       self.physics.gamma, self.physics.b, self.physics.c_star,
                       self.boundary.q_rules)
        return rho_new, c_new, q_new, cont_info

    def momentum_rhs(self, rho, c, q, u, J):
        """Projected momentum right-hand side for fields rho, c, q and the
        cell-center velocity u with Jacobian J."""
        bundle = mom.assemble_stresses(
            self.grid, rho, J, c, q, self.law, self.pressure_law,
            self.boundary.q_rules, self.physics.c_star, self.physics.sigma_star)
        grad_rho = self.continuity.grad_rho(rho)
        return mom.galerkin_rhs(self.basis, bundle, rho, u, J,
                                self.physics.eps, grad_rho)

    # ------------------------------------------------------------ stepping

    def step(self, state):
        """Advance the coupled state by dt; returns (new_state, info)."""
        v0 = state.v
        v_cur = v0.copy()
        beta = self.theta
        d_v = deque(maxlen=ANDERSON_DEPTH)    # differences of iterates
        d_f = deque(maxlen=ANDERSON_DEPTH)    # differences of residuals
        v_prev = f_prev = None
        increments = []
        converged = False
        for _ in range(self.picard_max_iter):
            u, J, lam = self.velocity_fields(v_cur)
            rho_k, c_k, q_k, _ = self.advance_fields(state, v_cur, u, lam)
            rhs = self.momentum_rhs(rho_k, c_k, q_k, u, J)
            v_next = mom.step_momentum(self.basis, v0, rho_k, rhs, self.dt)
            f = v_next - v_cur
            incr = float(np.linalg.norm(f))
            increments.append(incr)
            if incr <= self.picard_tol:
                v_cur = v_next
                converged = True
                break
            if len(increments) > 1 and incr > increments[-2]:
                beta *= 0.5
                d_v.clear()
                d_f.clear()
            elif f_prev is not None:
                d_v.append(v_cur - v_prev)
                d_f.append(f - f_prev)
            v_prev, f_prev = v_cur, f
            v_new = beta * v_next + (1.0 - beta) * v_cur
            if d_v:
                dV = np.stack(d_v, axis=1)
                dF = np.stack(d_f, axis=1)
                gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
                v_new -= (dV + beta * dF) @ gamma
            v_cur = v_new
        if not converged:
            raise FixedPointError(
                f"coupling iteration did not reach {self.picard_tol:g} in "
                f"{self.picard_max_iter} iterations "
                f"(last increment {increments[-1]:.3e})",
                last_increment=increments[-1])
        u, _, lam = self.velocity_fields(v_cur)
        rho_f, c_f, q_f, cont_info = self.advance_fields(state, v_cur, u, lam)
        new_state = State(state.t + self.dt, rho_f, c_f, q_f, v_cur)
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
    grid: object
    stepper: CoupledStepper
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    infos: list = field(default_factory=list)

    def record(self, state, info=None):
        self.times.append(state.t)
        self.states.append(state.copy())
        self.infos.append(info)


def run_coupled(stepper, state0, n_steps, record=True, monitor=None):
    """Drive n_steps of the coupled system.

    monitor: optional callable (state_before, state_after, info) -> None,
    invoked after every accepted step (the energy ledger hooks in here).
    Returns (final_state, trajectory or None).
    """
    traj = Trajectory(grid=stepper.grid, stepper=stepper) if record else None
    state = state0.copy()
    if record:
        traj.record(state)
    for _ in range(n_steps):
        prev = state
        state, info = stepper.step(state)
        if monitor is not None:
            monitor(prev, state, info)
        if record:
            traj.record(state, info)
    return state, traj
