"""Stress assembly and the projected momentum balance.

The test space is the sine-mode velocity basis; its members vanish on the
walls, so every stress enters the balance through a pairing with the test
gradient and no surface terms appear.  The mass pairing M_ij = int rho w_i
w_j is one m^3 x m^3 block shared by the three velocity components.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .domain import gradient, laplacian
from .errors import ConditioningError

# largest mass-matrix condition number the Cholesky solve accepts
_COND_LIMIT = 1e12


@dataclass
class StressBundle:
    viscous: np.ndarray     # (..., 3, 3) symmetric
    elastic: np.ndarray     # (..., 3, 3) symmetric
    rotational: np.ndarray  # (..., 3, 3) antisymmetric
    active: np.ndarray      # (..., 3, 3) symmetric traceless
    pressure: np.ndarray    # (...,) scalar p(rho)

    def total_flux(self, rho, u):
        """rho u (x) u + p I - S - tau - sigma_r - sigma_a, the tensor whose
        pairing with grad w gives the momentum right side."""
        T = np.einsum("...a,...b->...ab", u, rho[..., None] * u)
        eye = np.eye(3)
        T = T + self.pressure[..., None, None] * eye
        return T - self.viscous - self.elastic - self.rotational - self.active


def elastic_stress(grid, q, q_rules, c_star):
    """G(Q) I - grad Q (.) grad Q, with G = |grad Q|^2/2 + tr(Q^2)/2
    + c*/4 tr^2(Q^2).  q_rules: Dirichlet ghost rules of the wall Q_B."""
    gq = gradient(grid, q, q_rules)          # (..., 5, 3)
    # (grad Q (.) grad Q)_{ij} = sum_ab d_i Q_ab d_j Q_ab on the packed
    # encoding, so the pairing carries the 33 and off-diagonal weights
    gq_i = np.moveaxis(gq, -1, 0)            # (3, ..., 5)
    odot = np.empty(q.shape[:-1] + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            val = tensors.packed_dot(gq_i[i], gq_i[j])
            odot[..., i, j] = val
            odot[..., j, i] = val
    t2 = tensors.trace_q2(q)
    g_scal = 0.5 * np.einsum("...ii->...", odot) + 0.5 * t2 \
        + 0.25 * c_star * t2 * t2
    return g_scal[..., None, None] * np.eye(3) - odot


def rotational_stress(grid, q, q_rules):
    """Q lap Q - lap Q Q; the non-derivative molecular-field terms commute
    with Q, so only the Laplacian survives the commutator."""
    lap = laplacian(grid, q, q_rules)
    qm = tensors.to_matrix(q)
    lm = tensors.to_matrix(lap)
    return qm @ lm - lm @ qm


def active_stress(q, c, sigma_star):
    return sigma_star * (c * c)[..., None, None] * tensors.to_matrix(q)


def assemble_stresses(grid, rho, u_jac, c, q, law, pressure_law, q_rules,
                      c_star, sigma_star):
    """All five stress fields for the current iterate.

    u_jac: (..., 3, 3) velocity Jacobian of the full velocity v + u_B.
    q_rules: Dirichlet ghost rules of the wall order tensor.
    """
    D = 0.5 * (u_jac + np.swapaxes(u_jac, -1, -2))
    S = rh.subgradient(law, D)
    tau = elastic_stress(grid, q, q_rules, c_star)
    sig_r = rotational_stress(grid, q, q_rules)
    sig_a = active_stress(q, c, sigma_star)
    p = pr.pressure(pressure_law, rho)
    return StressBundle(viscous=S, elastic=tau, rotational=sig_r,
                        active=sig_a, pressure=p)


def galerkin_rhs(basis, bundle, rho, u, u_jac, eps, grad_rho):
    """Projected momentum right side, one entry per basis mode."""
    T = bundle.total_flux(rho, u)
    rhs = gk.project_tensor_divergence(basis, T)
    # coupling term: -eps * (grad rho . grad) u tested against w
    f = np.einsum("...d,...ad->...a", grad_rho, u_jac)
    return rhs - eps * gk.project(basis, f)


def mass_solve(basis, rho, rhs):
    """Solve the block mass system M(rho) x = rhs for each component."""
    M = gk.mass_matrix(basis, rho)
    cond = np.linalg.cond(M)
    if cond > _COND_LIMIT:
        raise ConditioningError(
            f"mass matrix condition number {cond:.3e} exceeds {_COND_LIMIT:g}")
    cf = scipy.linalg.cho_factor(M)
    n3 = M.shape[0]
    x = np.empty_like(rhs)
    blocks = rhs.reshape(n3, 3)
    out = scipy.linalg.cho_solve(cf, blocks)
    x[:] = out.reshape(-1)
    return x


def step_momentum(basis, v, rho, rhs, dt):
    """Advance the coefficient vector: v + dt * M(rho)^{-1} rhs."""
    return v + dt * mass_solve(basis, rho, rhs)
