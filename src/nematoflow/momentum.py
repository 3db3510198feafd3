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
from .domain import gradient_padded, laplacian_padded, pad
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


def elastic_stress(grid, P, c_star):
    """G(Q) I - grad Q (.) grad Q, with G = |grad Q|^2/2 + tr(Q^2)/2
    + c*/4 tr^2(Q^2).  P: packed Q ghost-padded by the Dirichlet rules of
    the wall Q_B."""
    q = P[1:-1, 1:-1, 1:-1]
    gq = gradient_padded(grid, P)         # (..., 5, 3)
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


def rotational_stress(grid, P):
    """Q L - L Q with L = lap Q, from packed Q ghost-padded by the wall
    rules; the non-derivative molecular-field terms commute with Q, so only
    the Laplacian survives the commutator.

    Q and L are symmetric, so Q L - L Q = 2 skew(Q L) and its three
    independent entries are closed forms in the packed components.
    """
    q11, q12, q13, q22, q23 = np.moveaxis(P[1:-1, 1:-1, 1:-1], -1, 0)
    l11, l12, l13, l22, l23 = np.moveaxis(laplacian_padded(grid, P), -1, 0)
    q33 = -q11 - q22
    l33 = -l11 - l22
    r12 = (q11 - q22) * l12 + q12 * (l22 - l11) + q13 * l23 - q23 * l13
    r13 = (q11 - q33) * l13 + q13 * (l33 - l11) + q12 * l23 - q23 * l12
    r23 = (q22 - q33) * l23 + q23 * (l33 - l22) + q12 * l13 - q13 * l12
    r = np.stack([r12, r13, r23], axis=-1)
    sig = np.zeros(q11.shape + (3, 3))
    sig[..., (0, 0, 1), (1, 2, 2)] = r
    sig[..., (1, 2, 2), (0, 0, 1)] = -r
    return sig


def active_stress(q, c, sigma_star):
    return sigma_star * (c * c)[..., None, None] * tensors.to_matrix(q)


def assemble_stresses(grid, rho, u_jac, c, q, law, pressure_law, q_rules,
                      c_star, sigma_star):
    """All five stress fields for the current iterate.

    u_jac: (..., 3, 3) velocity Jacobian of the full velocity v + u_B.
    q_rules: Dirichlet ghost rules of the wall order tensor; q is padded by
    them once, for both the gradient and the Laplacian.
    """
    D = 0.5 * (u_jac + np.swapaxes(u_jac, -1, -2))
    S = rh.subgradient(law, D)
    P = pad(q, q_rules)
    tau = elastic_stress(grid, P, c_star)
    sig_r = rotational_stress(grid, P)
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
    return scipy.linalg.cho_solve(cf, rhs.reshape(M.shape[0], 3)).reshape(-1)


def step_momentum(basis, v, rho, rhs, dt):
    """Advance the coefficient vector: v + dt * M(rho)^{-1} rhs."""
    return v + dt * mass_solve(basis, rho, rhs)
