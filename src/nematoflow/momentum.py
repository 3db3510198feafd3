"""Stress assembly and the projected momentum balance.

The test space is the sine-mode velocity basis; its members vanish on the
walls, so every stress enters the balance through a pairing with the test
gradient and no surface terms appear.  The mass pairing M_ij = int rho w_i
w_j is one m^3 x m^3 block shared by the three velocity components.

Layout: grid axes last, as in every module.  The velocity u is
(3, nx, ny, nz), packed Q is (5, nx, ny, nz) (``State.q`` reaches here
through ``simulation.q_components``), and the velocity Jacobian
J[a, d] = du_a/dx_d, the stresses and the total flux T[a, d] are
(3, 3, nx, ny, nz), so each entry is one contiguous field.  The flux is
written entry by entry: the six symmetric entries of
rho u (x) u + p I - S - tau - sigma_a, then the rotational stress, +-r off
the diagonal.  The viscous stress S comes
from the (d, t) core of the rheology (``rheology.subgradient_dt``) applied
to the entries of D; no (..., 3, 3) array is built.
"""

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

# entries a <= b of a symmetric tensor, and the three a < b
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_OFF = ((0, 1), (0, 2), (1, 2))


def elastic_stress(grid, P, c_star):
    """G(Q) I - grad Q (.) grad Q, with G = |grad Q|^2/2 + tr(Q^2)/2
    + c*/4 tr^2(Q^2); shape (3, 3, nx, ny, nz).  P: packed Q (5, ...)
    ghost-padded by the Dirichlet rules of the wall Q_B."""
    gq = gradient_padded(grid, P)                      # (3, 5, ...)
    # (grad Q (.) grad Q)_{ij} = sum_ab d_i Q_ab d_j Q_ab on the packed
    # encoding, so the pairing carries the 33 and off-diagonal weights
    odot = {(i, j): tensors.packed_dot(gq[i], gq[j]) for i, j in _UPPER}
    t2 = tensors.trace_q2(P[..., 1:-1, 1:-1, 1:-1])
    g_scal = 0.5 * (odot[0, 0] + odot[1, 1] + odot[2, 2]) + 0.5 * t2 \
        + 0.25 * c_star * t2 * t2
    tau = np.empty((3, 3) + t2.shape)
    for (i, j), val in odot.items():
        tau[i, j] = tau[j, i] = g_scal - val if i == j else -val
    return tau


def rotational_stress(grid, P):
    """Q L - L Q with L = lap Q, from packed Q ghost-padded by the wall
    rules, as in ``elastic_stress``; the non-derivative molecular-field
    terms commute with Q, so only the Laplacian survives the commutator.

    Q and L are symmetric, so Q L - L Q = 2 skew(Q L) and its three
    independent entries are closed forms in the packed components.
    """
    q11, q12, q13, q22, q23 = P[..., 1:-1, 1:-1, 1:-1]
    l11, l12, l13, l22, l23 = laplacian_padded(grid, P)
    q33 = -q11 - q22
    l33 = -l11 - l22
    sig = np.zeros((3, 3) + q11.shape)
    sig[0, 1] = (q11 - q22) * l12 + q12 * (l22 - l11) + q13 * l23 - q23 * l13
    sig[0, 2] = (q11 - q33) * l13 + q13 * (l33 - l11) + q12 * l23 - q23 * l12
    sig[1, 2] = (q22 - q33) * l23 + q23 * (l33 - l22) + q12 * l13 - q13 * l12
    for i, j in _OFF:
        np.negative(sig[i, j], out=sig[j, i])
    return sig


def active_stress(q, c, sigma_star):
    """sigma* c^2 Q from packed q (5, ...); shape (3, 3, ...)."""
    q11, q12, q13, q22, q23 = np.asarray(q, dtype=float)
    s = sigma_star * (c * c)
    sig = np.empty((3, 3) + s.shape)
    for (i, j), qij in zip(_UPPER, (q11, q12, q13, q22, q23, -q11 - q22)):
        sig[i, j] = sig[j, i] = s * qij
    return sig


def assemble_stresses(grid, rho, u, u_jac, c, q, law, pressure_law, q_rules,
                      c_star, sigma_star):
    """Total momentum flux T = rho u (x) u + p(rho) I - S - tau - sigma_r
    - sigma_a for the current iterate, shape (3, 3, nx, ny, nz).

    u: (3, ...) cell-center velocity; u_jac: Jacobian J[a, d] of the full
    velocity v + u_B; q: packed Q (5, ...).  q_rules: Dirichlet ghost rules
    of the wall order tensor; q is padded by them once, for both the
    gradient and the Laplacian.
    """
    J = u_jac
    D = {(a, b): J[a, a] if a == b else 0.5 * (J[a, b] + J[b, a])
         for a, b in _UPPER}
    t = D[0, 0] + D[1, 1] + D[2, 2]
    frob2 = D[0, 0] * D[0, 0] + D[1, 1] * D[1, 1] + D[2, 2] * D[2, 2] \
        + 2.0 * (D[0, 1] * D[0, 1] + D[0, 2] * D[0, 2] + D[1, 2] * D[1, 2])
    scale, ft = rh.subgradient_dt(
        law, np.sqrt(np.maximum(frob2 - t * t / 3.0, 0.0)), t)
    t3 = t / 3.0
    P = pad(q, q_rules)
    tau = elastic_stress(grid, P, c_star)
    sig_r = rotational_stress(grid, P)
    sig_a = active_stress(q, c, sigma_star)
    p = pr.pressure(pressure_law, rho)
    rho_u = rho * u
    T = np.empty((3, 3) + rho.shape)
    for a, b in _UPPER:
        val = np.multiply(u[a], rho_u[b], out=T[a, b])
        if a == b:
            val += p
            val -= scale * (D[a, a] - t3) + ft
        else:
            val -= scale * D[a, b]
        val -= tau[a, b]
        val -= sig_a[a, b]
        T[b, a] = val
    for a, b in _OFF:
        T[a, b] -= sig_r[a, b]
        T[b, a] -= sig_r[b, a]
    return T


def galerkin_rhs(basis, T, u_jac, eps, grad_rho):
    """Projected momentum right side, one entry per basis mode, for the
    flux T and Jacobian J[a, d] of ``assemble_stresses`` and the (3, ...)
    density gradient."""
    rhs = gk.project_tensor_divergence(basis, T)
    # coupling term: -eps * (grad rho . grad) u tested against w
    g0, g1, g2 = grad_rho
    f = np.empty(grad_rho.shape)
    for a in range(3):
        f[a] = g0 * u_jac[a, 0] + g1 * u_jac[a, 1] + g2 * u_jac[a, 2]
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
