"""Stress assembly and the projected momentum balance.

The test space is the sine-mode velocity basis; its members vanish on the
walls, so every stress enters the balance through a pairing with the test
gradient and no surface terms appear.  The mass pairing M_ij = int rho w_i
w_j is one m^3 x m^3 block shared by the three velocity components.

The update is written in residual form: an iterate v of the coupling
moves by (M + dt K)^{-1} [M (v^n - v) + dt rhs(v)], K the viscous
stiffness the stepper takes implicitly (``step_momentum``).  Its one solve
is ``mass_solve``, which checks M(rho) itself before the shift dt K is
added, since M + dt K can be SPD for a density that is not positive.

Layout: grid axes last, as in every module: u is (3, nx, ny, nz), packed
Q (5, ...) (``State.q`` reaches here through ``simulation.q_components``),
the Jacobian J[a, d] = du_a/dx_d and the flux T[a, d] (3, 3, ...).  The
stresses keep packed encodings: tau its six upper entries (6, ...),
sigma_a = sigma* c^2 Q packed like Q, the skew sigma_r as (r12, r13, r23)
like lam.  T is written entry by entry: each upper entry of
rho u (x) u + p I - S - tau - sigma_a once, mirrored, then +-r off the
diagonal.  S comes from the (d, t) core of the rheology
(``rheology.subgradient_dt``) applied to the entries of D; T is the one
(3, 3, ...) array built.
"""

import numpy as np

from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .domain import gradient_padded, laplacian_padded, pad
from .errors import ConditioningError

# largest mass-matrix condition number lam_max / lam_min the eigen-solve accepts
_COND_LIMIT = 1e12

# entries a <= b of a symmetric tensor, and the three a < b
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_OFF = ((0, 1), (0, 2), (1, 2))


def elastic_stress(grid, P, c_star):
    """G(Q) I - grad Q (.) grad Q, with G = |grad Q|^2/2 + tr(Q^2)/2
    + c*/4 tr^2(Q^2), as its upper entries (6, nx, ny, nz) in ``_UPPER``
    order.  P: packed Q (5, ...) padded by the Dirichlet rules of Q_B."""
    gq = gradient_padded(grid, P)                      # (3, 5, ...)
    # (grad Q (.) grad Q)_{ij} = sum_ab d_i Q_ab d_j Q_ab on the packed
    # encoding, so the pairing carries the 33 and off-diagonal weights
    tau = np.stack([tensors.packed_dot(gq[i], gq[j]) for i, j in _UPPER])
    t2 = tensors.trace_q2(P[..., 1:-1, 1:-1, 1:-1])
    g_scal = 0.5 * (tau[0] + tau[3] + tau[5]) + 0.5 * t2 \
        + 0.25 * c_star * t2 * t2
    np.negative(tau, out=tau)
    tau[[0, 3, 5]] += g_scal                           # the diagonal of _UPPER
    return tau


def rotational_stress(grid, P):
    """Q L - L Q with L = lap Q, from packed Q ghost-padded by the wall
    rules, as in ``elastic_stress``; the non-derivative molecular-field
    terms commute with Q, so only the Laplacian survives the commutator.

    Q and L are symmetric, so Q L - L Q = 2 skew(Q L): its entries
    (r12, r13, r23), (3, nx, ny, nz), are closed forms in the packed ones.
    """
    q11, q12, q13, q22, q23 = P[..., 1:-1, 1:-1, 1:-1]
    l11, l12, l13, l22, l23 = laplacian_padded(grid, P)
    q33 = -q11 - q22
    l33 = -l11 - l22
    sig = np.empty((3,) + q11.shape)
    sig[0] = (q11 - q22) * l12 + q12 * (l22 - l11) + q13 * l23 - q23 * l13
    sig[1] = (q11 - q33) * l13 + q13 * (l33 - l11) + q12 * l23 - q23 * l12
    sig[2] = (q22 - q33) * l23 + q23 * (l33 - l22) + q12 * l13 - q13 * l12
    return sig


def active_stress(q, c, sigma_star):
    """sigma* c^2 Q from packed q (5, ...), packed like q."""
    return sigma_star * (c * c) * np.asarray(q, dtype=float)


def assemble_stresses(grid, rho, u, u_jac, c, q, law, pressure_law, q_rules,
                      c_star, sigma_star):
    """Total momentum flux T = rho u (x) u + p(rho) I - S - tau - sigma_r
    - sigma_a for the current iterate, shape (3, 3, nx, ny, nz).

    u: (3, ...) cell-center velocity; u_jac: Jacobian J[a, d] of the full
    velocity v + u_B; q: packed Q (5, ...).  q_rules: Dirichlet ghost rules
    of the wall order tensor; q is padded by them once, for both the
    gradient and the Laplacian.  T is the one (3, 3, ...) array built.
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
    for k, (a, b) in enumerate(_UPPER):
        val = np.multiply(u[a], rho_u[b], out=T[a, b])
        if a == b:
            val += p
            val -= scale * (D[a, a] - t3) + ft
        else:
            val -= scale * D[a, b]
        val -= tau[k]
        val -= sig_a[k] if k < 5 else -(sig_a[0] + sig_a[3])
        T[b, a] = val
    for r, (a, b) in zip(sig_r, _OFF):
        T[a, b] -= r
        T[b, a] += r
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


def mass_solve(basis, rho, rhs, dv=None, shift=None):
    """Solve (M(rho) + shift) x = M(rho) dv + rhs, M(rho) block-diagonal
    with ``mass_matrix`` per component, shift (n, n) and dv zero when not
    given; ConditioningError if M(rho) is not finite, not SPD or too
    ill-conditioned (one symmetric eigenvalue solve of its block)."""
    M = gk.mass_matrix(basis, rho)
    if not np.all(np.isfinite(M)):
        raise ConditioningError("mass matrix is not finite: non-finite density")
    lam = np.linalg.eigvalsh(M)
    if not lam[0] > 0.0:
        raise ConditioningError("mass matrix not positive definite: a density <= 0")
    if (cond := lam[-1] / lam[0]) > _COND_LIMIT:
        raise ConditioningError(
            f"mass matrix condition number {cond:.3e} exceeds {_COND_LIMIT:g}")
    b = rhs if dv is None else rhs + (M @ dv.reshape(-1, 3)).reshape(-1)
    A = np.zeros((basis.n, basis.n)) if shift is None else shift.copy()
    blocks = A.reshape(len(M), 3, len(M), 3)
    for a in range(3):
        blocks[:, a, :, a] += M
    return np.linalg.solve(A, b)


def step_momentum(basis, v_old, v, rho, rhs, dt, stiffness):
    """The next iterate v + (M + dt K)^{-1} [M (v_old - v) + dt rhs] of
    the coupling, M = M(rho), for the iterate v with right side rhs.

    Its fixed point solves M (v - v_old) = dt rhs(v) whatever K is; K, the
    viscous stiffness of the law's Newtonian part (zero for other laws),
    is taken implicitly, so the map contracts at the rate of what rhs
    holds beyond -K v rather than at dt lam_max(M^{-1} K)."""
    return v + mass_solve(basis, rho, dt * rhs, v_old - v, dt * stiffness)
