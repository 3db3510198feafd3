"""Concentration and order-tensor dynamics.

Concentration: dc/dt + u . grad c = D0 * lap c with no-flux walls.  One step
is explicit upwind advection (advective form, a convex combination under the
step-size guard) followed by an exact implicit diffusion solve: the
mirror-ghost Laplacian is diagonalized by the type-II cosine transform, so
the implicit operator inverts in closed form and the discrete maximum
principle holds to rounding.

Order tensor: dQ/dt + u . grad Q + Q*Lambda - Lambda*Q = Gamma * H[Q, c]
with H = lap Q + bulk terms, fixed wall values Q_B.  Sequential splitting:
upwind advection, corotation, explicit relaxation, then a single projection
back onto symmetric-traceless packing.
"""

import numpy as np
import scipy.fft

from . import tensors
from .domain import advect_upwind, laplacian, pad
from .errors import StabilityError


def _advective_guard(grid, u, dt):
    weight = dt * sum(
        float(np.max(np.abs(u[..., a]))) / grid.h[a] for a in range(3))
    if weight > 1.0:
        raise StabilityError(
            f"advective weight dt*sum(|u_d|/h_d) = {weight:g} > 1")


def _diffusion_guard(grid, coeff, dt, label):
    h_min = min(grid.h)
    limit = 0.9 * h_min ** 2 / (6.0 * coeff) if coeff > 0 else np.inf
    if dt > limit:
        raise StabilityError(
            f"dt = {dt:g} exceeds 0.9*h^2/(6*{label}) = {limit:g}")


def diffuse_neumann(grid, f, coeff, dt):
    """Solve (I - coeff*dt*lap_N) g = f exactly via DCT-II."""
    fh = scipy.fft.dctn(f, type=2, norm="ortho")
    denom = np.ones(grid.shape)
    for axis in range(3):
        k = np.arange(grid.shape[axis])
        lam = (2.0 - 2.0 * np.cos(np.pi * k / grid.shape[axis])) \
            / grid.h[axis] ** 2
        shape = [1, 1, 1]
        shape[axis] = grid.shape[axis]
        denom = denom + coeff * dt * lam.reshape(shape)
    return scipy.fft.idctn(fh / denom, type=2, norm="ortho")


def step_concentration(grid, c, u, d0, dt):
    """One transport-diffusion step for the concentration field."""
    _diffusion_guard(grid, d0, dt, "D0")
    _advective_guard(grid, u, dt)
    P = pad(c, "mirror")
    star = c - dt * advect_upwind(grid, P, u, 0)
    return diffuse_neumann(grid, star, d0, dt)


def molecular_field(grid, q, c, b, c_star, q_rules):
    """lap Q plus the bulk terms; fixed wall values enter through ghosts.

    q_rules: the Dirichlet ghost rules of the wall order tensor
    (``BoundaryFaces.q_rules``).
    """
    return laplacian(grid, q, q_rules) + tensors.bulk_molecular_field(q, c, b, c_star)


def ldg_energy(grid, q, c, b, c_star, boundary):
    """Discrete free energy driving the relaxation step.

    Face-difference Dirichlet form (interior faces weight 1/2, wall faces
    weight 1 against the fixed wall values ``boundary.q_b``, per half-cell
    spacing) plus the bulk terms.  Its gradient is minus the ghost-cell
    molecular field, so with u = 0 and uniform c the relaxation step
    decreases it.
    """
    vol = grid.cell_volume
    grad_part = 0.0
    for axis in range(3):
        d = np.diff(q, axis=axis)
        grad_part += 0.5 * float(tensors.packed_dot(d, d).sum()) \
            * vol / grid.h[axis] ** 2
    for face, q_b in zip(boundary.faces, boundary.q_b):
        d = q[face.wall] - q_b
        grad_part += float(tensors.packed_dot(d, d).sum()) \
            * vol / grid.h[face.axis] ** 2
    t2 = tensors.trace_q2(q)
    t3 = tensors.trace_q3(q)
    bulk = 0.25 * (c - c_star) * t2 - (b / 3.0) * t3 \
        + 0.25 * c_star * t2 * t2
    return grad_part + float(bulk.sum()) * vol


def step_q(grid, q, u, lam, c, dt, gamma, b, c_star, q_rules):
    """One split step: advection, corotation, relaxation, projection.

    lam: packed skew part [l12, l13, l23] of the velocity gradient.
    q_rules: the Dirichlet ghost rules of the wall order tensor.
    """
    _diffusion_guard(grid, gamma, dt, "Gamma")
    _advective_guard(grid, u, dt)
    P = pad(q, q_rules)
    q1 = q - dt * advect_upwind(grid, P, u, 1)
    q2 = q1 - dt * tensors.commutator(q1, lam)
    h = laplacian(grid, q2, q_rules) + tensors.bulk_molecular_field(q2, c, b, c_star)
    q3 = q2 + dt * gamma * h
    return tensors.project_s30(tensors.to_matrix(q3))
