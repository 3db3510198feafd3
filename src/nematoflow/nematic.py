"""Concentration and order-tensor dynamics.

Concentration: dc/dt + u . grad c = D0 * lap c with no-flux walls.  One step
is explicit upwind advection (advective form, a convex combination at
advective weight <= 1) followed by an exact implicit diffusion solve: the
mirror-ghost Laplacian is diagonalized by the type-II cosine transform, so
the implicit operator inverts in closed form and the discrete maximum
principle holds to rounding.  The transform applies each axis's dense
orthonormal DCT-II table through ``domain.contract``, as galerkin does; the
tables and the spectral denominator are built once per grid and D0*dt.

Order tensor: dQ/dt + u . grad Q + Q*Lambda - Lambda*Q = Gamma * H[Q, c]
with H = lap Q + bulk terms, fixed wall values Q_B.  Sequential splitting:
upwind advection, corotation, explicit relaxation.  Every stage maps packed
Q to packed Q (the corotation and the bulk field are closed-form packed
products), so symmetry and tracelessness hold by the encoding and no final
projection is needed.

Both advections select from face differences of the old field
(``domain.upwind_differences``), which a coupled step builds once.
Layout: grid axes last; Q is (5, nx, ny, nz), u and lam (3, nx, ny, nz)
(``State.q`` reaches here through ``simulation.q_components``).  The steps
do numerics only; ``simulation.check_step`` admits dt once per sweep.
"""

import functools

import numpy as np

from . import tensors
from .domain import advect_upwind, contract, laplacian
from .errors import StabilityError


def _dct_table(n):
    """Orthonormal DCT-II: sqrt(2/n) cos(pi k (i + 1/2) / n), row 0 / sqrt(2)."""
    C = np.sqrt(2.0 / n) * np.cos(np.pi / n * np.outer(np.arange(n), np.arange(0.5, n)))
    C[0] *= np.sqrt(0.5)
    return C


@functools.lru_cache(maxsize=8)
def _dct_plan(grid, a):
    """The DCT-II tables of grid's axes and the spectral denominator of
    I - a*lap_N, built once per grid and a = coeff*dt; read-only."""
    tables = [_dct_table(n) for n in grid.shape]
    denom = np.ones(grid.shape)
    for axis in range(3):
        k = np.arange(grid.shape[axis])
        lam = (2.0 - 2.0 * np.cos(np.pi * k / grid.shape[axis])) \
            / grid.h[axis] ** 2
        shape = [1, 1, 1]
        shape[axis] = grid.shape[axis]
        denom = denom + a * lam.reshape(shape)
    for arr in tables + [denom]:
        arr.flags.writeable = False
    return tables, denom


def diffuse_neumann(grid, f, coeff, dt):
    """Solve (I - coeff*dt*lap_N) g = f exactly via DCT-II."""
    tables, denom = _dct_plan(grid, coeff * dt)
    fh = contract(np.asarray(f, dtype=float), *(C.T for C in tables))
    return contract(fh / denom, *tables)


def step_concentration(grid, c, diffs, u, d0, dt):
    """One transport-diffusion step of c; diffs: its upwind differences."""
    star = c - dt * advect_upwind(grid, diffs, u)
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
        d = np.diff(q, axis=axis - 3)
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


def step_q(grid, q, diffs, u, lam, c, dt, gamma, b, c_star, q_rules):
    """One split step: advection, corotation, relaxation.

    The stages stay in the packed encoding, so the result is symmetric
    traceless by construction and is returned as computed.  Raises
    StabilityError if it holds a non-finite entry.

    q: packed Q (5, ...) and diffs its upwind differences; u: velocity
    (3, ...); lam: packed skew part [l12, l13, l23] of grad u, (3, ...).
    q_rules: the Dirichlet ghost rules of the wall order tensor.
    """
    q1 = q - dt * advect_upwind(grid, diffs, u)
    q2 = q1 - dt * tensors.commutator(q1, lam)
    q3 = q2 + dt * gamma * molecular_field(grid, q2, c, b, c_star, q_rules)
    if not np.all(np.isfinite(q3)):
        raise StabilityError("step_q: non-finite entries")
    return q3
