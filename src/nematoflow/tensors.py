"""Pointwise algebra on symmetric traceless 3x3 tensors (the Q-tensor state space).

A Q value is stored as 5 independent components [q11, q12, q13, q22, q23];
q33 = -q11 - q22 is implied, so symmetry and tracelessness are structural.
A skew tensor Lambda is stored as [l12, l13, l23].  The packed axis comes
first, as every component axis in the package does: a QField is
(5, nx, ny, nz) and a skew field (3, nx, ny, nz), and all functions
broadcast over the axes after it.  ``State.q`` alone keeps the packed axis
last; ``simulation.q_components`` turns it into this layout.

The products the scheme needs on every sweep are closed in these encodings
and are written out entry by entry, without building 3x3 arrays: the
corotation Q Lambda - Lambda Q = 2 sym(Q Lambda) is symmetric traceless
(``commutator``), Q^2 - tr(Q^2)/3 I is symmetric traceless
(``bulk_molecular_field``), and for symmetric Q, L the rotational stress
Q L - L Q = 2 skew(Q L) has three independent entries
(``momentum.rotational_stress``).  ``to_matrix`` and ``from_matrix`` are
for output, checks and oracles, and are the bridge to (..., 3, 3) matrix
stacks; no stepping path calls them.
"""

import numpy as np

from .errors import ConfigError

# (row, column) of the five packed entries
_PACKED = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2))


def to_matrix(q5):
    """Full 3x3 matrices from packed components (5, ...), shape (..., 3, 3)."""
    q11, q12, q13, q22, q23 = np.asarray(q5, dtype=float)
    entries = [q11, q12, q13, q12, q22, q23, q13, q23, -q11 - q22]
    return np.stack(entries, axis=-1).reshape(q11.shape + (3, 3))


def from_matrix(m):
    """Pack symmetric traceless matrices (..., 3, 3) into (5, ...) (no
    projection applied)."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., i, j] for i, j in _PACKED])


def project_s30(m):
    """Orthogonal projection of an arbitrary 3x3 matrix onto S3_0, packed output.

    Returns the packed form of  (M + M^T)/2 - (tr M / 3) I.  Idempotent on
    inputs already in S3_0.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ConfigError("project_s30: non-finite entries")
    out = from_matrix(0.5 * (m + np.swapaxes(m, -1, -2)))
    out[[0, 3]] -= np.trace(m, axis1=-2, axis2=-1) / 3.0
    return out


def commutator(q5, lam3):
    """Q*Lambda - Lambda*Q for packed Q and packed skew Lambda; packed output.

    Lambda Q = -(Q Lambda)^T, so the commutator is 2 sym(Q Lambda): symmetric
    traceless, and each packed entry is a closed form in q and
    lam = [l12, l13, l23].
    """
    q11, q12, q13, q22, q23 = np.asarray(q5, dtype=float)
    l12, l13, l23 = np.asarray(lam3, dtype=float)
    q33 = -q11 - q22
    out = np.empty((5,) + np.broadcast_shapes(q11.shape, l12.shape))
    out[0] = -2.0 * (q12 * l12 + q13 * l13)
    out[1] = (q11 - q22) * l12 - q13 * l23 - q23 * l13
    out[2] = (q11 - q33) * l13 + q12 * l23 - q23 * l12
    out[3] = 2.0 * (q12 * l12 - q23 * l23)
    out[4] = (q22 - q33) * l23 + q12 * l13 + q13 * l12
    return out


def trace_q2(q5):
    """tr(Q^2) = |Q|^2 from packed components."""
    q11, q12, q13, q22, q23 = np.asarray(q5, dtype=float)
    q33 = -q11 - q22
    return q11 * q11 + q22 * q22 + q33 * q33 + 2.0 * (q12 * q12 + q13 * q13 + q23 * q23)


def trace_q3(q5):
    """tr(Q^3) from packed components."""
    m = to_matrix(q5)
    m3 = m @ m @ m
    return m3[..., 0, 0] + m3[..., 1, 1] + m3[..., 2, 2]


def bulk_molecular_field(q5, c, b, c_star):
    """Non-derivative part of the molecular field, packed in and out.

    Returns -(c - c*)/2 * Q + b*(Q^2 - tr(Q^2)/3 * I) - c* * Q * tr(Q^2).
    `c` may be a scalar or a field broadcastable against the grid axes.
    """
    q5 = np.asarray(q5, dtype=float)
    q11, q12, q13, q22, q23 = q5
    q33 = -q11 - q22
    t2 = trace_q2(q5)
    t2_3 = t2 / 3.0
    # packed Q^2 - tr(Q^2)/3 I: Q^2 is symmetric, its trace is tr(Q^2)
    h = np.empty(q5.shape)
    h[0] = q11 * q11 + q12 * q12 + q13 * q13 - t2_3
    h[1] = q11 * q12 + q12 * q22 + q13 * q23
    h[2] = q11 * q13 + q12 * q23 + q13 * q33
    h[3] = q12 * q12 + q22 * q22 + q23 * q23 - t2_3
    h[4] = q12 * q13 + q22 * q23 + q23 * q33
    coeff = -0.5 * (np.asarray(c, dtype=float) - c_star) - c_star * t2
    return b * h + coeff * q5


def frobenius(a, b):
    """A:B = sum_ij a_ij b_ij over the trailing two axes."""
    return np.einsum("...ij,...ij->...", np.asarray(a, float), np.asarray(b, float))


def packed_dot(a5, b5):
    """A:B for packed symmetric trace-free pairs; the 33 entries are
    -(11 + 22) and the off-diagonals count twice."""
    a11, a12, a13, a22, a23 = np.asarray(a5, dtype=float)
    b11, b12, b13, b22, b23 = np.asarray(b5, dtype=float)
    return (2.0 * (a11 * b11 + a22 * b22 + a12 * b12 + a13 * b13
                   + a23 * b23) + a11 * b22 + a22 * b11)


def uniaxial(s, n):
    """Uniaxial tensor s*(n x n - I/3) for a unit director n, packed."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    m = s * (np.outer(n, n) - np.eye(3) / 3.0)
    return from_matrix(m)
