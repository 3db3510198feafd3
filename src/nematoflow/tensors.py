"""Pointwise algebra on symmetric traceless 3x3 tensors (the Q-tensor state space).

A Q value is stored as 5 independent components [q11, q12, q13, q22, q23];
q33 = -q11 - q22 is implied, so symmetry and tracelessness are structural.
All functions broadcast over leading axes, i.e. a QField of shape
(nx, ny, nz, 5) goes through unchanged.
"""

import numpy as np


def to_matrix(q5):
    """Reconstruct full 3x3 matrices from packed components, shape (..., 3, 3)."""
    q5 = np.asarray(q5, dtype=float)
    q11, q12, q13, q22, q23 = (q5[..., i] for i in range(5))
    m = np.empty(q5.shape[:-1] + (3, 3), dtype=float)
    m[..., 0, 0] = q11
    m[..., 0, 1] = q12
    m[..., 0, 2] = q13
    m[..., 1, 0] = q12
    m[..., 1, 1] = q22
    m[..., 1, 2] = q23
    m[..., 2, 0] = q13
    m[..., 2, 1] = q23
    m[..., 2, 2] = -q11 - q22
    return m


def from_matrix(m):
    """Pack a symmetric traceless matrix into 5 components (no projection applied)."""
    m = np.asarray(m, dtype=float)
    out = np.empty(m.shape[:-2] + (5,), dtype=float)
    out[..., 0] = m[..., 0, 0]
    out[..., 1] = m[..., 0, 1]
    out[..., 2] = m[..., 0, 2]
    out[..., 3] = m[..., 1, 1]
    out[..., 4] = m[..., 1, 2]
    return out


def project_s30(m):
    """Orthogonal projection of an arbitrary 3x3 matrix onto S3_0, packed output.

    Returns the packed form of  (M + M^T)/2 - (tr M / 3) I.  Idempotent on
    inputs already in S3_0.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("project_s30: non-finite entries")
    tr3 = (m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2]) / 3.0
    out = np.empty(m.shape[:-2] + (5,), dtype=float)
    out[..., 0] = m[..., 0, 0] - tr3
    out[..., 1] = 0.5 * (m[..., 0, 1] + m[..., 1, 0])
    out[..., 2] = 0.5 * (m[..., 0, 2] + m[..., 2, 0])
    out[..., 3] = m[..., 1, 1] - tr3
    out[..., 4] = 0.5 * (m[..., 1, 2] + m[..., 2, 1])
    return out


def skew_to_matrix(lam3):
    """Skew matrix from packed [l12, l13, l23]."""
    lam3 = np.asarray(lam3, dtype=float)
    l12, l13, l23 = (lam3[..., i] for i in range(3))
    z = np.zeros_like(l12)
    return np.stack(
        [
            np.stack([z, l12, l13], axis=-1),
            np.stack([-l12, z, l23], axis=-1),
            np.stack([-l13, -l23, z], axis=-1),
        ],
        axis=-2,
    )


def commutator(q5, lam3):
    """Q*Lambda - Lambda*Q for packed Q and packed skew Lambda; packed output.

    The commutator of a symmetric traceless matrix with a skew matrix is again
    symmetric traceless, so the packed encoding is closed under this product.
    """
    q = to_matrix(q5)
    lam = skew_to_matrix(lam3)
    c = q @ lam - lam @ q
    return from_matrix(c)


def trace_q2(q5):
    """tr(Q^2) = |Q|^2 from packed components."""
    q5 = np.asarray(q5, dtype=float)
    q11, q12, q13, q22, q23 = (q5[..., i] for i in range(5))
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
    `c` may be a scalar or a field broadcastable against the leading axes.
    """
    q5 = np.asarray(q5, dtype=float)
    c = np.asarray(c, dtype=float)
    q = to_matrix(q5)
    t2 = trace_q2(q5)
    q2 = q @ q
    # Q^2 is symmetric but not traceless; remove the trace explicitly
    h = np.zeros_like(q5)
    t2_3 = t2 / 3.0
    h[..., 0] = q2[..., 0, 0] - t2_3
    h[..., 1] = q2[..., 0, 1]
    h[..., 2] = q2[..., 0, 2]
    h[..., 3] = q2[..., 1, 1] - t2_3
    h[..., 4] = q2[..., 1, 2]
    coeff = -0.5 * (c - c_star) - c_star * t2
    return b * h + coeff[..., None] * q5


def frobenius(a, b):
    """A:B = sum_ij a_ij b_ij over the trailing two axes."""
    return np.einsum("...ij,...ij->...", np.asarray(a, float), np.asarray(b, float))


def packed_dot(a5, b5):
    """A:B for packed symmetric trace-free pairs; the 33 entries are
    -(11 + 22) and the off-diagonals count twice."""
    a5 = np.asarray(a5, dtype=float)
    b5 = np.asarray(b5, dtype=float)
    a11, a12, a13, a22, a23 = (a5[..., i] for i in range(5))
    b11, b12, b13, b22, b23 = (b5[..., i] for i in range(5))
    return (2.0 * (a11 * b11 + a22 * b22 + a12 * b12 + a13 * b13
                   + a23 * b23) + a11 * b22 + a22 * b11)


def uniaxial(s, n):
    """Uniaxial tensor s*(n x n - I/3) for a unit director n, packed."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    m = s * (np.outer(n, n) - np.eye(3) / 3.0)
    return from_matrix(m)
