"""Packed symmetric-traceless tensor algebra checks.

Matrix-arithmetic oracles: every packed operation is compared against the
same computation done on dense 3x3 matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematoflow import tensors as tn

floats = st.floats(-5.0, 5.0, allow_nan=False)


def pack(q11, q12, q13, q22, q23):
    return np.array([q11, q12, q13, q22, q23], dtype=float)


def random_q(rng, scale=1.0):
    return rng.normal(size=5) * scale


def test_roundtrip_matrix_packing():
    q = pack(0.3, -0.1, 0.2, 0.5, 0.7)
    m = tn.to_matrix(q)
    assert np.array_equal(m, m.T)
    assert m[0, 0] + m[1, 1] + m[2, 2] == 0.0
    assert np.array_equal(tn.from_matrix(m), q)


def test_project_identity_to_zero():
    q = tn.project_s30(np.eye(3))
    assert np.all(q == 0.0)


def test_project_frozen_example():
    m = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    got = tn.to_matrix(tn.project_s30(m))
    want = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(got, want, atol=1e-15)


def test_project_idempotent_on_s30():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = random_q(rng)
        again = tn.project_s30(tn.to_matrix(q))
        assert np.allclose(again, q, atol=1e-15)


def test_project_rejects_nonfinite():
    m = np.eye(3)
    m[0, 1] = np.nan
    with pytest.raises(ValueError):
        tn.project_s30(m)
    m[0, 1] = np.inf
    with pytest.raises(ValueError):
        tn.project_s30(m)


@settings(max_examples=200, deadline=None)
@given(st.lists(floats, min_size=9, max_size=9))
def test_project_output_traceless_symmetric(vals):
    m = np.array(vals).reshape(3, 3)
    got = tn.to_matrix(tn.project_s30(m))
    assert got[0, 0] + got[1, 1] + got[2, 2] == 0.0
    assert np.array_equal(got, got.T)
    want = 0.5 * (m + m.T) - (np.trace(m) / 3.0) * np.eye(3)
    assert np.allclose(got, want, atol=1e-13)


def test_commutator_frozen_example():
    q = tn.from_matrix(np.diag([1.0, -1.0, 0.0]))
    lam = np.array([1.0, 0.0, 0.0])
    got = tn.to_matrix(tn.commutator(q, lam))
    want = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(got, want, atol=1e-15)
    assert np.all(tn.commutator(np.zeros(5), lam) == 0.0)
    assert np.all(tn.commutator(q, np.zeros(3)) == 0.0)


def test_commutator_matches_dense_arithmetic():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        q = random_q(rng, 2.0)
        lam = rng.normal(size=3)
        Q = tn.to_matrix(q)
        L = tn.skew_to_matrix(lam)
        want = Q @ L - L @ Q
        got = tn.to_matrix(tn.commutator(q, lam))
        assert np.allclose(got, want, atol=1e-12)


def test_skew_reconstruction():
    L = tn.skew_to_matrix(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(L, -L.T)
    assert L[0, 1] == 1.0 and L[0, 2] == 2.0 and L[1, 2] == 3.0


def test_scalar_invariants_frozen():
    q = tn.from_matrix(np.diag([-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]))
    t2, t3, f4 = tn.scalar_invariants(q)
    assert t2 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert t3 == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert f4 == pytest.approx(4.0 / 9.0, abs=1e-15)
    z2, z3, z4 = tn.scalar_invariants(np.zeros(5))
    assert (z2, z3, z4) == (0.0, 0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(floats, st.integers(0, 2))
def test_uniaxial_invariant(s, axis):
    n = np.zeros(3)
    n[axis] = 1.0
    q = tn.uniaxial(s, n)
    t2, _, _ = tn.scalar_invariants(q)
    assert t2 == pytest.approx(2.0 * s * s / 3.0, rel=1e-12, abs=1e-12)


def test_trace_q2_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = random_q(rng, 3.0)
        Q = tn.to_matrix(q)
        assert tn.trace_q2(q) == pytest.approx(np.trace(Q @ Q), rel=1e-13)
        assert tn.trace_q3(q) == pytest.approx(np.trace(Q @ Q @ Q), rel=1e-12, abs=1e-12)


def test_bulk_molecular_field_frozen_examples():
    q = tn.from_matrix(np.diag([-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]))
    got = tn.to_matrix(tn.bulk_molecular_field(q, c=1.0, b=1.0, c_star=1.0))
    want = np.diag([1.0 / 9.0, 1.0 / 9.0, -2.0 / 9.0])
    assert np.allclose(got, want, atol=1e-14)
    got0 = tn.to_matrix(tn.bulk_molecular_field(q, c=1.0, b=0.0, c_star=1.0))
    want0 = np.diag([2.0 / 9.0, 2.0 / 9.0, -4.0 / 9.0])
    assert np.allclose(got0, want0, atol=1e-14)
    assert np.all(tn.bulk_molecular_field(np.zeros(5), c=2.0, b=1.0, c_star=1.0) == 0.0)


def test_bulk_molecular_field_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = random_q(rng)
        c, b, cs = rng.uniform(0, 2, size=3)
        Q = tn.to_matrix(q)
        t2 = np.trace(Q @ Q)
        want = (-0.5 * (c - cs) * Q + b * (Q @ Q - (t2 / 3.0) * np.eye(3))
                - cs * t2 * Q)
        got = tn.to_matrix(tn.bulk_molecular_field(q, c=c, b=b, c_star=cs))
        assert np.allclose(got, want, atol=1e-12)
        # traceless exactly by encoding
        assert np.trace(got) == 0.0


def test_bulk_field_commutes_with_q():
    # Q (H_bulk) - (H_bulk) Q = 0: the rotational stress sees only the
    # Laplacian part of the molecular field
    rng = np.random.default_rng(4)
    for _ in range(200):
        q = random_q(rng)
        h = tn.bulk_molecular_field(q, c=0.7, b=1.3, c_star=0.9)
        Q, H = tn.to_matrix(q), tn.to_matrix(h)
        assert np.allclose(Q @ H - H @ Q, 0.0, atol=1e-12)


def test_broadcasting_over_fields():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(4, 6, 5))
    lam = rng.normal(size=(4, 6, 3))
    out = tn.commutator(q, lam)
    assert out.shape == (4, 6, 5)
    for i in range(4):
        for j in range(6):
            single = tn.commutator(q[i, j], lam[i, j])
            assert np.allclose(out[i, j], single, atol=1e-14)
    m = tn.to_matrix(q)
    assert m.shape == (4, 6, 3, 3)
    assert np.allclose(tn.from_matrix(m), q, atol=1e-15)


def test_frobenius_and_dev():
    a = np.arange(9.0).reshape(3, 3)
    b = np.ones((3, 3))
    assert tn.frobenius(a, b) == pytest.approx(36.0)


def test_packed_dot_matches_matrix_pairing():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 7, 5))
    b = rng.normal(size=(4, 7, 5))
    expected = tn.frobenius(tn.to_matrix(a), tn.to_matrix(b))
    assert np.allclose(tn.packed_dot(a, b), expected, atol=1e-13)
    assert np.allclose(tn.packed_dot(a, a), tn.trace_q2(a), atol=1e-13)
