"""Viscous potential, mollification, subgradient and conjugate checks.

Oracles here avoid the library's root-search path entirely: conjugates are
verified by dense grid search plus local refinement over full tensors, and
subgradients by central finite differences of the potential.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematoflow import rheology as rh
from nematoflow import scenarios as sn
from nematoflow.errors import ConfigError


def sym(a, b, c, d, e, f):
    return np.array([[a, d, e], [d, b, f], [e, f, c]], dtype=float)


def random_sym(rng, scale=1.0):
    m = rng.normal(size=(3, 3)) * scale
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------- oracles


def oracle_conjugate(law, S, d_max=8.0, n=801, n_t=201, rounds=8, n_fine=41):
    """sup_D S:D - F(D) by brute grid search along the aligned slice.

    For an isotropic law the supremum is attained at D = d * devS/|devS|
    + (t/3) I, so a 2-D scan in (d, t) is exhaustive.  The first scan takes
    n x n_t points; each of the `rounds` refinements rescans the cells
    around the best point with n_fine x n_fine.  F is convex, so the
    scanned function is concave and the best cell brackets its maximum.
    """
    s, sigma = rh.reduce_sym(S)
    s, sigma = float(s), float(sigma)

    def g(d, t):
        return s * d + sigma * t / 3.0 - law.value_dt(d, t)

    d_grid = np.linspace(0.0, d_max, n)
    t_grid = np.linspace(-d_max, d_max, n_t)
    vals = g(d_grid[:, None], t_grid[None, :])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    best = vals[i, j]
    for _ in range(rounds):
        dl = d_grid[max(i - 1, 0)]
        dh = d_grid[min(i + 1, d_grid.size - 1)]
        tl = t_grid[max(j - 1, 0)]
        th = t_grid[min(j + 1, t_grid.size - 1)]
        d_grid = np.linspace(dl, dh, n_fine)
        t_grid = np.linspace(tl, th, n_fine)
        vals = g(d_grid[:, None], t_grid[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = vals[i, j]
    return float(best)


def fd_gradient(law, D, h=1.0e-6):
    """Central-difference gradient of F at D, as a symmetric tensor."""
    grad = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            E = np.zeros((3, 3))
            E[i, j] = E[j, i] = 1.0
            fp = rh.potential(law, D + h * E)
            fm = rh.potential(law, D - h * E)
            g = (fp - fm) / (2.0 * h)
            # off-diagonal directions perturb two matrix slots at once
            grad[i, j] = grad[j, i] = g if i == j else g / 2.0
    return grad


def table_from_law(law, d_max=14.0, t_max=14.0, n_d=281, n_t=281, mu0=None):
    d = np.linspace(0.0, d_max, n_d)
    t = np.linspace(-t_max, t_max, n_t)
    f = law.value_dt(d[:, None], t[None, :])
    return rh.tabulated_law(d, t, f, mu0=mu0 if mu0 is not None else law.mu0)


# ------------------------------------------------------- potential basics


def test_newtonian_potential_and_subgradient_identity():
    law = rh.newtonian_law(mu=1.0, lam=1.0)
    D = np.eye(3)
    S = rh.subgradient(law, D)
    assert np.allclose(S, 4.0 * np.eye(3), atol=1.0e-14)
    # potential value matches (mu/2)|D|^2 + (lam/2)(tr D)^2
    assert rh.potential(law, D) == pytest.approx(0.5 * 3.0 + 0.5 * 9.0, abs=1e-14)


def test_power_law_potential_frozen_value():
    law = rh.power_law(mu0=1.0)
    D = sym(1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
    # |dev D| = sqrt(2), F = 2**(2/3)
    assert rh.potential(law, D) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-14)


def test_power_law_subgradient_zero_at_origin():
    law = rh.power_law(mu0=1.0)
    S = rh.subgradient(law, np.zeros((3, 3)))
    assert np.all(S == 0.0)
    law_m = rh.mollify(law, 0.05)
    S_m = rh.subgradient(law_m, np.zeros((3, 3)))
    assert np.max(np.abs(S_m)) < 1.0e-12


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    laws = [rh.newtonian_law(mu=0.7, lam=0.3),
            rh.power_law(mu0=0.5),
            rh.mollify(rh.power_law(mu0=0.5), 0.1)]
    for law in laws:
        for _ in range(5):
            D = random_sym(rng)
            if np.linalg.norm(D) < 0.3:
                D = D + 0.5 * np.eye(3)
            S = rh.subgradient(law, D)
            G = fd_gradient(law, D)
            assert np.allclose(S, G, rtol=1e-5, atol=1e-6)


def test_subgradient_broadcasts_over_fields():
    rng = np.random.default_rng(3)
    law = rh.newtonian_law(mu=2.0, lam=0.1)
    D = rng.normal(size=(4, 5, 3, 3))
    D = 0.5 * (D + np.swapaxes(D, -1, -2))
    S = rh.subgradient(law, D)
    tr = np.trace(D, axis1=-2, axis2=-1)
    expect = 2.0 * D + 0.1 * tr[..., None, None] * np.eye(3)
    assert np.allclose(S, expect, atol=1e-13)


# ------------------------------------------------------------ convexity


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=12, max_size=12),
       st.floats(0.0, 1.0))
def test_potential_convex_along_segments(vals, theta):
    law = rh.power_law(mu0=1.3)
    D1 = sym(*vals[:6])
    D2 = sym(*vals[6:])
    mid = theta * D1 + (1 - theta) * D2
    lhs = rh.potential(law, mid)
    rhs = theta * rh.potential(law, D1) + (1 - theta) * rh.potential(law, D2)
    assert lhs <= rhs + 1.0e-12


def test_mollified_potential_convex_along_segments():
    rng = np.random.default_rng(11)
    base = table_from_law(rh.newtonian_law(mu=1.0), mu0=0.5)
    law = rh.mollify(base, 0.2)
    for _ in range(200):
        D1, D2 = random_sym(rng, 2.0), random_sym(rng, 2.0)
        th = rng.uniform()
        lhs = rh.potential(law, th * D1 + (1 - th) * D2)
        rhs = th * rh.potential(law, D1) + (1 - th) * rh.potential(law, D2)
        assert lhs <= rhs + 1.0e-10


# --------------------------------------------------------- mollification


def test_mollified_quadratic_is_quadratic():
    law = rh.newtonian_law(mu=2.0, lam=0.5)
    law_m = rh.mollify(law, 0.1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        D = random_sym(rng, 2.0)
        assert rh.potential(law_m, D) == pytest.approx(rh.potential(law, D), abs=1e-8)


def test_mollified_value_zero_at_origin():
    for law in [rh.mollify(rh.power_law(mu0=1.0), 0.05),
                rh.mollify(rh.newtonian_law(mu=1.0), 0.2)]:
        assert abs(rh.potential(law, np.zeros((3, 3)))) < 1.0e-10


def test_mollifying_twice_equals_mollifying_once():
    # the F_delta(0) shift is cached per law; a law mollified again must not
    # keep the shift of its first radius
    rng = np.random.default_rng(9)
    D = np.stack([random_sym(rng, 2.0) for _ in range(8)])
    for make in [lambda: rh.power_law(mu0=1.0),
                 lambda: rh.newtonian_law(mu=1.0, lam=0.2)]:
        once = rh.mollify(make(), 0.05)
        assert abs(rh.potential(once, np.zeros((3, 3)))) < 1.0e-10
        twice, ref = rh.mollify(once, 0.1), rh.mollify(make(), 0.1)
        assert np.array_equal(rh.potential(twice, D), rh.potential(ref, D))


@pytest.mark.parametrize("delta", [np.nan, np.inf, -0.1])
def test_radius_must_be_finite_and_nonnegative(delta):
    # a NaN or infinite radius would give a law whose values are NaN
    with pytest.raises(ConfigError):
        rh.RheologyLaw(kind="newtonian", mu=1.0, delta=delta)
    with pytest.raises(ConfigError):
        rh.mollify(rh.newtonian_law(1.0), delta)


def test_tabulated_needs_delta_for_subgradient():
    base = table_from_law(rh.newtonian_law(mu=1.0), mu0=0.5)
    with pytest.raises(ConfigError):
        rh.subgradient(base, np.eye(3))
    # mollified version works and tracks the generating law
    law = rh.mollify(base, 0.05)
    D = sym(0.4, -0.1, -0.3, 0.2, 0.0, 0.1)
    S = rh.subgradient(law, D)
    assert np.allclose(S, 1.0 * D, atol=5e-3)


# ------------------------------------------------------------- conjugate


def test_newtonian_conjugate_closed_form():
    law = rh.newtonian_law(mu=1.0, lam=0.0)
    S = sym(1.0, -1.0, 0.0, 0.0, 0.0, 0.0)
    # F* = |S|^2/2 for mu=1, lam=0
    assert rh.conjugate_batch(law, *rh.reduce_sym(S)) == pytest.approx(1.0, rel=1e-12)
    law2 = rh.newtonian_law(mu=2.0, lam=1.0)
    S2 = sym(1.0, 2.0, -0.5, 0.3, 0.1, -0.2)
    assert rh.conjugate_batch(law2, *rh.reduce_sym(S2)) == pytest.approx(oracle_conjugate(law2, S2), rel=1e-6)


def test_power_law_conjugate_frozen_legendre_value():
    # sup_r (r - r^{4/3}) = 27/256 at r = 27/64
    law = rh.power_law(mu0=1.0)
    S = np.diag([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
    S = S / np.linalg.norm(S)          # |dev S| = 1, tr S = 0
    val = rh.conjugate_batch(law, *rh.reduce_sym(S))
    assert val == pytest.approx(27.0 / 256.0, rel=1e-12)
    assert val == pytest.approx(oracle_conjugate(law, S, d_max=2.0), rel=1e-7)


def test_power_law_conjugate_infinite_off_axis():
    law = rh.power_law(mu0=1.0)
    assert np.isinf(rh.conjugate_batch(law, *rh.reduce_sym(np.eye(3))))
    assert np.isinf(rh.conjugate_batch(rh.mollify(law, 0.05), *rh.reduce_sym(np.eye(3))))


def test_mollified_conjugate_matches_grid_oracle():
    law = rh.mollify(rh.power_law(mu0=1.0), 0.05)
    S = np.diag([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
    S = 0.8 * S / np.linalg.norm(S)
    assert rh.conjugate_batch(law, *rh.reduce_sym(S)) == pytest.approx(oracle_conjugate(law, S, d_max=2.0), abs=1e-6)


def test_tabulated_conjugate_matches_grid_oracle():
    base = table_from_law(rh.newtonian_law(mu=1.0), mu0=0.5)
    law = rh.mollify(base, 0.05)
    S = sym(0.5, -0.2, -0.3, 0.1, 0.0, 0.05)
    got = rh.conjugate_batch(law, *rh.reduce_sym(S))
    # each point is a kernel quadrature: a coarse first scan and more,
    # smaller refinement rounds reach the value of the 401 x 201 scan
    # (to 1.4e-16) in a tenth of the points
    want = oracle_conjugate(law, S, d_max=4.0, n=101, n_t=51, rounds=12,
                            n_fine=21)
    assert got == pytest.approx(want, abs=1e-6)


def test_mollified_newtonian_conjugate_equals_raw_closed_form():
    # the discretely normalised kernel adds only a constant to a quadratic,
    # so F_delta = F and the generic root search must reproduce F* exactly
    raw = rh.newtonian_law(mu=1.0, lam=0.5)
    law = rh.mollify(raw, 0.05)
    s, sigma = np.meshgrid(np.linspace(0.0, 4.0, 9), np.linspace(-3.0, 3.0, 7),
                           indexing="ij")
    got = rh.conjugate_batch(law, s, sigma)
    np.testing.assert_allclose(got, rh.conjugate_batch(raw, s, sigma),
                               rtol=0.0, atol=1e-12)


def test_mollified_power_law_conjugate_zero_at_rest():
    assert rh.conjugate_batch(rh.mollify(rh.power_law(1.0), 0.05), 0.0, 0.0) == 0.0


def test_conjugate_range_error_outside_table():
    base = table_from_law(rh.newtonian_law(mu=1.0), d_max=2.0, t_max=2.0,
                          n_d=41, n_t=41, mu0=0.5)
    law = rh.mollify(base, 0.05)
    with pytest.raises(rh.RangeError):
        rh.conjugate_batch(law, *rh.reduce_sym(50.0 * np.eye(3)))


def test_tabulated_partials_leave_the_table_as_its_values_do():
    # the scenario's table covers d <= 6, |t| <= 6; d = 7 lies past it
    law = sn.build_rheology_law(sn.default_scenario(rheology_kind="tabulated"))
    for evaluate in (law.value_dt, law.partials_dt,
                     lambda d, t: rh.subgradient_dt(law, d, t)):
        with pytest.raises(rh.RangeError, match="outside table"):
            evaluate(np.array([7.0]), np.array([0.0]))


def test_mollified_power_law_conjugate_range_error_past_bracket():
    # d0 = (50 / (4/3))^3 lies far beyond the 1e4 bracket
    with pytest.raises(rh.RangeError):
        rh.conjugate_batch(rh.mollify(rh.power_law(1.0), 0.05), 50.0, 0.0)


# ---------------------------------------------------------- fenchel-young


def test_fenchel_young_nonpositive_and_tight_at_subgradient():
    rng = np.random.default_rng(17)
    laws = [rh.newtonian_law(mu=1.0, lam=0.5),
            rh.power_law(mu0=1.0),
            rh.mollify(rh.power_law(mu0=1.0), 0.1)]
    for law in laws:
        for _ in range(25):
            D = random_sym(rng)
            S = rh.subgradient(law, D)
            r = rh.fenchel_young_residual(law, D, S)
            assert r <= 1.0e-10
            assert r >= -1.0e-6
            # random mismatched pairs stay on the correct side
            S_bad = random_sym(rng)
            s_bad, sig_bad = rh.reduce_sym(S_bad)
            if law.kind == "power_law" and abs(sig_bad) > 1e-10:
                continue
            r_bad = rh.fenchel_young_residual(law, D, S_bad)
            assert r_bad <= 1.0e-10


# ------------------------------------------------ certified maximiser


def _searched(monkeypatch):
    """Entry counts handed to the root search, one per _monotone_root call."""
    sizes = []
    root = rh._monotone_root

    def counted(g, lo, hi):
        sizes.append(np.size(lo))
        return root(g, lo, hi)
    monkeypatch.setattr(rh, "_monotone_root", counted)
    return sizes


def _subgradient_batch(law, n=64, scale=1.0, seed=31):
    """S = dF(D) and D's own (d, t), for n random symmetric D."""
    rng = np.random.default_rng(seed)
    D = np.stack([random_sym(rng, scale) for _ in range(n)])
    S = rh.subgradient(law, D)
    return S, rh.reduce_sym(D)


def test_certificate_takes_every_subgradient_point(monkeypatch):
    law = rh.mollify(rh.power_law(mu0=1.0), 0.05)
    S, near = _subgradient_batch(law)
    s, sigma = rh.reduce_sym(S)
    want = rh.conjugate_batch(law, s, sigma)
    sizes = _searched(monkeypatch)
    got = rh.conjugate_batch(law, s, sigma, near=near)
    assert sizes == []
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("factor", [1.1, 1.0 + 1e-6])
def test_certificate_rejects_a_perturbed_stress(monkeypatch, factor):
    law = rh.mollify(rh.power_law(mu0=1.0), 0.05)
    S, near = _subgradient_batch(law)
    s, sigma = rh.reduce_sym(factor * S)
    want = rh.conjugate_batch(law, s, sigma)
    sizes = _searched(monkeypatch)
    got = rh.conjugate_batch(law, s, sigma, near=near)
    assert sizes == [s.size]
    np.testing.assert_array_equal(got, want)


def test_certificate_mixed_batch_matches_separate_calls(monkeypatch):
    law = rh.mollify(rh.power_law(mu0=1.0), 0.05)
    S, (d, t) = _subgradient_batch(law, n=16)
    S[::2] *= 1.1
    s, sigma = rh.reduce_sym(S)
    sizes = _searched(monkeypatch)
    got = rh.conjugate_batch(law, s, sigma, near=(d, t))
    assert sizes == [8]
    # to a few ulps: the quadrature's matrix products sum in an order that
    # may depend on the batch size
    for i in range(s.size):
        alone = rh.conjugate_batch(law, s[i:i + 1], sigma[i:i + 1],
                                   near=(d[i:i + 1], t[i:i + 1]))
        np.testing.assert_allclose(got[i], alone[0], rtol=4e-15, atol=0.0)


def test_certificate_matches_the_search_on_a_tabulated_law(monkeypatch):
    # the scenario's table: h = delta = 0.05, so each mollified partial is
    # a staircase whose defect sits at +-1 ulp on the candidate
    law = sn.build_rheology_law(sn.default_scenario(rheology_kind="tabulated"))
    S, near = _subgradient_batch(law, n=16, scale=0.4)
    s, sigma = rh.reduce_sym(S)
    want = rh.conjugate_batch(law, s, sigma)
    sizes = _searched(monkeypatch)
    got = rh.conjugate_batch(law, s, sigma, near=near)
    assert sizes == []
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_certified_candidate_outside_the_table_raises(monkeypatch):
    base = table_from_law(rh.newtonian_law(mu=1.0), d_max=2.0, t_max=2.0,
                          n_d=41, n_t=41, mu0=0.5)
    law = rh.mollify(base, 0.05)
    D = np.diag([2.0, -1.0, -1.0])            # d = sqrt(6) > 2
    # the stress of the generating law: the table's own leaves the table
    s, sigma = rh.reduce_sym(rh.subgradient(rh.newtonian_law(mu=1.0), D))
    sizes = _searched(monkeypatch)
    with pytest.raises(rh.RangeError):
        rh.conjugate_batch(law, s, sigma, near=rh.reduce_sym(D))
    assert sizes == []


def test_fenchel_young_searches_a_stress_that_is_not_the_subgradient(monkeypatch):
    # S = dF(D) takes the certified path; a scaled or flipped S does not,
    # so its residual is the full search's and the gap shows
    rng = np.random.default_rng(29)
    D = np.stack([random_sym(rng) for _ in range(8)])
    cases = [(rh.mollify(rh.power_law(mu0=1.0), 0.05), 1.1),
             (rh.mollify(rh.newtonian_law(mu=1.0, lam=0.5), 0.05), -1.0)]
    for law, factor in cases:
        S = rh.subgradient(law, D)
        sizes = _searched(monkeypatch)
        assert np.all(np.abs(rh.fenchel_young_residual(law, D, S)) <= 1e-10)
        assert sizes == []
        S_bad = factor * S
        pairing = np.einsum("...ij,...ij->...", S_bad, D)
        want = (pairing - rh.potential(law, D)
                - rh.conjugate_batch(law, *rh.reduce_sym(S_bad)))
        sizes.clear()
        got = rh.fenchel_young_residual(law, D, S_bad)
        assert sizes[0] == D.shape[0]
        np.testing.assert_array_equal(got, want)
        assert np.all(got < -1e-3)


# ------------------------------------------------------------- coercivity


def test_certify_power_law_exact():
    out = rh.certify_coercivity(rh.power_law(mu0=1.0))
    assert out["pass"]
    assert out["mu1"] == pytest.approx(1.0)
    assert out["mu2"] == pytest.approx(0.0, abs=1e-12)


def test_certify_newtonian_positive_offset():
    out = rh.certify_coercivity(rh.newtonian_law(mu=2.0))
    assert out["pass"]
    assert out["mu1"] > 0.0
    # small |D| is where the quadratic dips below the 4/3 power; the exact
    # supremum of d^{4/3} - d^2 is 4/27, the sampled one sits just below
    exact = 4.0 / 27.0
    assert 0.9 * exact < out["mu2"] <= exact + 1e-12


def test_certify_mollified_power_law_needs_offset():
    out = rh.certify_coercivity(rh.mollify(rh.power_law(mu0=1.0), 0.05))
    assert out["pass"]
    assert out["mu2"] > 0.0


# ------------------------------------------------- product-rule quadrature


def oracle_mollified(law, d, t):
    """F_delta and its partials by an explicit double loop over the rule."""
    nodes, w = rh._KERNEL
    s = law.delta * nodes
    d, t = np.broadcast_arrays(np.asarray(d, float), np.asarray(t, float))
    val, fd, ft = np.zeros(d.shape), np.zeros(d.shape), np.zeros(d.shape)
    shift = 0.0
    for i in range(nodes.size):
        for j in range(nodes.size):
            wij = w[i] * w[j]
            val = val + wij * law._raw(d - s[i], t - s[j])
            pd, pt = law._raw_partials(d - s[i], t - s[j])
            fd = fd + wij * pd
            ft = ft + wij * pt
            shift += wij * float(law._raw(-s[i], -s[j]))
    return val - shift, fd, ft


def mollified_law(name):
    """One law of each kind, mollified with delta = 0.1."""
    base = {"newtonian": lambda: rh.newtonian_law(mu=1.3, lam=0.4),
            "power_law": lambda: rh.power_law(mu0=0.8),
            "tabulated": lambda: table_from_law(rh.newtonian_law(mu=1.0),
                                                mu0=0.5)}[name]()
    return rh.mollify(base, 0.1)


@pytest.mark.parametrize("name", ["newtonian", "power_law", "tabulated"])
def test_mollified_quadrature_matches_double_loop(name):
    law = mollified_law(name)
    rng = np.random.default_rng(23)
    d_nm = rng.uniform(0.3, 2.0, size=(3, 4))
    # (n,) spans blocks: one holds 128 points of the power law, 2 otherwise
    n = 130 if name == "power_law" else 5
    cases = [(0.7, -0.6),                            # scalar
             (rng.uniform(0.3, 2.0, n), rng.uniform(0.2, 1.5, n)),   # (n,)
             (d_nm, -0.9)]                           # (n, m) against scalar t
    for d, t in cases:
        want_v, want_d, want_t = oracle_mollified(law, d, t)
        got_v = law.value_dt(d, t)
        got_d, got_t = law.partials_dt(d, t)
        assert np.shape(got_v) == np.shape(got_d) == np.shape(got_t) == np.shape(want_v)
        for got, want in ((got_v, want_v), (got_d, want_d), (got_t, want_t)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", ["power_law", "tabulated"])
def test_quadrature_blocks_stay_within_the_byte_budget(name):
    # a raw array over glibc's 128 KiB mmap threshold is mapped and
    # zero-filled afresh on every block
    law = mollified_law(name)
    budget = rh._BLOCK_BYTES
    assert budget < 128 * 1024
    sizes = []

    def watched(raw):
        def wrapped(d, t):
            out = raw(d, t)
            arrays = [np.broadcast(d, t)] + list(out if isinstance(out, tuple)
                                                 else (out,))
            sizes.append(max(8 * a.size for a in arrays))
            return out
        return wrapped

    law._raw = watched(law._raw)
    law._raw_partials = watched(law._raw_partials)
    n = {"power_law": 300, "tabulated": 9}[name]
    rng = np.random.default_rng(5)
    d, t = rng.uniform(0.3, 2.0, n), rng.uniform(0.2, 1.5, n)
    law.value_dt(d, t)
    law.partials_dt(d, t)
    # several blocks per call, none of them over the budget
    assert len(sizes) >= 6
    assert max(sizes) <= budget, max(sizes)


@pytest.mark.parametrize("name", ["newtonian", "power_law", "tabulated"])
def test_quadrature_batch_matches_per_point_calls(name):
    law = mollified_law(name)
    rng = np.random.default_rng(29)
    # 260 points cross block boundaries for every law; d and |t| stay off
    # 0, where a partial is a cancelling sum of rounding size
    d = rng.uniform(0.3, 2.0, 260)
    t = rng.choice([-1.0, 1.0], 260) * rng.uniform(0.2, 1.5, 260)
    got_v = law.value_dt(d, t)
    got_d, got_t = law.partials_dt(d, t)
    for k in range(d.size):
        want_v = law.value_dt(d[k:k + 1], t[k:k + 1])
        want_d, want_t = law.partials_dt(d[k:k + 1], t[k:k + 1])
        for got, want in ((got_v, want_v), (got_d, want_d), (got_t, want_t)):
            np.testing.assert_allclose(got[k:k + 1], want, rtol=1e-14,
                                       atol=0.0, err_msg=f"point {k}")


# --------------------------------------------------- work-count guards


def _counted(g):
    """g(x, on) that records the number of entries of each call."""
    calls = []

    def wrapped(x, on):
        assert x.shape == (int(on.sum()),)
        calls.append(x.size)
        return g(x, on)
    return wrapped, calls


def test_monotone_root_finds_known_roots_within_cap():
    target = np.array([0.3, 2.0, 7.5, 0.0, 10.0])
    g, calls = _counted(lambda x, on: x ** 3 + x - (target[on] ** 3 + target[on]))
    x = rh._monotone_root(g, np.zeros(5), np.full(5, 10.0))
    np.testing.assert_allclose(x, target, rtol=0.0, atol=1e-10)
    assert len(calls) <= rh._ROOT_MAX_ITER + 2
    # roots at an end of the bracket cost only the two end calls
    assert calls[:2] == [5, 5] and max(calls[2:]) == 3


def test_monotone_root_bisects_when_the_secant_stalls():
    # g(10) = 1e41 against g(0) = -1: each secant step creeps from 0 by
    # about 1e-40, and Illinois alone takes about 150 steps here
    g, calls = _counted(lambda x, on: x ** 41 - 1.0)
    x = rh._monotone_root(g, np.zeros(1), np.full(1, 10.0))
    assert abs(x[0] - 1.0) <= 1e-10
    assert len(calls) <= 40


def test_mollified_power_law_conjugate_raw_point_count(monkeypatch):
    law = rh.mollify(rh.power_law(mu0=1.0), 0.05)
    law.value_dt(0.0, 0.0)           # the cached F_delta(0) shift is not counted
    n = 37
    s = np.linspace(0.05, 1.5, n)
    count = {"value": 0, "partials": 0}
    raw, raw_partials = rh.RheologyLaw._raw, rh.RheologyLaw._raw_partials

    def counted(self, d, t):
        out = raw(self, d, t)
        count["value"] += out.size
        return out

    def counted_partials(self, d, t):
        out = raw_partials(self, d, t)
        count["partials"] += out[0].size
        return out

    monkeypatch.setattr(rh.RheologyLaw, "_raw", counted)
    monkeypatch.setattr(rh.RheologyLaw, "_raw_partials", counted_partials)
    rh.conjugate_batch(law, s, np.zeros(n))
    # one value quadrature per entry, and on average at most 10 partial
    # quadratures: the two bracket ends and the root steps
    assert count["value"] == n * rh._GL_NODES
    assert 0 < count["partials"] <= 10 * n * rh._GL_NODES
