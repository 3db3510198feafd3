"""Pressure law and pressure potential checks.

The potential is pinned by closed forms for isentropic laws and by the
defining ODE P'(rho) rho - P(rho) = p(rho) (finite differences) for general
laws, so the log-space quadrature never certifies itself.
"""

import numpy as np
import pytest

from nematoflow import pressure as pr
from nematoflow.errors import ConfigError


def make_general_from(fn, rho_max=4.0, n=41):
    rho = np.linspace(0.0, rho_max, n)
    return pr.general_law(rho, fn(rho))


def test_isentropic_values_frozen():
    law = pr.isentropic_law(a=1.0, gamma=2.0)
    assert pr.pressure(law, 2.0) == pytest.approx(4.0, abs=1e-14)
    assert pr.potential(law, 2.0) == pytest.approx(4.0, abs=1e-14)
    assert pr.pressure(law, 0.0) == 0.0
    assert pr.potential(law, 0.0) == 0.0
    law14 = pr.isentropic_law(a=1.0, gamma=1.4)
    assert pr.pressure(law14, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_domain_errors():
    law = pr.isentropic_law(a=1.0, gamma=2.0, rho_max=3.0)
    with pytest.raises(ConfigError):
        pr.pressure(law, -0.1)
    with pytest.raises(ConfigError):
        pr.potential(law, 3.5)
    gen = make_general_from(lambda r: r ** 2)
    with pytest.raises(ConfigError):
        pr.pressure(gen, 4.5)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        pr.isentropic_law(a=-1.0, gamma=2.0)
    with pytest.raises(ConfigError):
        pr.isentropic_law(a=1.0, gamma=1.0)
    with pytest.raises(ConfigError):
        pr.general_law([0.0, 1.0, 2.0], [0.1, 1.0, 2.0])   # p(0) != 0
    with pytest.raises(ConfigError):
        pr.general_law([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])   # rho not increasing


@pytest.mark.parametrize("gamma", [1.2, 1.5, 2.0, 3.0])
def test_ode_identity_isentropic(gamma):
    # finite-difference truncation grows like rho * h^2 * P''', so the
    # sample window stays away from the degenerate origin
    law = pr.isentropic_law(a=0.7, gamma=gamma, rho_max=2.0)
    rho = np.linspace(0.2, 1.98, 100)
    h = 1.0e-5 * 2.0
    Pp = (pr.potential(law, rho + h) - pr.potential(law, rho - h)) / (2 * h)
    resid = Pp * rho - pr.potential(law, rho) - pr.pressure(law, rho)
    assert np.max(np.abs(resid)) <= 1.0e-8


def test_ode_identity_general():
    law = make_general_from(lambda r: 0.5 * r ** 1.5, rho_max=4.0, n=33)
    rho = law.rho_nodes[1:-1]
    h = 1.0e-5 * law.rho_max
    Pp = (pr.potential(law, rho + h) - pr.potential(law, rho - h)) / (2 * h)
    resid = Pp * rho - pr.potential(law, rho) - np.asarray(pr.pressure(law, rho))
    assert np.max(np.abs(resid)) <= 1.0e-8


def test_general_potential_tracks_closed_form():
    # samples of a gamma=2 law: P should match rho^2/(gamma-1) = rho^2 up to
    # a linear-in-rho defect.  Linear terms are the kernel of the defining
    # ODE, and the cutoff construction picks one up from the interpolant's
    # nonzero slope at the origin; it must be small and exactly linear.
    law = make_general_from(lambda r: r ** 2, rho_max=4.0, n=81)
    rho = np.linspace(0.1, 3.9, 50)
    P = np.asarray(pr.potential(law, rho))
    defect = P - rho ** 2
    slope = defect[-1] / rho[-1]
    assert abs(slope) < 0.05
    assert np.max(np.abs(defect - slope * rho)) < 5.0e-4


def test_potential_prime_consistent_with_fd():
    law = make_general_from(lambda r: r ** 2, rho_max=4.0, n=81)
    rho = np.linspace(0.2, 3.8, 23)
    h = 1e-6
    fd = (np.asarray(pr.potential(law, rho + h)) - np.asarray(pr.potential(law, rho - h))) / (2 * h)
    assert np.allclose(pr.potential_prime(law, rho), fd, atol=1e-6)


@pytest.mark.parametrize("kind", ["isentropic", "general"])
@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2, 3)])
def test_potential_keeps_the_input_shape(kind, shape):
    law = (pr.isentropic_law(a=1.0, gamma=2.0, rho_max=4.0)
           if kind == "isentropic" else make_general_from(lambda r: r ** 2))
    rho = np.linspace(0.5, 3.0, int(np.prod(shape))).reshape(shape)
    for fn in (pr.potential, pr.potential_prime):
        out = fn(law, rho)
        # the same densities among others, so the array path is certain
        ref = fn(law, np.append(rho.ravel(), 1.0))[:-1].reshape(shape)
        assert np.shape(out) == shape
        assert np.array_equal(out, ref)


def test_potential_second_identity():
    law = pr.isentropic_law(a=2.0, gamma=1.7)
    rho = np.linspace(0.1, 5.0, 40)
    expect = pr.pressure_prime(law, rho) / rho
    assert np.allclose(pr.potential_second(law, rho), expect, rtol=1e-13)


def test_certify_isentropic_frozen_constants():
    out = pr.certify_s2(pr.isentropic_law(a=1.0, gamma=2.0))
    assert out["pass"]
    assert out["a_lower"] == pytest.approx(1.0)
    assert out["a_upper"] == pytest.approx(1.0)
    assert out["a_tilde"] == pytest.approx(1.0)
    assert out["gamma_eff"] == pytest.approx(2.0)
    out12 = pr.certify_s2(pr.isentropic_law(a=1.0, gamma=1.2))
    assert out12["a_lower"] == pytest.approx(5.0)
    assert out12["a_upper"] == pytest.approx(5.0)


def test_certify_general_recovers_exponent():
    rho = np.linspace(0.0, 10.0, 201)
    law = pr.general_law(rho, rho ** 2)
    out = pr.certify_s2(law)
    assert out["pass"]
    assert abs(out["gamma_eff"] - 2.0) / 2.0 < 0.01
    assert out["a_tilde"] > 0.0
    assert 0.0 < out["a_lower"]
    assert np.isfinite(out["a_upper"])


def test_certify_fails_on_linear_segment():
    # exactly linear run in the middle: hi*p - P cannot be convex there
    rho = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    p = np.array([0.0, 0.5, 1.5, 2.5, 4.5])
    out = pr.certify_s2(pr.general_law(rho, p))
    assert out["pass"] is False
    assert np.isinf(out["a_upper"])
