"""Scenario parsing, validation, and construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematoflow import galerkin as gk
from nematoflow import scenarios as sn
from nematoflow import tensors
from nematoflow.errors import ConfigError


def test_parse_round_trip():
    sc = sn.default_scenario()
    again = sn.parse_scenario(sn.scenario_text(sc))
    assert again == sc


# characters of the selector expressions ("noise:0.01", "uniaxial:0.3,1,0,0")
SELECTOR_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789:,.+-_"
_FIELD_VALUES = {
    float: st.floats(allow_nan=False, allow_infinity=False),
    int: st.integers(),
    str: st.text(alphabet=SELECTOR_ALPHABET, max_size=24),
}
scenarios = st.fixed_dictionaries({
    f.name: _FIELD_VALUES[type(getattr(sn.Scenario(), f.name))]
    for f in dataclasses.fields(sn.Scenario)}).map(lambda kw: sn.Scenario(**kw))


@settings(max_examples=200, deadline=None)
@given(scenarios)
def test_parse_round_trip_any_scenario(sc):
    assert sn.parse_scenario(sn.scenario_text(sc)) == sc


def test_parse_applies_values():
    sc = sn.parse_scenario(
        "grid.cells = 8\n"
        "time.final = 0.1\n"
        "time.dt = 2e-3\n"
        "material.sigma_star = -0.1\n"
        "# trailing comment line\n"
    )
    assert sc.grid_cells == 8
    assert sc.dt == 2e-3
    assert sc.sigma_star == -0.1
    assert sc.n_steps() == 50


@pytest.mark.parametrize("text,fragment", [
    ("grid.cellz = 8", "unknown key"),
    ("grid.cells = 8\ngrid.cells = 16", "duplicate key"),
    ("time.dt = fast", "bad value"),
    ("just some words", "expected 'key = value'"),
])
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        sn.parse_scenario(text)


def test_non_integer_step_count_rejected():
    sc = sn.default_scenario(final_time=0.0505)
    with pytest.raises(ConfigError, match="integer number of steps"):
        sc.n_steps()


def test_tabulated_rheology_requires_mollification():
    sc = sn.default_scenario(rheology_kind="tabulated", delta=0.0)
    with pytest.raises(ConfigError, match="mollification"):
        sn.build_rheology_law(sc)


@pytest.mark.parametrize("field,value,fragment", [
    ("bc_rho", -1.0, "bc.rho"),
    ("grid_cells", 1, "grid.cells"),
    ("grid_cells", 3, "at least 4 cells"),
    ("dt", -1e-3, "time.dt"),
    ("init_rho", "uniform:-2.0", "positive"),
    ("init_rho", "vortex:1.0", "unknown init.rho"),
    ("init_c", "band:2.0,1.0", "hi > lo"),
    ("init_q", "spiral:0.1", "unknown init.q"),
    ("bc_u", "swirl:1.0", "unknown bc.u"),
    ("pressure_kind", "stiffened", "unknown pressure kind"),
    ("rheology_kind", "bingham", "unknown rheology kind"),
    ("pressure_gamma", 0.5, "gamma > 1"),
    ("pressure_a", -1.0, "a > 0"),
    ("rheology_lam", -5.0, r"lam \+ 2\*mu/3"),
    ("picard_tol", 0.0, "tol.picard"),
])
def test_build_rejects_invalid_scenarios(field, value, fragment):
    sc = dataclasses.replace(sn.zero_scenario(), **{field: value})
    with pytest.raises(ConfigError, match=fragment):
        sn.build(sc)


def test_zero_scenario_builds_quiescent_state():
    setup = sn.build(sn.zero_scenario())
    st = setup.state0
    assert np.all(st.rho == 1.0)
    assert np.all(st.c == 0.0)
    assert np.all(st.q == 0.0)
    assert np.all(st.v == 0.0)


def test_default_scenario_builds_admissible_state():
    setup = sn.build(sn.default_scenario(grid_cells=8))
    st = setup.state0
    assert np.all(st.rho > 0)
    m = tensors.to_matrix(st.q)
    assert np.max(np.abs(np.trace(m, axis1=-2, axis2=-1))) < 1e-13
    assert np.max(np.abs(m - np.swapaxes(m, -1, -2))) == 0.0


def test_uniaxial_selectors():
    sc = sn.zero_scenario(init_q="uniaxial:0.5,1,0,0", bc_q="uniaxial:0.5,1,0,0")
    setup = sn.build(sc)
    qm = tensors.to_matrix(setup.state0.q)
    n = np.array([1.0, 0.0, 0.0])
    expect = 0.5 * (np.outer(n, n) - np.eye(3) / 3.0)
    assert np.max(np.abs(qm - expect)) < 1e-14
    wall = setup.stepper.boundary.q_b[0]
    assert np.max(np.abs(tensors.to_matrix(wall) - expect)) < 1e-14


def test_seeded_selectors_are_deterministic():
    a = sn.build(sn.zero_scenario(init_c="band:0.4,0.9", init_v="noise:0.05"))
    b = sn.build(sn.zero_scenario(init_c="band:0.4,0.9", init_v="noise:0.05"))
    assert np.array_equal(a.state0.c, b.state0.c)
    assert np.array_equal(a.state0.v, b.state0.v)


def test_channel_boundary_profile_vanishes_at_walls():
    sc = sn.zero_scenario(bc_u="channel:0.5")
    setup = sn.build(sc)
    ub = setup.stepper.bdata.u_b
    g = setup.grid
    # Profile rides on the wall-normal coordinates, so wall faces carry
    # zero tangential speed while the midplane carries the peak.
    X, Y, Z = g.coords()
    vals = ub(X, Y, Z)
    assert vals.shape == X.shape + (3,)
    lo = ub(X[:1] * 0, Y[:1] * 0, Z[:1] * 0)
    assert np.max(np.abs(lo)) < 1e-14
    mid = vals[:, g.shape[1] // 2, g.shape[2] // 2, 0]
    assert np.max(np.abs(mid)) > 0.1
