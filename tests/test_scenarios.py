"""Scenario parsing, validation, and construction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nematoflow import scenarios as sn
from nematoflow import tensors
from nematoflow.errors import ConfigError
from nematoflow.simulation import q_components


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


def test_every_scenario_field_has_its_own_key():
    # the keys are declared on the fields: a repeated one would collapse
    # KEY_MAP and drop a field from scenario_text, so from check_resume
    assert list(sn.KEY_MAP.values()) \
        == [f.name for f in dataclasses.fields(sn.Scenario)]


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
    ("init_c", "wave:1.0,5.0", "init.c must be nonnegative"),
    ("init_c", "uniform:-0.5", "init.c must be nonnegative"),
    ("init_c", "band:-1.0,0.5", "init.c must be nonnegative"),
    ("init_q", "spiral:0.1", "unknown init.q"),
    ("bc_u", "swirl:1.0", "unknown bc.u"),
    ("pressure_kind", "stiffened", "unknown pressure kind"),
    ("rheology_kind", "bingham", "unknown rheology kind"),
    ("pressure_gamma", 0.5, "gamma > 1"),
    ("pressure_a", -1.0, "a > 0"),
    ("rheology_lam", -5.0, r"lam \+ mu/3"),
    # lam + 2*mu/3 >= 0 but F(0.1 I) < F(0): the potential is not convex
    ("rheology_lam", -0.5, r"lam \+ mu/3"),
    ("picard_tol", 0.0, "tol.picard"),
    ("snapshot_every", -3, "output.snapshot_every"),
    ("seed", -1, "run.seed"),
    ("init_v", "noise:-1", "init.v noise"),
    ("init_v", "noise:inf", "init.v noise"),
    ("init_rho", "uniform:nan", "init.rho uniform"),
    ("picard_tol", math.inf, "tol.picard"),
    ("b", math.nan, "material.b"),
    ("delta", math.nan, "reg.delta"),
    ("sigma_star", math.nan, "material.sigma_star"),
    ("c_star", math.nan, "material.c_star"),
    ("c_star", -1.0, "c_star must be positive"),
    ("c_star", 0.0, "c_star must be positive"),
    ("rheology_mu", 0.0, "newtonian law needs mu > 0"),
    ("rheology_mu", -1.0, "newtonian law needs mu > 0"),
    ("grid_extent", math.inf, "grid.extent"),
    ("dt", math.nan, "time.dt"),
    ("final_time", math.inf, "time.final"),
    ("bc_rho", math.nan, "bc.rho"),
    # an empty argument is an argument, not one to drop
    ("init_c", "wave:1.0,,0.4", "init.c wave"),
    ("init_c", "uniform:1.0,", "init.c uniform"),
    ("init_c", "uniform:,1.0", "init.c uniform"),
    ("bc_u", "constant:1,,0,0", "bc.u constant"),
    ("bc_u", "channel:0.25,", "bc.u channel"),
    ("init_q", "bump:0.1,", "init.q bump"),
    ("init_rho", "sine:0.05,", "init.rho sine"),
    # a selector without arguments refuses any, so zero:0.3 is not bump:0.3
    ("init_q", "zero:0.3", "init.q zero: expected 0 arguments, got 1"),
    ("init_v", "zero:5", "init.v zero: expected 0 arguments, got 1"),
    ("bc_u", "zero:1,2", "bc.u zero: expected 0 arguments, got 2"),
    ("bc_q", "zero:,", "bc.q zero: expected 0 arguments, got 2"),
])
def test_build_rejects_invalid_scenarios(field, value, fragment):
    sc = dataclasses.replace(sn.zero_scenario(), **{field: value})
    with pytest.raises(ConfigError, match=fragment):
        sn.build(sc)


@pytest.mark.parametrize("field,value,fragment", [
    ("grid_cells", 8.5, "grid.cells must be int, got 8.5"),
    ("modes", 1.5, "galerkin.modes must be int, got 1.5"),
    ("seed", 1.5, "run.seed must be int, got 1.5"),
    ("snapshot_every", 2.5, "output.snapshot_every must be int, got 2.5"),
    ("init_q", 5, "init.q must be str, got 5"),
    ("bc_u", None, "bc.u must be str, got None"),
    ("eps", True, "reg.eps must be float, got True"),
])
def test_build_refuses_a_field_of_another_type(field, value, fragment):
    sc = dataclasses.replace(sn.zero_scenario(), **{field: value})
    with pytest.raises(ConfigError, match=fragment):
        sn.build(sc)


@pytest.mark.parametrize("field,value", [
    ("grid_cells", np.int64(8)), ("eps", 1), ("eps", np.float64(0.05))])
def test_build_takes_numpy_scalars_and_ints_for_floats(field, value):
    sn.build(dataclasses.replace(sn.zero_scenario(), **{field: value}))


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
    m = tensors.to_matrix(q_components(st.q))
    assert np.max(np.abs(np.trace(m, axis1=-2, axis2=-1))) < 1e-13
    assert np.max(np.abs(m - np.swapaxes(m, -1, -2))) == 0.0


def test_uniaxial_selectors():
    sc = sn.zero_scenario(init_q="uniaxial:0.5,1,0,0", bc_q="uniaxial:0.5,1,0,0")
    setup = sn.build(sc)
    qm = tensors.to_matrix(q_components(setup.state0.q))
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
    boundary = setup.stepper.boundary
    g = setup.stepper.grid
    u = boundary.u_cells
    assert u.shape == (3,) + g.shape
    assert boundary.jac_cells.shape == (3, 3) + g.shape
    # an x-directed profile: no flow through the y and z walls, and every
    # x face plane carries the profile of the cells
    assert not np.any(u[1:])
    assert not np.any(boundary.u_faces[1]) and not np.any(boundary.u_faces[2])
    assert boundary.u_faces[0].shape == (g.shape[0] + 1,) + g.shape[1:]
    assert np.array_equal(boundary.u_faces[0],
                          np.broadcast_to(u[0, :1], boundary.u_faces[0].shape))
    # the profile is quadratic in y and in z: the exact extrapolation from
    # the three cells next to a wall, (15 f0 - 10 f1 + 3 f2) / 8, is the
    # wall speed, zero on all four side walls; the midplane carries the peak
    for axis in (1, 2):
        for side in (slice(None), slice(None, None, -1)):
            f = np.moveaxis(u[0], axis, 0)[side]
            wall = (15.0 * f[0] - 10.0 * f[1] + 3.0 * f[2]) / 8.0
            assert np.max(np.abs(wall)) < 1e-14
    mid = u[0, :, g.shape[1] // 2, g.shape[2] // 2]
    assert np.max(np.abs(mid)) > 0.1
