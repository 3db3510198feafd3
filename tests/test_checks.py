"""Check-suite behavior, including detection of solver-side mutations."""

import copy
from unittest import mock

import pytest

from nematoflow import checks
from nematoflow import momentum as mom
from nematoflow import scenarios as sn
from nematoflow.continuity import ContinuitySolver
from nematoflow.errors import ConfigError


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        checks.run_checks("bogus")


@pytest.mark.parametrize("suite", ["tensors", "rheology", "pressure"])
def test_algebraic_suites_pass(suite):
    ok, rows = checks.run_checks(suite)
    assert ok, [r for r in rows if not r[1]]


def _small_scenario():
    return sn.default_scenario(grid_cells=8, final_time=0.02,
                               snapshot_every=0)


def test_energy_suite_passes_on_intact_solver():
    ok, rows = checks.run_checks("energy", sc=_small_scenario())
    assert ok, [r for r in rows if not r[1]]


def test_energy_suite_fails_under_flipped_active_forcing():
    # The forcing enters the ledger budget quadratically, so the budget
    # cannot see a sign flip; the cross-assembled momentum balance can.
    orig = mom.active_stress

    def flipped(q, c, sigma_star):
        return -orig(q, c, sigma_star)

    with mock.patch.object(mom, "active_stress", flipped):
        ok, rows = checks.run_checks("energy", sc=_small_scenario())
    assert not ok
    failed = [name for name, passed, _ in rows if not passed]
    assert any("active forcing" in name for name in failed), failed


def test_weakforms_suite_passes_on_intact_solver():
    ok, rows = checks.run_checks("weakforms")
    assert ok, [r for r in rows if not r[1]]


def test_weakforms_suite_fails_under_doubled_density_diffusion():
    # eps doubled in the density solve only: the residual keeps the intact
    # eps, so the solver and the identity disagree by an eps term
    orig = ContinuitySolver._solve_diffusion

    def doubled(self, rhs, start=None):
        twin = copy.copy(self)
        twin.eps = 2.0 * self.eps
        return orig(twin, rhs, start)

    with mock.patch.object(ContinuitySolver, "_solve_diffusion", doubled):
        ok, rows = checks.run_checks("weakforms")
    assert not ok
    failed = [name for name, passed, _ in rows if not passed]
    assert failed == ["weakforms: weak residual bounded (continuity)"], failed


def test_defect_suite_refines_the_given_scenario():
    # the fine run is the given one with twice the cells and modes; a fixed
    # 16^3/m=4 fine run cannot be block-averaged onto a 6^3 grid
    sc = sn.default_scenario(grid_cells=6, modes=1, final_time=0.01,
                             snapshot_every=0)
    built = []
    build = sn.build

    def spy(scen):
        built.append((scen.grid_cells, scen.modes))
        return build(scen)

    with mock.patch.object(sn, "build", spy):
        ok, rows = checks.run_checks("defect", sc=sc)
    assert built == [(6, 1), (12, 2)]
    assert [name for name, _, _ in rows] == ["defect: two-grid sandwich rate"]
