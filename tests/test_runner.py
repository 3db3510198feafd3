"""End-to-end run orchestration: reports, determinism, restart."""

import dataclasses
import os
import time

import numpy as np
import pytest

from nematoflow import energy as en
from nematoflow import runner as rn
from nematoflow import scenarios as sn
from nematoflow import simulation
from nematoflow import snapshots as sp
from nematoflow.continuity import ContinuitySolver
from nematoflow.errors import ConfigError
from nematoflow.simulation import State


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_zero_scenario_all_checks_pass(tmp_path):
    rep = rn.run_scenario(sn.zero_scenario(), out_dir=str(tmp_path))
    assert rep.all_pass, [r for r in rep.checks if not r[1]]
    names = {name for name, _, _ in rep.checks}
    assert {"order tensor trace free", "order tensor symmetric",
            "solute bounds", "density envelope", "dissipation nonnegative",
            "inflow convexity gap", "energy inequality"} <= names
    assert os.path.exists(tmp_path / "ledger.csv")
    assert os.path.exists(tmp_path / "report.txt")
    text = (tmp_path / "report.txt").read_text()
    assert "PASS" in text and "FAIL" not in text


def test_energy_inequality_row_prints_the_slack_that_moves_with_forcing():
    # the detail is min(RHS - LHS) over t > 0 and RHS/LHS there, not the
    # t = 0 tolerance: it differs between the two forcing signs
    details = []
    for sigma in (1.0, -1.0):
        sc = sn.default_scenario(grid_cells=8, final_time=0.005,
                                 sigma_star=sigma, init_q="bump:0.4")
        rep = rn.run_scenario(sc)
        ineq = rep.monitor.inequality_residual()
        (detail,) = [d for name, _, d in rep.checks
                     if name == "energy inequality"]
        slack = float(np.min(ineq["residual"][1:]))
        assert ineq["slack"] == slack > 10.0 * ineq["tol"][0]
        assert detail == (f"slack min(RHS - LHS) over t > 0 {slack:.6g}, "
                          f"RHS/LHS there {ineq['ratio']:.4g}")
        details.append(detail)
    assert details[0] != details[1]


def test_mass_balance_row_fails_with_flipped_diffusive_flux(monkeypatch):
    sc = sn.default_scenario(grid_cells=8, final_time=0.01)
    rep = rn.run_scenario(sc)
    assert ("mass balance", True) in [c[:2] for c in rep.checks]
    step = ContinuitySolver.step

    def flipped(self, *args, **kwargs):
        rho_new, info = step(self, *args, **kwargs)
        info["eps_boundary_flux"] = -info["eps_boundary_flux"]
        return rho_new, info

    monkeypatch.setattr(ContinuitySolver, "step", flipped)
    rep = rn.run_scenario(sc)
    assert ("mass balance", False) in [c[:2] for c in rep.checks]


def test_quiescent_ledger_is_exactly_conservative(tmp_path):
    sc = sn.zero_scenario()
    rep = rn.run_scenario(sc, out_dir=str(tmp_path))
    rows = rep.monitor.rows
    # one row per time level, the last at the final time
    assert len(rows) == sc.n_steps() + 1
    assert rows[-1]["t"] == pytest.approx(sc.final_time)
    e0 = rows[0]["E_total"]
    drift = max(abs(r["E_total"] - e0) for r in rows)
    assert drift == 0.0


def test_report_times_the_ledger_rows_of_the_step_loop(tmp_path,
                                                       monkeypatch):
    row = en.EnergyMonitor.row

    def slow_row(self, state, picard_iters=0, fields=None):
        time.sleep(0.02)
        return row(self, state, picard_iters, fields)

    monkeypatch.setattr(en.EnergyMonitor, "row", slow_row)
    sc = sn.zero_scenario(final_time=0.005, snapshot_every=0)
    rep = rn.run_scenario(sc, out_dir=str(tmp_path))
    # one row per step, inside the stepping time
    assert 0.02 * sc.n_steps() <= rep.timings["ledger"] \
        <= rep.timings["stepping"]
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert f"time ledger {rep.timings['ledger']:.3f}s" in lines


# the 8^3 power-law channel flow, whose implicit stiffness is the secant
# one built from the scenario
POWER_LAW = {"rheology_kind": "power_law", "init_v": "noise:0.01"}


def _repeat_runs_are_bit_identical(tmp_path, sc):
    a, b = tmp_path / "a", tmp_path / "b"
    rn.run_scenario(sc, out_dir=str(a))
    rep = rn.run_scenario(sc, out_dir=str(b))
    assert _read_bytes(a / "ledger.csv") == _read_bytes(b / "ledger.csv")
    assert len(rep.contractions) == sc.n_steps()
    assert "picard contraction p50 " in (b / "report.txt").read_text()
    last = sp.snapshot_path("", sc.n_steps()).lstrip("/")
    assert _read_bytes(a / last) == _read_bytes(b / last)


def test_repeat_runs_are_bit_identical(tmp_path):
    _repeat_runs_are_bit_identical(tmp_path, sn.default_scenario(
        grid_cells=8, final_time=0.02, snapshot_every=10))


def test_repeat_power_law_runs_are_bit_identical(tmp_path):
    _repeat_runs_are_bit_identical(tmp_path, sn.default_scenario(
        grid_cells=8, final_time=0.02, snapshot_every=10, **POWER_LAW))


def test_restart_reproduces_uninterrupted_run(tmp_path):
    sc = sn.default_scenario(grid_cells=8, final_time=0.02, snapshot_every=10)
    full, part = tmp_path / "full", tmp_path / "part"
    rn.run_scenario(sc, out_dir=str(full))
    mid = sp.snapshot_path(str(full), 10)
    rn.run_scenario(sc, out_dir=str(part), resume_from=mid)
    last = os.path.basename(sp.snapshot_path("x", sc.n_steps()))
    assert _read_bytes(full / last) == _read_bytes(part / last)
    # the resumed ledger is the uninterrupted one from the snapshot's row
    # on; that row differs only in its Picard count (no step led to it)
    full_rows = (full / "ledger.csv").read_bytes().splitlines()
    part_rows = (part / "ledger.csv").read_bytes().splitlines()
    resumed = full_rows[-(sc.n_steps() - 10 + 1):]
    assert part_rows[0] == full_rows[0]
    assert part_rows[2:] == resumed[1:]
    assert part_rows[1].rpartition(b",")[0] == resumed[0].rpartition(b",")[0]


def _restart_from_snapshot_is_byte_exact(tmp_path, sc, resume_step):
    # step 0 has no previous coefficients; step 1 is the first snapshot
    # whose next step starts from the linear extrapolation, step 2 the
    # first that carries coeffs_prev2 for the quadratic one
    full, part = tmp_path / "full", tmp_path / "part"
    rn.run_scenario(sc, out_dir=str(full))
    snap = sp.snapshot_path(str(full), resume_step)
    state = sp.read_snapshot(snap)[0]
    assert (state.v_prev is not None) == (resume_step >= 1)
    assert (state.v_prev2 is not None) == (resume_step >= 2)
    rn.run_scenario(sc, out_dir=str(part), resume_from=snap)
    last = os.path.basename(sp.snapshot_path("x", sc.n_steps()))
    assert _read_bytes(full / last) == _read_bytes(part / last)


@pytest.mark.parametrize("resume_step", [0, 1, 2, 10])
def test_restart_from_any_snapshot_is_byte_exact(tmp_path, resume_step):
    _restart_from_snapshot_is_byte_exact(tmp_path, sn.default_scenario(
        grid_cells=8, final_time=0.02, snapshot_every=1), resume_step)


@pytest.mark.parametrize("resume_step", [0, 1, 2, 10])
def test_power_law_restart_from_any_snapshot_is_byte_exact(tmp_path,
                                                           resume_step):
    _restart_from_snapshot_is_byte_exact(tmp_path, sn.default_scenario(
        grid_cells=8, final_time=0.012, snapshot_every=1, **POWER_LAW),
        resume_step)


def test_restart_rejects_mismatched_grid(tmp_path):
    sc = sn.default_scenario(grid_cells=8, final_time=0.02, snapshot_every=10)
    rn.run_scenario(sc, out_dir=str(tmp_path))
    other = sn.default_scenario(grid_cells=10, final_time=0.02)
    with pytest.raises(ConfigError, match="grid"):
        rn.run_scenario(other, out_dir=None,
                        resume_from=sp.snapshot_path(str(tmp_path), 10))


@pytest.mark.parametrize("override, key", [
    ({"eps": 0.1}, "reg.eps"), ({"gamma_q": 0.1}, "material.gamma"),
    ({"bc_u": "channel:0.5"}, "bc.u"), ({"dt": 5e-4}, "time.dt"),
    ({"eps": 0.1, "bc_u": "channel:0.5"}, "reg.eps"),
    ({"grid_cells": 12}, "grid.cells"), ({"grid_extent": 2.0}, "grid.extent"),
    ({"modes": 1}, "galerkin.modes")])
def test_restart_rejects_another_scenario(tmp_path, override, key):
    # a snapshot knows its scenario: resuming it under another value of a
    # key the trajectory depends on names the first such key, before any
    # output
    sc = sn.default_scenario(grid_cells=8, final_time=0.004, snapshot_every=2)
    rn.run_scenario(sc, out_dir=str(tmp_path / "full"))
    snap = sp.snapshot_path(str(tmp_path / "full"), 2)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"snapshot {snap}: scenario key "
                       f"{key} is .* in the snapshot but .* in this run"):
        rn.run_scenario(dataclasses.replace(sc, **override),
                        out_dir=str(out), resume_from=snap)
    assert not out.exists()


def test_restart_from_a_scenario_of_numpy_scalars(tmp_path):
    # the stored text writes each value through its field type, so
    # np.float64(0.05) is stored as 0.05 and the snapshot reads back
    sc = sn.default_scenario(grid_cells=4, modes=1, final_time=0.002,
                             snapshot_every=1, eps=np.float64(0.05))
    full, part = tmp_path / "full", tmp_path / "part"
    rn.run_scenario(sc, out_dir=str(full))
    snap = sp.snapshot_path(str(full), 1)
    text = _records(snap)["scenario"].tobytes().decode()
    assert "reg.eps = 0.05" in text.splitlines()
    rn.run_scenario(sc, out_dir=str(part), resume_from=snap)
    last = os.path.basename(sp.snapshot_path("x", 2))
    assert (part / last).read_bytes() == (full / last).read_bytes()


def test_restart_rejects_an_unreadable_scenario_record(tmp_path):
    sc = sn.default_scenario(grid_cells=4, modes=1, final_time=0.002)
    setup = sn.build(sc)
    path = str(tmp_path / "snap.bin")
    sp.write_snapshot(path, setup.state0, "grid.cellz = 4\n")
    with pytest.raises(ConfigError, match=f"snapshot {path}: unreadable "
                       "scenario: line 1: unknown key 'grid.cellz'"):
        rn.run_scenario(sc, resume_from=path)


def test_restart_ignores_the_keys_a_resumed_run_does_not_read(tmp_path):
    # the end time, the snapshot cadence, the initial data and the seed
    # that draws them may differ; the shared steps stay byte-exact
    sc = sn.default_scenario(grid_cells=8, final_time=0.004, snapshot_every=2)
    rn.run_scenario(sc, out_dir=str(tmp_path / "full"))
    other = dataclasses.replace(
        sc, final_time=0.006, snapshot_every=1, init_rho="uniform:2.0",
        init_c="uniform:0.5", init_q="zero", init_v="noise:0.1", seed=3)
    assert {key for key, name in sn.KEY_MAP.items()
            if getattr(sc, name) != getattr(other, name)} \
        == set(sn.RESUME_EXEMPT)
    part = tmp_path / "part"
    rn.run_scenario(other, out_dir=str(part),
                    resume_from=sp.snapshot_path(str(tmp_path / "full"), 2))
    last = os.path.basename(sp.snapshot_path("x", 4))
    full_records = _records(tmp_path / "full" / last)
    part_records = _records(part / last)
    for key in sp._KEYS:
        if key != "scenario":
            assert np.array_equal(full_records[key], part_records[key]), key


def test_restart_rejects_mismatched_modes(tmp_path):
    sc = sn.default_scenario(grid_cells=8, modes=2)
    setup = sn.build(sc)
    path = str(tmp_path / "snap.bin")
    sp.write_snapshot(path, setup.state0, sn.scenario_text(sc))
    with pytest.raises(ConfigError, match=f"snapshot {path}: .*modes"):
        rn.run_scenario(sn.default_scenario(grid_cells=8, modes=1),
                        resume_from=path)


@pytest.mark.parametrize("t", [0.02, -1e-3, 1.5e-3])
def test_restart_rejects_snapshot_outside_the_run(tmp_path, t):
    # T = 0.01, dt = 1e-3: past T, before 0, and between two steps
    sc = sn.default_scenario(grid_cells=4, modes=1, final_time=0.01)
    setup = sn.build(sc)
    path = str(tmp_path / "snap.bin")
    st = setup.state0
    sp.write_snapshot(path, State(t, st.rho, st.c, st.q, st.v),
                      sn.scenario_text(sc))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"snapshot time t = {t!r}"):
        rn.run_scenario(sc, out_dir=str(out), resume_from=path)
    assert not out.exists()


def _records(path):
    """The NPY records of a snapshot file by key, in file order."""
    with open(path, "rb") as fh:
        return {key: np.lib.format.read_array(fh) for key in sp._KEYS}


def _write_records(path, records):
    with open(path, "wb") as fh:
        for a in records.values():
            np.save(fh, a)


def test_snapshot_round_trip(tmp_path):
    sc = sn.default_scenario(grid_cells=8, final_time=0.01, snapshot_every=10)
    setup = sn.build(sc)
    path = str(tmp_path / "snap.bin")
    text = sn.scenario_text(sc)
    sp.write_snapshot(path, setup.state0, text)
    st, stored = sp.read_snapshot(path)
    assert stored == sc
    assert np.array_equal(st.rho, setup.state0.rho)
    assert np.array_equal(st.c, setup.state0.c)
    assert np.array_equal(st.q, setup.state0.q)
    assert np.array_equal(st.v, setup.state0.v)
    assert st.t == setup.state0.t
    # the bytes depend on the state alone: writing it again, or writing the
    # state read back (other memory layouts), gives the same file
    for state in (setup.state0, st):
        again = str(tmp_path / "again.bin")
        sp.write_snapshot(again, state, text)
        assert _read_bytes(again) == _read_bytes(path)


def test_snapshot_round_trips_previous_coefficients(tmp_path):
    # a state without v_prev (v_prev2) writes an empty coeffs_prev
    # (coeffs_prev2) and reads back without one; a short or non-finite
    # record is rejected
    sc = sn.default_scenario(grid_cells=4, modes=1)
    setup = sn.build(sc)
    st = setup.state0
    path = tmp_path / "snap.bin"
    prev = np.random.default_rng(5).normal(size=st.v.size) / 3.0
    for key, field in (("coeffs_prev", "v_prev"), ("coeffs_prev2", "v_prev2")):
        sp.write_snapshot(str(path), st, sn.scenario_text(sc))
        assert _records(path)[key].shape == (0,)
        assert getattr(sp.read_snapshot(str(path))[0], field) is None
        sp.write_snapshot(str(path),
                          dataclasses.replace(st, t=1e-3, **{field: prev}),
                          sn.scenario_text(sc))
        assert np.array_equal(getattr(sp.read_snapshot(str(path))[0], field),
                              prev)
        records = _records(path)
        for bad in (prev[:-1], np.append(prev[:-1], np.nan)):
            _write_records(path, {**records, key: bad})
            with pytest.raises(ConfigError,
                               match=f"snapshot {path}: .*{key}"):
                sp.read_snapshot(str(path))


def _history(st, k):
    """k made-up Anderson pairs of the right shapes for state st."""
    rng = np.random.default_rng(k)
    return {"anderson_dv": rng.normal(size=(k, st.v.size)),
            "anderson_df": rng.normal(size=(k, st.v.size))}


def _snapshot_with_previous(tmp_path):
    """A 4^3 snapshot whose every array, coeffs_prev, coeffs_prev2 and a
    two-pair Anderson history included, is stored."""
    sc = sn.default_scenario(grid_cells=4, modes=1)
    setup = sn.build(sc)
    st = setup.state0
    path = tmp_path / "snap.bin"
    sp.write_snapshot(str(path),
                      State(1e-3, st.rho, st.c, st.q, st.v, st.v / 2.0,
                            st.v / 4.0, **_history(st, 2)),
                      sn.scenario_text(sc))
    return path


def test_snapshot_round_trips_the_anderson_history(tmp_path):
    # a state without history writes two empty records and reads back
    # without one; a history of k pairs reads back exactly, and one longer
    # than ANDERSON_DEPTH or with records of different k is refused
    sc = sn.default_scenario(grid_cells=4, modes=1)
    setup = sn.build(sc)
    st = setup.state0
    path = tmp_path / "snap.bin"
    sp.write_snapshot(str(path), st, sn.scenario_text(sc))
    records = _records(path)
    assert [records[key].shape for key in sp._HISTORY] == [
        (0, st.v.size), (0, st.v.size)]
    back = sp.read_snapshot(str(path))[0]
    assert all(getattr(back, key) is None for key in sp._HISTORY)
    for k in (1, simulation.ANDERSON_DEPTH):
        hist = _history(st, k)
        sp.write_snapshot(str(path), dataclasses.replace(st, **hist),
                          sn.scenario_text(sc))
        back = sp.read_snapshot(str(path))[0]
        for key, a in hist.items():
            assert np.array_equal(getattr(back, key), a)
    too_long = _history(st, simulation.ANDERSON_DEPTH + 1)
    _write_records(path, {**_records(path), **too_long})
    with pytest.raises(ConfigError, match=f"snapshot {path}: anderson_dv "
                       f"must be float64 of shape \\({simulation.ANDERSON_DEPTH}"):
        sp.read_snapshot(str(path))
    _write_records(path, {**_records(path), **_history(st, 1),
                          "anderson_df": _history(st, 2)["anderson_df"]})
    with pytest.raises(ConfigError,
                       match=f"snapshot {path}: anderson_df must be float64"):
        sp.read_snapshot(str(path))


@pytest.mark.parametrize("field", ["t", "coeffs", "coeffs_prev",
                                   "coeffs_prev2", "anderson_dv",
                                   "anderson_df", "rho", "c",
                                   "q23"])
def test_read_snapshot_rejects_non_finite_values(tmp_path, field):
    # a nan density used to pass the reader and end a resumed run in
    # "SVD did not converge" from the mass solve
    path = _snapshot_with_previous(tmp_path)
    records = _records(path)
    key = "q" if field == "q23" else field
    bad = records[key].copy()
    if field == "q23":
        bad[1, 2, 3, 4] = np.inf
    else:
        bad.reshape(-1)[-1] = np.nan
    _write_records(path, {**records, key: bad})
    with pytest.raises(ConfigError,
                       match=f"snapshot {path}: non-finite values in {key}"):
        sp.read_snapshot(str(path))


def _reshaped(key, shape):
    def make(data, records):
        return {**records, key: np.zeros(shape)}
    return make


def _recast(key, dtype, raw=None):
    def make(data, records):
        a = records[key] if raw is None else np.frombuffer(raw, np.uint8)
        return {**records, key: a.astype(dtype)}
    return make


def _dropped(key):
    def make(data, records):
        return {k: a for k, a in records.items() if k != key}
    return make


def _grid_header(data, records):
    """The twelve-record layout: a grid header of cells (int64) and extent
    after t, which repeated the stored scenario's grid."""
    n = records["rho"].shape[0]
    header = {"cells": np.full(3, n, np.int64), "extent": np.ones(3)}
    return {"t": records["t"], **header,
            **{k: a for k, a in records.items() if k != "t"}}


def _restated(**overrides):
    """The records under the scenario text of another grid or modes."""
    def make(data, records):
        sc = sn.default_scenario(**{"grid_cells": 4, "modes": 1,
                                    **overrides})
        text = sn.scenario_text(sc).encode()
        return {**records, "scenario": np.frombuffer(text, np.uint8)}
    return make


def _before_history(data, records):
    """The nine-record layout of t, cells, extent, three coefficient
    vectors, rho, c and q."""
    return {k: a for k, a in _grid_header(data, records).items()
            if k not in sp._HISTORY + ("scenario",)}


def _with_density_history(data, records):
    """The thirteen-record layout, whose history also held the density
    differences, a record (k, nx, ny, nz) after anderson_df."""
    out = {}
    for key, a in _grid_header(data, records).items():
        out[key] = a
        if key == "anderson_df":
            k = a.shape[0]
            out["drho"] = np.zeros((k,) + records["rho"].shape)
    return out


def _nine_records(data, records):
    """The layout before the state-only one: a cell velocity u after rho."""
    out = {}
    for key, a in _grid_header(data, records).items():
        out[key] = a
        if key == "rho":
            out["u"] = np.zeros((3,) + a.shape)
    return out


@pytest.mark.parametrize("damage, message", [
    (lambda data, records: data[:-7], "unreadable array q"),
    (lambda data, records: b"", "missing array t"),
    (lambda data, records: bytes(range(256)) * 8, "unreadable array t"),
    (lambda data, records: data + data[-64:], "data after the last array"),
    (lambda data, records: b"# t = 0\n# cells = 4 4 4\n0 0 0 1 0 0 0 0\n",
     "text snapshot; the snapshot format changed"),
    (_dropped("q"), "missing array q"),
    (_dropped("t"), "missing array q"),
    (_reshaped("rho", (4, 4, 5)), "rho must be float64 of shape"),
    (_reshaped("c", (64,)), "c must be float64 of shape"),
    (_reshaped("q", (5, 4, 4, 4)), "q must be float64 of shape"),
    (_reshaped("coeffs_prev", (2,)), "coeffs_prev must be float64 of shape"),
    (_reshaped("t", (1,)), "t must be float64 of shape"),
    (_recast("rho", np.float32), "rho must be float64"),
    # records that agree with each other but not with the stored scenario
    (_restated(grid_cells=8), r"rho must be float64 of shape \(8, 8, 8\)"),
    (_restated(modes=2), r"coeffs must be float64 of shape \(24,\)"),
    (_nine_records, "data after the last array"),
    # the layout before coeffs_prev2: no migration, the file is refused
    (_dropped("coeffs_prev2"), "missing array q"),
    (_reshaped("anderson_df", (2, 5)), "anderson_df must be float64 of shape"),
    (_recast("scenario", np.float64), "scenario must be uint8 text"),
    (_recast("scenario", np.uint8, b"\xff\xfe"),
     "scenario is not UTF-8 text"),
    # the nine-record layout before the Anderson history and the scenario
    (_before_history, "missing array q"),
    # the thirteen-record layout with density differences in the history
    (_with_density_history, "data after the last array"),
    # the twelve-record layout with the grid header: no migration either
    (_grid_header, "data after the last array"),
], ids=["truncated", "empty", "garbage", "trailing", "text", "no-q", "no-t",
        "rho-shape", "c-shape", "q-shape",
        "coeffs_prev-size", "t-shape", "rho-dtype", "scenario-grid",
        "scenario-modes",
        "nine-records", "eight-records", "anderson-shape", "scenario-dtype",
        "scenario-utf8", "before-history", "thirteen-records",
        "twelve-records"])
def test_read_snapshot_rejects_bad_files(tmp_path, damage, message):
    path = _snapshot_with_previous(tmp_path)
    bad = damage(path.read_bytes(), _records(path))
    if isinstance(bad, dict):
        _write_records(path, bad)
    else:
        path.write_bytes(bad)
    with pytest.raises(ConfigError, match=f"snapshot {path}: {message}"):
        sp.read_snapshot(str(path))


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _Payload:
    def __reduce__(self):
        return (_record_unpickling, ())


def test_read_snapshot_never_unpickles(tmp_path):
    # an object array in place of rho is refused before its pickle is read
    _UNPICKLED.clear()
    path = _snapshot_with_previous(tmp_path)
    records = _records(path)
    with open(path, "wb") as fh:
        for key, a in records.items():
            if key == "rho":
                a = np.array([_Payload()], dtype=object)
            np.save(fh, a, allow_pickle=True)
    with pytest.raises(ConfigError,
                       match=f"snapshot {path}: unreadable array rho"):
        sp.read_snapshot(str(path))
    assert _UNPICKLED == []
    # the file does hold a live pickle
    with open(path, "rb") as fh:
        for _ in sp._KEYS[:sp._KEYS.index("rho") + 1]:
            np.lib.format.read_array(fh, allow_pickle=True)
    assert _UNPICKLED == [True]


def test_a_snapshot_holds_the_state_alone():
    # apart from the scenario text every record is one State field, so no
    # field derived from the state (a cell velocity, or the grid the
    # scenario already gives, say) rides along
    renamed = {"coeffs": "v", "coeffs_prev": "v_prev",
               "coeffs_prev2": "v_prev2"}
    fields = [renamed.get(key, key) for key in sp._KEYS if key != "scenario"]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(State))


def test_read_snapshot_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0 1 0 0 0 0 0 0 0 0 0\n")
    with pytest.raises(ConfigError):
        sp.read_snapshot(str(path))

