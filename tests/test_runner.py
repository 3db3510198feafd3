"""End-to-end run orchestration: reports, determinism, restart."""

import os

import numpy as np
import pytest

from nematoflow import galerkin as gk
from nematoflow import runner as rn
from nematoflow import scenarios as sn
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
    rep = rn.run_scenario(sn.zero_scenario(), out_dir=str(tmp_path))
    rows = rep.monitor.rows
    e0 = rows[0]["E_total"]
    drift = max(abs(r["E_total"] - e0) for r in rows)
    assert drift == 0.0


def test_repeat_runs_are_bit_identical(tmp_path):
    sc = sn.default_scenario(grid_cells=8, final_time=0.02, snapshot_every=10)
    a, b = tmp_path / "a", tmp_path / "b"
    rn.run_scenario(sc, out_dir=str(a))
    rep = rn.run_scenario(sc, out_dir=str(b))
    assert _read_bytes(a / "ledger.csv") == _read_bytes(b / "ledger.csv")
    assert len(rep.contractions) == sc.n_steps()
    assert "picard contraction p50 " in (b / "report.txt").read_text()
    last = sp.snapshot_path("", sc.n_steps()).lstrip("/")
    assert _read_bytes(a / last) == _read_bytes(b / last)


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


@pytest.mark.parametrize("resume_step", [0, 1, 10])
def test_restart_from_any_snapshot_is_byte_exact(tmp_path, resume_step):
    # step 0 has no previous coefficients; step 1 is the first snapshot
    # whose next step starts from the extrapolated iterate
    sc = sn.default_scenario(grid_cells=8, final_time=0.02, snapshot_every=1)
    full, part = tmp_path / "full", tmp_path / "part"
    rn.run_scenario(sc, out_dir=str(full))
    snap = sp.snapshot_path(str(full), resume_step)
    assert (sp.read_snapshot(snap)[0].v_prev is not None) == (resume_step > 0)
    rn.run_scenario(sc, out_dir=str(part), resume_from=snap)
    last = os.path.basename(sp.snapshot_path("x", sc.n_steps()))
    assert _read_bytes(full / last) == _read_bytes(part / last)


def test_restart_rejects_mismatched_grid(tmp_path):
    sc = sn.default_scenario(grid_cells=8, final_time=0.02, snapshot_every=10)
    rn.run_scenario(sc, out_dir=str(tmp_path))
    other = sn.default_scenario(grid_cells=10, final_time=0.02)
    with pytest.raises(ConfigError, match="grid"):
        rn.run_scenario(other, out_dir=None,
                        resume_from=sp.snapshot_path(str(tmp_path), 10))


def test_restart_rejects_mismatched_modes(tmp_path):
    setup = sn.build(sn.default_scenario(grid_cells=8, modes=2))
    path = str(tmp_path / "snap.bin")
    sp.write_snapshot(path, setup.grid, setup.basis, setup.state0,
                      setup.stepper._ub_cc)
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
    sp.write_snapshot(path, setup.grid, setup.basis,
                      State(t, st.rho, st.c, st.q, st.v), setup.stepper._ub_cc)
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
    sp.write_snapshot(path, setup.grid, setup.basis, setup.state0,
                      setup.stepper._ub_cc)
    st, shape, extents = sp.read_snapshot(path)
    assert shape == setup.grid.shape
    assert extents == tuple(setup.grid.extents)
    assert np.array_equal(st.rho, setup.state0.rho)
    assert np.array_equal(st.c, setup.state0.c)
    assert np.array_equal(st.q, setup.state0.q)
    assert np.array_equal(st.v, setup.state0.v)
    assert st.t == setup.state0.t
    # the bytes depend on the state alone: writing it again, or writing the
    # state read back (other memory layouts), gives the same file
    for state in (setup.state0, st):
        again = str(tmp_path / "again.bin")
        sp.write_snapshot(again, setup.grid, setup.basis, state,
                          setup.stepper._ub_cc)
        assert _read_bytes(again) == _read_bytes(path)


def test_snapshot_round_trips_previous_coefficients(tmp_path):
    # a state without v_prev writes an empty coeffs_prev and reads back
    # without one; a short or non-finite coeffs_prev is rejected
    setup = sn.build(sn.default_scenario(grid_cells=4, modes=1))
    st = setup.state0
    path = tmp_path / "snap.bin"
    sp.write_snapshot(str(path), setup.grid, setup.basis, st,
                      setup.stepper._ub_cc)
    assert _records(path)["coeffs_prev"].shape == (0,)
    assert sp.read_snapshot(str(path))[0].v_prev is None
    v_prev = np.random.default_rng(5).normal(size=st.v.size) / 3.0
    sp.write_snapshot(str(path), setup.grid, setup.basis,
                      State(1e-3, st.rho, st.c, st.q, st.v, v_prev),
                      setup.stepper._ub_cc)
    assert np.array_equal(sp.read_snapshot(str(path))[0].v_prev, v_prev)
    records = _records(path)
    for bad in (v_prev[:-1], np.append(v_prev[:-1], np.nan)):
        _write_records(path, {**records, "coeffs_prev": bad})
        with pytest.raises(ConfigError,
                           match=f"snapshot {path}: .*coeffs_prev"):
            sp.read_snapshot(str(path))


def _snapshot_with_previous(tmp_path):
    """A 4^3 snapshot whose every array, coeffs_prev included, is stored."""
    setup = sn.build(sn.default_scenario(grid_cells=4, modes=1))
    st = setup.state0
    path = tmp_path / "snap.bin"
    sp.write_snapshot(str(path), setup.grid, setup.basis,
                      State(1e-3, st.rho, st.c, st.q, st.v, st.v / 2.0),
                      setup.stepper._ub_cc)
    return path


@pytest.mark.parametrize("field", ["t", "extent", "coeffs", "coeffs_prev",
                                   "rho", "u", "c", "q23"])
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
    with pytest.raises(ConfigError, match=f"snapshot {path}: non-finite"):
        sp.read_velocity_fields(str(path))


def _reshaped(key, shape):
    def make(data, records):
        return {**records, key: np.zeros(shape)}
    return make


def _recast(key, dtype):
    def make(data, records):
        return {**records, key: records[key].astype(dtype)}
    return make


def _dropped(key):
    def make(data, records):
        return {k: a for k, a in records.items() if k != key}
    return make


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
    (_reshaped("u", (4, 4, 4, 3)), "u must be float64 of shape"),
    (_reshaped("q", (5, 4, 4, 4)), "q must be float64 of shape"),
    (_reshaped("coeffs_prev", (2,)), "coeffs_prev must be float64 of shape"),
    (_reshaped("t", (1,)), "t must be float64 of shape"),
    (_recast("cells", np.float64), "cells must be three positive integers"),
    (_recast("rho", np.float32), "rho must be float64"),
], ids=["truncated", "empty", "garbage", "trailing", "text", "no-q", "no-t",
        "rho-shape", "c-shape", "u-shape", "q-shape",
        "coeffs_prev-size", "t-shape", "cells-dtype", "rho-dtype"])
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
    for read in (sp.read_snapshot, sp.read_velocity_fields):
        with pytest.raises(ConfigError,
                           match=f"snapshot {path}: unreadable array rho"):
            read(str(path))
    assert _UNPICKLED == []
    # the file does hold a live pickle
    with open(path, "rb") as fh:
        for _ in sp._KEYS[:6]:
            np.lib.format.read_array(fh, allow_pickle=True)
    assert _UNPICKLED == [True]


def test_read_velocity_fields_returns_the_synthesized_velocity(tmp_path):
    sc = sn.default_scenario(grid_cells=8, init_v="noise:0.01")
    setup = sn.build(sc)
    path = str(tmp_path / "snap.bin")
    sp.write_snapshot(path, setup.grid, setup.basis, setup.state0,
                      setup.stepper._ub_cc)
    rho, u = sp.read_velocity_fields(path)
    want = gk.synthesize(setup.basis, setup.state0.v) + setup.stepper._ub_cc
    assert np.any(want != setup.stepper._ub_cc)
    assert np.array_equal(u, want)
    assert np.array_equal(rho, setup.state0.rho)


def test_read_snapshot_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0 1 0 0 0 0 0 0 0 0 0\n")
    with pytest.raises(ConfigError):
        sp.read_snapshot(str(path))


def test_latest_snapshot_orders_by_step(tmp_path):
    # text snapshots of the old format are not candidates
    (tmp_path / "snap_000020.txt").write_text("")
    for k in (0, 10, 5):
        (tmp_path / os.path.basename(sp.snapshot_path("x", k))).write_text("")
    assert sp.latest_snapshot(str(tmp_path)) == sp.snapshot_path(
        str(tmp_path), 10)
