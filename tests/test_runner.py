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
    assert ("coeffs_prev =" in open(snap).read()) == (resume_step > 0)
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


@pytest.mark.parametrize("t", [0.02, -1e-3, 1.5e-3])
def test_restart_rejects_snapshot_outside_the_run(tmp_path, t):
    # T = 0.01, dt = 1e-3: past T, before 0, and between two steps
    sc = sn.default_scenario(grid_cells=4, modes=1, final_time=0.01)
    setup = sn.build(sc)
    path = str(tmp_path / "snap.txt")
    st = setup.state0
    sp.write_snapshot(path, setup.grid, setup.basis,
                      State(t, st.rho, st.c, st.q, st.v), setup.stepper._ub_cc)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"snapshot time t = {t!r}"):
        rn.run_scenario(sc, out_dir=str(out), resume_from=path)
    assert not out.exists()


def test_snapshot_round_trip(tmp_path):
    sc = sn.default_scenario(grid_cells=8, final_time=0.01, snapshot_every=10)
    setup = sn.build(sc)
    path = str(tmp_path / "snap.txt")
    sp.write_snapshot(path, setup.grid, setup.basis, setup.state0,
                      setup.stepper._ub_cc)
    st, shape, extents = sp.read_snapshot(path)
    assert shape == setup.grid.shape
    assert extents == tuple(setup.grid.extents)
    assert np.allclose(st.rho, setup.state0.rho, rtol=0, atol=1e-15)
    assert np.allclose(st.c, setup.state0.c, rtol=0, atol=1e-15)
    assert np.allclose(st.q, setup.state0.q, rtol=0, atol=1e-15)
    assert np.array_equal(st.v, setup.state0.v)
    assert st.t == setup.state0.t


def test_snapshot_round_trips_previous_coefficients(tmp_path):
    # a state without v_prev writes no coeffs_prev line and reads back
    # without one; a short or non-finite coeffs_prev line is rejected
    setup = sn.build(sn.default_scenario(grid_cells=4, modes=1))
    st = setup.state0
    path = tmp_path / "snap.txt"
    sp.write_snapshot(str(path), setup.grid, setup.basis, st,
                      setup.stepper._ub_cc)
    assert "coeffs_prev" not in path.read_text()
    assert sp.read_snapshot(str(path))[0].v_prev is None
    v_prev = np.random.default_rng(5).normal(size=st.v.size) / 3.0
    sp.write_snapshot(str(path), setup.grid, setup.basis,
                      State(1e-3, st.rho, st.c, st.q, st.v, v_prev),
                      setup.stepper._ub_cc)
    assert np.array_equal(sp.read_snapshot(str(path))[0].v_prev, v_prev)
    text = path.read_text()
    line = next(ln for ln in text.splitlines() if "coeffs_prev =" in ln)
    head = line.rpartition(" ")[0]
    for bad in (head, head + " nan"):
        path.write_text(text.replace(line, bad))
        with pytest.raises(ConfigError, match="coeffs_prev"):
            sp.read_snapshot(str(path))


@pytest.mark.parametrize("field", ["coeffs", "rho", "q23"])
def test_read_snapshot_rejects_non_finite_values(tmp_path, field):
    # a nan density used to pass the reader and end a resumed run in
    # "SVD did not converge" from the mass solve
    setup = sn.build(sn.default_scenario(grid_cells=4, modes=1))
    path = tmp_path / "snap.txt"
    sp.write_snapshot(str(path), setup.grid, setup.basis, setup.state0,
                      setup.stepper._ub_cc)
    lines = path.read_text().splitlines()
    if field == "coeffs":
        k = next(i for i, ln in enumerate(lines) if "coeffs =" in ln)
        lines[k] = lines[k].rpartition(" ")[0] + " nan"
    else:
        k = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        row = lines[k].split()
        row[sp.COLUMNS.split().index(field)] = "inf" if field == "q23" else "nan"
        lines[k] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"snapshot {path}: non-finite"):
        sp.read_snapshot(str(path))


@pytest.mark.parametrize("rows_per_write", [sp._ROWS_PER_WRITE, 5])
def test_snapshot_text_matches_savetxt(tmp_path, monkeypatch, rows_per_write):
    # the block writer prints the bytes np.savetxt(fmt="%.17g") would,
    # signed zeros included, whether the 64 rows fill one block or several
    # with a partial last one
    monkeypatch.setattr(sp, "_ROWS_PER_WRITE", rows_per_write)
    setup = sn.build(sn.default_scenario(grid_cells=4, modes=1))
    grid, basis = setup.grid, setup.basis
    rng = np.random.default_rng(8)
    rho, c = rng.uniform(0.5, 2.0, size=(2,) + grid.shape)
    q = rng.normal(size=grid.shape + (5,))
    rho[0, 1, 2], c[1, 1, 1], q[2, 3, 0, 4] = -0.0, -0.0, -0.0
    state = State(0.125, rho, c, q, rng.normal(size=basis.n))
    path = tmp_path / "snap.txt"
    sp.write_snapshot(str(path), grid, basis, state, setup.stepper._ub_cc)

    u = gk.synthesize(basis, state.v) + setup.stepper._ub_cc
    cols = [*grid.coords(), rho, u[0], u[1], u[2], c]
    cols += [q[..., i] for i in range(5)]
    data = np.stack([col.reshape(-1) for col in cols], axis=1)
    header = "\n".join(line[2:] for line in path.read_text().splitlines()
                       if line.startswith("#"))
    want = tmp_path / "want.txt"
    np.savetxt(str(want), data, fmt="%.17g", header=header)
    assert b"-0 " in _read_bytes(want)
    assert _read_bytes(path) == _read_bytes(want)


def test_read_velocity_fields_parses_the_file_once(tmp_path, monkeypatch):
    sc = sn.default_scenario(grid_cells=8, init_v="noise:0.01")
    setup = sn.build(sc)
    path = str(tmp_path / "snap.txt")
    sp.write_snapshot(path, setup.grid, setup.basis, setup.state0,
                      setup.stepper._ub_cc)
    data = np.loadtxt(path)
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    rho, u = sp.read_velocity_fields(path)
    assert len(calls) == 1
    assert np.array_equal(rho, data[:, 3].reshape(setup.grid.shape))
    assert np.array_equal(u, data[:, 4:7].T.reshape((3,) + setup.grid.shape))
    assert np.array_equal(rho, setup.state0.rho)


def test_read_snapshot_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0 1 0 0 0 0 0 0 0 0 0\n")
    with pytest.raises(ConfigError):
        sp.read_snapshot(str(path))


def test_latest_snapshot_orders_by_step(tmp_path):
    for k in (0, 10, 5):
        (tmp_path / os.path.basename(sp.snapshot_path("x", k))).write_text("")
    assert sp.latest_snapshot(str(tmp_path)).endswith("snap_000010.txt")
