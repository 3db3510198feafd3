"""Command line interface: exit codes, output formats, plumbing."""

import numpy as np
import pytest

from nematoflow import cli
from nematoflow import scenarios as sn
from nematoflow import snapshots as sp


def _write_scenario(tmp_path, sc, name="case.cfg"):
    path = tmp_path / name
    path.write_text(sn.scenario_text(sc))
    return str(path)


def test_run_zero_scenario_exits_clean(tmp_path, capsys):
    cfg = _write_scenario(tmp_path, sn.zero_scenario())
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert (out / "ledger.csv").exists()


def test_run_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.cellz = 8\n")
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_run_numerical_failure_exits_1_with_message(tmp_path, capsys):
    # dt = 0.02 at 8^3 breaks the Gamma relaxation limit (0.009375)
    cfg = _write_scenario(tmp_path, sn.default_scenario(grid_cells=8,
                                                         dt=0.02))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines == ["numerical failure: dt = 0.02 exceeds "
                     "0.9*h^2/(6*Gamma) = 0.009375"]
    assert "Traceback" not in captured.err + captured.out


def test_run_density_past_the_pressure_table_exits_2(tmp_path, capsys):
    # the sampled law of pressure.kind = table ends at rho = 4
    cfg = _write_scenario(tmp_path, sn.zero_scenario(
        pressure_kind="table", init_rho="uniform:5.0"))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    assert "density exceeds rho_max = 4.0" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_file_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2


def test_check_single_suite_exits_0(capsys):
    assert cli.main(["check", "--suite", "tensors"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_unknown_suite_exits_2(capsys):
    assert cli.main(["check", "--suite", "bogus"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_check_failure_exits_1(monkeypatch, capsys):
    from nematoflow import checks

    monkeypatch.setattr(checks, "run_checks",
                        lambda suite=None, sc=None:
                        (False, [("thing", False, "broken")]))
    assert cli.main(["check", "--suite", "tensors"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_defect_rejects_unrunnable_fine_grid_before_any_run(
        tmp_path, monkeypatch, capsys):
    # 16^3 at dt = 1e-3: the 32^3 fine grid breaks the Gamma limit
    cfg = _write_scenario(tmp_path, sn.default_scenario(final_time=0.002,
                                                        snapshot_every=0))
    built = []
    build = sn.build
    monkeypatch.setattr(sn, "build", lambda sc: built.append(sc) or build(sc))
    assert cli.main(["check", "--suite", "defect", "--scenario", cfg]) == 2
    assert built == []
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "fine grid's (32^3) limit 0.9*h^2/(6*Gamma) = 0.000585937" in err


def test_conjugate_table_format(capsys):
    assert cli.main(["conjugate", "newtonian:1.0,0.5", "4x3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [ln.split() for ln in lines[1:]]
    assert len(rows) == 12
    assert all(len(r) == 3 for r in rows)
    # Quadratic potential: dual value at the origin is zero.
    origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert origin and abs(float(origin[0][2])) < 1e-14


def test_conjugate_mollified_newtonian_matches_raw_table(capsys):
    # mollifying a quadratic potential adds only a constant, so the dual
    # table of the generic root search equals the closed form
    tables = []
    for extra in ([], ["--delta", "0.05"]):
        assert cli.main(["conjugate", "newtonian:1.0,0.5", "4x3", *extra]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        tables.append(np.array([ln.split() for ln in lines[1:]], dtype=float))
    raw, mollified = tables
    assert raw.shape == mollified.shape == (12, 3)
    assert np.array_equal(raw[:, :2], mollified[:, :2])
    np.testing.assert_allclose(mollified[:, 2], raw[:, 2], rtol=0.0, atol=1e-12)


def test_conjugate_bad_grid_exits_2(capsys):
    assert cli.main(["conjugate", "newtonian", "4by3"]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--s-max", "nan"), ("--s-max", "-1"), ("--sigma-max", "inf"),
    ("--delta", "nan"), ("--delta", "inf"), ("--delta", "-0.1")])
def test_conjugate_nonfinite_or_negative_range_exits_2(flag, value, capsys):
    # a NaN or infinite range would tabulate NaN rows
    assert cli.main(["conjugate", "newtonian", "2x2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be finite and >= 0" in captured.err


@pytest.mark.parametrize("grid", ["0x2", "2x0", "0x0"])
def test_conjugate_empty_grid_exits_2(grid, capsys):
    # an empty grid would print the header alone
    assert cli.main(["conjugate", "newtonian", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid counts must be >= 1" in captured.err


@pytest.mark.parametrize("spec", ["newtonian:1,0.5,3", "power_law:1,inf"])
def test_conjugate_bad_law_exits_2(spec, capsys):
    assert cli.main(["conjugate", spec, "2x2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err


def test_bad_thread_env_exits_2_with_message(monkeypatch, capsys):
    monkeypatch.setenv("NEMATOFLOW_THREADS", "abc")
    assert cli.main(["check", "--suite", "tensors"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: NEMATOFLOW_THREADS must be a positive "
        "integer, got 'abc'\n")


def test_defect_subcommand_is_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["defect", "coarse", "fine"])
    assert exc.value.code == 2
    assert "invalid choice: 'defect'" in capsys.readouterr().err


def test_resume_flag_round_trip(tmp_path):
    sc = sn.default_scenario(grid_cells=8, final_time=0.02, snapshot_every=10)
    cfg = _write_scenario(tmp_path, sc)
    full, part = tmp_path / "full", tmp_path / "part"
    assert cli.main(["run", cfg, "--out", str(full)]) == 0
    assert cli.main(["run", cfg, "--out", str(part),
                     "--resume", str(full / "snap_000010.bin")]) == 0
    a = (full / "snap_000020.bin").read_bytes()
    b = (part / "snap_000020.bin").read_bytes()
    assert a == b


def test_resume_from_text_snapshot_exits_2(tmp_path, capsys):
    cfg = _write_scenario(tmp_path, sn.default_scenario(grid_cells=4, modes=1))
    old = tmp_path / "snap_000000.txt"
    old.write_text("# t = 0\n# cells = 4 4 4\n0 0 0 1 0 0 0 0 0 0 0 0 0\n")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out), "--resume", str(old)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: snapshot {old}: ")
    assert "format changed" in err
    assert not out.exists()


def _old_layout_snapshot(tmp_path, sc, layout):
    """A snapshot of sc's initial state in the old layout `layout`:
    "twelve" with a grid header of cells and extent after t, "thirteen"
    with, besides, a record of density differences (k, nx, ny, nz) in the
    Anderson history, "nine" before the Anderson history and the scenario,
    "eight" before coeffs_prev2, or "cell-velocity" before that, which
    carried a cell velocity u after rho."""
    setup = sn.build(sc)
    grid = setup.stepper.grid
    old = tmp_path / "snap_000000.bin"
    sp.write_snapshot(str(old), setup.state0, sn.scenario_text(sc))
    with open(old, "rb") as fh:
        records = {key: np.lib.format.read_array(fh) for key in sp._KEYS}
    records["cells"] = np.array(grid.shape, np.int64)
    records["extent"] = np.array(grid.extents, np.float64)
    records["drho"] = np.empty((0,) + grid.shape)
    records["u"] = np.zeros((3,) + grid.shape)
    keep = {"twelve": ["t", "cells", "extent", "coeffs", "coeffs_prev",
                       "coeffs_prev2", "anderson_dv", "anderson_df",
                       "scenario", "rho", "c", "q"],
            "thirteen": ["t", "cells", "extent", "coeffs", "coeffs_prev",
                         "coeffs_prev2", "anderson_dv", "anderson_df",
                         "drho", "scenario", "rho", "c", "q"],
            "nine": ["t", "cells", "extent", "coeffs", "coeffs_prev",
                     "coeffs_prev2", "rho", "c", "q"],
            "eight": ["t", "cells", "extent", "coeffs", "coeffs_prev", "rho",
                      "c", "q"],
            "cell-velocity": ["t", "cells", "extent", "coeffs", "coeffs_prev",
                              "rho", "u", "c", "q"]}[layout]
    with open(old, "wb") as fh:
        for key in keep:
            np.save(fh, records[key])
    return old


def _resume_exits_2(tmp_path, capsys, layout, message):
    """--resume from sc's snapshot in an old layout exits 2, naming the
    file and what is wrong with it; nothing is written."""
    sc = sn.default_scenario(grid_cells=4, modes=1)
    cfg = _write_scenario(tmp_path, sc)
    old = _old_layout_snapshot(tmp_path, sc, layout)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out), "--resume", str(old)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: snapshot {old}: {message}\n")
    assert not out.exists()


def test_resume_from_snapshot_with_grid_header_exits_2(tmp_path, capsys):
    # the twelve-record layout whose cells and extent records repeated the
    # stored scenario's grid: there is no migration, the file is refused by
    # name
    _resume_exits_2(tmp_path, capsys, "twelve", "data after the last array")


def test_resume_from_snapshot_with_density_history_exits_2(tmp_path, capsys):
    # the thirteen-record layout whose Anderson history also held density
    # differences: there is no migration, the file is refused by name
    _resume_exits_2(tmp_path, capsys, "thirteen", "data after the last array")


def test_resume_from_snapshot_without_history_exits_2(tmp_path, capsys):
    # the nine-record layout before the Anderson history and the scenario
    # text
    _resume_exits_2(tmp_path, capsys, "nine", "missing array q")


def test_resume_from_nine_record_snapshot_exits_2(tmp_path, capsys):
    # the layout with a cell velocity u after rho, two layouts back
    _resume_exits_2(tmp_path, capsys, "cell-velocity", "missing array q")


def test_resume_from_eight_record_snapshot_exits_2(tmp_path, capsys):
    # the layout before coeffs_prev2
    _resume_exits_2(tmp_path, capsys, "eight", "missing array c")
