"""Command line interface: exit codes, output formats, plumbing."""

import numpy as np
import pytest

from nematoflow import cli
from nematoflow import scenarios as sn


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
    # dt = 0.02 at 8^3 breaks the D0 diffusion guard (limit 0.009375)
    cfg = _write_scenario(tmp_path, sn.default_scenario(grid_cells=8,
                                                         dt=0.02))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines == ["numerical failure: dt = 0.02 exceeds "
                     "0.9*h^2/(6*D0) = 0.009375"]
    assert "Traceback" not in captured.err + captured.out


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


def test_defect_identical_runs_pass(tmp_path, capsys):
    sc = sn.default_scenario(grid_cells=8, final_time=0.01, snapshot_every=10)
    cfg = _write_scenario(tmp_path, sc)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["defect", str(out), str(out)]) == 0
    text = capsys.readouterr().out
    assert "rate" in text


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
