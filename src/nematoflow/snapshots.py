"""Snapshot files: full state at one time level, restartable bit-exactly.

Plain text, one row per cell in C order, columns
    x y z rho u1 u2 u3 c q11 q12 q13 q22 q23
preceded by '#' header lines carrying the time, grid shape, extents, and
the Galerkin coefficient vector (``coeffs =``).  A state past the first
step also carries the coefficient vector one step back (``coeffs_prev =``),
from which the next step extrapolates its first iterate; a file without
that line (the t = 0 snapshot) reads back with ``v_prev=None``.  All floats
print with 17 significant digits, so parsing returns the identical float64
values and a restarted run reproduces the original trajectory exactly.  The
velocity columns are the synthesized cell-center field (modes plus boundary
lift); restart uses the coefficient vectors, not the sampled velocity.
"""

import os

import numpy as np

from . import galerkin as gk
from .errors import ConfigError
from .simulation import State

COLUMNS = "x y z rho u1 u2 u3 c q11 q12 q13 q22 q23"
# rows formatted by one string operation of write_snapshot
_ROWS_PER_WRITE = 1024


def snapshot_path(out_dir, step):
    return os.path.join(out_dir, f"snap_{step:06d}.txt")


def _coeff_line(key, v):
    return f"{key} = " + " ".join(f"{x:.17g}" for x in v) + "\n"


def write_snapshot(path, grid, basis, state, ub_cc):
    u = gk.synthesize(basis, state.v) + ub_cc
    X, Y, Z = grid.coords()
    cols = [X, Y, Z, state.rho, u[0], u[1], u[2], state.c]
    cols += [state.q[..., i] for i in range(5)]
    data = np.stack([c.reshape(-1) for c in cols], axis=1)
    header = (f"t = {state.t:.17g}\n"
              f"cells = {grid.shape[0]} {grid.shape[1]} {grid.shape[2]}\n"
              f"extent = {grid.extents[0]:.17g} {grid.extents[1]:.17g} "
              f"{grid.extents[2]:.17g}\n"
              + _coeff_line("coeffs", state.v)
              + ("" if state.v_prev is None
                 else _coeff_line("coeffs_prev", state.v_prev))
              + COLUMNS)
    # the text np.savetxt(fmt="%.17g") writes, formatted one block of rows
    # per operation; blocks keep the transient strings small
    row_fmt = " ".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + header.replace("\n", "\n# ") + "\n")
        for start in range(0, len(data), _ROWS_PER_WRITE):
            block = data[start:start + _ROWS_PER_WRITE]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def read_snapshot(path):
    """Returns (state, shape, extents); state.v and state.v_prev from the
    header lines."""
    return _parse_snapshot(path)[:3]


def _parse_snapshot(path):
    """(state, shape, extents, data) with the data columns parsed once."""
    t = None
    shape = None
    extents = None
    v = v_prev = None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("t ="):
                t = float(body.partition("=")[2])
            elif body.startswith("cells ="):
                shape = tuple(int(s) for s in body.partition("=")[2].split())
            elif body.startswith("extent ="):
                extents = tuple(
                    float(s) for s in body.partition("=")[2].split())
            elif body.startswith("coeffs ="):
                v = np.array(
                    [float(s) for s in body.partition("=")[2].split()])
            elif body.startswith("coeffs_prev ="):
                v_prev = np.array(
                    [float(s) for s in body.partition("=")[2].split()])
    if t is None or shape is None or extents is None or v is None:
        raise ConfigError(f"snapshot {path}: missing header fields")
    if v_prev is not None and (v_prev.shape != v.shape
                               or not np.all(np.isfinite(v_prev))):
        raise ConfigError(
            f"snapshot {path}: coeffs_prev must hold {v.size} finite values")
    data = np.loadtxt(path)
    n_cells = shape[0] * shape[1] * shape[2]
    if data.shape != (n_cells, 13):
        raise ConfigError(
            f"snapshot {path}: expected {n_cells} rows x 13 columns, got "
            f"{data.shape}")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(data))):
        raise ConfigError(f"snapshot {path}: non-finite coeffs or data values")
    rho = data[:, 3].reshape(shape)
    c = data[:, 7].reshape(shape)
    q = data[:, 8:13].reshape(shape + (5,))
    state = State(t, rho, c, q, v, v_prev)
    return state, shape, extents, data


def read_velocity_fields(path):
    """(rho, u) sampled at cell centers, u as (3, nx, ny, nz), for the
    two-grid defect check."""
    state, shape, _, data = _parse_snapshot(path)
    return state.rho, data[:, 4:7].T.reshape((3,) + shape)


def latest_snapshot(out_dir):
    snaps = sorted(f for f in os.listdir(out_dir)
                   if f.startswith("snap_") and f.endswith(".txt"))
    if not snaps:
        raise ConfigError(f"no snapshots in {out_dir}")
    return os.path.join(out_dir, snaps[-1])
