"""Snapshot files: full state at one time level, restartable bit-exactly.

A snapshot is binary: nine NPY records (``numpy.lib.format``), one after
another in one file, in the order of ``_KEYS``:

    t            ()                 time
    cells        (3,), int64        grid cell counts
    extent       (3,)               grid extents
    coeffs       (n,)               Galerkin coefficients v^n
    coeffs_prev  (n,), or (0,)      v^{n-1}; empty when there is none
    rho, c       (nx, ny, nz)
    u            (3, nx, ny, nz)    cell-centre velocity, modes plus boundary
                                    lift, for ``nematoflow defect``
    q            (nx, ny, nz, 5)    ``State.q`` as it is

All records but cells are float64, which round-trips exactly, so a
restarted run reproduces the original trajectory bit for bit; restart uses
the coefficient vectors, not u, and the next step extrapolates its first
iterate from ``coeffs_prev``.  Each record is written C-ordered through one
open file object: the file holds no zip member timestamp (as ``np.savez``
would stamp), so its bytes depend on the state alone, and it is exactly the
path given (``np.save`` on a name would append ``.npy``).  Records are read
back without pickle, so an object array is refused, never unpickled.  The
price is that a snapshot is no longer greppable text; ``report.txt`` and
``ledger.csv`` stay text.  Every malformed file raises ``ConfigError``
naming it.
"""

import os

import numpy as np

from . import galerkin as gk
from .errors import ConfigError
from .simulation import State

_KEYS = ("t", "cells", "extent", "coeffs", "coeffs_prev", "rho", "u", "c",
         "q")
_SUFFIX = ".bin"


def snapshot_path(out_dir, step):
    return os.path.join(out_dir, f"snap_{step:06d}{_SUFFIX}")


def write_snapshot(path, grid, basis, state, ub_cc):
    u = gk.synthesize(basis, state.v) + ub_cc
    v_prev = () if state.v_prev is None else state.v_prev
    values = (state.t, grid.shape, grid.extents, state.v, v_prev, state.rho,
              u, state.c, state.q)
    with open(path, "wb") as fh:
        for key, value in zip(_KEYS, values):
            dtype = np.int64 if key == "cells" else np.float64
            np.save(fh, np.asarray(value, dtype, order="C"),
                    allow_pickle=False)


def _read(path):
    """The arrays of the snapshot at path by key, checked against each
    other, and the grid shape."""
    arrays = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(1) == b"#":
            raise ConfigError(
                f"snapshot {path}: text snapshot; the snapshot format "
                f"changed to binary snap_*{_SUFFIX} files, rerun to get one")
        fh.seek(0)
        for key in _KEYS:
            if fh.tell() == size:
                raise ConfigError(f"snapshot {path}: missing array {key}")
            try:
                arrays[key] = np.lib.format.read_array(fh, allow_pickle=False)
            except ValueError as exc:
                raise ConfigError(f"snapshot {path}: unreadable array "
                                  f"{key}: {exc}") from None
        if fh.tell() != size:
            raise ConfigError(f"snapshot {path}: data after the last array")
    cells = arrays.pop("cells")
    if cells.shape != (3,) or cells.dtype.kind != "i" or np.any(cells < 1):
        raise ConfigError(
            f"snapshot {path}: cells must be three positive integers")
    shape = tuple(int(n) for n in cells)
    n = arrays["coeffs"].size
    want = {"t": (), "extent": (3,), "coeffs": (n,),
            "coeffs_prev": (n,) if arrays["coeffs_prev"].size else (0,),
            "rho": shape, "u": (3,) + shape, "c": shape, "q": shape + (5,)}
    for key, a in arrays.items():
        if a.dtype != np.float64 or a.shape != want[key]:
            raise ConfigError(
                f"snapshot {path}: {key} must be float64 of shape "
                f"{want[key]}, got {a.dtype} of shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ConfigError(f"snapshot {path}: non-finite values in {key}")
    return arrays, shape


def read_snapshot(path):
    """Returns (state, shape, extents); state.v_prev is None when the file
    stores no previous coefficients."""
    a, shape = _read(path)
    v_prev = a["coeffs_prev"] if a["coeffs_prev"].size else None
    state = State(float(a["t"]), a["rho"], a["c"], a["q"], a["coeffs"],
                  v_prev)
    return state, shape, tuple(float(x) for x in a["extent"])


def read_velocity_fields(path):
    """(rho, u) sampled at cell centers, u as (3, nx, ny, nz), for the
    two-grid defect check."""
    a, _ = _read(path)
    return a["rho"], a["u"]


def latest_snapshot(out_dir):
    snaps = sorted(f for f in os.listdir(out_dir)
                   if f.startswith("snap_") and f.endswith(_SUFFIX))
    if not snaps:
        raise ConfigError(f"no snapshots in {out_dir}")
    return os.path.join(out_dir, snaps[-1])
