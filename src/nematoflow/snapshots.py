"""Snapshot files: full state at one time level, restartable bit-exactly.

A snapshot is binary: ten NPY records (``numpy.lib.format``), one after
another in one file, in the order of ``_KEYS``:

    t              ()                 time
    coeffs         (n,)               Galerkin coefficients v^n
    coeffs_prev    (n,), or (0,)      v^{n-1}; empty when there is none
    coeffs_prev2   (n,), or (0,)      v^{n-2}; empty when there is none
    anderson_dv    (k, n)             carried Anderson history: iterate
    anderson_df    (k, n)             and residual differences,
                                      0 <= k <= ANDERSON_DEPTH
    scenario       (L,), uint8        ``scenarios.scenario_text``, UTF-8
    rho, c         (nx, ny, nz)
    q              (nx, ny, nz, 5)    ``State.q`` as it is

The grid (nx = ny = nz = ``grid.cells``) and n = 3 m^3 for m =
``galerkin.modes`` come from the stored scenario; every other record is
one field of ``State``, and nothing derived from it is stored.  All state
records are float64, which round-trips exactly, so a restarted run
reproduces the original trajectory bit for bit: the next step extrapolates
its first iterate from ``coeffs_prev`` and ``coeffs_prev2`` and mixes with
the carried history.  The scenario lets a resumed run refuse another one
(``scenarios.check_resume``), another grid included.  Each record is
written C-ordered through one open file object: the file holds no zip
member timestamp (as ``np.savez`` would stamp), so its bytes depend on the
state and scenario alone, and it is exactly the path given (``np.save`` on
a name would append ``.npy``).  Records are read back without pickle, so
an object array is refused, never unpickled.  The price is that a snapshot
is no longer greppable text; ``report.txt`` and ``ledger.csv`` stay text.
Every malformed file raises ``ConfigError`` naming it; so does a file of
an earlier layout (the twelve-record one with a grid header of cells and
extent, and the thirteen-record one with density differences in the
history, stop at "data after the last array"), which is not migrated.
"""

import os

import numpy as np

from .errors import ConfigError
from .scenarios import parse_scenario
from .simulation import ANDERSON_DEPTH, State

_KEYS = ("t", "coeffs", "coeffs_prev", "coeffs_prev2", "anderson_dv",
         "anderson_df", "scenario", "rho", "c", "q")
# the records of State fields that may be absent, stored empty then
_OPTIONAL = ("coeffs_prev", "coeffs_prev2")
_HISTORY = ("anderson_dv", "anderson_df")
_SUFFIX = ".bin"


def snapshot_path(out_dir, step):
    return os.path.join(out_dir, f"snap_{step:06d}{_SUFFIX}")


def write_snapshot(path, state, scenario):
    """Write state, and the text scenario of its run, to path."""
    n = state.v.size
    values = (state.t, state.v,
              *(() if v is None else v for v in (state.v_prev, state.v_prev2)),
              *(np.empty((0, n)) if a is None else a
                for a in (state.anderson_dv, state.anderson_df)),
              np.frombuffer(scenario.encode(), np.uint8),
              state.rho, state.c, state.q)
    with open(path, "wb") as fh:
        for key, value in zip(_KEYS, values):
            dtype = np.uint8 if key == "scenario" else np.float64
            np.save(fh, np.asarray(value, dtype, order="C"),
                    allow_pickle=False)


def read_snapshot(path):
    """Returns (state, scenario): the state and the ``Scenario`` stored
    with it, whose grid.cells and galerkin.modes every record's shape is
    checked against; state.v_prev, state.v_prev2 and the Anderson history
    are None when the file stores none."""
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
    text = arrays.pop("scenario")
    if text.dtype != np.uint8 or text.ndim != 1:
        raise ConfigError(f"snapshot {path}: scenario must be uint8 text, "
                          f"got {text.dtype} of shape {text.shape}")
    try:
        sc = parse_scenario(text.tobytes().decode())
    except UnicodeDecodeError:
        raise ConfigError(f"snapshot {path}: scenario is not UTF-8 text") \
            from None
    except ConfigError as exc:
        raise ConfigError(f"snapshot {path}: unreadable scenario: {exc}") \
            from None
    shape = (sc.grid_cells,) * 3
    n = 3 * sc.modes ** 3
    dv = arrays["anderson_dv"]
    k = min(dv.shape[0] if dv.ndim else 0, ANDERSON_DEPTH)
    want = {"t": (), "coeffs": (n,),
            "anderson_dv": (k, n), "anderson_df": (k, n),
            "rho": shape, "c": shape, "q": shape + (5,)}
    for key in _OPTIONAL:
        want[key] = (n,) if arrays[key].size else (0,)
    for key, a in arrays.items():
        if a.dtype != np.float64 or a.shape != want[key]:
            raise ConfigError(
                f"snapshot {path}: {key} must be float64 of shape "
                f"{want[key]}, got {a.dtype} of shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ConfigError(f"snapshot {path}: non-finite values in {key}")
    prev, prev2, *history = (arrays[key] if arrays[key].size else None
                             for key in _OPTIONAL + _HISTORY)
    state = State(float(arrays["t"]), arrays["rho"], arrays["c"], arrays["q"],
                  arrays["coeffs"], prev, prev2, *history)
    return state, sc
