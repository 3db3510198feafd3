"""Scenario configuration: flat key-value text, selector catalogs, assembly.

A scenario is the complete, explicit description of one run: grid, time
window, regularization and mollification radii, Galerkin resolution,
pressure and rheology laws, material constants, initial and boundary data
selectors, tolerances, and output cadence.  All quantities are
nondimensional.  Unknown keys are hard errors so a typo cannot silently
fall back to a default.  Each ``Scenario`` field declares its config key,
and ``KEY_MAP`` is read off the fields, so no field can lack a key.
``build`` checks each field's type and the bounds that name a key; the
grid, the laws and the boundary data check their own parameters and raise
``ConfigError`` themselves, so ``build`` translates no error.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import domain as dom
from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .errors import ConfigError
from .simulation import CoupledStepper, Physics, State, q_exchange


def _key(key, default):
    """A Scenario field read from and written to config key `key`."""
    return dataclasses.field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class Scenario:
    grid_cells: int = _key("grid.cells", 16)
    grid_extent: float = _key("grid.extent", 1.0)
    final_time: float = _key("time.final", 0.2)
    dt: float = _key("time.dt", 1e-3)
    eps: float = _key("reg.eps", 0.05)
    delta: float = _key("reg.delta", 0.05)
    modes: int = _key("galerkin.modes", 2)
    pressure_kind: str = _key("pressure.kind", "isentropic")
    pressure_a: float = _key("pressure.a", 1.0)
    pressure_gamma: float = _key("pressure.gamma", 2.0)
    rheology_kind: str = _key("rheology.kind", "newtonian")
    rheology_mu: float = _key("rheology.mu", 1.0)
    rheology_lam: float = _key("rheology.lam", 0.0)
    rheology_mu0: float = _key("rheology.mu0", 1.0)
    rheology_q: float = _key("rheology.q", 4.0 / 3.0)
    gamma_q: float = _key("material.gamma", 0.25)
    d0: float = _key("material.d0", 0.25)
    c_star: float = _key("material.c_star", 1.0)
    b: float = _key("material.b", 0.2)
    sigma_star: float = _key("material.sigma_star", 0.1)
    init_rho: str = _key("init.rho", "uniform:1.0")
    init_c: str = _key("init.c", "uniform:1.0")
    init_q: str = _key("init.q", "zero")
    init_v: str = _key("init.v", "zero")
    bc_u: str = _key("bc.u", "zero")
    bc_rho: float = _key("bc.rho", 1.0)
    bc_q: str = _key("bc.q", "zero")
    picard_tol: float = _key("tol.picard", 1e-10)
    snapshot_every: int = _key("output.snapshot_every", 50)
    seed: int = _key("run.seed", 7)

    def n_steps(self):
        return self.steps_to(self.final_time, "final time")

    def steps_to(self, t, what):
        """Whole steps from 0 to time t; ConfigError naming `what` if none."""
        n = int(round(t / self.dt))
        if abs(n * self.dt - t) > 1e-12 * max(1.0, n):
            raise ConfigError(f"{what} must be an integer number of steps")
        return n


# config key -> dataclass field, in field order
KEY_MAP = {f.metadata["key"]: f.name for f in dataclasses.fields(Scenario)}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Scenario)}
# field type -> the values build accepts for it; bool, an int, is refused
# on its own
_ACCEPTS = {int: (int, np.integer), float: (numbers.Real,), str: (str,)}


def parse_scenario(text):
    """Parse 'key = value' lines; '#' starts a comment; unknown keys raise."""
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEY_MAP:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        name = KEY_MAP[key]
        if name in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        ftype = _FIELD_TYPES[name]
        try:
            values[name] = val if ftype is str else ftype(val)
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key}: {val!r}") \
                from exc
    return Scenario(**values)


def load_scenario(path):
    with open(path) as fh:
        return parse_scenario(fh.read())


def scenario_text(sc):
    """Serialize back to the flat key-value format (stable key order)."""
    # through the field type: a numpy scalar would print as np.float64(...)
    return "".join(f"{key} = {_FIELD_TYPES[name](getattr(sc, name))}\n"
                   for key, name in KEY_MAP.items())


# keys a run resumed from a snapshot does not depend on: where it ends, how
# often it writes snapshots, and the initial data with the seed that draws
# them; every other key must match the snapshot's scenario
RESUME_EXEMPT = ("time.final", "output.snapshot_every", "init.rho", "init.c",
                 "init.q", "init.v", "run.seed")


def check_resume(sc, stored, where):
    """ConfigError naming the first key, outside ``RESUME_EXEMPT``, whose
    value in sc differs from the one in scenario stored (a snapshot's).
    The grid and the Galerkin modes are such keys, so a snapshot on
    another grid is refused here."""
    for key, name in KEY_MAP.items():
        was, now = getattr(stored, name), getattr(sc, name)
        if key not in RESUME_EXEMPT and was != now:
            raise ConfigError(f"{where}: scenario key {key} is {was!r} in "
                              f"the snapshot but {now!r} in this run")


def _selector(expr):
    name, _, args = expr.partition(":")
    parts = args.split(",") if args else []
    return name.strip(), parts


def _floats(parts, n, what):
    if len(parts) != n:
        raise ConfigError(f"{what}: expected {n} arguments, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: non-numeric argument") from exc
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{what}: arguments must be finite")
    return vals


def _init_rho(expr, grid):
    name, parts = _selector(expr)
    X, Y, Z = grid.coords()
    if name == "uniform":
        (val,) = _floats(parts, 1, "init.rho uniform")
        if val <= 0:
            raise ConfigError("init.rho must be positive")
        return np.full(grid.shape, val)
    if name == "sine":
        (amp,) = _floats(parts, 1, "init.rho sine")
        if not abs(amp) < 1.0:
            raise ConfigError("init.rho sine amplitude must be below 1")
        return 1.0 + amp * np.sin(np.pi * X) * np.cos(np.pi * Y)
    raise ConfigError(f"unknown init.rho selector {name!r}")


def _init_c(expr, grid, rng):
    name, parts = _selector(expr)
    X, Y, Z = grid.coords()
    if name == "uniform":
        (val,) = _floats(parts, 1, "init.c uniform")
        c = np.full(grid.shape, val)
    elif name == "wave":
        mid, amp = _floats(parts, 2, "init.c wave")
        c = mid + amp * np.cos(np.pi * X) * np.sin(np.pi * Z)
    elif name == "band":
        lo, hi = _floats(parts, 2, "init.c band")
        if not hi > lo:
            raise ConfigError("init.c band needs hi > lo")
        c = lo + (hi - lo) * rng.random(grid.shape)
    else:
        raise ConfigError(f"unknown init.c selector {name!r}")
    # a solute concentration: the step's discrete maximum principle keeps
    # it >= 0 from a nonnegative start
    if c.min() < 0.0:
        raise ConfigError(f"init.c must be nonnegative, minimum {c.min():g}")
    return c


def _init_q(expr, grid):
    name, parts = _selector(expr)
    X, Y, Z = grid.coords()
    if name == "zero":
        _floats(parts, 0, "init.q zero")
        return np.zeros(grid.shape + (5,))
    if name == "bump":
        (amp,) = _floats(parts, 1, "init.q bump")
        bump = (np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z))
        q = np.zeros((5,) + grid.shape)
        q[0] = amp * bump
        q[1] = 0.6 * amp * bump
        q[3] = -0.5 * amp * bump
        return q_exchange(q)
    if name == "uniaxial":
        s, nx, ny, nz = _floats(parts, 4, "init.q uniaxial")
        q5 = tensors.uniaxial(s, np.array([nx, ny, nz]))
        out = np.empty(grid.shape + (5,))
        out[...] = q5
        return out
    raise ConfigError(f"unknown init.q selector {name!r}")


def _init_v(expr, basis, rng):
    name, parts = _selector(expr)
    if name == "zero":
        _floats(parts, 0, "init.v zero")
        return np.zeros(basis.n)
    if name == "noise":
        (amp,) = _floats(parts, 1, "init.v noise")
        if amp < 0.0:
            raise ConfigError("init.v noise amplitude must be >= 0")
        return amp * rng.standard_normal(basis.n)
    raise ConfigError(f"unknown init.v selector {name!r}")


def _boundary_velocity(expr, grid):
    name, parts = _selector(expr)
    if name == "zero":
        _floats(parts, 0, "bc.u zero")
        return dom.BoundaryVelocity(grid)
    if name == "channel":
        (peak,) = _floats(parts, 1, "bc.u channel")
        return dom.BoundaryVelocity(grid, peak=peak)
    if name == "shear":
        (rate,) = _floats(parts, 1, "bc.u shear")
        return dom.BoundaryVelocity(grid, rate=rate)
    if name == "constant":
        return dom.BoundaryVelocity(grid, vector=_floats(parts, 3, "bc.u constant"))
    raise ConfigError(f"unknown bc.u selector {name!r}")


def _boundary_q(expr):
    name, parts = _selector(expr)
    if name == "zero":
        _floats(parts, 0, "bc.q zero")
        return np.zeros(5)
    if name == "uniaxial":
        s, nx, ny, nz = _floats(parts, 4, "bc.q uniaxial")
        return tensors.uniaxial(s, np.array([nx, ny, nz]))
    raise ConfigError(f"unknown bc.q selector {name!r}")


def build_pressure_law(sc):
    if sc.pressure_kind == "isentropic":
        return pr.isentropic_law(sc.pressure_a, sc.pressure_gamma)
    if sc.pressure_kind == "table":
        # sampled isentropic data: exercises the tabulated-law code path
        # without an external file
        rho = np.linspace(0.0, 4.0, 161)
        return pr.general_law(rho, sc.pressure_a * rho ** sc.pressure_gamma)
    raise ConfigError(f"unknown pressure kind {sc.pressure_kind!r}")


def build_rheology_law(sc):
    if sc.delta < 0:
        raise ConfigError("mollification radius must be nonnegative")
    if sc.rheology_kind == "newtonian":
        return rh.newtonian_law(sc.rheology_mu, sc.rheology_lam)
    if sc.rheology_kind == "power_law":
        law = rh.power_law(sc.rheology_mu0, sc.rheology_q)
        return rh.mollify(law, sc.delta) if sc.delta > 0 else law
    if sc.rheology_kind == "tabulated":
        if sc.delta == 0:
            raise ConfigError(
                "tabulated rheology requires a positive mollification "
                "radius (reg.delta > 0)")
        d = np.linspace(0.0, 6.0, 121)
        t = np.linspace(-6.0, 6.0, 121)
        D, T = np.meshgrid(d, t, indexing="ij")
        f = sc.rheology_mu0 * (0.75 * (D ** (4.0 / 3.0)) + T * T / 6.0)
        law = rh.tabulated_law(d, t, f, sc.rheology_mu0)
        return rh.mollify(law, sc.delta)
    raise ConfigError(f"unknown rheology kind {sc.rheology_kind!r}")


@dataclass
class RunSetup:
    stepper: CoupledStepper
    state0: State


def build(sc):
    """Materialize a scenario into its stepper and initial state."""
    for key, name in KEY_MAP.items():
        val, ftype = getattr(sc, name), _FIELD_TYPES[name]
        if isinstance(val, bool) or not isinstance(val, _ACCEPTS[ftype]):
            raise ConfigError(f"{key} must be {ftype.__name__}, got {val!r}")
        if ftype is float and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val!r}")
    if sc.grid_cells < 2 or sc.modes < 1:
        raise ConfigError("grid.cells must be >= 2 and galerkin.modes >= 1")
    if sc.dt <= 0 or sc.final_time <= 0:
        raise ConfigError("time.dt and time.final must be positive")
    if sc.bc_rho <= 0:
        raise ConfigError("bc.rho must be positive")
    if not sc.picard_tol > 0:
        raise ConfigError("tol.picard must be positive")
    if sc.snapshot_every < 0:
        raise ConfigError("output.snapshot_every must be >= 0 (0 = off)")
    if sc.seed < 0:
        raise ConfigError(f"run.seed must be nonnegative, got {sc.seed}")
    sc.n_steps()
    ext = (sc.grid_extent,) * 3
    grid = dom.Grid(ext, (sc.grid_cells,) * 3)
    basis = gk.build_basis(grid, sc.modes)
    rng = np.random.default_rng(sc.seed)
    u_b = _boundary_velocity(sc.bc_u, grid)
    bdata = dom.BoundaryData(u_b, sc.bc_rho, _boundary_q(sc.bc_q))
    physics = Physics(eps=sc.eps, d0=sc.d0, gamma=sc.gamma_q,
                      c_star=sc.c_star, b=sc.b, sigma_star=sc.sigma_star)
    stepper = CoupledStepper(grid, basis, physics, build_rheology_law(sc),
                             build_pressure_law(sc), bdata, sc.dt,
                             picard_tol=sc.picard_tol)
    state0 = State(0.0,
                   _init_rho(sc.init_rho, grid),
                   _init_c(sc.init_c, grid, rng),
                   _init_q(sc.init_q, grid),
                   _init_v(sc.init_v, basis, rng))
    return RunSetup(stepper, state0)


def zero_scenario(**overrides):
    """Everything at rest: constant density, no flow, no order, no solute."""
    base = dict(grid_cells=8, final_time=0.05, dt=1e-3,
                init_rho="uniform:1.0", init_c="uniform:0.0",
                init_q="zero", init_v="zero", bc_u="zero",
                snapshot_every=10)
    base.update(overrides)
    return Scenario(**base)


def default_scenario(**overrides):
    """The desk-scale reference run: channel boundary flow, smooth positive
    density, solute wave inside [0.6, 1.4], an interior order bump."""
    base = dict(grid_cells=16, final_time=0.2, dt=1e-3, modes=2,
                init_rho="sine:0.05", init_c="wave:1.0,0.4",
                init_q="bump:0.15", init_v="zero",
                bc_u="channel:0.25", bc_rho=1.0, bc_q="zero",
                snapshot_every=50)
    base.update(overrides)
    return Scenario(**base)
