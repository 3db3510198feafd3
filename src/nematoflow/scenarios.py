"""Scenario configuration: flat key-value text, selector catalogs, assembly.

A scenario is the complete, explicit description of one run: grid, time
window, regularization and mollification radii, Galerkin resolution,
pressure and rheology laws, material constants, initial and boundary data
selectors, tolerances, and output cadence.  All quantities are
nondimensional.  Unknown keys are hard errors so a typo cannot silently
fall back to a default.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import domain as dom
from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .errors import ConfigError
from .simulation import CoupledStepper, Physics, State


@dataclass(frozen=True)
class Scenario:
    grid_cells: int = 16
    grid_extent: float = 1.0
    final_time: float = 0.2
    dt: float = 1e-3
    eps: float = 0.05
    delta: float = 0.05
    modes: int = 2
    pressure_kind: str = "isentropic"
    pressure_a: float = 1.0
    pressure_gamma: float = 2.0
    rheology_kind: str = "newtonian"
    rheology_mu: float = 1.0
    rheology_lam: float = 0.0
    rheology_mu0: float = 1.0
    rheology_q: float = 4.0 / 3.0
    gamma_q: float = 0.25
    d0: float = 0.25
    c_star: float = 1.0
    b: float = 0.2
    sigma_star: float = 0.1
    init_rho: str = "uniform:1.0"
    init_c: str = "uniform:1.0"
    init_q: str = "zero"
    init_v: str = "zero"
    bc_u: str = "zero"
    bc_rho: float = 1.0
    bc_q: str = "zero"
    picard_tol: float = 1e-10
    snapshot_every: int = 50
    seed: int = 7

    def n_steps(self):
        n = int(round(self.final_time / self.dt))
        if abs(n * self.dt - self.final_time) > 1e-12 * max(1.0, n):
            raise ConfigError("final time must be an integer number of steps")
        return n


# config key -> dataclass field
KEY_MAP = {
    "grid.cells": "grid_cells",
    "grid.extent": "grid_extent",
    "time.final": "final_time",
    "time.dt": "dt",
    "reg.eps": "eps",
    "reg.delta": "delta",
    "galerkin.modes": "modes",
    "pressure.kind": "pressure_kind",
    "pressure.a": "pressure_a",
    "pressure.gamma": "pressure_gamma",
    "rheology.kind": "rheology_kind",
    "rheology.mu": "rheology_mu",
    "rheology.lam": "rheology_lam",
    "rheology.mu0": "rheology_mu0",
    "rheology.q": "rheology_q",
    "material.gamma": "gamma_q",
    "material.d0": "d0",
    "material.c_star": "c_star",
    "material.b": "b",
    "material.sigma_star": "sigma_star",
    "init.rho": "init_rho",
    "init.c": "init_c",
    "init.q": "init_q",
    "init.v": "init_v",
    "bc.u": "bc_u",
    "bc.rho": "bc_rho",
    "bc.q": "bc_q",
    "tol.picard": "picard_tol",
    "output.snapshot_every": "snapshot_every",
    "run.seed": "seed",
}

_TYPE_NAMES = {"int": int, "float": float, "str": str}
_FIELD_TYPES = {
    f.name: _TYPE_NAMES[f.type] if isinstance(f.type, str) else f.type
    for f in dataclasses.fields(Scenario)}


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
    lines = []
    for key, name in KEY_MAP.items():
        val = getattr(sc, name)
        if isinstance(val, float):
            lines.append(f"{key} = {val!r}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _selector(expr):
    name, _, args = expr.partition(":")
    parts = [a for a in args.split(",") if a != ""] if args else []
    return name.strip(), parts


def _floats(parts, n, what):
    if len(parts) != n:
        raise ConfigError(f"{what}: expected {n} arguments, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: non-numeric argument") from exc


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
        return np.full(grid.shape, val)
    if name == "wave":
        mid, amp = _floats(parts, 2, "init.c wave")
        return mid + amp * np.cos(np.pi * X) * np.sin(np.pi * Z)
    if name == "band":
        lo, hi = _floats(parts, 2, "init.c band")
        if not hi > lo:
            raise ConfigError("init.c band needs hi > lo")
        return lo + (hi - lo) * rng.random(grid.shape)
    raise ConfigError(f"unknown init.c selector {name!r}")


def _init_q(expr, grid):
    name, parts = _selector(expr)
    X, Y, Z = grid.coords()
    if name == "zero":
        return np.zeros(grid.shape + (5,))
    if name == "bump":
        (amp,) = _floats(parts, 1, "init.q bump")
        bump = (np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z))
        q = np.zeros(grid.shape + (5,))
        q[..., 0] = amp * bump
        q[..., 1] = 0.6 * amp * bump
        q[..., 3] = -0.5 * amp * bump
        return tensors.project_s30(tensors.to_matrix(q))
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
        return np.zeros(basis.n)
    if name == "noise":
        (amp,) = _floats(parts, 1, "init.v noise")
        return amp * rng.standard_normal(basis.n)
    raise ConfigError(f"unknown init.v selector {name!r}")


def _boundary_velocity(expr, grid):
    name, parts = _selector(expr)
    if name == "zero":
        return dom.BoundaryVelocity("zero", grid)
    if name == "channel":
        (peak,) = _floats(parts, 1, "bc.u channel")
        return dom.BoundaryVelocity("channel", grid, peak=peak)
    if name == "shear":
        (rate,) = _floats(parts, 1, "bc.u shear")
        return dom.BoundaryVelocity("shear", grid, rate=rate)
    if name == "constant":
        vec = _floats(parts, 3, "bc.u constant")
        return dom.BoundaryVelocity("constant", grid, vector=vec)
    raise ConfigError(f"unknown bc.u selector {name!r}")


def _boundary_q(expr):
    name, parts = _selector(expr)
    if name == "zero":
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
        if sc.rheology_mu <= 0:
            raise ConfigError("newtonian viscosity must be positive")
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
    scenario: Scenario
    grid: object
    basis: object
    stepper: CoupledStepper
    state0: State


def build(sc):
    """Materialize a scenario into grid, basis, stepper, initial state."""
    if sc.grid_cells < 2 or sc.modes < 1:
        raise ConfigError("grid.cells must be >= 2 and galerkin.modes >= 1")
    if sc.dt <= 0 or sc.final_time <= 0:
        raise ConfigError("time.dt and time.final must be positive")
    if sc.bc_rho <= 0:
        raise ConfigError("bc.rho must be positive")
    if not sc.picard_tol > 0:
        raise ConfigError("tol.picard must be positive")
    sc.n_steps()
    ext = (sc.grid_extent,) * 3
    try:
        grid = dom.Grid(ext, (sc.grid_cells,) * 3)
    except dom.DomainError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    basis = gk.build_basis(grid, sc.modes)
    rng = np.random.default_rng(sc.seed)
    u_b = _boundary_velocity(sc.bc_u, grid)
    bdata = dom.BoundaryData(u_b, sc.bc_rho, _boundary_q(sc.bc_q))
    try:
        physics = Physics(eps=sc.eps, d0=sc.d0, gamma=sc.gamma_q,
                          c_star=sc.c_star, b=sc.b,
                          sigma_star=sc.sigma_star)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        law = build_rheology_law(sc)
        plaw = build_pressure_law(sc)
    except (rh.RheologyError, pr.PressureError) as exc:
        raise ConfigError(f"material law: {exc}") from exc
    stepper = CoupledStepper(grid, basis, physics, law, plaw, bdata, sc.dt,
                             picard_tol=sc.picard_tol)
    state0 = State(0.0,
                   _init_rho(sc.init_rho, grid),
                   _init_c(sc.init_c, grid, rng),
                   _init_q(sc.init_q, grid),
                   _init_v(sc.init_v, basis, rng))
    return RunSetup(sc, grid, basis, stepper, state0)


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
