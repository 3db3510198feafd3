"""Barotropic pressure laws and their pressure potentials.

Two kinds: a closed-form isentropic law p = a rho^gamma, and a general law
built from monotone samples by piecewise-cubic (shape-preserving) interpolation.
SciPy's PCHIP is imported only when the first general law is built.
The pressure potential P solves P'(rho) rho - P(rho) = p(rho) with P(0) = 0;
for general laws it is realized as

    P(rho) = rho * int_{eps0}^{rho} p(s)/s^2 ds + (p(eps0)/eps0) * rho

with eps0 = 1e-8 * rho_max cutting off the improper integral.  The integral is
evaluated in log coordinates by per-cell Gauss quadrature on a fixed grid that
includes the sample knots, so the computed P is smooth between grid points and
the defining ODE holds to near machine precision under finite differencing.

certify_s2 searches for constants making P - lo*p and hi*p - P convex on a
sample grid (second differences >= -1e-10) plus a power-law lower bound
P >= atilde * rho^gamma_eff for rho >= 1; failure is reported, not raised.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_GL10 = np.polynomial.legendre.leggauss(10)
_CONVEXITY_SLACK = 1.0e-10
_A_BAR_CAP = 1.0e6


@dataclass
class PressureLaw:
    kind: str                      # 'isentropic' | 'general'
    a: float = 0.0
    gamma: float = 0.0
    rho_nodes: np.ndarray = None
    p_nodes: np.ndarray = None
    rho_max: float = math.inf
    _state: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "isentropic":
            if not (self.a > 0.0 and self.gamma > 1.0):
                raise ConfigError("isentropic law needs a > 0 and gamma > 1")
        elif self.kind == "general":
            r = np.asarray(self.rho_nodes, dtype=float)
            p = np.asarray(self.p_nodes, dtype=float)
            if r.ndim != 1 or r.shape != p.shape or r.size < 3:
                raise ConfigError("general law needs matching 1-d sample arrays, >= 3 points")
            if r[0] != 0.0 or p[0] != 0.0:
                raise ConfigError("general law samples must start at (0, 0)")
            if np.any(np.diff(r) <= 0.0) or np.any(np.diff(p) <= 0.0):
                raise ConfigError("general law samples must be strictly increasing")
            self.rho_nodes, self.p_nodes = r, p
            self.rho_max = float(r[-1])
            self._build_general()
        else:
            raise ConfigError(f"unknown pressure kind {self.kind!r}")

    def _build_general(self):
        from scipy.interpolate import PchipInterpolator
        interp = PchipInterpolator(self.rho_nodes, self.p_nodes)
        eps0 = 1.0e-8 * self.rho_max
        u_lo, u_hi = math.log(eps0), math.log(self.rho_max)
        base = np.linspace(u_lo, u_hi, 241)
        knots = np.log(self.rho_nodes[self.rho_nodes > eps0])
        U = np.unique(np.concatenate([base, knots]))

        def g(u):
            return interp(np.exp(u)) * np.exp(-u)

        x, w = _GL10
        mids = 0.5 * (U[1:] + U[:-1])
        halfs = 0.5 * (U[1:] - U[:-1])
        pts = mids[:, None] + halfs[:, None] * x[None, :]
        cells = halfs * (g(pts) @ w)
        cum = np.concatenate([[0.0], np.cumsum(cells)])
        self._state.update(interp=interp, eps0=eps0, U=U, cum=cum,
                           c_lin=float(interp(eps0)) / eps0)

    def _log_integral(self, rho):
        """int_{eps0}^{rho} p(s)/s^2 ds for rho >= eps0, vectorized."""
        st = self._state
        U, cum, interp = st["U"], st["cum"], st["interp"]
        u = np.log(rho)
        k = np.clip(np.searchsorted(U, u, side="right") - 1, 0, U.size - 2)
        x, w = _GL10
        mid = 0.5 * (U[k] + u)
        half = 0.5 * (u - U[k])
        pts = mid[..., None] + half[..., None] * x
        tail = half * np.einsum("...i,i->...", interp(np.exp(pts)) * np.exp(-pts), w)
        return cum[k] + tail


def isentropic_law(a, gamma, rho_max=math.inf):
    return PressureLaw(kind="isentropic", a=a, gamma=gamma, rho_max=rho_max)


def general_law(rho_nodes, p_nodes):
    return PressureLaw(kind="general", rho_nodes=rho_nodes, p_nodes=p_nodes)


def _check_domain(law, rho):
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise ConfigError("density must be nonnegative")
    if np.any(rho > law.rho_max):
        raise ConfigError(f"density exceeds rho_max = {law.rho_max}")
    return rho


def pressure(law, rho):
    rho = _check_domain(law, rho)
    if law.kind == "isentropic":
        return law.a * rho ** law.gamma
    return law._state["interp"](rho)


def pressure_prime(law, rho):
    rho = _check_domain(law, rho)
    if law.kind == "isentropic":
        return law.a * law.gamma * rho ** (law.gamma - 1.0)
    return law._state["interp"].derivative()(rho)


def potential(law, rho):
    rho = _check_domain(law, rho)
    if law.kind == "isentropic":
        return law.a / (law.gamma - 1.0) * rho ** law.gamma
    st = law._state
    r = rho.ravel()
    out = st["c_lin"] * r
    big = r > st["eps0"]
    if np.any(big):
        out[big] += r[big] * law._log_integral(r[big])
    return out.reshape(rho.shape)[()]


def potential_prime(law, rho):
    """P'(rho); from P = rho*I + c*rho one gets P' = I + p/rho + c."""
    rho = _check_domain(law, rho)
    if law.kind == "isentropic":
        g = law.gamma
        return law.a * g / (g - 1.0) * rho ** (g - 1.0)
    st = law._state
    r = rho.ravel()
    out = np.full(r.shape, st["c_lin"])
    big = r > st["eps0"]
    if np.any(big):
        out[big] += law._log_integral(r[big]) + st["interp"](r[big]) / r[big]
    return out.reshape(rho.shape)[()]


def potential_second(law, rho):
    """P''(rho) = p'(rho)/rho, the diffusion weight in the energy balance."""
    rho = np.asarray(rho, dtype=float)
    safe = np.maximum(rho, 1.0e-300)
    return pressure_prime(law, rho) / safe


def _feasible_interval(num, den, slack):
    """All x with num_i - x*den_i >= -slack for every i, as (lo, hi)."""
    lo, hi = -math.inf, math.inf
    pos = den > 0
    neg = den < 0
    zero = ~pos & ~neg
    if np.any(pos):
        hi = float(np.min((num[pos] + slack) / den[pos]))
    if np.any(neg):
        lo = float(np.max((num[neg] + slack) / den[neg]))
    if np.any(num[zero] < -slack):
        return 1.0, 0.0
    return lo, hi


def certify_s2(law):
    """Search for structural constants (a_lower, a_upper, a_tilde, gamma_eff).

    Convexity of P - a_lower*p and a_upper*p - P is checked through second
    differences on a uniform 1001-point grid over [0, rho_max]; the growth
    bound P >= a_tilde rho^gamma_eff is fitted on [1, rho_max] in log-log
    coordinates.
    """
    if law.kind == "isentropic":
        c = 1.0 / (law.gamma - 1.0)
        return {"a_lower": c, "a_upper": c, "a_tilde": law.a * c,
                "gamma_eff": law.gamma, "pass": True}
    grid = np.linspace(0.0, law.rho_max, 1001)
    pv = np.asarray(pressure(law, grid), dtype=float)
    Pv = potential(law, grid)
    d2p = pv[2:] - 2.0 * pv[1:-1] + pv[:-2]
    d2P = Pv[2:] - 2.0 * Pv[1:-1] + Pv[:-2]
    ok = True
    # P - a_lower * p convex: d2P - a_lower * d2p >= -slack; take largest
    lo_l, hi_l = _feasible_interval(d2P, d2p, _CONVEXITY_SLACK)
    if hi_l < lo_l or hi_l <= 0.0:
        a_lower, ok = 0.0, False
    else:
        a_lower = min(hi_l, _A_BAR_CAP)
        if a_lower < lo_l:
            ok = False
    # a_upper * p - P convex: a_upper * d2p - d2P >= -slack; take smallest
    lo_u, hi_u = _feasible_interval(-d2P, -d2p, _CONVEXITY_SLACK)
    if hi_u < lo_u or lo_u > _A_BAR_CAP:
        a_upper, ok = math.inf, False
    else:
        a_upper = max(lo_u, 0.0)
        if a_upper > hi_u:
            ok = False
    # pressure itself must be convex for a certified law
    if np.any(d2p < -_CONVEXITY_SLACK):
        ok = False
    # growth bound fitted above rho = 1 (or the upper half of a short range)
    lo_fit = min(1.0, 0.5 * law.rho_max)
    fit_grid = np.geomspace(max(lo_fit, 1e-6), law.rho_max, 200)
    Pf = potential(law, fit_grid)
    if np.any(Pf <= 0.0):
        gamma_eff, a_tilde, ok = 0.0, 0.0, False
    else:
        slope, intercept = np.polyfit(np.log(fit_grid), np.log(Pf), 1)
        gamma_eff = float(slope)
        a_tilde = float(np.min(Pf / fit_grid ** gamma_eff))
        if not (a_tilde > 0.0):
            ok = False
    return {"a_lower": a_lower, "a_upper": a_upper, "a_tilde": a_tilde,
            "gamma_eff": gamma_eff, "pass": bool(ok)}
