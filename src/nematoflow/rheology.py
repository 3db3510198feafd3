"""Convex viscous potentials, their mollification, subgradients and conjugates.

Every supported law is isotropic: the potential depends on a symmetric tensor D
only through the pair (d, t) = (|D - (tr D/3) I|, tr D).  Mollification and the
conjugate supremum are therefore computed in these two reduced coordinates with
a product bump kernel, instead of a six-dimensional convolution.  The even
extension F(d, t) := F(|d|, t) used for the d-axis convolution is the
restriction of the convex potential to a 2-plane of symmetric tensors, so
convexity survives the reduction.

The 64 x 64 tensor-product rule of the mollifier is summed one kernel axis at
a time (sum factorisation), as matrix-vector products with the weights.  Raw
values are evaluated on (d - delta r_i) and (t - delta r_j) offsets that
broadcast against each other, so a law constant along t (the power law)
yields size-1 t axes and costs a 1-D sum over 64 nodes, not 64 x 64.

The quadrature runs in blocks sized in bytes, not points: each raw array of
a block stays within _BLOCK_BYTES = 64 KiB, under glibc's 128 KiB mmap
threshold and within L2.  A point costs 64 doubles for the power law and
64 x 64 for the other laws, so a block holds 128 and 2 points.  Fixed
488-point blocks made those arrays 244 KiB and 16 MiB, mapped and
zero-filled afresh on every block.  One 512-point partials_dt then took
395 minor faults and 1.1-1.7 ms for the power law, 4259-5281 faults and
180-230 ms for a tabulated law; with 64 KiB blocks it takes 0 faults and
0.4-0.7 ms, and 0 faults and 150-190 ms (2-vCPU Xeon, one BLAS thread,
getrusage of the process itself).  32 KiB blocks were no faster.

F is convex, so the conjugate's maximiser solves grad F = (s, sigma/3): a
bracketed root (Illinois regula falsi) of each monotone partial.  The kernel
lives on (-delta, delta), so F'(d - delta) <= F_delta'(d) <= F'(d + delta).
Where the caller knows a candidate maximiser, as the energy ledger does
(S = dF(D), so D's own (d, t) solves grad F = (s, sigma/3)), the candidate
is certified first: each partial's defect must change sign, to a few ulps,
across the candidate +- the root tolerance.  Only entries that fail the
certificate are searched, so a stress that is not the subgradient of its D
still gets the full search and shows its Fenchel gap.

Laws:
  newtonian   F(D) = (mu/2)|D|^2 + (lam/2)(tr D)^2   =>  dF = mu D + lam (tr D) I
  power_law   F(D) = mu0 |dev D|^q
  tabulated   f(d, t) sampled on a rectangular grid, bilinear interpolation

The newtonian potential is chosen so its subgradient reproduces the standard
stress mu D + lam (div u) I exactly (see notes in the repository ledger about
the bulk-term normalization).
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError

_GL_NODES = 64
_BRACKET_HI = 1.0e4
_ROOT_TOL = 1.0e-10
_ROOT_MAX_ITER = 150       # 3 steps per halving of a 2e4-wide bracket
# a flat step of the mollified bilinear table leaves a partial's defect at
# +-1 ulp at its root, so the certificate's sign test allows a few ulps
_CERT_SLACK = 8.0 * 2.0 ** -52       # 8 ulps of 1 in float64
_BLOCK_BYTES = 64 * 1024   # largest raw array of a quadrature block
# the |dev D| below which ``subgradient_dt`` takes the secant f_d / d as 0
SHEAR_CUTOFF = 1.0e-14


class RangeError(ConfigError):
    """A tabulated law was queried outside its table, or a conjugate
    maximiser left the representable range."""


def _bump(r):
    """C-infinity bump exp(-1/(1-r^2)) on |r|<1, unnormalized."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ri * ri))
    return out


def _kernel_rule():
    """Gauss-Legendre nodes on [-1,1] with discretely normalized bump weights.

    Normalizing the discrete weights (rather than the continuum constant)
    makes sum(w) = 1 and sum(w*r) = 0 exact, so convolving a quadratic adds
    exactly a constant and the F_delta(0) = 0 normalization is machine-exact.
    """
    nodes, gl_w = np.polynomial.legendre.leggauss(_GL_NODES)
    raw = gl_w * _bump(nodes)
    return nodes, raw / raw.sum()


_KERNEL = _kernel_rule()


def _kernel_sum(vals, w):
    """Contract the last axis of vals with the kernel weights w.

    A size-1 axis (the law is constant along it) costs one product with
    sum(w) instead of a sum over the nodes.
    """
    if vals.shape[-1] == 1:
        return vals[..., 0] * w.sum()
    return vals @ w


def reduce_sym(D):
    """(|dev D|, tr D) of a stack of symmetric 3x3 tensors."""
    D = np.asarray(D, dtype=float)
    t = D[..., 0, 0] + D[..., 1, 1] + D[..., 2, 2]
    frob2 = np.einsum("...ij,...ij->...", D, D)
    dev2 = np.maximum(frob2 - t * t / 3.0, 0.0)
    return np.sqrt(dev2), t


@dataclass
class RheologyLaw:
    kind: str                     # 'newtonian' | 'power_law' | 'tabulated'
    mu: float = 0.0               # newtonian shear viscosity
    lam: float = 0.0              # newtonian bulk viscosity
    mu0: float = 0.0              # coercivity constant (power-law coefficient)
    q: float = 4.0 / 3.0          # power-law exponent
    delta: float = 0.0            # mollification radius (0 = raw law)
    d_nodes: np.ndarray = None    # tabulated grids
    t_nodes: np.ndarray = None
    f_table: np.ndarray = None

    def __post_init__(self):
        if self.kind == "newtonian":
            if not (self.mu > 0.0):
                raise ConfigError("newtonian law needs mu > 0")
            # F convex iff mu/3 + lam >= 0; tested as conjugate_batch's bulk
            if self.mu + 3.0 * self.lam < 0.0:
                raise ConfigError("newtonian law needs lam + mu/3 >= 0")
            if self.mu0 == 0.0:
                # largest constant with F >= mu0 |dev D|^2; the 4/3 bound then
                # holds on bounded boxes with a finite offset mu2
                self.mu0 = self.mu / 2.0
        elif self.kind == "power_law":
            if not (self.mu0 > 0.0 and self.q > 1.0):
                raise ConfigError("power law needs mu0 > 0 and q > 1")
        elif self.kind == "tabulated":
            d = np.asarray(self.d_nodes, dtype=float)
            t = np.asarray(self.t_nodes, dtype=float)
            f = np.asarray(self.f_table, dtype=float)
            if d.ndim != 1 or t.ndim != 1 or f.shape != (d.size, t.size):
                raise ConfigError("tabulated law: f_table must be (len(d), len(t))")
            if d[0] != 0.0 or np.any(np.diff(d) <= 0) or np.any(np.diff(t) <= 0):
                raise ConfigError("tabulated law: d starts at 0, grids strictly increasing")
            if not (self.mu0 > 0.0):
                raise ConfigError("tabulated law: supply the coercivity constant mu0")
            self.d_nodes, self.t_nodes, self.f_table = d, t, f
        else:
            raise ConfigError(f"unknown rheology kind {self.kind!r}")
        if not 0.0 <= self.delta < math.inf:
            raise ConfigError(f"delta must be finite and >= 0, got {self.delta!r}")

    # --- raw reduced potential and its almost-everywhere partials ---------

    def _raw(self, d, t):
        d = np.abs(np.asarray(d, dtype=float))
        t = np.asarray(t, dtype=float)
        if self.kind == "newtonian":
            return 0.5 * self.mu * (d * d + t * t / 3.0) + 0.5 * self.lam * t * t
        if self.kind == "power_law":
            return self.mu0 * d ** self.q
        return self._bilinear(d, t, derivative=None)

    def _raw_partials(self, d, t):
        ds = np.asarray(d, dtype=float)
        sign = np.sign(ds)
        d = np.abs(ds)
        t = np.asarray(t, dtype=float)
        if self.kind == "newtonian":
            return sign * self.mu * d, (self.mu / 3.0 + self.lam) * t
        if self.kind == "power_law":
            fd = self.mu0 * self.q * d ** (self.q - 1.0)
            return sign * fd, np.zeros_like(t)
        fd = self._bilinear(d, t, derivative="d")
        ft = self._bilinear(d, t, derivative="t")
        return sign * fd, ft

    def _bilinear(self, d, t, derivative):
        """The tabulated potential (derivative None) or its "d" or "t"
        partial at d >= 0; RangeError outside the table, for all three."""
        dn, tn, f = self.d_nodes, self.t_nodes, self.f_table
        if np.any(d > dn[-1]) or np.any(t < tn[0]) or np.any(t > tn[-1]):
            raise RangeError(
                f"tabulated potential queried outside table: d<= {dn[-1]}, "
                f"t in [{tn[0]}, {tn[-1]}]")
        i = np.clip(np.searchsorted(dn, d, side="right") - 1, 0, dn.size - 2)
        j = np.clip(np.searchsorted(tn, t, side="right") - 1, 0, tn.size - 2)
        hd = dn[i + 1] - dn[i]
        ht = tn[j + 1] - tn[j]
        a = (d - dn[i]) / hd
        b = (t - tn[j]) / ht
        f00, f10 = f[i, j], f[i + 1, j]
        f01, f11 = f[i, j + 1], f[i + 1, j + 1]
        if derivative is None:
            return (1 - a) * (1 - b) * f00 + a * (1 - b) * f10 + (1 - a) * b * f01 + a * b * f11
        if derivative == "d":
            return ((1 - b) * (f10 - f00) + b * (f11 - f01)) / hd
        return ((1 - a) * (f01 - f00) + a * (f11 - f10)) / ht

    # --- mollified reduced potential ---------------------------------------

    @cached_property
    def _moll_shift(self):
        """Kernel sum at (0, 0), subtracted so that F_delta(0) = 0."""
        return float(self._kernel_quad(self._raw, 0.0, 0.0))

    def _kernel_quad(self, raw, d, t):
        """Product-rule sums sum_ij w_i w_j raw(d - delta r_i, t - delta r_j).

        raw returns one array or a tuple of arrays; so does this.  Raw values
        are computed block by block on (c, 64, 1) and (c, 1, 64) offsets, and
        each output is summed one kernel axis at a time.  The power law takes
        (c, 1, 1) t offsets instead, so its raw arrays are (c, 64, 1) and its
        t partial a size-1 zero.  A block holds the c points whose raw array,
        8 c 64 bytes for the power law and 8 c 64 64 for the other laws, fits
        in _BLOCK_BYTES = 64 KiB: c = 128 and 2 (the module docstring gives
        the reason and the measurements).
        """
        nodes, w = _KERNEL
        d, t = np.broadcast_arrays(np.asarray(d, dtype=float),
                                   np.asarray(t, dtype=float))
        df, tf = d.reshape(-1), t.reshape(-1)
        sd = self.delta * nodes
        # the power law is constant along t: t unshifted keeps its raw
        # arrays at a size-1 t axis, which _kernel_sum sums in one product
        st = np.zeros(1) if self.kind == "power_law" else sd
        chunk = max(1, _BLOCK_BYTES // (8 * sd.size * st.size))
        parts = []
        # at least one pass, so empty input still yields raw's output count
        for k in range(0, max(df.size, 1), chunk):
            vals = raw(df[k:k + chunk, None, None] - sd[None, :, None],
                       tf[k:k + chunk, None, None] - st[None, None, :])
            single = not isinstance(vals, tuple)
            parts.append([_kernel_sum(_kernel_sum(v, w), w)
                          for v in ((vals,) if single else vals)])
        outs = tuple(np.concatenate(p).reshape(d.shape) for p in zip(*parts))
        return outs[0] if single else outs

    def value_dt(self, d, t):
        """Reduced potential (mollified when delta > 0)."""
        if self.delta > 0.0:
            return self._kernel_quad(self._raw, d, t) - self._moll_shift
        return self._raw(d, t)

    def partials_dt(self, d, t):
        if self.delta > 0.0:
            return self._kernel_quad(self._raw_partials, d, t)
        return self._raw_partials(d, t)


def newtonian_law(mu, lam=0.0):
    return RheologyLaw(kind="newtonian", mu=mu, lam=lam)


def power_law(mu0, q=4.0 / 3.0):
    return RheologyLaw(kind="power_law", mu0=mu0, q=q)


def tabulated_law(d_nodes, t_nodes, f_table, mu0):
    return RheologyLaw(kind="tabulated", mu0=mu0, d_nodes=d_nodes,
                       t_nodes=t_nodes, f_table=f_table)


def mollify(law, delta):
    if not delta > 0.0:
        raise ConfigError("mollification radius must be positive")
    return replace(law, delta=delta)


def potential(law, D):
    """F(D) (or F_delta(D) when the law carries a mollification radius)."""
    d, t = reduce_sym(D)
    return law.value_dt(d, t)


def subgradient_dt(law, d, t):
    """(f_d / d, f_t) at (d, t) = (|dev D|, tr D): the member of dF(D) is
    S = (f_d / d) dev D + f_t I, with f_d / d taken as 0 where
    d < ``SHEAR_CUTOFF``.

    Tabulated laws must be mollified first (delta > 0) so the gradient exists
    everywhere; that precondition is a configuration error, not a crash site.
    """
    if law.kind == "tabulated" and law.delta == 0.0:
        raise ConfigError("tabulated laws need delta > 0 before subgradient evaluation")
    fd, ft = law.partials_dt(d, t)
    tiny = d < SHEAR_CUTOFF
    return np.where(tiny, 0.0, fd / np.where(tiny, 1.0, d)), ft


def subgradient(law, D):
    """A member of dF(D) for a stack of (..., 3, 3) tensors; for newtonian
    with delta=0: mu D + lam (tr D) I.  See ``subgradient_dt``."""
    D = np.asarray(D, dtype=float)
    d, t = reduce_sym(D)
    scale, ft = subgradient_dt(law, d, t)
    devD = D.copy()
    t3 = t / 3.0
    for i in range(3):
        devD[..., i, i] -= t3
    S = scale[..., None, None] * devD
    for i in range(3):
        S[..., i, i] += ft
    return S


def _monotone_root(g, lo, hi):
    """Per-entry root of a nondecreasing g on [lo, hi]; g(x, on) evaluates
    the entries of the boolean mask on, those whose bracket is still at least
    2 _ROOT_TOL wide.  Illinois regula falsi: an end kept twice running has
    its g halved, and after three a bisection follows.  Steps stay _ROOT_TOL
    inside the bracket, so an x-step of _ROOT_TOL across the root ends the
    search.  Returns the bracket midpoint: lo (hi) where g(lo) >= 0 (g(hi) <= 0).
    """
    every = np.ones(np.shape(lo), dtype=bool)
    ga, gb = g(lo, every), g(hi, every)
    b = np.where(ga >= 0.0, lo, hi)
    a = np.where(gb <= 0.0, b, lo)
    kept = np.zeros(a.shape, dtype=int)   # +k: b kept k steps running, -k: a
    for _ in range(_ROOT_MAX_ITER):
        on = b - a >= 2.0 * _ROOT_TOL
        if not on.any():
            break
        ao, bo, gao, gbo, ko = a[on], b[on], ga[on], gb[on], kept[on]
        secant = np.clip(bo - gbo * (bo - ao) / (gbo - gao),
                         ao + _ROOT_TOL, bo - _ROOT_TOL)
        x = np.where(np.abs(ko) >= 3, 0.5 * (ao + bo), secant)
        gx = g(x, on)
        left, right = gx >= 0.0, gx <= 0.0    # both at an exact root
        gao = np.where(left & (ko < 0), 0.5 * gao, gao)
        gbo = np.where(right & (ko > 0), 0.5 * gbo, gbo)
        kept[on] = np.where(left, np.minimum(ko, 0) - 1, np.maximum(ko, 0) + 1)
        b[on], gb[on] = np.where(left, x, bo), np.where(left, gx, gbo)
        a[on], ga[on] = np.where(right, x, ao), np.where(right, gx, gao)
    return 0.5 * (a + b)


def _certified(law, s, d, t, sigma=None):
    """Mask of the entries whose candidate (d, t) maximises the conjugate.

    Each monotone partial's defect g must change sign across the candidate:
    g(x - _ROOT_TOL) <= eta and g(x + _ROOT_TOL) >= -eta, with eta a few ulps
    of (1 + |s|) for the d partial at fixed t and of (1 + |sigma|) for the t
    partial at fixed d.  sigma=None checks the d partial alone (a law
    constant along t).  All offsets go through one partials_dt call.
    """
    tol = _ROOT_TOL
    d_pts, t_pts = [d - tol, d + tol], [t, t]
    if sigma is not None:
        d_pts += [d, d]
        t_pts += [t - tol, t + tol]
    fd, ft = law.partials_dt(np.concatenate(d_pts), np.concatenate(t_pts))
    n = d.size

    def sign_change(g, target):
        eta = _CERT_SLACK * (1.0 + np.abs(target))
        return (g[:n] <= eta) & (g[n:] >= -eta)

    ok = sign_change(fd[:2 * n] - np.tile(s, 2), s)
    if sigma is not None:
        ok &= sign_change(ft[2 * n:] - np.tile(sigma / 3.0, 2), sigma)
    return ok


def _alternating_roots(law, s, sigma, d_hi, t_lo, t_hi):
    """Maximiser (d, t) of a generic law by alternating d and t roots."""
    d_cur = np.zeros(s.shape)
    t_cur = np.full(s.shape, np.clip(0.0, t_lo, t_hi))
    for _ in range(80):
        d_new = _monotone_root(
            lambda dd, on: law.partials_dt(dd, t_cur[on])[0] - s[on],
            np.zeros(s.shape), np.full(s.shape, d_hi))
        t_new = _monotone_root(
            lambda tt, on: law.partials_dt(d_new[on], tt)[1] - sigma[on] / 3.0,
            np.full(s.shape, t_lo), np.full(s.shape, t_hi))
        move = np.maximum(np.abs(d_new - d_cur), np.abs(t_new - t_cur))
        d_cur, t_cur = d_new, t_new
        if np.max(move) < 1.0e-9:
            break
    return d_cur, t_cur


def conjugate_batch(law, s, sigma, near=None):
    """F*(S) on reduced stress coordinates (s, sigma) = (|dev S|, tr S), batched.

    Closed forms for raw Newtonian and power laws, which ignore near.
    Otherwise the maximiser is the root of grad F = (s, sigma/3).  near =
    (d, t), a candidate maximiser per entry (D's own reduced coordinates
    when S = dF(D)), is taken where _certified proves it; the other entries
    are searched by _monotone_root: for a mollified power law in d within
    delta of d0 = (s / (q mu0))^(1/(q-1)), since F'(d - delta) <= F_delta'(d)
    <= F'(d + delta); for other laws by alternating d and t roots.  Either
    way F* = s d* + sigma t*/3 - F(d*, t*), and a maximiser at the end of
    its bracket raises RangeError.
    """
    s = np.asarray(s, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s, sigma = np.broadcast_arrays(s, sigma)
    if law.kind == "newtonian" and law.delta == 0.0:
        bulk = law.mu + 3.0 * law.lam
        dev_part = s * s / (2.0 * law.mu)
        if bulk == 0.0:
            return np.where(np.abs(sigma) <= 1.0e-12 * (1.0 + s), dev_part, np.inf)
        return dev_part + sigma * sigma / (6.0 * bulk)
    if near is not None:
        d_near, t_near = (np.broadcast_to(np.asarray(x, dtype=float), s.shape)
                          for x in near)
    if law.kind == "power_law":
        # mollification along t of a t-independent potential changes nothing,
        # so the conjugate is +inf off the deviatoric axis for any delta
        out = np.full(s.shape, np.inf)
        on_axis = np.abs(sigma) <= 1.0e-10 * (1.0 + s)
        if law.delta == 0.0:
            sv = np.maximum(s, 0.0)
            expo = law.q / (law.q - 1.0)
            vals = law.mu0 * (law.q - 1.0) * (sv / (law.q * law.mu0)) ** expo
            out[on_axis] = vals[on_axis]
            return out
        sa = s[on_axis]
        dstar = np.zeros(sa.shape)
        search = np.ones(sa.shape, dtype=bool)
        if near is not None:
            dn = d_near[on_axis]
            search = ~_certified(law, sa, dn, t_near[on_axis])
            dstar[~search] = dn[~search]
        if search.any():
            ss = sa[search]
            d0 = (np.maximum(ss, 0.0) / (law.q * law.mu0)) ** (1.0 / (law.q - 1.0))
            hi = np.minimum(d0 + law.delta, _BRACKET_HI)
            dstar[search] = _monotone_root(
                lambda dd, on: law.partials_dt(dd, 0.0)[0] - ss[on],
                np.minimum(np.maximum(d0 - law.delta, 0.0), hi), hi)
        _check_bracket(dstar, 0.0, _BRACKET_HI, s=sa, lower_ok=True)
        out[on_axis] = sa * dstar - law.value_dt(dstar, 0.0)
        return out
    # generic isotropic law: alternating 1-D roots of the partials
    if law.kind == "tabulated":
        d_hi = law.d_nodes[-1] - 1.001 * law.delta
        t_lo = law.t_nodes[0] + 1.001 * law.delta
        t_hi = law.t_nodes[-1] - 1.001 * law.delta
        if d_hi <= 0 or t_hi <= t_lo:
            raise ConfigError("table too narrow for this mollification radius")
    else:
        d_hi, t_lo, t_hi = _BRACKET_HI, -_BRACKET_HI, _BRACKET_HI
    sf, sigmaf = s.ravel(), sigma.ravel()
    d_cur, t_cur = np.zeros(sf.shape), np.zeros(sf.shape)
    search = np.ones(sf.shape, dtype=bool)
    if near is not None:
        dn, tn = d_near.ravel(), t_near.ravel()
        search = ~_certified(law, sf, dn, tn, sigma=sigmaf)
        d_cur[~search], t_cur[~search] = dn[~search], tn[~search]
    if search.any():
        d_cur[search], t_cur[search] = _alternating_roots(
            law, sf[search], sigmaf[search], d_hi, t_lo, t_hi)
    _check_bracket(d_cur, 0.0, d_hi, s=sf, lower_ok=True)
    _check_bracket(t_cur, t_lo, t_hi, s=sigmaf)
    val = sf * d_cur + sigmaf * t_cur / 3.0 - law.value_dt(d_cur, t_cur)
    return val.reshape(s.shape)


def _check_bracket(x, lo, hi, s, lower_ok=False):
    margin = 1.0e-6 * (hi - lo)
    bad = x > hi - margin
    if not lower_ok:
        bad = bad | (x < lo + margin)
    if np.any(bad):
        worst = float(np.max(np.abs(np.asarray(s)[bad])))
        raise RangeError(
            f"conjugate maximizer escaped the bracket (stress norm {worst:g}); "
            "stress outside the representable range of this law")


def fenchel_young_residual(law, D, S):
    """S:D - F(D) - F*(S); <= 0 always, = 0 exactly when S is a subgradient at D.

    D's own (d, t) is the candidate maximiser of F*(S), so only an S that is
    not a subgradient at D pays for the root search.
    """
    D = np.asarray(D, dtype=float)
    S = np.asarray(S, dtype=float)
    pairing = np.einsum("...ij,...ij->...", S, D)
    d, t = reduce_sym(D)
    fval = law.value_dt(d, t)
    s, sigma = reduce_sym(S)
    fstar = conjugate_batch(law, s, sigma, near=(d, t))
    return pairing - fval - fstar


def certify_coercivity(law):
    """Check F_delta(D) >= mu1 |dev D|^{4/3} - mu2 on the sample box
    |dev D| <= 10, |tr D| <= 10 (81 x 41 points).

    Tries mu1 = mu0 first (the strongest claim), backing off toward mu0/2 only
    if the offset mu2 exceeds 1e6; reports the pair actually verified.
    """
    d = np.linspace(0.0, 10.0, 81)
    t = np.linspace(-10.0, 10.0, 41)
    dd, tt = np.meshgrid(d, t, indexing="ij")
    fvals = law.value_dt(dd, tt)
    target_pow = dd ** (4.0 / 3.0)
    for mu1 in np.linspace(law.mu0, law.mu0 / 2.0, 11):
        mu2 = max(0.0, float(np.max(mu1 * target_pow - fvals)))
        if mu2 <= 1.0e6:
            ok = bool(np.all(fvals >= mu1 * target_pow - mu2 - 1.0e-12))
            return {"mu1": float(mu1), "mu2": mu2, "pass": ok}
    return {"mu1": law.mu0 / 2.0, "mu2": math.inf, "pass": False}
