"""Energy ledger, budget inequality, and growth-bound verification.

Every row collects the quadratures of one time level: the energy terms, the
four dissipation integrals d_visc = int[F(D) + F*(S)], d_conc = D0 int|grad c|^2,
d_relax = Gamma int|lap Q|^2, d_six = (c*^2 Gamma / 2) int|Q|^6 (the budget
weights 1/4, 1/2, 1/4, 1 are applied at assembly), the boundary fluxes, and
the data-dependent right-side terms.  The viscous entry uses the dual route
F(D) + F*(S), which equals S : D when S is the subgradient, so a broken
stress path shows up as a Fenchel gap rather than cancelling silently.

The budget check over [0, tau], with left-rectangle time quadrature:

    [E]_0^tau + sum dt * (weighted dissipation + boundary terms)
        <= sum dt * (C_growth * E + data terms) + C_const * tau

reported as residual = RHS - LHS, PASS iff residual >= -tol with
tol = 1e-6 (E(0)+1) + 10 (dt + h^2) tau scale.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .domain import gradient, laplacian, volume_integral
from .errors import ConfigError

LEDGER_COLUMNS = [
    "t", "E_kin", "E_press", "E_conc", "E_Q", "E_total",
    "d_visc", "d_conc", "d_relax", "d_six",
    "flux_out", "flux_eps", "gap_in", "gap_min",
    "rhs_qb", "rhs_pb", "rhs_qgrad", "picard_iters",
]


class EnergyMonitor:
    def __init__(self, stepper):
        self.stepper = stepper
        self.rows = []
        g = stepper.grid
        # normal derivative of the wall order tensor by one-sided sampling
        # half a cell inside; exact (zero) for constant wall data
        self._qb_normal_deriv = []
        for face, q_wall in zip(stepper.boundary.faces, stepper.boundary.q_b):
            h = g.h[face.axis]
            inner_xyz = list(face.xyz)
            shift = -0.5 * h if face.side == 1 else 0.5 * h
            inner_xyz[face.axis] = face.xyz[face.axis] + shift
            q_in = stepper.bdata.q_b(*inner_xyz)
            self._qb_normal_deriv.append((q_wall - q_in) / (0.5 * h))

    # ------------------------------------------------------------- one row

    def row(self, state, picard_iters=0):
        st = self.stepper
        g = st.grid
        ph = st.physics
        u_modes = gk.synthesize(st.basis, state.v)
        u = u_modes + st._ub_cc
        J = gk.synthesize_jacobian(st.basis, state.v) + st._ub_jac_cc
        D = 0.5 * (J + np.swapaxes(J, -1, -2))

        e_kin = volume_integral(
            g, 0.5 * state.rho * np.einsum("...a,...a->...", u_modes, u_modes))
        e_press = volume_integral(g, pr.potential(st.pressure_law, state.rho))
        e_conc = volume_integral(g, 0.5 * state.c ** 2)
        q_rules = st.boundary.q_rules
        gq = gradient(g, state.q, q_rules)
        grad_q2 = sum(tensors.packed_dot(gq[..., i], gq[..., i])
                      for i in range(3))
        t2 = tensors.trace_q2(state.q)
        e_q = volume_integral(
            g, 0.5 * t2 + 0.5 * grad_q2 + 0.25 * ph.c_star * t2 * t2)

        S = rh.subgradient(st.law, D)
        f_vals = rh.potential(st.law, D)
        s_red, sig_red = rh.reduce_sym(S)
        fstar_vals = rh.conjugate_batch(st.law, s_red, sig_red)
        d_visc = volume_integral(g, f_vals + fstar_vals)

        gc = gradient(g, state.c, "mirror")
        d_conc = ph.d0 * volume_integral(
            g, np.einsum("...a,...a->...", gc, gc))
        lap_q = laplacian(g, state.q, q_rules)
        d_relax = ph.gamma * volume_integral(
            g, tensors.packed_dot(lap_q, lap_q))
        d_six = 0.5 * ph.c_star ** 2 * ph.gamma * volume_integral(g, t2 ** 3)

        flux_out = 0.0
        gap_in = 0.0
        gap_min = np.inf
        rhs_qb = 0.0
        rhs_pb = 0.0
        rhs_qgrad = 0.0
        grad_rho = st.continuity.grad_rho(state.rho)
        flux_eps = ph.eps * volume_integral(
            g, pr.potential_second(st.pressure_law, state.rho)
            * np.einsum("...a,...a->...", grad_rho, grad_rho))
        boundary = st.boundary
        for face, rho_b, qb, dqdn in zip(boundary.faces, boundary.rho_b,
                                         boundary.q_b, self._qb_normal_deriv):
            area = face.area_element
            rho_w = state.rho[face.wall]
            ubn = face.ubn
            out_mask = ubn > 0.0
            in_mask = ubn < 0.0
            p_w = pr.potential(st.pressure_law, rho_w)
            flux_out += area * float((p_w * ubn)[out_mask].sum())
            p_b = pr.potential(st.pressure_law, rho_b)
            gap = p_b - pr.potential_prime(st.pressure_law, rho_w) \
                * (rho_b - rho_w) - p_w
            if in_mask.any():
                gap_min = min(gap_min, float(gap[in_mask].min()))
                gap_in += area * float((-(gap * ubn))[in_mask].sum())
                rhs_pb += area * float((-(p_b * ubn))[in_mask].sum())
            t2b = tensors.trace_q2(qb)
            rhs_qb += -0.5 * area * float(
                ((0.5 * t2b + 0.25 * ph.c_star * t2b * t2b) * ubn).sum())
            rhs_qgrad += 2.0 * ph.c_star * ph.gamma * area * float(
                (t2b * tensors.packed_dot(qb, dqdn)).sum())

        return {
            "t": state.t,
            "E_kin": e_kin, "E_press": e_press, "E_conc": e_conc, "E_Q": e_q,
            "E_total": e_kin + e_press + e_conc + e_q,
            "d_visc": d_visc, "d_conc": d_conc, "d_relax": d_relax,
            "d_six": d_six,
            "flux_out": flux_out, "flux_eps": flux_eps, "gap_in": gap_in,
            "gap_min": (0.0 if not np.isfinite(gap_min) else gap_min),
            "rhs_qb": rhs_qb, "rhs_pb": rhs_pb, "rhs_qgrad": rhs_qgrad,
            "picard_iters": picard_iters,
        }

    def observe(self, state0):
        """Record the initial row; returns the run_coupled monitor hook."""
        self.rows = [self.row(state0)]

        def hook(prev, state, info):
            self.rows.append(self.row(state, info.get("picard_iters", 0)))
        return hook

    # ----------------------------------------------------------- assembly

    def weighted_dissipation(self, row):
        # rows store the material-scaled integrals; the budget weights
        # 1/4, 1/2, 1/4, 1 come from the inequality itself
        return (0.25 * row["d_visc"] + 0.5 * row["d_conc"]
                + 0.25 * row["d_relax"] + row["d_six"])

    def lhs_series(self):
        """Cumulative left side at each recorded time."""
        rows = self.rows
        e0 = rows[0]["E_total"]
        out = [0.0]
        acc = 0.0
        for j in range(len(rows) - 1):
            dt = rows[j + 1]["t"] - rows[j]["t"]
            r = rows[j]
            acc += dt * (self.weighted_dissipation(r) + r["flux_out"]
                         + r["flux_eps"] + r["gap_in"])
            out.append(rows[j + 1]["E_total"] - e0 + acc)
        return np.array(out)

    def rhs_series(self, c_growth, c_const):
        rows = self.rows
        out = [0.0]
        acc = 0.0
        for j in range(len(rows) - 1):
            dt = rows[j + 1]["t"] - rows[j]["t"]
            r = rows[j]
            acc += dt * (c_growth * r["E_total"] + r["rhs_qb"] + r["rhs_pb"]
                         + r["rhs_qgrad"] + c_const)
            out.append(acc)
        return np.array(out)

    def default_constants(self):
        """Growth/offset constants assembled from the boundary data norms.

        The analysis guarantees existence of some finite constant built from
        |grad u_B|, the wall data, and the material parameters; this mirrors
        that structure with unit prefactors.
        """
        st = self.stepper
        g = st.grid
        ub = st._ub_cc
        gb = st._ub_jac_cc
        gradub_inf = float(np.max(np.abs(gb)))
        gradub_l2sq = float(volume_integral(
            g, np.einsum("...ad,...ad->...", gb, gb)))
        conv = np.einsum("...d,...ad->...a", ub, gb)
        conv_inf = float(np.max(np.abs(conv)))
        c_growth = 1.0 + 4.0 * gradub_inf + conv_inf
        c_const = 1.0 + gradub_l2sq + conv_inf
        return c_growth, c_const

    def inequality_residual(self, c_growth=None, c_const=None, tol_scale=None):
        """Budget verdict over the recorded window."""
        if c_growth is None or c_const is None:
            cg, cc = self.default_constants()
            c_growth = cg if c_growth is None else c_growth
            c_const = cc if c_const is None else c_const
        lhs = self.lhs_series()
        rhs = self.rhs_series(c_growth, c_const)
        residual = rhs - lhs
        g = self.stepper.grid
        dt = self.stepper.dt
        h2 = max(g.h) ** 2
        e0 = self.rows[0]["E_total"]
        tau = np.array([r["t"] for r in self.rows]) - self.rows[0]["t"]
        if tol_scale is None:
            rate = max((self.weighted_dissipation(r) for r in self.rows),
                       default=0.0)
            tol_scale = 1.0 + e0 + rate
        tol = 1e-6 * (e0 + 1.0) + 10.0 * (dt + h2) * tau * tol_scale
        ok = bool(np.all(residual >= -tol))
        return {
            "residual": residual, "tol": tol, "pass": ok,
            "c_growth": c_growth, "c_const": c_const,
            "margin": float(np.min(residual + tol)),
        }

    def gronwall_bound(self, c_bound):
        """Integrated-form check: cumulative LHS stays below c_bound."""
        lhs = self.lhs_series()
        sup = float(np.max(lhs))
        return {"sup_lhs": sup, "bound": c_bound, "pass": sup <= c_bound}

    # ---------------------------------------------------------------- I/O

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LEDGER_COLUMNS)
            for r in self.rows:
                w.writerow(["%.17g" % r[c] if c != "picard_iters"
                            else str(r[c]) for c in LEDGER_COLUMNS])


def load_ledger(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            row = {k: (int(v) if k == "picard_iters" else float(v))
                   for k, v in rec.items()}
            rows.append(row)
    return rows


# ------------------------------------------------------- defect diagnostic

@dataclass
class DefectEstimate:
    energy_defect: np.ndarray      # coarse-grid scalar field
    stress_defect: np.ndarray      # coarse-grid (..., 3, 3) field
    d_lo: float
    d_hi: float
    rate: float                    # sandwich pass rate on active cells
    n_active: int
    threshold: float = field(default=1e-8)


def block_average(f, factor):
    """Average factor^3 blocks of a cell field; trailing axes untouched."""
    nx, ny, nz = f.shape[:3]
    trail = f.shape[3:]
    if nx % factor or ny % factor or nz % factor:
        raise ConfigError("field shape not divisible by coarsening factor")
    shaped = f.reshape((nx // factor, factor, ny // factor, factor,
                        nz // factor, factor) + trail)
    return shaped.mean(axis=(1, 3, 5))


def defect_diagnostic(rho_coarse, u_coarse, rho_fine, u_fine,
                      pressure_law, threshold=1e-8):
    """Two-resolution Reynolds-stress and energy defect fields.

    Coarse-grains the fine-run momentum flux rho u (x) u + p I and energy
    density rho|u|^2/2 + P onto the coarse grid and subtracts the coarse-run
    values.  The compatibility exponents only exist for power pressure laws.
    """
    if pressure_law.kind != "isentropic":
        raise ConfigError("defect exponents need an isentropic pressure law")
    sc = rho_coarse.shape
    sf = rho_fine.shape
    if len(sc) != 3 or len(sf) != 3:
        raise ConfigError("density fields must be 3-D cell arrays")
    if sf == sc:
        factor = 1
    elif all(a == 2 * b for a, b in zip(sf, sc)):
        factor = 2
    else:
        raise ConfigError(
            f"fine shape {sf} is neither equal to nor twice coarse {sc}")
    if u_coarse.shape != sc + (3,) or u_fine.shape != sf + (3,):
        raise ConfigError("velocity shapes do not match their grids")

    def flux_and_energy(rho, u):
        flux = np.einsum("...,...a,...b->...ab", rho, u, u)
        p = pr.pressure(pressure_law, rho)
        flux = flux + p[..., None, None] * np.eye(3)
        en = 0.5 * rho * np.einsum("...a,...a->...", u, u) \
            + pr.potential(pressure_law, rho)
        return flux, en

    flux_f, en_f = flux_and_energy(rho_fine, u_fine)
    flux_c, en_c = flux_and_energy(rho_coarse, u_coarse)
    stress_defect = block_average(flux_f, factor) - flux_c
    energy_defect = block_average(en_f, factor) - en_c

    gamma = pressure_law.gamma
    d_lo = min(2.0, 3.0 * (gamma - 1.0))
    d_hi = max(2.0, 3.0 * (gamma - 1.0))
    tr_r = np.trace(stress_defect, axis1=-2, axis2=-1)
    active = energy_defect > threshold
    n_active = int(active.sum())
    if n_active:
        lo_ok = tr_r[active] >= d_lo * energy_defect[active] - threshold
        hi_ok = tr_r[active] <= d_hi * energy_defect[active] + threshold
        rate = float((lo_ok & hi_ok).mean())
    else:
        rate = 1.0
    return DefectEstimate(energy_defect=energy_defect,
                          stress_defect=stress_defect,
                          d_lo=d_lo, d_hi=d_hi, rate=rate,
                          n_active=n_active, threshold=threshold)


# -------------------------------------------------- standalone diagnostics

def fenchel_consistency(grid, law, d_field):
    """Gap between the dual dissipation route and the direct pairing."""
    s_field = rh.subgradient(law, d_field)
    f_vals = rh.potential(law, d_field)
    s_red, sig_red = rh.reduce_sym(s_field)
    fstar_vals = rh.conjugate_batch(law, s_red, sig_red)
    dual = volume_integral(grid, f_vals + fstar_vals)
    direct = volume_integral(
        grid, np.einsum("...ab,...ab->...", s_field, d_field))
    return dual, direct, abs(dual - direct)


def lp_norm(grid, pointwise, p):
    return volume_integral(grid, pointwise ** p) ** (1.0 / p)


def korn_diagnostic(grid, basis, n_samples=200, p=4.0 / 3.0, seed=7):
    """Empirical constant for |grad u|_p <= kappa |dev sym grad u|_p.

    Samples random mode coefficients; reports the max ratio over the sample
    rather than asserting any analytical constant.
    """
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_samples):
        v = rng.standard_normal(basis.n)
        J = gk.synthesize_jacobian(basis, v)
        D = 0.5 * (J + np.swapaxes(J, -1, -2))
        dev = D - (np.trace(D, axis1=-2, axis2=-1) / 3.0)[..., None, None] \
            * np.eye(3)
        grad_mag = np.sqrt(np.einsum("...ab,...ab->...", J, J))
        dev_mag = np.sqrt(np.einsum("...ab,...ab->...", dev, dev))
        num = lp_norm(grid, grad_mag, p)
        den = lp_norm(grid, dev_mag, p)
        ratios.append(num / den)
    ratios = np.array(ratios)
    return {"max_ratio": float(ratios.max()),
            "mean_ratio": float(ratios.mean()), "p": p,
            "n_samples": n_samples}
