"""Energy ledger, budget inequality, and the two-grid defect diagnostic
behind the ``defect`` check suite.

The caller's step loop appends one row per time level to
``EnergyMonitor.rows``.  A row collects the quadratures of that level: the
energy terms, the four dissipation integrals d_visc = int[F(D) + F*(S)],
d_conc = D0 int|grad c|^2, d_relax = Gamma int|lap Q|^2, d_six =
(c*^2 Gamma / 2) int|Q|^6 (the budget weights 1/4, 1/2, 1/4, 1 are applied
at assembly), the boundary fluxes, and the data-dependent right-side terms.
The viscous entry uses the dual route F(D) + F*(S), which equals S : D when
S is the subgradient, so a broken stress path shows up as a Fenchel gap
rather than cancelling silently.  F*(S) is evaluated at D's own (d, t),
certified as its maximiser, and searched for only where that certificate
fails.

The budget check over [0, tau], with left-rectangle time quadrature:

    [E]_0^tau + sum dt * (weighted dissipation + boundary terms)
        <= sum dt * (C_growth * E + data terms) + C_const * tau

reported as residual = RHS - LHS, PASS iff residual >= -tol with
tol = 1e-6 (E(0)+1) + 10 (dt + h^2) tau (1 + E(0) + max weighted
dissipation); C_growth and C_const come from the boundary data norms.

Fields have their grid axes last, as in the solver (packed Q read through
``simulation.q_components``); the viscous terms take the (..., 3, 3) matrix
route of the rheology.

A row after a step takes that step's ``info["fields"]``: |grad Q|^2,
tr(Q^2), lap Q and grad rho of the accepted sweep's rho_k and Q_k, which
are the new state's rho and Q, so they equal bit for bit what the row
would compute (``CoupledStepper.step``).  Without them (the initial row,
the first row after a resume, a direct call) the row computes them with
the same functions.  Only these field derivatives are shared: the row
builds D from its own velocity v^{n+1} and S from D, never taking the
solver's stress, so the dual route stays independent of the stress path
it checks.  The boundary-data terms rhs_qb, rhs_pb and rhs_qgrad depend
on no state, and are summed once per monitor.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .domain import gradient, gradient_padded, laplacian_padded, pad, volume_integral
from .errors import ConfigError
from .simulation import q_components

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
        ph = stepper.physics
        boundary = stepper.boundary
        # the pressure potential of the inflow density on each face, whether
        # the face has inflow, and the boundary-data terms of every row,
        # fixed for the stepper
        self._p_b = [pr.potential(stepper.pressure_law, rho_b)
                     for rho_b in boundary.rho_b]
        self._inflow = [bool(face.inflow.any()) for face in boundary.faces]
        rhs_qb = rhs_pb = rhs_qgrad = 0.0
        for face, p_b, inflow, qb, dqdn in zip(boundary.faces, self._p_b,
                                               self._inflow, boundary.q_b,
                                               boundary.dq_b):
            area = face.area_element
            ubn = face.ubn
            if inflow:
                rhs_pb += area * float((-(p_b * ubn))[face.inflow].sum())
            t2b = tensors.trace_q2(qb)
            rhs_qb += -0.5 * area * float(
                ((0.5 * t2b + 0.25 * ph.c_star * t2b * t2b) * ubn).sum())
            rhs_qgrad += 2.0 * ph.c_star * ph.gamma * area * float(
                (t2b * tensors.packed_dot(qb, dqdn)).sum())
        self._rhs_data = {"rhs_qb": rhs_qb, "rhs_pb": rhs_pb,
                          "rhs_qgrad": rhs_qgrad}

    # ------------------------------------------------------------- one row

    def _own_fields(self, state):
        """The derivatives of state.rho and state.q a row needs, the keys
        of a step's info["fields"], computed here."""
        st = self.stepper
        g = st.grid
        q = q_components(state.q)
        P = pad(q, st.boundary.q_rules)
        gq = gradient_padded(g, P)
        return {
            "grad_q2": sum(tensors.packed_dot(gq[i], gq[i]) for i in range(3)),
            "t2": tensors.trace_q2(q),
            "lap_q": laplacian_padded(g, P),
            "grad_rho": st.continuity.grad_rho(state.rho),
        }

    def row(self, state, picard_iters=0, fields=None):
        """The ledger row of state.  fields: the info["fields"] of the step
        that returned state, whose derivatives of its rho and Q the row
        reuses; computed here when not given."""
        st = self.stepper
        g = st.grid
        ph = st.physics
        if fields is None:
            fields = self._own_fields(state)
        grad_q2, t2 = fields["grad_q2"], fields["t2"]
        # the kinetic energy is of u - u_B, the mode part alone
        u_modes = gk.synthesize(st.basis, state.v)
        # a contiguous stack of matrices, so the reductions of the matrix
        # route run in one order
        J = np.ascontiguousarray(np.moveaxis(
            gk.synthesize_jacobian(st.basis, state.v) + st.boundary.jac_cells,
            (0, 1), (-2, -1)))
        D = 0.5 * (J + np.swapaxes(J, -1, -2))

        e_kin = volume_integral(
            g, 0.5 * state.rho * np.einsum("a...,a...->...", u_modes, u_modes))
        # P and P' of the density, read on the walls by the face loop too
        p_rho = pr.potential(st.pressure_law, state.rho)
        dp_rho = pr.potential_prime(st.pressure_law, state.rho)
        e_press = volume_integral(g, p_rho)
        e_conc = volume_integral(g, 0.5 * state.c ** 2)
        e_q = volume_integral(
            g, 0.5 * t2 + 0.5 * grad_q2 + 0.25 * ph.c_star * t2 * t2)

        S = rh.subgradient(st.law, D)
        f_vals = rh.potential(st.law, D)
        s_red, sig_red = rh.reduce_sym(S)
        fstar_vals = rh.conjugate_batch(st.law, s_red, sig_red,
                                        near=rh.reduce_sym(D))
        d_visc = volume_integral(g, f_vals + fstar_vals)

        gc = gradient(g, state.c)
        d_conc = ph.d0 * volume_integral(
            g, np.einsum("a...,a...->...", gc, gc))
        lap_q = fields["lap_q"]
        d_relax = ph.gamma * volume_integral(
            g, tensors.packed_dot(lap_q, lap_q))
        d_six = 0.5 * ph.c_star ** 2 * ph.gamma * volume_integral(g, t2 ** 3)

        flux_out = 0.0
        gap_in = 0.0
        gap_min = np.inf
        grad_rho = fields["grad_rho"]
        flux_eps = ph.eps * volume_integral(
            g, pr.potential_second(st.pressure_law, state.rho)
            * np.einsum("a...,a...->...", grad_rho, grad_rho))
        for face, rho_b, p_b, inflow in zip(st.boundary.faces,
                                            st.boundary.rho_b, self._p_b,
                                            self._inflow):
            area = face.area_element
            ubn = face.ubn
            p_w = p_rho[face.wall]
            flux_out += area * float((p_w * ubn)[ubn > 0.0].sum())
            if inflow:
                gap = p_b - dp_rho[face.wall] * (rho_b - state.rho[face.wall]) \
                    - p_w
                gap_min = min(gap_min, float(gap[face.inflow].min()))
                gap_in += area * float((-(gap * ubn))[face.inflow].sum())

        return {
            "t": state.t,
            "E_kin": e_kin, "E_press": e_press, "E_conc": e_conc, "E_Q": e_q,
            "E_total": e_kin + e_press + e_conc + e_q,
            "d_visc": d_visc, "d_conc": d_conc, "d_relax": d_relax,
            "d_six": d_six,
            "flux_out": flux_out, "flux_eps": flux_eps, "gap_in": gap_in,
            "gap_min": (0.0 if not np.isfinite(gap_min) else gap_min),
            **self._rhs_data,
            "picard_iters": picard_iters,
        }

    # ----------------------------------------------------------- assembly

    def weighted_dissipation(self, row):
        # rows store the material-scaled integrals; the budget weights
        # 1/4, 1/2, 1/4, 1 come from the inequality itself
        return (0.25 * row["d_visc"] + 0.5 * row["d_conc"]
                + 0.25 * row["d_relax"] + row["d_six"])

    def _running_sum(self, rate):
        """Left-rectangle integral of rate(row) at each recorded time."""
        rows = self.rows
        out = [0.0]
        for j in range(len(rows) - 1):
            out.append(out[-1] + (rows[j + 1]["t"] - rows[j]["t"])
                       * rate(rows[j]))
        return np.array(out)

    def lhs_series(self):
        """Cumulative left side at each recorded time."""
        e = np.array([r["E_total"] for r in self.rows])
        return e - e[0] + self._running_sum(
            lambda r: self.weighted_dissipation(r) + r["flux_out"]
            + r["flux_eps"] + r["gap_in"])

    def rhs_series(self, c_growth, c_const):
        return self._running_sum(
            lambda r: c_growth * r["E_total"] + r["rhs_qb"] + r["rhs_pb"]
            + r["rhs_qgrad"] + c_const)

    def default_constants(self):
        """Growth/offset constants assembled from the boundary data norms.

        The analysis guarantees existence of some finite constant built from
        |grad u_B|, the wall data, and the material parameters; this mirrors
        that structure with unit prefactors.
        """
        st = self.stepper
        g = st.grid
        ub = st.boundary.u_cells
        gb = st.boundary.jac_cells
        gradub_inf = float(np.max(np.abs(gb)))
        gradub_l2sq = float(volume_integral(
            g, np.einsum("ad...,ad...->...", gb, gb)))
        conv = np.einsum("d...,ad...->a...", ub, gb)
        conv_inf = float(np.max(np.abs(conv)))
        c_growth = 1.0 + 4.0 * gradub_inf + conv_inf
        c_const = 1.0 + gradub_l2sq + conv_inf
        return c_growth, c_const

    def inequality_residual(self):
        """Budget verdict over the recorded window."""
        c_growth, c_const = self.default_constants()
        lhs = self.lhs_series()
        rhs = self.rhs_series(c_growth, c_const)
        residual = rhs - lhs
        g = self.stepper.grid
        dt = self.stepper.dt
        h2 = max(g.h) ** 2
        e0 = self.rows[0]["E_total"]
        tau = np.array([r["t"] for r in self.rows]) - self.rows[0]["t"]
        rate = max((self.weighted_dissipation(r) for r in self.rows),
                   default=0.0)
        tol = 1e-6 * (e0 + 1.0) + 10.0 * (dt + h2) * tau * (1.0 + e0 + rate)
        ok = bool(np.all(residual >= -tol))
        # the slack RHS - LHS where it is least over t > 0 (at t = 0 both
        # sides are 0), and RHS/LHS there; None before the first step
        slack = ratio = None
        if np.any(tau > 0):
            k = int(np.argmin(np.where(tau > 0, residual, np.inf)))
            slack = float(residual[k])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = float(np.divide(rhs[k], lhs[k]))
        return {
            "residual": residual, "tol": tol, "pass": ok,
            "c_growth": c_growth, "c_const": c_const,
            "slack": slack, "ratio": ratio,
        }

    # ---------------------------------------------------------------- I/O

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LEDGER_COLUMNS)
            for r in self.rows:
                w.writerow(["%.17g" % r[c] if c != "picard_iters"
                            else str(r[c]) for c in LEDGER_COLUMNS])


# ------------------------------------------------------- defect diagnostic

@dataclass
class DefectEstimate:
    energy_defect: np.ndarray      # coarse-grid scalar field
    stress_defect: np.ndarray      # coarse-grid (3, 3, ...) field
    d_lo: float
    d_hi: float
    rate: float                    # sandwich pass rate on active cells
    n_active: int
    threshold: float = field(default=1e-8)


def block_average(f, factor):
    """Average factor^3 blocks of the last three (grid) axes of a cell
    field; leading component axes are untouched."""
    *lead, nx, ny, nz = f.shape
    shaped = f.reshape(tuple(lead) + (nx // factor, factor, ny // factor,
                                      factor, nz // factor, factor))
    return shaped.mean(axis=(-5, -3, -1))


def defect_diagnostic(rho_coarse, u_coarse, rho_fine, u_fine,
                      pressure_law, threshold=1e-8):
    """Two-resolution Reynolds-stress and energy defect fields.

    Coarse-grains the fine-run momentum flux rho u (x) u + p I and energy
    density rho|u|^2/2 + P onto the coarse grid and subtracts the coarse-run
    values; u_coarse, u_fine are (3, ...) cell-center velocities, and the
    fine grid has twice the coarse cells per axis.  The compatibility
    exponents only exist for power pressure laws.
    """
    if pressure_law.kind != "isentropic":
        raise ConfigError("defect exponents need an isentropic pressure law")

    def flux_and_energy(rho, u):
        flux = np.einsum("...,a...,b...->ab...", rho, u, u)
        p = pr.pressure(pressure_law, rho)
        for a in range(3):
            flux[a, a] += p
        en = 0.5 * rho * np.einsum("a...,a...->...", u, u) \
            + pr.potential(pressure_law, rho)
        return flux, en

    flux_f, en_f = flux_and_energy(rho_fine, u_fine)
    flux_c, en_c = flux_and_energy(rho_coarse, u_coarse)
    stress_defect = block_average(flux_f, 2) - flux_c
    energy_defect = block_average(en_f, 2) - en_c

    gamma = pressure_law.gamma
    d_lo = min(2.0, 3.0 * (gamma - 1.0))
    d_hi = max(2.0, 3.0 * (gamma - 1.0))
    tr_r = np.trace(stress_defect)
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
