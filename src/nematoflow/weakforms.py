"""Weak-identity residual catalog for recorded trajectories.

Each equation of the coupled system has an integral identity obtained by
pairing with a smooth space-time test function.  This module quadratures
those identities along a stored trajectory and reports the residuals, which
shrink at first order under simultaneous (dt, h, eps) halving.

Conventions shared by all four residuals: left-rectangle time quadrature for
flux terms, and exact per-step increments for the time-derivative pairing
(the state at step n multiplies phi(t_{n+1}) - phi(t_n)), so stationary
states telescope to machine zero for every test function.  Velocity test
functions live in the Galerkin space and tensor test functions carry a
scalar envelope vanishing on the walls, matching the compact-support
requirement of the momentum and order-tensor identities.

The order-tensor identity is assembled with the relaxation term entering as
+Gamma H on the right side, consistent with the strong equation and the
gradient-flow behavior of the relaxation step.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .domain import gradient, laplacian, volume_integral
from .nematic import molecular_field


@dataclass(frozen=True)
class ScalarTest:
    name: str
    value: Callable    # (X, Y, Z, t) -> scalar field
    grad: Callable     # (X, Y, Z, t) -> (..., 3) field


@dataclass(frozen=True)
class ModeTest:
    name: str
    coeffs: np.ndarray  # coefficient vector in the velocity basis
    theta: Callable     # t -> float


@dataclass(frozen=True)
class TensorTest:
    name: str
    chi: Callable       # (X, Y, Z) -> scalar envelope, zero on walls
    direction: np.ndarray = field(default=None)  # packed (5,)
    theta: Callable = field(default=None)


def _identity_flux(grid, ph, law, pressure_law, q_rules, st, u, J):
    """The paired tensor of the momentum identity, assembled from the field
    formulas directly (not through the solver's stress bundle), so a defect
    in the solver's assembly shows up as an O(1) residual."""
    T = np.einsum("...a,...b->...ab", u, st.rho[..., None] * u)
    T = T + np.asarray(pr.pressure(pressure_law, st.rho))[..., None, None] \
        * np.eye(3)
    D = 0.5 * (J + np.swapaxes(J, -1, -2))
    T = T - rh.subgradient(law, D)
    gq = gradient(grid, st.q, q_rules)
    gq_i = np.moveaxis(gq, -1, 0)
    odot = np.empty(st.q.shape[:-1] + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            val = tensors.packed_dot(gq_i[i], gq_i[j])
            odot[..., i, j] = val
            odot[..., j, i] = val
    t2 = tensors.trace_q2(st.q)
    g_scal = 0.5 * np.einsum("...ii->...", odot) + 0.5 * t2 \
        + 0.25 * ph.c_star * t2 * t2
    T = T - (g_scal[..., None, None] * np.eye(3) - odot)
    qm = tensors.to_matrix(st.q)
    lm = tensors.to_matrix(laplacian(grid, st.q, q_rules))
    T = T - (qm @ lm - lm @ qm)
    T = T - ph.sigma_star * (st.c * st.c)[..., None, None] * qm
    return T


def _stack_grad(gx, gy, gz, like):
    out = np.zeros(np.shape(like) + (3,))
    out[..., 0] = gx
    out[..., 1] = gy
    out[..., 2] = gz
    return out


def scalar_catalog():
    """Space-time scalar test functions for the mass and concentration
    identities; smooth on the closed box, no boundary restriction."""
    pi = np.pi

    def mk(name, value, grad):
        return ScalarTest(name, value, grad)

    return [
        mk("one",
           lambda X, Y, Z, t: np.ones_like(X),
           lambda X, Y, Z, t: np.zeros(X.shape + (3,))),
        mk("x_t",
           lambda X, Y, Z, t: X * t,
           lambda X, Y, Z, t: _stack_grad(t * np.ones_like(X), 0.0, 0.0, X)),
        mk("sinx_lin",
           lambda X, Y, Z, t: np.sin(pi * X) + 0.5 * Y,
           lambda X, Y, Z, t: _stack_grad(pi * np.cos(pi * X),
                                          0.5 * np.ones_like(Y), 0.0, X)),
        mk("cosy_z2",
           lambda X, Y, Z, t: np.cos(pi * Y) * Z ** 2,
           lambda X, Y, Z, t: _stack_grad(
               0.0, -pi * np.sin(pi * Y) * Z ** 2,
               2.0 * np.cos(pi * Y) * Z, X)),
        mk("decay_sum",
           lambda X, Y, Z, t: np.exp(-t) * (X + Y + Z),
           lambda X, Y, Z, t: _stack_grad(
               np.exp(-t) * np.ones_like(X),
               np.exp(-t) * np.ones_like(X),
               np.exp(-t) * np.ones_like(X), X)),
        mk("quad_mix",
           lambda X, Y, Z, t: X * X - Z + t * Y,
           lambda X, Y, Z, t: _stack_grad(
               2.0 * X, t * np.ones_like(Y), -np.ones_like(Z), X)),
        mk("t2_cosz",
           lambda X, Y, Z, t: t * t * np.cos(pi * Z),
           lambda X, Y, Z, t: _stack_grad(
               0.0, 0.0, -t * t * pi * np.sin(pi * Z), X)),
    ]


def momentum_catalog(basis):
    """Velocity test functions theta(t) w(x) with w in the Galerkin space,
    so the compact-support hypothesis holds exactly."""
    def unit(idx):
        e = np.zeros(basis.n)
        e[idx] = 1.0
        return e

    combo = np.zeros(basis.n)
    combo[0] = 0.7
    combo[min(4, basis.n - 1)] = -0.5
    combo[min(9, basis.n - 1)] = 0.3
    return [
        ModeTest("m0_const", unit(0), lambda t: 1.0),
        ModeTest("m1_t", unit(min(1, basis.n - 1)), lambda t: t),
        ModeTest("m2_decay", unit(min(2, basis.n - 1)),
                 lambda t: np.exp(-t)),
        ModeTest("m3_const", unit(min(3, basis.n - 1)), lambda t: 1.0),
        ModeTest("m5_affine", unit(min(5, basis.n - 1)),
                 lambda t: 1.0 + 0.5 * t),
        ModeTest("m7_cos", unit(min(7, basis.n - 1)), lambda t: np.cos(t)),
        ModeTest("combo_const", combo, lambda t: 1.0),
    ]


def nematic_catalog():
    """Tensor test functions theta(t) chi(x) E with chi vanishing on the
    walls and E a packed symmetric trace-free direction."""
    pi = np.pi

    def bump(kx, ky, kz):
        return lambda X, Y, Z: (np.sin(kx * pi * X) * np.sin(ky * pi * Y)
                                * np.sin(kz * pi * Z))

    dirs = [np.array(d, dtype=float) for d in (
        [1.0, 0.0, 0.0, -0.5, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.5, -0.3, 0.2, 0.5, -0.4],
    )]
    thetas = [lambda t: 1.0, lambda t: t, lambda t: np.exp(-t),
              lambda t: 1.0, lambda t: np.cos(t), lambda t: 1.0 + t]
    ks = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 1, 1)]
    return [TensorTest(f"q{i}", bump(*ks[i]), dirs[i], thetas[i])
            for i in range(6)]


# --------------------------------------------------------------- residuals

def weak_residuals_dissipative(traj, stepper, scalar_tests=None,
                               momentum_tests=None, nematic_tests=None):
    """Quadrature every stored step against the full catalog in one pass.

    Returns {"continuity": {name: residual}, "momentum": ..., and
    "max_abs": per-equation worst case} for the trajectory in traj, which
    must have been recorded at every step.
    """
    g = stepper.grid
    ph = stepper.physics
    states = traj.states
    times = traj.times
    if len(states) < 2:
        raise ValueError("trajectory must hold at least two time levels")
    X, Y, Z = g.coords()
    scalar_tests = scalar_catalog() if scalar_tests is None else scalar_tests
    momentum_tests = momentum_catalog(stepper.basis) \
        if momentum_tests is None else momentum_tests
    nematic_tests = nematic_catalog() if nematic_tests is None else \
        nematic_tests

    boundary = stepper.boundary
    q_rules = boundary.q_rules

    w_vals = [gk.synthesize(stepper.basis, mt.coeffs)
              for mt in momentum_tests]
    gw_vals = [gk.synthesize_jacobian(stepper.basis, mt.coeffs)
               for mt in momentum_tests]
    chi_vals = [nt.chi(X, Y, Z)[..., None] * nt.direction
                for nt in nematic_tests]

    acc_cont = np.zeros(len(scalar_tests))
    acc_conc = np.zeros(len(scalar_tests))
    acc_mom = np.zeros(len(momentum_tests))
    acc_nem = np.zeros(len(nematic_tests))

    for n in range(len(states) - 1):
        st = states[n]
        t0, t1 = times[n], times[n + 1]
        dt = t1 - t0
        u, J, lam = stepper.velocity_fields(st.v)
        rho_u = st.rho[..., None] * u
        flux = _identity_flux(g, ph, stepper.law, stepper.pressure_law,
                              q_rules, st, u, J)
        grad_c = gradient(g, st.c, "mirror")
        u_dot_gc = np.einsum("...a,...a->...", u, grad_c)
        gq = gradient(g, st.q, q_rules)
        u_dot_gq = np.einsum("...cd,...d->...c", gq, u)
        comm = tensors.commutator(st.q, lam)
        h_field = molecular_field(g, st.q, st.c, ph.b, ph.c_star, q_rules)

        for k, sc in enumerate(scalar_tests):
            phi0 = sc.value(X, Y, Z, t0)
            dphi = sc.value(X, Y, Z, t1) - phi0
            gphi = sc.grad(X, Y, Z, t0)
            u_gphi = np.einsum("...a,...a->...", u, gphi)
            acc_cont[k] -= volume_integral(g, st.rho * dphi) \
                + dt * volume_integral(g, st.rho * u_gphi)
            acc_conc[k] -= volume_integral(g, st.c * dphi)
            acc_conc[k] += dt * (
                volume_integral(g, u_dot_gc * phi0)
                + ph.d0 * volume_integral(
                    g, np.einsum("...a,...a->...", grad_c, gphi)))
            for face, rho_b in zip(boundary.faces, boundary.rho_b):
                rho_w = st.rho[face.wall]
                ubn = face.ubn
                trace = np.where(ubn < 0.0, rho_b, rho_w)
                phi_f = sc.value(*face.xyz, t0)
                acc_cont[k] += dt * face.area_element * float(
                    (phi_f * trace * ubn).sum())

        for k, mt in enumerate(momentum_tests):
            th0 = mt.theta(t0)
            dth = mt.theta(t1) - th0
            acc_mom[k] -= dth * volume_integral(
                g, np.einsum("...a,...a->...", rho_u, w_vals[k]))
            acc_mom[k] -= dt * th0 * volume_integral(
                g, np.einsum("...ab,...ab->...", flux, gw_vals[k]))

        for k, nt in enumerate(nematic_tests):
            th0 = nt.theta(t0)
            dth = nt.theta(t1) - th0
            psi = chi_vals[k]
            acc_nem[k] -= dth * volume_integral(
                g, tensors.packed_dot(st.q, psi))
            acc_nem[k] += dt * th0 * volume_integral(
                g, tensors.packed_dot(u_dot_gq, psi)
                + tensors.packed_dot(comm, psi)
                - ph.gamma * tensors.packed_dot(h_field, psi))

    first, last = states[0], states[-1]
    t_end = times[-1]
    u_end = gk.synthesize(stepper.basis, last.v) + stepper._ub_cc
    u_start = gk.synthesize(stepper.basis, first.v) + stepper._ub_cc
    out_cont, out_conc = {}, {}
    for k, sc in enumerate(scalar_tests):
        endpoints = volume_integral(
            g, last.rho * sc.value(X, Y, Z, t_end)) - volume_integral(
            g, first.rho * sc.value(X, Y, Z, times[0]))
        out_cont[sc.name] = endpoints + acc_cont[k]
        endpoints_c = volume_integral(
            g, last.c * sc.value(X, Y, Z, t_end)) - volume_integral(
            g, first.c * sc.value(X, Y, Z, times[0]))
        out_conc[sc.name] = endpoints_c + acc_conc[k]
    out_mom = {}
    for k, mt in enumerate(momentum_tests):
        endpoints = (mt.theta(t_end) * volume_integral(
            g, last.rho * np.einsum("...a,...a->...", u_end, w_vals[k]))
            - mt.theta(times[0]) * volume_integral(
            g, first.rho * np.einsum("...a,...a->...", u_start, w_vals[k])))
        out_mom[mt.name] = endpoints + acc_mom[k]
    out_nem = {}
    for k, nt in enumerate(nematic_tests):
        endpoints = (nt.theta(t_end) * volume_integral(
            g, tensors.packed_dot(last.q, chi_vals[k]))
            - nt.theta(times[0]) * volume_integral(
            g, tensors.packed_dot(first.q, chi_vals[k])))
        out_nem[nt.name] = endpoints + acc_nem[k]

    report = {"continuity": out_cont, "momentum": out_mom,
              "concentration": out_conc, "nematic": out_nem}
    report["max_abs"] = {eq: max(abs(v) for v in vals.values())
                         for eq, vals in report.items()}
    return report


# ------------------------------------------- corotation pairing identity

def commutator_identity_gap(grid, basis, v_coeffs, qp_fn, lap_q_fn):
    """Two quadratures of the corotation pairing on manufactured fields.

    Route one contracts the skew gradient of U against the companion field
    and the Laplacian directly; route two takes the finite-difference
    divergence of the antisymmetric product and pairs it with U.  For U
    vanishing on the walls the two agree at second order in h.
    qp_fn, lap_q_fn: callables (X, Y, Z) -> (..., 3, 3) matrices for the
    companion field and the analytic Laplacian of the order field.
    """
    X, Y, Z = grid.coords()
    u = gk.synthesize(basis, v_coeffs)
    J = gk.synthesize_jacobian(basis, v_coeffs)
    lam = 0.5 * (J - np.swapaxes(J, -1, -2))
    qp = qp_fn(X, Y, Z)
    lap_q = lap_q_fn(X, Y, Z)
    route1 = volume_integral(
        grid, tensors.frobenius(lam @ qp - qp @ lam, lap_q))

    T = qp @ lap_q - lap_q @ qp
    div_T = np.zeros(grid.shape + (3,))
    for a in range(3):
        for b in range(3):
            div_T[..., a] += np.gradient(T[..., a, b], grid.h[b], axis=b)
    route2 = volume_integral(
        grid, np.einsum("...a,...a->...", div_T, u))
    return route1, route2, abs(route1 - route2)
