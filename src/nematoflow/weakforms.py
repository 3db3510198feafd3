"""Weak-identity residual catalog for stored trajectories.

Each equation of the coupled system has an integral identity obtained by
pairing with a smooth space-time test function.  This module quadratures
those identities along a stored trajectory and reports the residuals, which
shrink at first order under simultaneous (dt, h, eps) halving.

Conventions shared by all four residuals: left-rectangle time quadrature for
flux terms, and for the time-derivative pairing the increment of step n
(c^{n+1} - c^n, rho^{n+1} u^{n+1} - rho^n u^n, Q^{n+1} - Q^n) against the
test function at t_{n+1}.  Summed over the steps this is the pairing of the
change over [0, tau] with the test function; stationary states give machine
zero for every test function, and a trajectory's residual is the sum of the
residuals of its steps.  Velocity test functions live in the Galerkin space
and tensor test functions carry a scalar envelope vanishing on the walls,
matching the compact-support requirement of the momentum and order-tensor
identities.  The continuity identity is the solver's own,
``continuity.weak_residual_continuity``: the eps bulk term and the Robin
wall flux at rho^{n+1}, and the advective flux of rho^n through the face
velocity of v^{n+1}, the velocity the step returned.

The order-tensor identity is assembled with the relaxation term entering as
+Gamma H on the right side, consistent with the strong equation and the
gradient-flow behavior of the relaxation step.

Fields have their grid axes last, as in the solver (packed Q read through
``simulation.q_components``); the paired momentum flux is the one
(..., 3, 3) matrix route.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import galerkin as gk
from . import pressure as pr
from . import rheology as rh
from . import tensors
from .continuity import (ContinuityTrajectory, face_velocities,
                         weak_residual_continuity)
from .domain import gradient, laplacian, volume_integral
from .errors import ConfigError
from .nematic import molecular_field
from .simulation import q_components


@dataclass(frozen=True)
class ScalarTest:
    name: str
    value: Callable    # (X, Y, Z, t) -> scalar field
    grad: Callable     # (X, Y, Z, t) -> (3, ...) field


@dataclass(frozen=True)
class ModeTest:
    name: str
    coeffs: np.ndarray  # coefficient vector in the velocity basis
    theta: Callable     # t -> float


@dataclass(frozen=True)
class TensorTest:
    name: str
    chi: Callable       # (X, Y, Z) -> scalar envelope, zero on walls
    direction: np.ndarray  # packed (5,)
    theta: Callable     # t -> float


def _identity_flux(grid, ph, law, pressure_law, q_rules, st, q, u, J):
    """The paired tensor of the momentum identity, assembled from the field
    formulas directly on (..., 3, 3) matrices (not through the solver's
    entry-by-entry flux), so a defect in the solver's assembly shows up as
    an O(1) residual.  q: packed Q (5, ...); u: (3, ...) velocity; J:
    (3, 3, ...) velocity Jacobian, taken as a contiguous stack of
    matrices."""
    T = np.einsum("a...,b...->...ab", u, st.rho * u)
    T = T + np.asarray(pr.pressure(pressure_law, st.rho))[..., None, None] \
        * np.eye(3)
    J = np.ascontiguousarray(np.moveaxis(J, (0, 1), (-2, -1)))
    D = 0.5 * (J + np.swapaxes(J, -1, -2))
    T = T - rh.subgradient(law, D)
    gq = gradient(grid, q, q_rules)
    odot = np.empty(st.rho.shape + (3, 3))
    for i in range(3):
        for j in range(i, 3):
            val = tensors.packed_dot(gq[i], gq[j])
            odot[..., i, j] = val
            odot[..., j, i] = val
    t2 = tensors.trace_q2(q)
    g_scal = 0.5 * np.einsum("...ii->...", odot) + 0.5 * t2 \
        + 0.25 * ph.c_star * t2 * t2
    T = T - (g_scal[..., None, None] * np.eye(3) - odot)
    # Q lap Q - lap Q Q on dense matrices, not through the packed closed
    # form of momentum.rotational_stress, so this residual checks the solver
    # against an independent route
    qm = tensors.to_matrix(q)
    lm = tensors.to_matrix(laplacian(grid, q, q_rules))
    T = T - (qm @ lm - lm @ qm)
    T = T - ph.sigma_star * (st.c * st.c)[..., None, None] * qm
    return T


def _stack_grad(gx, gy, gz, like):
    return np.stack(np.broadcast_arrays(gx, gy, gz, like)[:3])


def scalar_catalog():
    """Space-time scalar test functions for the mass and concentration
    identities; smooth on the closed box, no boundary restriction."""
    pi = np.pi
    return [
        ScalarTest("one",
                   lambda X, Y, Z, t: np.ones_like(X),
                   lambda X, Y, Z, t: np.zeros((3,) + X.shape)),
        ScalarTest("x_t",
                   lambda X, Y, Z, t: X * t,
                   lambda X, Y, Z, t: _stack_grad(t * np.ones_like(X), 0.0,
                                                  0.0, X)),
        ScalarTest("sinx_lin",
                   lambda X, Y, Z, t: np.sin(pi * X) + 0.5 * Y,
                   lambda X, Y, Z, t: _stack_grad(
                       pi * np.cos(pi * X), 0.5 * np.ones_like(Y), 0.0, X)),
        ScalarTest("cosy_z2",
                   lambda X, Y, Z, t: np.cos(pi * Y) * Z ** 2,
                   lambda X, Y, Z, t: _stack_grad(
                       0.0, -pi * np.sin(pi * Y) * Z ** 2,
                       2.0 * np.cos(pi * Y) * Z, X)),
        ScalarTest("decay_sum",
                   lambda X, Y, Z, t: np.exp(-t) * (X + Y + Z),
                   lambda X, Y, Z, t: _stack_grad(
                       np.exp(-t) * np.ones_like(X),
                       np.exp(-t) * np.ones_like(X),
                       np.exp(-t) * np.ones_like(X), X)),
        ScalarTest("quad_mix",
                   lambda X, Y, Z, t: X * X - Z + t * Y,
                   lambda X, Y, Z, t: _stack_grad(
                       2.0 * X, t * np.ones_like(Y), -np.ones_like(Z), X)),
        ScalarTest("t2_cosz",
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

def weak_residuals_dissipative(states, stepper):
    """Quadrature every stored step against the full catalog in one pass.

    Returns {"continuity": {name: residual}, "momentum": ..., and
    "max_abs": per-equation worst case} for states, the list of states that
    stepper.step returned one after the other, from the initial state on.
    Each residual is a sum over steps, so the residual of a trajectory is
    the sum of the residuals of its two-state pieces.
    """
    g = stepper.grid
    ph = stepper.physics
    if len(states) < 2:
        raise ConfigError("trajectory must hold at least two time levels")
    X, Y, Z = g.coords()
    scalar_tests = scalar_catalog()
    momentum_tests = momentum_catalog(stepper.basis)
    nematic_tests = nematic_catalog()

    q_rules = stepper.boundary.q_rules

    w_vals = [gk.synthesize(stepper.basis, mt.coeffs)
              for mt in momentum_tests]
    gw_vals = [gk.synthesize_jacobian(stepper.basis, mt.coeffs)
               for mt in momentum_tests]
    chi_vals = [np.multiply.outer(nt.direction, nt.chi(X, Y, Z))
                for nt in nematic_tests]

    out_conc = dict.fromkeys((sc.name for sc in scalar_tests), 0.0)
    out_mom = dict.fromkeys((mt.name for mt in momentum_tests), 0.0)
    out_nem = dict.fromkeys((nt.name for nt in nematic_tests), 0.0)

    for st, new in zip(states, states[1:]):
        t0, t1 = st.t, new.t
        dt = t1 - t0
        q = q_components(st.q)
        u, J, lam = stepper.velocity_fields(st.v)
        d_rho_u = new.rho * stepper.velocity(new.v) - st.rho * u
        d_q = q_components(new.q) - q
        flux = _identity_flux(g, ph, stepper.law, stepper.pressure_law,
                              q_rules, st, q, u, J)
        grad_c = gradient(g, st.c)
        u_dot_gc = np.einsum("a...,a...->...", u, grad_c)
        gq = gradient(g, q, q_rules)
        u_dot_gq = np.einsum("dc...,d...->c...", gq, u)
        comm = tensors.commutator(q, lam)
        h_field = molecular_field(g, q, st.c, ph.b, ph.c_star, q_rules)

        for sc in scalar_tests:
            gphi = sc.grad(X, Y, Z, t0)
            out_conc[sc.name] += volume_integral(
                g, (new.c - st.c) * sc.value(X, Y, Z, t1)) + dt * (
                volume_integral(g, u_dot_gc * sc.value(X, Y, Z, t0))
                + ph.d0 * volume_integral(
                    g, np.einsum("a...,a...->...", grad_c, gphi)))

        for mt, w, gw in zip(momentum_tests, w_vals, gw_vals):
            out_mom[mt.name] += mt.theta(t1) * volume_integral(
                g, np.einsum("a...,a...->...", d_rho_u, w))
            out_mom[mt.name] -= dt * mt.theta(t0) * volume_integral(
                g, np.einsum("...ab,ab...->...", flux, gw))

        for nt, psi in zip(nematic_tests, chi_vals):
            out_nem[nt.name] += nt.theta(t1) * volume_integral(
                g, tensors.packed_dot(d_q, psi))
            out_nem[nt.name] += dt * nt.theta(t0) * volume_integral(
                g, tensors.packed_dot(u_dot_gq, psi)
                + tensors.packed_dot(comm, psi)
                - ph.gamma * tensors.packed_dot(h_field, psi))

    # the density step n -> n+1 is carried by the velocity it returned
    cont = ContinuityTrajectory(
        stepper.continuity, [st.t for st in states],
        [st.rho for st in states],
        [face_velocities(g, stepper.basis, st.v, stepper.boundary.u_faces)
         for st in states[1:]])
    out_cont = {sc.name: weak_residual_continuity(cont, sc.value, sc.grad)
                for sc in scalar_tests}

    report = {"continuity": out_cont, "momentum": out_mom,
              "concentration": out_conc, "nematic": out_nem}
    report["max_abs"] = {eq: max(abs(v) for v in vals.values())
                         for eq, vals in report.items()}
    return report
