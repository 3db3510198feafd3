"""The benchmark's workloads: scenario overrides and run length.

Every workload starts from ``scenarios.default_scenario`` with a small
random initial velocity whose generator seed is the benchmark's ``--seed``.
``steps`` is the fixed number of coupled steps one worker process runs;
``wall_s`` times exactly these steps, so it is comparable across commits.
A snapshot is written after the last step, as ``nematoflow run`` does at
its snapshot cadence, so ``wall_s`` ends with the last output written.
"""

WORKLOADS = {
    # 16^3 cells, m=2 modes, Newtonian: the desk-scale reference mix in
    # which no layer takes more than about 30 % of a step.
    "channel16": {"overrides": {}, "steps": 20},
    # 32^3 cells, m=4 modes.  dt is halved because at h=1/32 the D0/Gamma
    # diffusion guard rejects dt=1e-3 (limit 5.86e-4).  face_velocities
    # dominates; 3x3 tensor fields (2.4 MB each) no longer fit in L2.
    "fine32": {"overrides": {"grid_cells": 32, "modes": 4, "dt": 5e-4},
               "steps": 1},
    # 8^3 cells, mollified power law (default delta=0.05): the kernel
    # quadrature of conjugate_batch and subgradient dominates, and every
    # other layer is bound by per-call overhead.
    "powerlaw8": {"overrides": {"grid_cells": 8,
                                "rheology_kind": "power_law"},
                  "steps": 3},
}

INIT_V = "noise:0.01"


def scenario(name, seed):
    """The Scenario of workload ``name`` for benchmark seed ``seed``."""
    from nematoflow import scenarios

    spec = WORKLOADS[name]
    overrides = dict(spec["overrides"])
    dt = overrides.get("dt", scenarios.Scenario.dt)
    return scenarios.default_scenario(
        init_v=INIT_V, seed=seed, final_time=spec["steps"] * dt,
        snapshot_every=spec["steps"], **overrides)
