"""Per-layer spans recorded from outside the program.

The tracer replaces each public function or method named in ``SPANS`` by a
wrapper that times it, and rebinds every name under which a ``nematoflow``
module holds the original: ``simulation`` imports ``face_velocities``,
``step_q``, ``step_concentration`` and ``ContinuitySolver`` by name, so
patching ``continuity.face_velocities`` alone would record nothing.
A span's self time is its duration minus the time of the spans it called.
``tensors``, ``domain`` and ``pressure`` are small helpers called thousands
of times per step; they get no span, so their time is self time of the
caller.  Spans and counts stay in memory until the worker reports them.
"""

import functools
import inspect
import os
import statistics
import sys
import time

# layer.function; a method is named by its class's module and its own name
SPANS = (
    "scenarios.build",
    "runner.run_scenario",
    "simulation.step",
    "simulation.advance_fields",
    "simulation.momentum_rhs",
    "simulation.velocity_fields",
    "continuity.face_velocities",
    "continuity.step",
    "continuity.grad_rho",
    "galerkin.evaluate_at",
    "galerkin.synthesize",
    "galerkin.synthesize_jacobian",
    "galerkin.project",
    "galerkin.project_tensor_divergence",
    "galerkin.mass_matrix",
    "nematic.step_concentration",
    "nematic.step_q",
    "momentum.assemble_stresses",
    "momentum.galerkin_rhs",
    "momentum.mass_solve",
    "rheology.subgradient",
    "rheology.potential",
    "rheology.conjugate_batch",
    "energy.row",
    "energy.to_csv",
    "snapshots.write_snapshot",
)

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPANS))

# work counts, all exact for a given commit and seed
COUNTS = (
    "simulation.picard_iters",
    "continuity.cg_iters",
    "galerkin.evaluate_at.points",
    "rheology.points",
    "snapshots.bytes_written",
)


def _resolve(name):
    """(owner, attribute, original) for a span name."""
    mod_name, attr = name.split(".")
    module = sys.modules[f"nematoflow.{mod_name}"]
    fn = module.__dict__.get(attr)
    if inspect.isfunction(fn):
        return module, attr, fn
    owners = [cls for cls in vars(module).values()
              if inspect.isclass(cls) and cls.__module__ == module.__name__
              and inspect.isfunction(cls.__dict__.get(attr))]
    if len(owners) != 1:
        raise LookupError(f"span {name}: expected one public function or "
                          f"method, found {len(owners)} classes")
    return owners[0], attr, owners[0].__dict__[attr]


def _points(x, y, z):
    import numpy as np
    return int(np.broadcast(np.asarray(x), np.asarray(y), np.asarray(z)).size)


class Tracer:
    """Install with ``install()``; read the result with ``summary()``."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_time = dict.fromkeys(SPANS, 0.0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.ratios = []
        self._child = []                  # child time of each open span
        self._depth = dict.fromkeys(LAYERS, 0)

    # --------------------------------------------------------------- spans

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child.append(0.0)
            self._depth[layer] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = self._child.pop()
                self._depth[layer] -= 1
                self.calls[name] += 1
                self.self_time[name] += dt - child
                if self._depth[layer] == 0:
                    self.busy[layer] += dt
                if self._child:
                    self._child[-1] += dt
            if count is not None:
                count(args, kwargs, out)
            return out
        return span

    def install(self):
        """Wrap every span and rebind every alias of the originals."""
        originals = {}
        for name in SPANS:
            owner, attr, fn = _resolve(name)
            wrapper = self._wrap(name, fn)
            setattr(owner, attr, wrapper)
            originals[id(fn)] = (fn, wrapper)
        for module in [m for k, m in sys.modules.items()
                       if k == "nematoflow" or k.startswith("nematoflow.")]:
            for key, val in list(vars(module).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    setattr(module, key, originals[id(val)][1])

    # -------------------------------------------------------------- counts

    def _count_simulation_step(self, args, kwargs, out):
        info = out[1]
        inc = info["increments"]
        self.counts["simulation.picard_iters"] += info["picard_iters"]
        self.ratios += [b / a for a, b in zip(inc, inc[1:]) if a > 0]

    def _count_continuity_step(self, args, kwargs, out):
        self.counts["continuity.cg_iters"] += out[1]["cg_iters"]

    def _count_galerkin_evaluate_at(self, args, kwargs, out):
        self.counts["galerkin.evaluate_at.points"] += _points(*args[2:5])

    def _count_rheology_subgradient(self, args, kwargs, out):
        self.counts["rheology.points"] += out.size // 9

    def _count_rheology_potential(self, args, kwargs, out):
        self.counts["rheology.points"] += out.size

    def _count_rheology_conjugate_batch(self, args, kwargs, out):
        self.counts["rheology.points"] += out.size

    def _count_snapshots_write_snapshot(self, args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        self.counts["snapshots.bytes_written"] += os.path.getsize(path)

    # -------------------------------------------------------------- report

    def summary(self):
        """Per-layer metrics of one run, keyed by metric name."""
        out = {}
        for name in SPANS:
            out[f"{name}.ms"] = 1e3 * self.self_time[name]
            out[f"{name}.calls"] = self.calls[name]
        for layer in LAYERS:
            out[f"{layer}.busy_ms"] = 1e3 * self.busy[layer]
            out[f"{layer}.self_ms"] = 1e3 * sum(
                self.self_time[n] for n in SPANS if n.startswith(layer + "."))
        out.update(self.counts)
        out["simulation.contraction_p50"] = (
            statistics.median(self.ratios) if self.ratios else 0.0)
        return out
