"""Run one nilcert command with spans recorded around its public functions.

Usage::

    python3 perfbench/tracing.py OUT.json -- <nilcert arguments>

Each function in ``TARGETS`` is replaced by a wrapper at every place it
is looked up: the class attribute for methods, and for functions every
``nilcert`` module global and module-level dict (``_COMMANDS``) that
holds it, so names imported into other modules are traced too.  A
wrapper records a span (group, start, end, parent span) and, through an
optional hook, counts of work done.  Spans stay in memory until the
command returns; then ``OUT.json`` gets the per-group calls, inclusive
time and self time (a span's duration minus the time its child spans
cover), and ``OUT.spans.npz`` the raw spans.  The exit code is the
command's.

``layer_metrics`` turns one or more ``OUT.json`` files into the
benchmark's per-module metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def _moved(counts, args, out):
    """LatticeSpec.reduce(self, v): a useful reduction changes v."""
    if not np.array_equal(out, np.asarray(args[1], dtype=float)):
        counts["nilmanifold.reduce_moved_calls"] += 1


def _avoidance(counts, args, out):
    # The grid doubles from grid / 2^d to grid, one eigendecomposition per point.
    counts["spectral_planner.densifications"] += out.densifications
    counts["spectral_planner.theta_points"] += 2 * out.grid - (out.grid >> out.densifications)


def _outside_support(counts, args, out):
    """DeformedMap.jacobian_at(self, x): Dh at B x is the identity outside the support."""
    dyn, x = args[0], args[1]
    y = dyn.auto.apply(x) - dyn.rotation.center
    if float(np.linalg.norm(y)) >= dyn.rotation.support_radius:
        counts["deformation.jacobian_outside_support_calls"] += 1


def _count(name, of):
    def hook(counts, args, out):
        counts[name] += of(args, out)
    return hook


# (group, module, attribute path, hook run on the result)
TARGETS = (
    ("algebraic_core.eigendata", "algebraic_core", "EigenData.from_matrix", None),
    ("algebraic_core.chain", "algebraic_core", "verify_eigenvalue_condition", None),
    ("nilmanifold.lattice", "nilmanifold", "LatticeSpec.from_eigendata", None),
    ("nilmanifold.lattice", "nilmanifold", "LatticeSpec.bch_closure_residual", None),
    ("nilmanifold.lattice", "nilmanifold", "LatticeSpec.automorphism_integrality_residual", None),
    ("nilmanifold.reduce", "nilmanifold", "LatticeSpec.reduce", _moved),
    ("spectral_planner.plan", "spectral_planner", "plan_center_collapse", None),
    ("spectral_planner.avoidance", "spectral_planner", "annulus_avoidance", _avoidance),
    ("deformation.profile", "deformation", "make_profile", None),
    ("deformation.step", "deformation", "DeformedMap.step", None),
    ("deformation.step", "deformation", "DeformedMap.step_inverse", None),
    ("deformation.step", "deformation", "DeformedMap.step_with_jacobian", None),
    ("deformation.jacobian", "deformation", "DeformedMap.jacobian_at", _outside_support),
    ("cone_certifier.domination", "cone_certifier", "find_domination_exponent",
     _count("cone_certifier.exponents_tried", lambda a, out: len(out.history))),
    ("cone_certifier.robustness", "cone_certifier", "robustness_radius",
     _count("cone_certifier.mc_trials", lambda a, out: out.trials)),
    ("cone_certifier.rates", "cone_certifier", "bunching_report",
     _count("cone_certifier.rate_samples", lambda a, out: out.sample_count)),
    ("cone_certifier.sweep", "cone_certifier", "splitting_deviation_sweep",
     _count("cone_certifier.sweep_probes", lambda a, out: sum(p.probes for p in out))),
    ("kernels.qr_transport", "_kernels", "qr_product_forward",
     _count("kernels.qr_transport_steps", lambda a, out: a[0].shape[0])),
    ("kernels.qr_transport", "_kernels", "qr_product_pullback",
     _count("kernels.qr_transport_steps", lambda a, out: a[0].shape[0])),
    ("kernels.grid_margins", "_kernels", "grid_domination_margins",
     _count("kernels.grid_margins_points", lambda a, out: len(a[1]))),
    ("kernels.containment_margin", "_kernels", "containment_margin", None),
    ("kernels.h_jacobian", "_kernels", "h_jacobian", None),
    ("pipeline_cli.run_pipeline", "pipeline_cli", "run_pipeline", None),
    ("pipeline_cli.cmd_certify", "pipeline_cli", "cmd_certify", None),
)

MODULES = ("algebraic_core", "nilmanifold", "spectral_planner", "deformation",
           "cone_certifier", "_kernels", "pipeline_cli")


class Tracer:
    """Spans kept in flat arrays; ``outermost`` marks spans with no enclosing
    span of the same group, whose durations add up to the group's time."""

    def __init__(self) -> None:
        self.groups: list[str] = []
        self.group = array("i")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def wrap(self, group: str, fn, hook):
        if group not in self.groups:
            self.groups.append(group)
        gid = self.groups.index(group)
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.group.append(gid)
            self.parent.append(stack[-1] if stack else -1)
            self.outermost.append(depth[gid] == 0)
            self.end.append(0.0)
            stack.append(idx)
            depth[gid] += 1
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[gid] -= 1
                stack.pop()
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    def summary(self) -> dict:
        gid = np.frombuffer(self.group, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - children
        ngroups = len(self.groups)
        return {
            "groups": {
                name: {"calls": int(c), "total_s": float(t), "self_s": float(s)}
                for name, c, t, s in zip(
                    self.groups,
                    np.bincount(gid, minlength=ngroups),
                    np.bincount(gid[outer], weights=dur[outer], minlength=ngroups),
                    np.bincount(gid, weights=self_time, minlength=ngroups),
                )
            },
            "counts": dict(self.counts),
        }

    def dump(self, out: Path) -> None:
        out.write_text(json.dumps(self.summary(), indent=1, sort_keys=True) + "\n")
        np.savez_compressed(
            out.with_suffix(".spans.npz"),
            groups=np.array(self.groups),
            group=np.frombuffer(self.group, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _replace_everywhere(modules, original, wrapper) -> None:
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target at every site where nilcert looks it up."""
    modules = [importlib.import_module(f"nilcert.{m}") for m in MODULES]
    modules.append(importlib.import_module("nilcert"))
    for group, module, path, hook in TARGETS:
        owner = importlib.import_module(f"nilcert.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(group, raw.__func__, hook)))
            else:
                setattr(owner, attr, tracer.wrap(group, raw, hook))
        else:
            original = getattr(owner, attr)
            _replace_everywhere(modules, original, tracer.wrap(group, original, hook))


# Per-module metrics: (name, unit, how to read it from the merged trace).
def _g(field, group):
    return lambda g, c: g.get(group, {}).get(field, 0)


def _c(name):
    return lambda g, c: c.get(name, 0)


LAYER_METRICS = (
    ("algebraic_core.eigendata_s", "s", _g("total_s", "algebraic_core.eigendata")),
    ("algebraic_core.eigendata_calls", "count", _g("calls", "algebraic_core.eigendata")),
    ("algebraic_core.chain_s", "s", _g("total_s", "algebraic_core.chain")),
    ("nilmanifold.lattice_s", "s", _g("total_s", "nilmanifold.lattice")),
    ("nilmanifold.reduce_calls", "count", _g("calls", "nilmanifold.reduce")),
    ("nilmanifold.reduce_s", "s", _g("total_s", "nilmanifold.reduce")),
    ("nilmanifold.reduce_moved_calls", "count", _c("nilmanifold.reduce_moved_calls")),
    ("spectral_planner.plan_s", "s", _g("total_s", "spectral_planner.plan")),
    ("spectral_planner.plan_self_s", "s", _g("self_s", "spectral_planner.plan")),
    ("spectral_planner.avoidance_calls", "count", _g("calls", "spectral_planner.avoidance")),
    ("spectral_planner.avoidance_s", "s", _g("total_s", "spectral_planner.avoidance")),
    ("spectral_planner.densifications", "count", _c("spectral_planner.densifications")),
    ("spectral_planner.theta_points", "count", _c("spectral_planner.theta_points")),
    ("deformation.profile_s", "s", _g("total_s", "deformation.profile")),
    ("deformation.step_calls", "count", _g("calls", "deformation.step")),
    ("deformation.step_s", "s", _g("total_s", "deformation.step")),
    ("deformation.jacobian_calls", "count", _g("calls", "deformation.jacobian")),
    ("deformation.jacobian_s", "s", _g("total_s", "deformation.jacobian")),
    ("deformation.jacobian_outside_support_calls", "count",
     _c("deformation.jacobian_outside_support_calls")),
    ("cone_certifier.domination_s", "s", _g("total_s", "cone_certifier.domination")),
    ("cone_certifier.domination_self_s", "s", _g("self_s", "cone_certifier.domination")),
    ("cone_certifier.exponents_tried", "count", _c("cone_certifier.exponents_tried")),
    ("cone_certifier.robustness_s", "s", _g("total_s", "cone_certifier.robustness")),
    ("cone_certifier.robustness_self_s", "s", _g("self_s", "cone_certifier.robustness")),
    ("cone_certifier.mc_trials", "count", _c("cone_certifier.mc_trials")),
    ("cone_certifier.rates_s", "s", _g("total_s", "cone_certifier.rates")),
    ("cone_certifier.rates_self_s", "s", _g("self_s", "cone_certifier.rates")),
    ("cone_certifier.rate_samples", "count", _c("cone_certifier.rate_samples")),
    ("cone_certifier.sweep_s", "s", _g("total_s", "cone_certifier.sweep")),
    ("cone_certifier.sweep_self_s", "s", _g("self_s", "cone_certifier.sweep")),
    ("cone_certifier.sweep_probes", "count", _c("cone_certifier.sweep_probes")),
    ("kernels.qr_transport_calls", "count", _g("calls", "kernels.qr_transport")),
    ("kernels.qr_transport_steps", "count", _c("kernels.qr_transport_steps")),
    ("kernels.qr_transport_s", "s", _g("total_s", "kernels.qr_transport")),
    ("kernels.grid_margins_calls", "count", _g("calls", "kernels.grid_margins")),
    ("kernels.grid_margins_points", "count", _c("kernels.grid_margins_points")),
    ("kernels.grid_margins_s", "s", _g("total_s", "kernels.grid_margins")),
    ("kernels.containment_margin_calls", "count", _g("calls", "kernels.containment_margin")),
    ("kernels.containment_margin_s", "s", _g("total_s", "kernels.containment_margin")),
    ("kernels.h_jacobian_calls", "count", _g("calls", "kernels.h_jacobian")),
    ("pipeline_cli.run_pipeline_s", "s", _g("total_s", "pipeline_cli.run_pipeline")),
    ("pipeline_cli.run_pipeline_self_s", "s", _g("self_s", "pipeline_cli.run_pipeline")),
    ("pipeline_cli.emit_s", "s",
     lambda g, c: _g("total_s", "pipeline_cli.cmd_certify")(g, c) - _g("total_s", "pipeline_cli.run_pipeline")(g, c)),
)


def layer_metrics(trace_files) -> dict:
    """Sum the traces of one round's processes into the per-module metrics."""
    groups: dict = {}
    counts: Counter = Counter()
    for path in trace_files:
        data = json.loads(Path(path).read_text())
        for name, g in data["groups"].items():
            acc = groups.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += g[key]
        counts.update(data["counts"])
    return {name: {"value": read(groups, counts), "unit": unit} for name, unit, read in LAYER_METRICS}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py OUT.json -- <nilcert arguments>", file=sys.stderr)
        return 2
    from nilcert import pipeline_cli

    tracer = Tracer()
    install(tracer)
    try:
        return pipeline_cli.main(argv[2:])
    finally:
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
