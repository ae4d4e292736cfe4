"""Span tracing at papc's module boundaries, installed from outside the package.

The tracer replaces public functions and methods of the ``papc`` modules by
wrappers that record one span per call: (name, start, end, parent, run id).
Spans live in compact in-memory arrays and are written out once, when the
traced run ends.  Boundaries are looked up by dotted name; a name that no
longer exists (a function deleted by a refactor) is listed as absent instead
of failing the run.

Nothing in ``papc`` knows about this module.  Rebinding covers every
reference the package holds to a wrapped function: module globals (including
``from .x import y`` copies), class attributes (including aliases such as
``apply = __call__``) and default arguments (such as ``run(step=papc_step)``).
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps

# Boundaries by dotted name below the ``papc`` package.  Opaque boundaries
# record their own span but none below them: the reference oracles and the
# power iterations run hundreds of thousands of inner calls that belong to
# set-up, and tracing them would swamp the iteration being measured.
BOUNDARIES = (
    "cli.main",
    "config.parse_config_file",
    "config.parse_config",
    "config.serialize_config",
    "runner.run_experiment",
    "runner.bind",
    "runner.validate_only",
    "zoo.build_instance",
    "zoo.oracle_solution",
    "zoo.saddle_function",
    "solver.run",
    "solver.papc_step",
    "solver.saddle_step",
    "solver.validate_hypotheses",
    "solver.dual_resolvent",
    "solver.dual_conjugate_prox",
    "solver.ergodic_update",
    "composite.run_composite",
    "composite.composite_step",
    "composite.structured_min_step",
    "composite.validate_composite",
    "composite.composite_dual_residuals",
    "composite.lift",
    "diagnostics.kkt_residual",
    "diagnostics.gap_and_bound",
    "diagnostics.saddle_value",
    "diagnostics.rate_fit",
    "stochastic.DeterministicOracle.sample",
    "stochastic.GaussianOracle.sample",
    "stochastic.MinibatchOracle.sample",
    "stochastic.summability_certificate",
    "monotone.inverse_resolvent",
    "monotone.conjugate_prox_via_moreau",
    "linop.LinearMap.__call__",
    "linop.LinearMap.adjoint",
    "linop.LinearMap.norm_bound",
    "linop.OrthoProjector.__call__",
    "linop.SpdOperator.apply",
    "linop.SpdOperator.apply_inverse",
    "linop.weighted_norm_sq",
    "linop.validate_tau",
    "linop.power_iteration",
)
OPAQUE = frozenset({"zoo.oracle_solution", "linop.validate_tau", "linop.power_iteration"})

# The run loops and the iteration steps they drive.  Per-step metrics count
# only steps called directly by a run loop, not the reference oracles' steps.
RUN_LOOPS = frozenset({"solver.run", "composite.run_composite"})
STEPS = frozenset({"solver.papc_step", "solver.saddle_step",
                   "composite.composite_step", "composite.structured_min_step"})
# Boundaries whose calls on a dense operator move the operator's matrix.
DENSE = frozenset({"linop.LinearMap.__call__", "linop.LinearMap.adjoint",
                   "linop.OrthoProjector.__call__"})

LAYERS = ("linop", "monotone", "stochastic", "solver", "composite", "diagnostics",
          "zoo", "runner", "config", "cli")

CERT_CODES = {"accepted": 0, "rejected": 1, "indeterminate": 2}


def _matrix_bytes(args):
    matrix = getattr(args[0], "matrix", None)
    return 0 if matrix is None else int(matrix.nbytes)


def _papc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "papc" or name.startswith("papc."))]


def resolve(dotted):
    """The function a boundary name denotes, or None if it no longer exists."""
    parts = dotted.split(".")
    owner = sys.modules.get("papc." + parts[0])
    for attr in parts[1:-1]:
        owner = getattr(owner, attr, None)
    found = vars(owner).get(parts[-1]) if owner is not None else None
    return found if callable(found) else None


class Rebinder:
    """Replaces every reference the papc package holds to a function."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for module in _papc_modules():
            self._swap_in(module, original, replacement)
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._swap_in(value, original, replacement)
                    for member in list(vars(value).values()):
                        self._swap_defaults(getattr(member, "__func__", member),
                                            original, replacement)
                else:
                    self._swap_defaults(value, original, replacement)

    def _swap_in(self, owner, original, replacement):
        for key, value in list(vars(owner).items()):
            if value is original:
                self._undo.append((setattr, owner, key, value))
                setattr(owner, key, replacement)

    def _swap_defaults(self, func, original, replacement):
        while hasattr(func, "__wrapped__"):
            func = func.__wrapped__
        defaults = getattr(func, "__defaults__", None)
        if not isinstance(defaults, tuple) or not any(d is original for d in defaults):
            return
        self._undo.append((_set_defaults, func, None, defaults))
        func.__defaults__ = tuple(replacement if d is original else d for d in defaults)

    def restore(self):
        for setter, owner, key, value in reversed(self._undo):
            setter(owner, key, value)
        self._undo.clear()


def _set_defaults(func, _key, defaults):
    func.__defaults__ = defaults


class FirstCall:
    """Records when any of the given boundaries is first entered."""

    def __init__(self, names):
        self.at = None
        self._rebinder = Rebinder()
        for name in names:
            found = resolve(name)
            if found is not None:
                self._rebinder.replace(found, self._wrap(found))

    def _wrap(self, fn):
        @wraps(fn)
        def hooked(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic_ns()
            return fn(*args, **kwargs)
        return hooked

    def restore(self):
        self._rebinder.restore()


class Tracer:
    """In-memory span recorder over the papc boundaries named in ``BOUNDARIES``.

    ``observers`` maps a boundary name to a callable that receives each
    call's return value (the tau certificates, the run records).
    """

    def __init__(self, run_id, boundaries=BOUNDARIES, observers=None):
        self.run_id = int(run_id)
        self.names = []
        self.absent = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.aux = array("q")
        self._stack = [-1]
        self._muted = [0]
        self._rebinder = Rebinder()
        observers = observers or {}
        for name in boundaries:
            found = resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            self.names.append(name)
            wrapper = self._wrap(found, len(self.names) - 1, name in OPAQUE,
                                 _matrix_bytes if name in DENSE else None,
                                 observers.get(name))
            self._rebinder.replace(found, wrapper)

    def _wrap(self, fn, name_id, opaque, aux_of, observe):
        name_ids, parents, starts, ends, aux = (self.name_ids, self.parents, self.starts,
                                                self.ends, self.aux)
        stack, muted, clock = self._stack, self._muted, time.monotonic_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            if muted[0]:
                return fn(*args, **kwargs)
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            aux.append(aux_of(args) if aux_of is not None else 0)
            stack.append(index)
            muted[0] += opaque
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                muted[0] -= opaque
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def restore(self):
        self._rebinder.restore()

    def __len__(self):
        return len(self.name_ids)

    def write(self, path):
        """Spans as a compressed npz: name table plus one row per span."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_ids, np.int64),
            parent=np.frombuffer(self.parents, np.int64),
            start_ns=np.frombuffer(self.starts, np.int64),
            end_ns=np.frombuffer(self.ends, np.int64),
            run_id=np.full(len(self), self.run_id, np.int64))


def _per_call(values_ns, prefix, out):
    """p50 and p99 of per-call durations, in microseconds."""
    import numpy as np
    if values_ns.size == 0:
        out[prefix] = out[prefix + ".p99"] = None
        return
    p50, p99 = np.percentile(values_ns, [50, 99]) * 1e-3
    out[prefix] = float(p50)
    out[prefix + ".p99"] = float(p99)


def analyse(tracer):
    """Per-layer metrics from the recorded spans.

    Returns a dict of metric name to value, with ``None`` for a metric whose
    boundaries are absent or were never called in this run.
    """
    import numpy as np

    names = tracer.names
    name_id = np.frombuffer(tracer.name_ids, np.int64)
    parent = np.frombuffer(tracer.parents, np.int64)
    dur = np.frombuffer(tracer.ends, np.int64) - np.frombuffer(tracer.starts, np.int64)
    aux = np.frombuffer(tracer.aux, np.int64)
    n = name_id.size
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child_ns[:n]

    def mask(group):
        ids = [i for i, name in enumerate(names) if name in group]
        return np.isin(name_id, ids)

    def under(child_mask, parent_mask):
        out = np.zeros(n, bool)
        out[has_parent] = parent_mask[parent[has_parent]]
        return child_mask & out

    def outermost_total_s(group):
        in_group = mask(group)
        total = 0
        for i in np.flatnonzero(in_group):
            p = parent[i]
            while p >= 0 and not in_group[p]:
                p = parent[p]
            if p < 0:
                total += int(dur[i])
        return total * 1e-9 if in_group.any() else None

    is_run = mask(RUN_LOOPS)
    is_step = under(mask(STEPS), is_run)
    steps = int(is_step.sum())

    out = {}
    layer_of = np.array([name.split(".", 1)[0] for name in names] or [""])
    for layer in LAYERS:
        ids = np.flatnonzero(layer_of == layer)
        in_layer = np.isin(name_id, ids)
        out[layer + ".self_s"] = float(self_ns[in_layer].sum()) * 1e-9 if in_layer.any() else None

    in_step = under(np.ones(n, bool), is_step)
    _per_call(dur[in_step & mask({"linop.LinearMap.__call__"})], "linop.apply_us", out)
    _per_call(dur[in_step & mask({"linop.LinearMap.adjoint"})], "linop.adjoint_us", out)
    _per_call(dur[in_step & mask({"linop.OrthoProjector.__call__"})], "linop.project_us", out)
    _per_call(dur[in_step & mask({"linop.SpdOperator.apply"})], "linop.precond_us", out)
    out["linop.dense_bytes_per_step"] = (
        float(aux[in_step & mask(DENSE)].sum()) / steps if steps else None)
    _per_call(dur[mask({"solver.dual_resolvent"})], "monotone.dual_resolvent_us", out)
    samples = in_step & mask({"stochastic.DeterministicOracle.sample",
                              "stochastic.GaussianOracle.sample",
                              "stochastic.MinibatchOracle.sample"})
    _per_call(dur[samples], "stochastic.sample_us", out)
    out["stochastic.samples"] = int(samples.sum()) if steps else None
    _per_call(dur[is_step & mask({"solver.papc_step", "solver.saddle_step"})],
              "solver.step_us", out)
    _per_call(self_ns[is_step], "solver.step_self_us", out)
    out["solver.loop_self_us"] = (
        (float(dur[is_run].sum()) - float(dur[is_step].sum())) * 1e-3 / steps
        if steps else None)
    _per_call(dur[mask({"solver.ergodic_update"})], "solver.ergodic_us", out)
    out["solver.steps"] = steps if is_run.any() else None
    _per_call(dur[is_step & mask({"composite.composite_step",
                                  "composite.structured_min_step"})],
              "composite.step_us", out)
    _per_call(dur[mask({"composite.composite_dual_residuals"})],
              "composite.dual_residuals_us", out)
    _per_call(dur[mask({"diagnostics.kkt_residual"})], "diagnostics.kkt_us", out)
    gap = dur[mask({"diagnostics.gap_and_bound"})]
    out["diagnostics.gap_s"] = float(np.median(gap)) * 1e-9 if gap.size else None
    out["zoo.build_s"] = outermost_total_s({"zoo.build_instance"})
    out["zoo.oracle_s"] = outermost_total_s({"zoo.oracle_solution"})
    out["solver.validate_s"] = outermost_total_s({"runner.validate_only",
                                                  "solver.validate_hypotheses",
                                                  "composite.validate_composite"})
    out["trace.spans"] = n
    return out
