"""Config-driven experiment runner: multi-seed orchestration, per-seed trace
CSVs, gap tables, and a summary JSON.

The seeds of an experiment advance together, a group at a time, in one
batched :func:`papc.solver.run`; rows never mix, so each seed's outputs are
those of a run of that seed alone.  Each group's artifacts are then written
on every usable core, by the process and one forked worker per other core.
Trace and gap CSVs are byte-stable for a fixed config and seed (floats
are written with shortest round-trip repr and all randomness is keyed by
seed and iteration: the gaussian noise by (seed, block of NOISE_BLOCK
iterations), the minibatch draws by (seed, iteration)); the summary JSON
additionally records the wall time of the experiment and of each seed's
group, the intentionally non-stable fields.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import pickle
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .composite import CompositeBlock, CompositeProblem, stack
from .config import (ExperimentConfig, parse_config, parse_projector_spec, parse_prox_spec,
                     parse_smooth_spec, reads_input, serialize_config)
from .diagnostics import GapConstant, GapRow, fejer_tracker, gap_and_bound, kkt_residual, rate_fit
from .errors import ConfigError, DivergenceError
from .linop import (LinearMap, OrthoProjector, SpdOperator, coupling_lambda_max, norm,
                    read_matrix)
from .monotone import MonotoneBlock, gradient_map
from .solver import ProblemSpec, Schedules, run, trace_rows, validate_hypotheses
from .stochastic import DeterministicOracle, GaussianOracle, MinibatchOracle, VarianceSchedule
from . import zoo as zoo_mod

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "validate_only",
    "default_checkpoints",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("n", "gamma_n", "tau_n", "primal_res", "dual_res", "fejer_phi",
                 "dist_x_oracle", "dist_v_oracle", "grad_gap_partial_sum")
GAP_COLUMNS = ("N", "gap", "bound", "sum_gamma", "slope_window")


def default_checkpoints(horizon, count=48):
    """{0} plus log-spaced ergodic indices up to horizon - 1."""
    horizon = int(horizon)
    if horizon <= 1:
        return (0,)
    pts = np.geomspace(1, horizon - 1, count).astype(int)
    return tuple(sorted({0, *pts.tolist()}))


def _resolve_checkpoints(cfg):
    if cfg.checkpoints == "none":
        return ()
    if cfg.checkpoints == "log":
        return default_checkpoints(cfg.horizon)
    return tuple(cfg.checkpoints)


@dataclass
class _Bound:
    cfg: ExperimentConfig
    instance: object
    schedules: Schedules
    oracle: Callable  # seeds -> the config's oracle over those seeds


def _custom_coupling(params, key, dim, base, label):
    """The coupling tagged ``identity`` (default) or ``matrix:<path>``."""
    tag = params.get(key, "identity")
    if tag == "identity":
        return LinearMap.identity(dim)
    if tag.startswith("matrix:"):
        return LinearMap.from_matrix(read_matrix(os.path.join(base, tag.split(":", 1)[1])))
    raise ConfigError("%s must be 'identity' or 'matrix:<path>'" % label)


def _finite_lambda(U, L, P):
    """The exact coupling lambda_max of a config-assembled problem; a coupling
    with a non-finite entry is a config error."""
    lam = coupling_lambda_max(U, L, P)
    if not math.isfinite(lam):
        raise ConfigError("the coupling spectrum is not finite")
    return lam


def _build_custom_single(cfg):
    params = dict(cfg.problem_params)
    dim = zoo_mod._getdim(params, 4, 1)
    base = cfg.base_dir
    h, lipschitz = parse_smooth_spec(params.get("h", "zero"), dim, base)
    if lipschitz <= 0:
        raise ConfigError("custom problems need a smooth term with positive curvature")
    L = _custom_coupling(params, "L", dim, base, "custom L")
    g = parse_prox_spec(params.get("g", "zero"), L.codomain_dim, base)
    P = parse_projector_spec(params.get("projector", "full"), dim, base)
    U = SpdOperator.scalar_op(zoo_mod._getf(params, "sigma", 1.0), L.codomain_dim)
    spec = ProblemSpec(B=gradient_map(h, lipschitz), A=MonotoneBlock.from_prox(g),
                       L=L, P_V=P, U=U, g=g, h=h, name="custom")
    tau = 0.9 / max(_finite_lambda(U, L, P), 1e-12)
    sched = Schedules.constant(0.9 * spec.B.beta, tau, spec.B.beta)
    return zoo_mod.ZooInstance("custom", sched, tuple(sorted(params.items())), spec)


def _build_custom_composite(cfg):
    params = dict(cfg.problem_params)
    dim = zoo_mod._getdim(params, 4, 1)
    base = cfg.base_dir
    h, lipschitz = parse_smooth_spec(params.get("h", "zero"), dim, base)
    if lipschitz <= 0:
        raise ConfigError("custom problems need a smooth term with positive curvature")
    blocks, weights = [], []
    i = 1
    while ("block%d.g" % i) in params or ("block%d.L" % i) in params:
        prefix = "block%d." % i
        L = _custom_coupling(params, prefix + "L", dim, base, prefix + "L")
        g = parse_prox_spec(params.get(prefix + "g", "zero"), L.codomain_dim, base)
        sigma = zoo_mod._getf(params, prefix + "sigma", 1.0)
        blocks.append(CompositeBlock(L=L, A=MonotoneBlock.from_prox(g), sigma=sigma, g=g))
        weights.append(zoo_mod._getf(params, prefix + "omega", 0.0))
        i += 1
    if not blocks:
        raise ConfigError("custom_composite needs block1.g/block1.L/... entries")
    cp = CompositeProblem(weights=np.array(weights), C=gradient_map(h, lipschitz),
                          blocks=tuple(blocks), h=h, name="custom_composite")
    caps = [0.9 / max(_finite_lambda(SpdOperator.scalar_op(blk.sigma, blk.A.dim), blk.L,
                                     OrthoProjector.full(dim)), 1e-12)
            for blk in cp.blocks]
    sched = Schedules.constant(0.9 * cp.C.beta, min(caps), cp.C.beta)
    return zoo_mod.ZooInstance("custom_composite", sched, tuple(sorted(params.items())),
                               stack(cp), composite=cp)


@reads_input
def bind(cfg):
    """Materialize problem, schedules and noise model from a config.  Values
    that do not parse or build (a bad number, an unknown kind, an unreadable
    matrix file, a dimension the problem cannot take) are config errors."""
    cfg.validate()
    if cfg.problem == "custom":
        inst = _build_custom_single(cfg)
    elif cfg.problem == "custom_composite":
        inst = _build_custom_composite(cfg)
    else:
        inst = zoo_mod.build_instance(cfg.problem, cfg.problem_params)
    base = inst.schedules
    gamma0 = cfg.gamma0 if cfg.gamma0 is not None else base.gamma0
    tau_cap = cfg.tau_cap if cfg.tau_cap is not None else base.tau_cap
    beta = base.beta
    sched = Schedules.make(beta, gamma_kind=cfg.gamma_kind, gamma0=gamma0,
                           tau_kind=cfg.tau_kind, tau_cap=tau_cap)
    B = inst.spec.B
    if cfg.noise_kind == "gaussian":
        noise = (VarianceSchedule.polynomial(cfg.sigma0_sq, cfg.epsilon) if cfg.epsilon > 0
                 else VarianceSchedule.constant(cfg.sigma0_sq))
        oracle = lambda seeds: GaussianOracle(B, noise, seeds)
    elif cfg.noise_kind == "minibatch":
        if inst.least_squares is None:
            raise ConfigError("minibatch noise needs a least-squares smooth term "
                              "0.5||Dx - a||^2 (the zoo problems); custom problems must "
                              "drive stochastic.MinibatchOracle through the API")
        D, a = inst.least_squares
        oracle = lambda seeds: MinibatchOracle(D, a, B.beta, seeds, batch=cfg.batch_schedule)
    else:
        oracle = lambda seeds: DeterministicOracle(B)
    return _Bound(cfg, inst, sched, oracle)


def _gate(bound, horizon):
    """The hypothesis certificate of a bound config, its noise included."""
    return validate_hypotheses(bound.instance.spec, bound.schedules, horizon,
                               regime=bound.cfg.regime, oracle=bound.oracle(bound.cfg.seeds))


def validate_only(cfg, horizon=None):
    return _gate(bind(cfg), cfg.horizon if horizon is None else horizon)


def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# Rows formatted at a time, so a long trace never holds all its strings.
_CSV_CHUNK = 256


def _constant_cell(col):
    """The one cell of a column whose values are all the same bits (gamma_n
    and tau_n under constant schedules); None otherwise.  Bits, not values:
    0.0 == -0.0, but their reprs differ."""
    bits = np.ascontiguousarray(col).view(np.int64)
    return repr(float(col[0])) if (bits == bits[0]).all() else None


def _write_trace(path, blocks):
    """The trace CSV of one seed from its blocks of rows, each the columns of
    its rows: the integer ``n`` column, then float arrays, or None for a
    column left empty.  A column bitwise constant over a block is formatted
    once for the block."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for columns in blocks:
            fixed = [None if col is None else _constant_cell(col) for col in columns[1:]]
            for lo in range(0, len(columns[0]), _CSV_CHUNK):
                cells = [map(str, columns[0][lo:lo + _CSV_CHUNK].tolist())]
                cells += [itertools.repeat("") if col is None
                          else itertools.repeat(cell) if cell is not None
                          else map(repr, col[lo:lo + _CSV_CHUNK].tolist())
                          for col, cell in zip(columns[1:], fixed)]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# Stored trace rows whose diagnostics and CSV lines are computed at a time, so
# a seed's artifacts need memory of the order of one block, not of its trace.
_ROW_BLOCK = 2048


def _row_blocks(record):
    """The record's stored rows in blocks of _ROW_BLOCK, each a RunRecord."""
    gg = record.grad_gap_partial
    for lo in range(0, len(record.ns), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        yield dataclasses.replace(
            record, ns=record.ns[rows], xs=record.xs[rows], vs=record.vs[rows],
            gammas=record.gammas[rows], taus=record.taus[rows],
            grad_gap_partial=None if gg is None else gg[rows])


def _trace_columns(bound, record, oracle_xv):
    """Diagnostic columns over the stored trace rows of a record; every one
    acts row by row, so a block of rows gives its rows' cells.
    Oracle-relative columns are left empty when no reference solution
    exists."""
    spec = bound.instance.spec
    pres, dres = kkt_residual(record.xs, record.vs, spec)
    phis = dist_x = dist_v = None
    if oracle_xv is not None:
        x_ref, v_ref = oracle_xv
        phis = fejer_tracker(record, oracle_xv, spec, check_monotone=False)
        dist_x = norm(record.xs - x_ref, spec.primal_weights)
        dist_v = norm(record.vs - v_ref, spec.dual_weights)
    return (record.ns, record.gammas, record.taus, pres, dres, phis, dist_x, dist_v,
            record.grad_gap_partial)


def _gap_rows(bound, record, oracle_xv, c0):
    spec = bound.instance.spec
    K = zoo_mod.saddle_function(bound.instance)
    gapc = GapConstant(spec=spec, sched=bound.schedules, x0=np.zeros(spec.B.dim),
                       v0=np.zeros(spec.A.dim), c0=c0)
    return gap_and_bound(record, K, oracle_xv, gapc)


def _gap_csv_rows(rows):
    out = []
    for k, row in enumerate(rows):
        pairs = [(r.N, r.gap) for r in rows[: k + 1] if r.finite]
        slope = ""
        window = (max(1.0, row.N / 100.0), max(row.N, 1))
        try:
            slope = _fmt(rate_fit(pairs, window))
        except ValueError:
            slope = ""
        out.append((str(row.N), _fmt(row.gap) if row.finite else "",
                    _fmt(row.bound), _fmt(row.sum_gamma), slope))
    return out


# Trace buffer bytes of one group of seeds advanced together.
_GROUP_BYTES = 64 * 2 ** 20


def _seed_groups(bound, seeds):
    """The seeds in groups whose trace buffers stay within _GROUP_BYTES."""
    spec = bound.instance.spec
    per_seed = 8 * trace_rows(bound.cfg.horizon) * (spec.B.dim + spec.A.dim + 1)
    size = max(1, _GROUP_BYTES // per_seed)
    return [seeds[i:i + size] for i in range(0, len(seeds), size)]


def _error_fragment(seed, exc):
    return {"seed": seed, "status": "error", "error": "%s: %s" % (type(exc).__name__, exc),
            "terminal_dist_x": None, "terminal_dist_v": None, "wall_time_s": None,
            "gap": None}


def _usable_cores():
    """The cores this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(items, cores):
    """``items`` in at most ``cores`` contiguous shares, at most one per item."""
    k = min(cores, len(items))
    size, extra = divmod(len(items), k)
    ends = [i * size + min(i, extra) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(ends, ends[1:])]


def _fork_writer(write, share, inherited):
    """A forked worker that pickles ``write(share)`` to a pipe and exits
    (status 0 only when the whole pickle was written): (pid, read end).  It
    closes ``inherited``, the read ends of earlier workers, so that each pipe
    has the parent as its one reader.  None when the fork fails."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        for fd in inherited:
            os.close(fd)
        with os.fdopen(w, "wb") as fh:
            fh.write(pickle.dumps(write(share), pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _gather(workers):
    """Each worker's unpickled result, None for one that failed (a non-zero
    exit or a short pickle); every worker is reaped, and its read end is
    closed first, so that no worker blocks on a full pipe."""
    results = []
    try:
        while workers:
            pid, fd = workers.pop(0)
            try:
                with os.fdopen(fd, "rb") as fh:
                    data = fh.read()
            finally:
                status = os.waitpid(pid, 0)[1]
            try:
                results.append(pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0
                               else None)
            except (pickle.UnpicklingError, EOFError):  # a short pickle
                results.append(None)
    finally:
        for pid, fd in workers:
            os.close(fd)
            os.waitpid(pid, 0)
    return results


def _run_group(bound, seeds, out_dir, oracle_xv, c0):
    """Advance a group of seeds in one batched run, then write each seed's
    trace CSV (and gap CSV when K is available) and return its summary
    fragment.  ``c0`` is the experiment's noise constant, None when unknown.
    Any failure other than divergence ends only its seed, with status
    ``error`` and the message ``"<type>: <message>"``: a batch that raises is
    retried seed by seed.

    The artifacts are written on every usable core: the seeds are split into
    one contiguous share per core, the parent writes the first and one forked
    worker per other share writes its own, sharing the batch copy-on-write and
    returning its fragments through a pipe.  A worker that fails has its seeds
    written again by the parent, to the same bytes."""
    spec = bound.instance.spec
    try:
        t0 = time.perf_counter()
        batch = run(spec, bound.schedules, bound.oracle(seeds),
                    np.zeros((len(seeds), spec.B.dim)), np.zeros((len(seeds), spec.A.dim)),
                    bound.cfg.horizon, checkpoints=_resolve_checkpoints(bound.cfg),
                    grad_gap_reference=None if oracle_xv is None else oracle_xv[0])
        wall = time.perf_counter() - t0
    except Exception as exc:  # one seed's failure must not cost the others
        if len(seeds) == 1:
            return [_error_fragment(seeds[0], exc)]
        return [frag for seed in seeds
                for frag in _run_group(bound, [seed], out_dir, oracle_xv, c0)]

    def write(share):
        fragments = []
        for i, seed in share:
            try:
                fragments.append(_seed_artifacts(bound, seed, batch.seed(i), wall, out_dir,
                                                 oracle_xv, c0))
            except Exception as exc:
                fragments.append(_error_fragment(seed, exc))
        return fragments

    first, *rest = _shares(list(enumerate(seeds)), _usable_cores())
    workers = []
    try:
        for share in rest:
            workers.append(_fork_writer(write, share, [w[1] for w in workers if w]))
        fragments = write(first)
    except BaseException:
        _gather([w for w in workers if w])
        raise
    results = iter(_gather([w for w in workers if w]))
    for share, worker in zip(rest, workers):
        got = next(results) if worker else None
        fragments += write(share) if got is None else got
    return fragments


def _finite(value):
    """A distance for the summary: None when it overflowed, since strict JSON
    has no infinity."""
    return value if math.isfinite(value) else None


def _overflow(columns):
    """The DivergenceError message of the first trace row with a non-finite
    diagnostic, naming that row's first such column; None when all are finite."""
    bad = [(int(np.argmin(np.isfinite(col))), i) for i, col in enumerate(columns)
           if i and col is not None and not np.isfinite(col).all()]
    if not bad:
        return None
    row, i = min(bad)
    return str(DivergenceError(TRACE_COLUMNS[i], columns[0][row]))


def _seed_artifacts(bound, seed, record, wall, out_dir, oracle_xv, c0):
    """A seed that ran its whole horizon but whose trace diagnostics overflow
    is diverged too, with the first non-finite cell as its error.  The trace
    is computed and written a block of rows at a time; a diagnostic that
    raises leaves no trace file."""
    spec = bound.instance.spec
    error = record.error

    def blocks():
        nonlocal error
        for block in _row_blocks(record):
            columns = _trace_columns(bound, block, oracle_xv)
            error = error or _overflow(columns)
            yield columns

    path = os.path.join(out_dir, "seed_%d_trace.csv" % seed)
    try:
        _write_trace(path, blocks())
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        raise
    status = "ok" if error is None else "diverged"

    gap_rows = None
    if status == "ok" and record.checkpoints and oracle_xv is not None and c0 is not None:
        rows = _gap_rows(bound, record, oracle_xv, c0)
        _write_csv(os.path.join(out_dir, "seed_%d_gap.csv" % seed), GAP_COLUMNS,
                   _gap_csv_rows(rows))
        gap_rows = [(r.N, r.gap, r.bound, r.sum_gamma) for r in rows]

    dist_x = dist_v = None
    if oracle_xv is not None:
        x_ref, v_ref = oracle_xv
        dist_x = _finite(norm(record.terminal_x - x_ref, spec.primal_weights))
        dist_v = _finite(norm(record.terminal_v - v_ref, spec.dual_weights))
    return {
        "seed": seed,
        "status": status,
        "error": error,
        "terminal_dist_x": dist_x,
        "terminal_dist_v": dist_v,
        "wall_time_s": wall,
        "gap": gap_rows,
    }


@dataclass
class ExperimentResult:
    out_dir: str
    summary: dict
    exit_code: int


def run_experiment(cfg, out_dir=None, force=False, seed_override=None):
    """Execute a full experiment: validate, run every seed, write artifacts.

    Exit code semantics: 0 success, 1 any seed diverged or failed, 2
    config/hypothesis rejection (unless ``force``).
    """
    if isinstance(cfg, str):
        cfg = parse_config(cfg)
    cfg.validate()
    if seed_override is not None:
        cfg.seeds = (int(seed_override),)
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.perf_counter()
    bound = bind(cfg)
    cert = _gate(bound, cfg.horizon)
    cert_summary = {
        "ok": cert.ok,
        "regime": cert.regime,
        "failed": [c.name for c in cert.failed()],
    }
    if not cert.ok and not force:
        summary = {"certificate": cert_summary, "status": "rejected"}
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        return ExperimentResult(out_dir, summary, 2)

    with open(os.path.join(out_dir, "config.cfg"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))

    oracle_xv = (zoo_mod.oracle_solution(bound.instance)
                 if bound.instance.oracle is not None else None)
    c0 = (0.0 if cert.summability is None
          else cert.summability.noise_constant(bound.instance.spec.B.dim))
    seeds = sorted(set(int(s) for s in cfg.seeds))
    # A diverging seed overflows before the finiteness checks retire it, and
    # so do the diagnostics of its last trace rows (they read inf); its status
    # records the divergence, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        per_seed = [frag for group in _seed_groups(bound, seeds)
                    for frag in _run_group(bound, group, out_dir, oracle_xv, c0)]

    dists = [d["terminal_dist_x"] for d in per_seed if d["terminal_dist_x"] is not None]
    statuses = {d["status"] for d in per_seed}
    gap_mean_rows = _mean_gap(per_seed)
    if gap_mean_rows:
        _write_csv(os.path.join(out_dir, "gap_mean.csv"), GAP_COLUMNS, gap_mean_rows)

    summary = {
        "problem": cfg.problem,
        "problem_params": dict(cfg.problem_params),
        "horizon": cfg.horizon,
        "noise": cfg.noise_kind,
        "certificate": cert_summary,
        "seeds": {str(d["seed"]): {k: d[k] for k in ("status", "error", "terminal_dist_x",
                                                     "terminal_dist_v", "wall_time_s")}
                  for d in per_seed},
        "max_terminal_dist_x": max(dists) if dists else None,
        "status": ("ok" if statuses == {"ok"} else
                   "error" if "error" in statuses else "diverged"),
        "wall_time_s": time.perf_counter() - t0,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
    exit_code = 0 if summary["status"] == "ok" else 1
    return ExperimentResult(out_dir, summary, exit_code)


def _mean_gap(per_seed):
    """The seed-averaged gap table, as CSV rows; empty unless every gap table
    shares its checkpoints."""
    tables = [d["gap"] for d in per_seed if d.get("gap")]
    if not tables or any(len(t) != len(tables[0]) for t in tables):
        return []
    rows = []
    for group in zip(*tables):
        if len({g[0] for g in group}) != 1:
            return []
        gaps = [g[1] for g in group if math.isfinite(g[1])]
        mean = sum(gaps) / len(gaps) if gaps else math.nan
        rows.append(GapRow(group[0][0], mean, group[0][2], group[0][3], math.isfinite(mean)))
    return _gap_csv_rows(rows)
