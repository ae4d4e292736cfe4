"""Config-driven experiment runner: multi-seed orchestration, per-seed trace
CSVs, gap tables, and a summary JSON, for a problem :mod:`papc.zoo` builds.

The seeds of an experiment are split into one contiguous share per usable
core, and each share runs in the process or in one forked worker, from its
first step to its last CSV line: one batched :func:`papc.solver.run` whose
sink computes the trace diagnostics and CSV lines of each block of rows as
it arrives.  Rows never mix, so each seed's outputs are those of a run of
that seed alone.  Trace and gap CSVs are byte-stable for a fixed config and
seed (floats are written with shortest round-trip repr and all randomness is
keyed by seed and iteration: the gaussian noise by (seed, block of
NOISE_BLOCK iterations), the minibatch draws by (seed, iteration)); the
summary JSON additionally records the wall time of the experiment and of
each seed's share, the intentionally non-stable fields.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import ExperimentConfig, parse_config, reads_input, serialize_config
from .diagnostics import GapRow, fejer_tracker, gap_and_bound, kkt_residual, rate_fit
from .errors import ConfigError, DivergenceError
from .linop import norm
from .solver import Schedules, run, validate_hypotheses
from .stochastic import DeterministicOracle, GaussianOracle, MinibatchOracle, VarianceSchedule
from . import zoo

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


@reads_input
def bind(cfg):
    """Materialize problem, schedules and noise model from a config; the
    problem, whatever its name, is the zoo registry's to build.  Values that
    do not parse or build (a bad number, an unknown kind, an unreadable
    matrix file, a dimension the problem cannot take) are config errors."""
    cfg.validate()
    inst = zoo.build_instance(cfg.problem, cfg.problem_params, cfg.base_dir)
    base = inst.schedules
    gamma0 = cfg.gamma0 if cfg.gamma0 is not None else base.gamma0
    tau_cap = cfg.tau_cap if cfg.tau_cap is not None else base.tau_cap
    sched = Schedules(base.beta, gamma_kind=cfg.gamma_kind, gamma0=gamma0,
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


def _constant_cell(col):
    """The one cell of a column whose values are all the same bits (gamma_n
    and tau_n under constant schedules); None otherwise.  Bits, not values:
    0.0 == -0.0, but their reprs differ."""
    bits = np.ascontiguousarray(col).view(np.int64)
    return repr(float(col[0])) if (bits == bits[0]).all() else None


def _write_rows(fh, columns):
    """Trace CSV lines from the columns of a block of rows: the integer ``n``
    column, then float arrays, or None for a column left empty.  A column
    bitwise constant over the block is formatted once."""
    fixed = [None if col is None else _constant_cell(col) for col in columns[1:]]
    cells = [map(str, columns[0].tolist())]
    cells += [itertools.repeat("") if col is None
              else itertools.repeat(cell) if cell is not None
              else map(repr, col.tolist())
              for col, cell in zip(columns[1:], fixed)]
    fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


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


def _error_fragment(seed, exc):
    return {"seed": seed, "status": "error", "error": "%s: %s" % (type(exc).__name__, exc),
            "terminal_dist_x": None, "terminal_dist_v": None, "wall_time_s": None,
            "cycle": None, "gap": None}


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


def _fork_writer(work, share, inherited):
    """A forked worker that pickles ``work(share)`` to a pipe and exits
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
            fh.write(pickle.dumps(work(share), pickle.HIGHEST_PROTOCOL))
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


def _run_seeds(bound, seeds, out_dir, oracle_xv, c0):
    """Every seed's summary fragment, in seed order, its files written.  The
    seeds are split into one contiguous share per usable core: the process
    runs the first share and one forked worker per other share runs its own,
    each from its first step to its last CSV line, and returns its fragments
    through a pipe.  A worker that fails has its share run again by the
    process, to the same bytes."""
    def work(share):
        return _run_share(bound, share, out_dir, oracle_xv, c0)

    first, *rest = _shares(seeds, _usable_cores())
    workers = []
    try:
        for share in rest:
            workers.append(_fork_writer(work, share, [w[1] for w in workers if w]))
        fragments = work(first)
    except BaseException:
        _gather([w for w in workers if w])
        raise
    results = iter(_gather([w for w in workers if w]))
    for share, worker in zip(rest, workers):
        got = next(results) if worker else None
        fragments += work(share) if got is None else got
    return fragments


def _run_share(bound, seeds, out_dir, oracle_xv, c0):
    """Advance a share of seeds in one batched run whose sink writes each
    seed's trace CSV a block of rows at a time, then write each seed's gap
    CSV (when K is available) and return its summary fragment.  ``c0`` is the
    experiment's noise constant, None when unknown.

    A seed that ran its whole horizon but whose trace diagnostics overflow is
    diverged too, with the first non-finite cell as its error.  Any failure
    other than divergence ends only its seed, with status ``error``, the
    message ``"<type>: <message>"`` and no trace file: a diagnostic that
    raises ends its seed in the sink, and a batch that raises is run again
    seed by seed, each rewriting its files from the start."""
    spec = bound.instance.spec
    t0 = time.perf_counter()
    paths = [os.path.join(out_dir, "seed_%d_trace.csv" % seed) for seed in seeds]
    files = {}  # seed index -> its open trace file, while the seed is written
    failed = {}  # seed index -> the exception that ended it
    overflow = [None] * len(seeds)
    last = [None] * len(seeds)  # the dist_x and dist_v cells of each seed's last row

    def discard(i):
        files.pop(i).close()
        os.remove(paths[i])

    def sink(block):
        for i in list(files):
            record = block.seed(i)
            if not len(record.ns):
                continue
            try:
                columns = _trace_columns(bound, record, oracle_xv)
                overflow[i] = overflow[i] or _overflow(columns)
                _write_rows(files[i], columns)
            except Exception as exc:
                failed[i] = exc
                discard(i)
            else:
                last[i] = [None if col is None else col[-1] for col in columns[6:8]]

    try:
        for i, path in enumerate(paths):
            files[i] = open(path, "w", encoding="utf-8")
            files[i].write(",".join(TRACE_COLUMNS) + "\n")
        batch = run(spec, bound.schedules, bound.oracle(seeds),
                    np.zeros((len(seeds), spec.B.dim)), np.zeros((len(seeds), spec.A.dim)),
                    bound.cfg.horizon, sink=sink, checkpoints=_resolve_checkpoints(bound.cfg),
                    grad_gap_reference=None if oracle_xv is None else oracle_xv[0])
    except BaseException as exc:
        for i in list(files):
            discard(i)
        if not isinstance(exc, Exception):
            raise
        if len(seeds) == 1:  # one seed's failure must not cost the others
            return [_error_fragment(seeds[0], exc)]
        return [frag for seed in seeds
                for frag in _run_share(bound, [seed], out_dir, oracle_xv, c0)]
    for fh in files.values():
        fh.close()
    wall = time.perf_counter() - t0

    fragments = []
    for i, seed in enumerate(seeds):
        if i in failed:
            fragments.append(_error_fragment(seed, failed[i]))
            continue
        try:
            fragments.append(_seed_fragment(bound, seed, batch.seed(i), overflow[i], last[i],
                                            wall, out_dir, oracle_xv, c0))
        except Exception as exc:
            os.remove(paths[i])
            fragments.append(_error_fragment(seed, exc))
    return fragments


def _finite(value):
    """A distance for the summary: None when it is not known or overflowed
    (strict JSON has no infinity)."""
    return value if value is not None and math.isfinite(value) else None


def _overflow(columns):
    """The DivergenceError message of the first trace row with a non-finite
    diagnostic, naming that row's first such column; None when all are finite."""
    bad = [(int(np.argmin(np.isfinite(col))), i) for i, col in enumerate(columns)
           if i and col is not None and not np.isfinite(col).all()]
    if not bad:
        return None
    row, i = min(bad)
    return str(DivergenceError(TRACE_COLUMNS[i], columns[0][row]))


def _seed_fragment(bound, seed, record, overflow, last, wall, out_dir, oracle_xv, c0):
    """The summary fragment of a seed whose trace is written, from its
    record's checkpoints, the first overflow of its trace and the oracle
    distances of its last row; its gap CSV is written when it is ``ok``."""
    error = record.error or overflow
    status = "ok" if error is None else "diverged"
    gap_rows = None
    if status == "ok" and record.checkpoints and oracle_xv is not None and c0 is not None:
        rows = gap_and_bound(record, bound.instance.spec, bound.schedules, oracle_xv, c0)
        _write_csv(os.path.join(out_dir, "seed_%d_gap.csv" % seed), GAP_COLUMNS,
                   _gap_csv_rows(rows))
        gap_rows = [(r.N, r.gap, r.bound, r.sum_gamma) for r in rows]
    return {
        "seed": seed,
        "status": status,
        "error": error,
        "terminal_dist_x": _finite(last[0]),
        "terminal_dist_v": _finite(last[1]),
        "wall_time_s": wall,
        "cycle": None if record.cycle is None else list(record.cycle),
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
    config/hypothesis rejection (unless ``force``).  A config error leaves
    no output directory: it is made once the config binds and is gated.
    """
    if isinstance(cfg, str):
        cfg = parse_config(cfg)
    cfg.validate()
    if seed_override is not None:
        cfg = replace(cfg, seeds=(int(seed_override),))
    t0 = time.perf_counter()
    bound = bind(cfg)
    cert = _gate(bound, cfg.horizon)
    out_dir = out_dir or cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create the output directory %r: %s" % (out_dir, exc)) from exc
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

    seeds = sorted(set(int(s) for s in cfg.seeds))
    try:
        oracle_xv = (zoo.oracle_solution(bound.instance)
                     if bound.instance.oracle is not None else None)
    except Exception as exc:
        # A reference that cannot be computed, or fails its self-check, ends
        # every seed: each is measured against it.
        per_seed = [_error_fragment(seed, exc) for seed in seeds]
    else:
        c0 = (0.0 if cert.summability is None
              else cert.summability.noise_constant(bound.instance.spec.B.dim))
        # A diverging seed overflows before the finiteness checks retire it,
        # and so do the diagnostics of its last trace rows (they read inf); its
        # status records the divergence, so numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            per_seed = _run_seeds(bound, seeds, out_dir, oracle_xv, c0)

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
                                                     "terminal_dist_v", "wall_time_s",
                                                     "cycle")}
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
