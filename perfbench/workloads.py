"""The benchmark's workloads: inputs made from a workload seed, the work one
child process does, and the checks on its outputs.

Three workloads (see README.md for why each was chosen):

- ``lasso-seeds``: ``papc run`` on a generated c06-shaped lasso config with
  gaussian noise and 20 seeds;
- ``multi-composite``: ``papc run`` on a generated deterministic ``multi``
  config, one seed;
- ``fused-wide``: ``fused`` at dim 500 through the library path
  (``build_instance`` -> ``validate_hypotheses`` -> ``run`` ->
  ``kkt_residual``), because the CLI rejects its indeterminate certificate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

SIZES = {
    "lasso-seeds": {"dim": 5, "seeds": 20, "horizon": 2000},
    "multi-composite": {"dim": 6, "seeds": 1, "horizon": 20000},
    "fused-wide": {"dim": 500, "seeds": 1, "horizon": 8000},
}
NAMES = tuple(SIZES)
# Small enough for the self-test, large enough that every check still passes.
TINY_SIZES = {
    "lasso-seeds": {"dim": 5, "seeds": 2, "horizon": 800},
    "multi-composite": {"dim": 3, "seeds": 1, "horizon": 400},
    "fused-wide": {"dim": 30, "seeds": 1, "horizon": 2000},
}

# Correctness thresholds.  lasso: the c06 tolerance.  multi: the seed commit
# reads about 4e-16.  fused: the seed commit reads 3e-5 to 5e-4 at 8000
# steps over 40 data seeds (9e-5 on the zoo default); 5e-3 leaves a margin
# of ten over the largest.
DIST_TOL = {"lasso-seeds": 1e-2, "multi-composite": 1e-8}
FUSED_KKT_MAX = 5e-3
# solver.iters_to_tol: first trace row under these levels.
ITERS_DIST_TOL = 1e-2
ITERS_KKT_TOL = 1e-6

_LASSO_CFG = """\
[problem]
name = lasso
dim = {dim}
data_seed = {data_seed}

[noise]
kind = gaussian
sigma0 = 1.0
epsilon = 1.0
regime = almost-sure

[run]
horizon = {horizon}
seeds = {seeds}
checkpoints = log

[output]
dir = out
"""

_MULTI_CFG = """\
[problem]
name = multi
dim = {dim}
data_seed = {data_seed}

[noise]
kind = none

[run]
horizon = {horizon}
seeds = {seeds}
checkpoints = log

[output]
dir = out
"""


def make_spec(name, seed, sizes, rep_dir, traced, rep, spans_path=None):
    """The child's instructions for one repetition.  Inputs depend only on
    the workload, its sizes and the workload seed."""
    base = int(seed) % (2 ** 31)
    spec = {
        "workload": name,
        "seed": int(seed),
        "data_seed": base,
        "sizes": dict(sizes),
        "traced": bool(traced),
        "rep": int(rep),
        "out_dir": os.path.join(rep_dir, "out"),
        "spans_path": spans_path,
    }
    if name == "fused-wide":
        spec["seeds"] = [base]
        return spec
    seeds = [sizes["seeds"] * base + i for i in range(sizes["seeds"])]
    template = _LASSO_CFG if name == "lasso-seeds" else _MULTI_CFG
    text = template.format(dim=sizes["dim"], data_seed=base, horizon=sizes["horizon"],
                           seeds=" ".join(str(s) for s in seeds))
    spec["seeds"] = seeds
    spec["config_path"] = os.path.join(rep_dir, "workload.cfg")
    with open(spec["config_path"], "w", encoding="utf-8") as fh:
        fh.write(text)
    return spec


def seed_steps(spec):
    return spec["sizes"]["horizon"] * len(spec["seeds"])


# ---------------------------------------------------------------------------
# Child side: the work itself (imports papc)
# ---------------------------------------------------------------------------

def execute(spec):
    """Run one repetition.  Returns (exit_code, details, record), where the
    record is the fused run's RunRecord and None for the CLI workloads."""
    if spec["workload"] == "fused-wide":
        return _execute_fused(spec)
    from papc import cli
    code = cli.main(["run", "--config", spec["config_path"], "--out", spec["out_dir"]])
    return code, {}, None


def _execute_fused(spec):
    import numpy as np
    from papc import diagnostics, solver, zoo
    from papc.errors import DivergenceError
    from papc.runner import default_checkpoints
    from papc.stochastic import DeterministicOracle

    sizes = spec["sizes"]
    dim, horizon = sizes["dim"], sizes["horizon"]
    inst = zoo.build_instance("fused", {"dim": str(dim), "data_seed": str(spec["data_seed"])})
    cert = solver.validate_hypotheses(inst.spec, inst.schedules, horizon)
    details = {"certificate": cert.tau_certificate.status,
               "certificate_ok": bool(cert.ok)}
    try:
        record = solver.run(inst.spec, inst.schedules, DeterministicOracle(inst.spec.B),
                            np.zeros(inst.spec.B.dim), np.zeros(inst.spec.A.dim), horizon,
                            checkpoints=default_checkpoints(horizon))
    except DivergenceError as exc:
        details.update(finite=False, error=str(exc))
        return 1, details, None
    pres, dres = diagnostics.kkt_residual(record.terminal_x, record.terminal_v, inst.spec)
    digest = hashlib.sha256()
    for arr in (record.ns, record.xs, record.vs, record.gammas, record.taus):
        digest.update(np.ascontiguousarray(arr).tobytes())
    details.update(
        finite=bool(np.isfinite(record.xs).all() and np.isfinite(record.vs).all()),
        kkt=[float(pres), float(dres)], hash=digest.hexdigest())
    return 0, details, record


def iters_to_tol(spec, record):
    """First trace row meeting the workload's tolerance (the median over
    seeds); horizon + 1 for a seed that never meets it."""
    horizon = spec["sizes"]["horizon"]
    if spec["workload"] == "fused-wide":
        if record is None:
            return None
        from papc import diagnostics, zoo
        inst = zoo.build_instance("fused", {"dim": str(spec["sizes"]["dim"]),
                                            "data_seed": str(spec["data_seed"])})
        for k in range(len(record.ns)):
            if max(diagnostics.kkt_residual(record.xs[k], record.vs[k], inst.spec)) \
                    <= ITERS_KKT_TOL:
                return int(record.ns[k])
        return horizon + 1
    firsts = []
    for seed in spec["seeds"]:
        rows = _read_trace(os.path.join(spec["out_dir"], "seed_%d_trace.csv" % seed))
        first = horizon + 1
        for row in rows:
            if spec["workload"] == "lasso-seeds":
                hit = row["dist_x_oracle"] != "" and float(row["dist_x_oracle"]) <= ITERS_DIST_TOL
            else:
                hit = max(float(row["primal_res"]), float(row["dual_res"])) <= ITERS_KKT_TOL
            if hit:
                first = int(row["n"])
                break
        firsts.append(first)
    firsts.sort()
    return firsts[len(firsts) // 2] if firsts else None


def _read_trace(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


# ---------------------------------------------------------------------------
# Parent side: checks on one repetition's outputs (no papc import)
# ---------------------------------------------------------------------------

def check(spec, exit_code, details):
    """Per-operation outcomes and output hashes of one repetition.

    One operation is one seed (or the one fused run).  Returns
    ``(outcomes, hashes)``: outcomes maps the seed to None when every check
    passed and to the reason otherwise; hashes maps the seed to the sha256
    of its trace (the CSV, or the fused record's arrays).
    """
    if spec["workload"] == "fused-wide":
        return _check_fused(spec, exit_code, details)
    outcomes, hashes = {}, {}
    summary = None
    path = os.path.join(spec["out_dir"], "summary.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    tol = DIST_TOL[spec["workload"]]
    for seed in spec["seeds"]:
        entry = (summary or {}).get("seeds", {}).get(str(seed))
        dist = None if entry is None else entry.get("terminal_dist_x")
        if exit_code != 0:
            outcomes[seed] = "papc run exited with %r" % (exit_code,)
        elif entry is None:
            outcomes[seed] = "no summary entry"
        elif entry.get("status") != "ok":
            outcomes[seed] = "status %r" % (entry.get("status"),)
        elif dist is None or not math.isfinite(dist) or dist > tol:
            outcomes[seed] = "terminal_dist_x %r above %g" % (dist, tol)
        else:
            outcomes[seed] = None
        trace = os.path.join(spec["out_dir"], "seed_%d_trace.csv" % seed)
        if os.path.exists(trace):
            with open(trace, "rb") as fh:
                hashes[seed] = hashlib.sha256(fh.read()).hexdigest()
        elif outcomes[seed] is None:
            outcomes[seed] = "no trace CSV"
    return outcomes, hashes


def _check_fused(spec, exit_code, details):
    seed = spec["seeds"][0]
    kkt = details.get("kkt")
    if exit_code != 0:
        reason = "run failed: %s" % details.get("error", "exit %r" % (exit_code,))
    elif not details.get("finite"):
        reason = "non-finite iterates"
    elif kkt is None or not all(math.isfinite(k) for k in kkt) or max(kkt) > FUSED_KKT_MAX:
        reason = "terminal kkt residual %r above %g" % (kkt, FUSED_KKT_MAX)
    else:
        reason = None
    hashes = {seed: details["hash"]} if "hash" in details else {}
    return {seed: reason}, hashes


def csv_bytes(spec):
    """Bytes of CSV the runner wrote; None for the library workload."""
    if spec["workload"] == "fused-wide":
        return None
    out = spec["out_dir"]
    if not os.path.isdir(out):
        return 0
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
               if f.endswith(".csv"))
