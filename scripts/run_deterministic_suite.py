#!/usr/bin/env python3
"""Deterministic sweep over the whole problem zoo.

Runs every zoo problem with its certified default schedules and zero noise,
then prints terminal distances to the reference solutions, KKT residuals,
the fitted log-log slope of the ergodic duality gap, the run's wall time and
the cycle its iterates entered, as ``entry+period`` (``-`` when the run
computed every step).
"""

import argparse
import time

import numpy as np

from papc.diagnostics import gap_and_bound, kkt_residual, rate_fit
from papc.runner import default_checkpoints
from papc.solver import run, validate_hypotheses
from papc.stochastic import DeterministicOracle
from papc.zoo import build_instance, oracle_solution


def run_problem(name, horizon):
    inst = build_instance(name, {})
    x_ref, v_ref = oracle_solution(inst)
    spec = inst.spec
    cert = validate_hypotheses(spec, inst.schedules, horizon)
    if not cert.ok:
        raise SystemExit("schedule certificate failed for %s: %s"
                         % (name, [c.name for c in cert.failed()]))
    t0 = time.perf_counter()
    rec = run(spec, inst.schedules, DeterministicOracle(spec.B), np.zeros(spec.B.dim),
              np.zeros(spec.A.dim), horizon, checkpoints=default_checkpoints(horizon))
    wall = time.perf_counter() - t0

    dist = float(np.linalg.norm(rec.terminal_x - x_ref))
    pres, dres = kkt_residual(rec.terminal_x, rec.terminal_v, spec)
    rows = gap_and_bound(rec, spec, inst.schedules, (x_ref, v_ref))
    slope = rate_fit([(r.N, r.gap) for r in rows if r.finite], (100, horizon))
    violations = sum(1 for r in rows if r.finite and r.gap > r.bound)
    return dist, max(pres, dres), slope, violations, wall, rec.cycle


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=10000)
    args = parser.parse_args()

    print("%-8s %12s %12s %8s %6s %8s %9s" % ("problem", "dist_to_ref", "kkt", "slope",
                                              "gap>bd", "seconds", "cycle"))
    for name in ("cls", "lasso", "fused", "multi"):
        dist, kkt, slope, violations, wall, cycle = run_problem(name, args.horizon)
        print("%-8s %12.3e %12.3e %8.2f %6d %8.2f %9s"
              % (name, dist, kkt, slope, violations, wall,
                 "-" if cycle is None else "%d+%d" % cycle))


if __name__ == "__main__":
    main()
