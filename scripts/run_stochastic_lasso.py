#!/usr/bin/env python3
"""Multi-seed stochastic study on the lasso problem.

Every seed runs the algorithm under polynomially decaying gaussian noise,
all of them advanced together by one batched run; the script reports the
per-seed terminal distances to the enumeration oracle's solution and
compares the seed-averaged ergodic duality gap with its theoretical bound.
"""

import argparse
import math

import numpy as np

from papc.diagnostics import gap_and_bound
from papc.runner import default_checkpoints
from papc.solver import run
from papc.stochastic import GaussianOracle, VarianceSchedule, summability_certificate
from papc.zoo import build_instance, oracle_solution


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--horizon", type=int, default=10 ** 4)
    parser.add_argument("--sigma0", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=1.0)
    args = parser.parse_args()

    inst = build_instance("lasso", {})
    spec = inst.spec
    x_ref, v_ref = oracle_solution(inst)
    noise = VarianceSchedule.polynomial(args.sigma0, args.epsilon)
    report = summability_certificate(noise, inst.schedules, args.horizon, regime="ergodic")
    print("noise certificate: %s (%s)" % (report.status, "; ".join(report.messages)))

    c0 = report.noise_constant(spec.B.dim)
    cps = default_checkpoints(args.horizon)

    seeds = range(args.seeds)
    batch = run(spec, inst.schedules, GaussianOracle(spec.B, noise, seeds),
                np.zeros((len(seeds), spec.B.dim)), np.zeros((len(seeds), spec.A.dim)),
                args.horizon, checkpoints=cps)
    tables = []
    dists = []
    for i, seed in enumerate(seeds):
        rec = batch.seed(i)
        if rec.diverged:
            raise SystemExit("seed %d: %s" % (seed, rec.error))
        dists.append(float(np.linalg.norm(rec.terminal_x - x_ref)))
        tables.append(gap_and_bound(rec, spec, inst.schedules, (x_ref, v_ref), c0))
        print("seed %2d: terminal distance %.3e" % (seed, dists[-1]))
    print("max over seeds: %.3e" % max(dists))

    print("\n%8s %12s %12s %12s" % ("N", "mean_gap", "2se", "bound"))
    for k in range(len(cps)):
        gaps = np.array([t[k].gap for t in tables])
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        print("%8d %12.4e %12.4e %12.4e" % (tables[0][k].N, gaps.mean(), 2 * se,
                                            tables[0][k].bound))


if __name__ == "__main__":
    main()
