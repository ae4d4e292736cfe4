"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line printed per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import os
import time

import numpy as np
import pytest

from papc.composite import composite_dual_residuals
from papc.config import parse_config
from papc.diagnostics import fejer_tracker, gap_and_bound, kkt_residual, rate_fit
from papc.linop import (LinearMap, OrthoProjector, SpdOperator, certify_tau,
                        coupling_lambda_max, inner, norm)
from papc.monotone import (MonotoneBlock, box, box_support, inverse_resolvent, l1, singleton,
                           sq_dist, zero_prox)
from papc.runner import default_checkpoints, run_experiment
from papc.solver import Schedules, run, validate_hypotheses
from papc.stochastic import DeterministicOracle, GaussianOracle, VarianceSchedule, \
    summability_certificate
from papc.zoo import build_instance, oracle_solution

from checks import (PROX_LIBRARY, adjoint_consistency_check, firm_nonexpansiveness_check,
                    lift_flat_equivalence)

ZOO_NAMES = ("cls", "lasso", "fused", "multi")
HORIZON = 10 ** 4


def _report(num, title, ok, detail=""):
    print("ACCEPTANCE %02d [%s] %s%s" % (num, "PASS" if ok else "FAIL", title,
                                         (" :: " + detail) if detail else ""))
    assert ok, "criterion %d failed: %s %s" % (num, title, detail)


@pytest.fixture(scope="module")
def det_runs():
    """Certified deterministic runs with checkpoints on every zoo problem
    (composites run as their stacked spec, a single-block instance, so the
    Fejer and gap theory applies verbatim), plus wall times for the timed
    criteria."""
    out = {}
    cps = default_checkpoints(HORIZON)
    for name in ZOO_NAMES:
        inst = build_instance(name, {})
        x_ref, v_ref = oracle_solution(inst)
        spec, sched = inst.spec, inst.schedules
        cert = validate_hypotheses(spec, sched, HORIZON)
        t0 = time.perf_counter()
        rec = run(spec, sched, DeterministicOracle(spec.B), np.zeros(spec.B.dim),
                  np.zeros(spec.A.dim), HORIZON, checkpoints=cps, grad_gap_reference=x_ref)
        wall = time.perf_counter() - t0
        out[name] = dict(inst=inst, spec=spec, sched=sched, record=rec, cert=cert,
                         x_ref=x_ref, v_ref=v_ref, wall=wall)
    return out


def test_c01_operator_calculus_suite(rng):
    t0 = time.perf_counter()
    ok = True
    details = []

    # Projector invariants at 1e-10 (spec asks <= 1e-10 here; the per-module
    # tests hold the tighter 1e-12).
    projectors = [OrthoProjector.full(5),
                  OrthoProjector.from_basis(rng.standard_normal((5, 2))),
                  OrthoProjector.averaging(5, 1),
                  OrthoProjector.averaging(5, 1, block_weights=[0.4, 0.3, 0.1, 0.1, 0.1])]
    for P in projectors:
        for _ in range(100):
            x = rng.standard_normal(P.dim)
            y = rng.standard_normal(P.dim)
            px = P(x)
            ok &= norm(P(px) - px, P.weights) <= 1e-10 * (1 + norm(x, P.weights))
            ok &= abs(inner(px, y, P.weights) - inner(x, P(y), P.weights)) \
                <= 1e-10 * (1 + norm(x, P.weights) * norm(y, P.weights))

    # Adjoint consistency on dense, structured, and weighted maps.
    maps = [LinearMap.from_matrix(rng.standard_normal((4, 6))),
            LinearMap.from_matrix(np.array([[1.0, 2.0], [3.0, 4.0]])),
            build_instance("fused", {}).spec.L,
            build_instance("multi", {}).lifted.L]
    for L in maps:
        ok &= adjoint_consistency_check(L, 100, rng=3, tol=1e-10)

    # Firm nonexpansiveness of every shipped prox/resolvent, 200 pairs each.
    lib = PROX_LIBRARY(3)
    ops = []
    for name, f in lib.items():
        for lam in (0.1, 1.0, 10.0):
            ops.append(("prox:%s:%g" % (name, lam), lambda z, f=f, lam=lam: f.prox(lam, z)))
    blocks = [MonotoneBlock.zero(3),
              MonotoneBlock.from_linear(np.diag([0.5, 1.0, 2.0])),
              MonotoneBlock.from_prox(lib["l1"])]
    for i, A in enumerate(blocks):
        ops.append(("resolvent:%d" % i, lambda z, A=A: A.resolvent(0.7, z)))
        ops.append(("inv-resolvent:%d" % i, lambda z, A=A: inverse_resolvent(A, 0.7, z)))
    for name, op in ops:
        rep = firm_nonexpansiveness_check(op, 3, pairs=200, rng=5, tol=1e-10)
        if not rep.passed:
            ok = False
            details.append("firm nonexpansiveness failed: %s (%.2e)" % (name, rep.max_excess))

    # Moreau identity x = prox_{lam g*}(x) + lam prox_{g/lam}(x/lam), with the
    # conjugate prox cross-checked against independent closed forms.
    moreau_pairs = [(l1(0.8, 4), box(-0.8, 0.8, 4)),
                    (box(-0.3, 1.2, 4), box_support(-0.3, 1.2, 4)),
                    (zero_prox(4), singleton(0.0, dim=4)),
                    (sq_dist(np.zeros(4)), None)]
    for lam in (0.1, 1.0, 10.0):
        for g, gstar in moreau_pairs:
            for _ in range(50):
                x = 3.0 * rng.standard_normal(4)
                p_conj = inverse_resolvent(MonotoneBlock.from_prox(g), lam, x)
                recon = p_conj + lam * g.prox(1.0 / lam, x / lam)
                ok &= np.max(np.abs(recon - x)) <= 1e-10
                if gstar is not None:
                    ok &= np.max(np.abs(p_conj - gstar.prox(lam, x))) <= 1e-10

    wall = time.perf_counter() - t0
    ok &= wall < 10.0
    _report(1, "operator calculus suite", ok,
            "%.1fs%s" % (wall, ("; " + "; ".join(details)) if details else ""))


def test_c02_validate_tau_vs_dense_eig():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    margin = 1e-6
    factors = (0.3, 0.7, 0.95, 1.05, 1.5, 3.0)
    agree = True
    for trial in range(20):
        dim_h = int(rng.integers(2, 21))
        dim_g = int(rng.integers(2, 21))
        U = SpdOperator(0.2 + rng.random(dim_g), [1] * dim_g)
        L = LinearMap.from_matrix(rng.standard_normal((dim_g, dim_h)) / math.sqrt(dim_h))
        P = OrthoProjector.full(dim_h) if trial % 4 == 0 else \
            OrthoProjector.from_basis(rng.standard_normal((dim_h, max(1, dim_h // 2))))
        sym = np.diag(np.sqrt(U.diag)) @ L.to_dense() @ P.to_dense() @ \
            L.to_dense().T @ np.diag(np.sqrt(U.diag))
        lam = np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1]
        tau = factors[trial % len(factors)] / lam
        cert = certify_tau(coupling_lambda_max(U, L, P), tau, margin=margin)
        oracle_accept = tau * lam < 1.0 - margin
        agree &= (cert.status != "indeterminate") and (cert.ok == oracle_accept)
    wall = time.perf_counter() - t0
    _report(2, "step-size gate matches dense eigendecomposition", agree and wall < 5.0,
            "20 instances, %.2fs" % wall)


def test_c03_deterministic_convergence(det_runs):
    ok = True
    details = []
    for name in ("cls", "lasso"):
        data = det_runs[name]
        dist = norm(data["record"].terminal_x - data["x_ref"],
                    data["spec"].primal_weights)
        pres, dres = kkt_residual(data["record"].terminal_x, data["record"].terminal_v,
                                  data["spec"])
        ok &= dist <= 1e-8 and max(pres, dres) <= 1e-7
        ok &= data["wall"] < 30.0
        details.append("%s: dist=%.1e kkt=%.1e %.1fs" % (name, dist, max(pres, dres),
                                                         data["wall"]))
    _report(3, "deterministic convergence on cls and lasso", ok, "; ".join(details))


def test_c04_fejer_monotonicity(det_runs):
    ok = True
    details = []
    for name in ZOO_NAMES:
        data = det_runs[name]
        try:
            phis = fejer_tracker(data["record"], (data["x_ref"], data["v_ref"]), data["spec"],
                                 certificate=data["cert"], tol=1e-10)
            details.append("%s: phi0=%.2e" % (name, phis[0]))
        except Exception as exc:  # FejerViolationError or CertificateError
            ok = False
            details.append("%s: %s" % (name, exc))
    _report(4, "Fejer monotonicity over full deterministic runs", ok, "; ".join(details))


def test_c05_gradient_gap_summability(det_runs):
    ok = True
    details = []
    for name in ZOO_NAMES:
        rec = det_runs[name]["record"]
        sums = rec.grad_gap_partial
        total = sums[-1]
        cut_idx = np.searchsorted(rec.ns, int(0.9 * HORIZON))
        increment = total - sums[cut_idx]
        ratio = increment / total if total > 0 else 0.0
        ok &= ratio <= 1e-10
        details.append("%s: last-decile %.1e" % (name, ratio))
    _report(5, "gradient-gap partial sums plateau", ok, "; ".join(details))


def test_c06_almost_sure_convergence_proxy(tmp_path):
    text = """
[problem]
name = lasso

[noise]
kind = gaussian
sigma0 = 1.0
epsilon = 1.0
regime = almost-sure

[run]
horizon = 100000
seeds = %s
checkpoints = none

[output]
dir = out
""" % " ".join(str(s) for s in range(20))
    cfg = parse_config(text)
    t0 = time.perf_counter()
    res = run_experiment(cfg, out_dir=str(tmp_path / "as"))
    wall = time.perf_counter() - t0
    dists = [res.summary["seeds"][str(s)]["terminal_dist_x"] for s in range(20)]
    ok = res.exit_code == 0 and max(dists) <= 1e-2 and wall < 300.0
    _report(6, "20-seed stochastic runs all end near the solution", ok,
            "max dist %.2e, %.0fs" % (max(dists), wall))


def test_c07_ergodic_gap_bound(det_runs):
    ok = True
    details = []

    # Deterministic: pathwise gap <= bound at every checkpoint, on every zoo
    # problem, with c0 = 0.
    for name in ZOO_NAMES:
        data = det_runs[name]
        rows = gap_and_bound(data["record"], data["spec"], data["sched"],
                             (data["x_ref"], data["v_ref"]), c0=0.0)
        finite = [r for r in rows if r.finite]
        ok &= len(finite) == len(rows)
        ok &= all(r.gap >= -1e-10 and r.gap <= r.bound for r in finite)
        details.append("%s: %d checkpoints" % (name, len(rows)))

    # Fitted slope of the deterministic gap over N in [1e2, 1e4].
    for name in ("lasso", "cls"):
        data = det_runs[name]
        rows = gap_and_bound(data["record"], data["spec"], data["sched"],
                             (data["x_ref"], data["v_ref"]), c0=0.0)
        slope = rate_fit([(r.N, r.gap) for r in rows if r.finite], (100, 10 ** 4))
        ok &= slope <= -0.9
        details.append("%s slope %.2f" % (name, slope))

    # Stochastic: seed-averaged gap <= bound + 2 standard errors, 20 seeds.
    inst = build_instance("lasso", {})
    spec = inst.spec
    x_ref, v_ref = oracle_solution(inst)
    noise = VarianceSchedule.polynomial(1.0, 1.0)
    cps = default_checkpoints(2000)
    report = summability_certificate(noise, inst.schedules, 2000, regime="ergodic")
    c0 = report.noise_constant(spec.B.dim)
    tables = []
    for seed in range(20):
        rec = run(spec, inst.schedules, GaussianOracle(spec.B, noise, seed),
                  np.zeros(5), np.zeros(5), 2000, checkpoints=cps)
        tables.append(gap_and_bound(rec, spec, inst.schedules, (x_ref, v_ref), c0))
    for k in range(len(cps)):
        gaps = np.array([t[k].gap for t in tables])
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        ok &= gaps.mean() <= tables[0][k].bound + 2 * se
    details.append("stochastic: mean gap within bound + 2se on %d checkpoints" % len(cps))
    _report(7, "ergodic gap bound", ok, "; ".join(details))


def test_c08_product_space_equivalence(det_runs):
    inst = build_instance("multi", {})
    cp = inst.composite
    ok = True
    devs = []
    for seed in (0, 1, 2):
        dev = lift_flat_equivalence(cp, inst.schedules, seed, 100,
                                    noise=VarianceSchedule.polynomial(1.0, 1.0))
        devs.append(dev)
        ok &= dev <= 1e-12
    rec = run(inst.spec, inst.schedules, DeterministicOracle(cp.C),
              np.zeros(cp.base_dim), np.zeros(sum(cp.dual_dims)), HORIZON)
    combined, per_block = composite_dual_residuals(cp, rec.terminal_x, rec.terminal_v)
    ok &= combined <= 1e-6 and max(per_block) <= 1e-6
    _report(8, "product-space equivalence and dual structure", ok,
            "max dev %.1e; dual residuals %.1e / %.1e"
            % (max(devs), combined, max(per_block)))


def test_c09_gradient_finite_differences():
    rng = np.random.default_rng(99)
    ok = True
    details = []
    for name in ZOO_NAMES:
        inst = build_instance(name, {})
        h = inst.spec.h
        worst = 0.0
        for _ in range(10):
            x = 2.0 * rng.standard_normal(h.dim)
            grad = h.gradient(x)
            fd = np.empty_like(grad)
            for i in range(h.dim):
                step = 1e-6 * (1.0 + abs(x[i]))
                e = np.zeros(h.dim)
                e[i] = step
                fd[i] = (h.value(x + e) - h.value(x - e)) / (2 * step)
            rel = np.linalg.norm(fd - grad) / (1.0 + np.linalg.norm(grad))
            worst = max(worst, rel)
        ok &= worst <= 1e-6
        details.append("%s %.1e" % (name, worst))
    _report(9, "analytic gradients match central differences", ok, "; ".join(details))


def test_c10_reproducibility(tmp_path):
    text = """
[problem]
name = lasso

[noise]
kind = gaussian
sigma0 = 1.0
epsilon = 1.0

[run]
horizon = 2000
seeds = 0 1
checkpoints = log

[output]
dir = out
"""
    cfg = parse_config(text)
    r1 = run_experiment(cfg, out_dir=str(tmp_path / "one"))
    r2 = run_experiment(cfg, out_dir=str(tmp_path / "two"))
    ok = r1.exit_code == 0 and r2.exit_code == 0
    for fname in ("seed_0_trace.csv", "seed_1_trace.csv"):
        b1 = open(os.path.join(str(tmp_path / "one"), fname), "rb").read()
        b2 = open(os.path.join(str(tmp_path / "two"), fname), "rb").read()
        ok &= b1 == b2
    _report(10, "byte-identical trace CSVs across reruns", ok)
