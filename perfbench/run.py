"""The papc benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a papc checkout.  Each repetition is a
fresh child process (``child.py``) with BLAS and OpenMP pinned to one
thread; repetitions run one at a time, closed loop, until ``--seconds`` is
spent (at least two).  With ``--trace 0`` every repetition is untraced and
the end-to-end metrics are reported; with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics from the traced ones are
reported, with the tracing overhead.  Every repetition's outputs are checked;
a seed that fails a check, or whose trace differs from the first
repetition's, counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, every repetition, the per-layer table) goes to
``.bench_run/<workload>-seed<N>-trace<T>.json`` and the traced spans to
``.bench_run/<workload>-seed<N>-spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PINNED_THREADS = "1"
# Whole-run guard: a run must exit well inside 180 s.
HARD_LIMIT_S = 165.0
# Two repetitions at least, so every run compares trace hashes.
MIN_REPS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_PER_CALL_US = (
    "linop.apply_us", "linop.adjoint_us", "linop.project_us", "linop.precond_us",
    "monotone.dual_resolvent_us", "stochastic.sample_us", "solver.step_us",
    "solver.step_self_us", "solver.ergodic_us", "composite.step_us",
    "composite.dual_residuals_us", "diagnostics.kkt_us",
)
PER_LAYER = (
    (("cli.startup_s", "s"), ("zoo.build_s", "s"), ("zoo.oracle_s", "s"),
     ("solver.validate_s", "s"), ("linop.power_iters", "count"),
     ("linop.cert_status", "code"), ("linop.dense_bytes_per_step", "bytes"))
    + tuple(pair for name in _PER_CALL_US for pair in ((name, "us"), (name + ".p99", "us")))
    + (("stochastic.samples", "count"), ("solver.loop_self_us", "us"),
       ("solver.steps", "count"), ("solver.iters_to_tol", "count"),
       ("solver.record_mb", "MB"), ("diagnostics.gap_s", "s"),
       ("runner.csv_bytes", "bytes"))
    + tuple((layer + ".self_s", "s") for layer in tracing.LAYERS)
    + (("trace.wall_ratio", "ratio"), ("trace.spans", "count"))
)
CERT_NAMES = {code: name for name, code in tracing.CERT_CODES.items()}


def child_env():
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = PINNED_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_rep(workload, seed, sizes, work_dir, k, traced, spans_path, timeout):
    """One child process: spawn, wait, check.  Returns the repetition record."""
    rep_dir = work_dir / ("rep%d" % k)
    rep_dir.mkdir(parents=True)
    spec = workloads.make_spec(workload, seed, sizes, str(rep_dir), traced, k,
                               str(spans_path) if traced else None)
    spec_path, result_path = rep_dir / "spec.json", rep_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(rep_dir / "child.log", "wb") as log:
        t_invoke = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), str(result_path), str(t_invoke)],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            cwd=str(rep_dir), env=child_env())
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_exit = time.monotonic_ns()

    rep = {"rep": k, "traced": traced, "child_exit": code}
    result = None
    if code == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    if result is None or result["t_first_iter"] is None:
        log_tail = (rep_dir / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        print("repetition %d failed (child exit %r):\n%s" % (k, code, log_tail),
              file=sys.stderr)
        rep["outcomes"] = {s: "child process failed" for s in spec["seeds"]}
        rep["hashes"] = {}
        return rep, None

    outcomes, hashes = workloads.check(spec, result["exit_code"], result["details"])
    wall = (t_exit - t_invoke) * 1e-9
    setup = (result["t_first_iter"] - t_invoke) * 1e-9
    rep.update(
        outcomes=outcomes, hashes=hashes, details=result["details"],
        wall_s=wall, setup_s=setup,
        work_wall_s=(result["t_end"] - t_invoke) * 1e-9,
        startup_s=(result["t_import"] - t_invoke) * 1e-9,
        steps_per_s=workloads.seed_steps(spec) / (wall - setup),
        peak_rss_mb=result["maxrss_kb"] * 1024 / 1e6,
        csv_bytes=workloads.csv_bytes(spec),
    )
    if traced:
        rep["layers"] = dict(result["layers"], **{"runner.csv_bytes": rep["csv_bytes"]})
        rep["absent"] = result["absent"]
        rep["cert_statuses"] = result["cert_statuses"]
    return rep, result["env"]


def flag_changed_hashes(reference, rep):
    """Fail each seed whose trace hash differs from its first repetition's."""
    for seed, digest in rep["hashes"].items():
        reference.setdefault(seed, digest)
        if digest != reference[seed] and rep["outcomes"].get(seed) is None:
            rep["outcomes"][seed] = "trace hash differs from the first repetition"


def measure(workload, seed, seconds, trace, sizes=None, out_root=None):
    """Run repetitions for ``seconds`` and summarise them."""
    sizes = sizes or workloads.SIZES[workload]
    out_root = Path(out_root or ROOT / ".bench_run")
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    work_dir = out_root / "work" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    spans_path = out_root / ("%s-seed%d-spans.npz" % (workload, seed))

    load_before = os.getloadavg()
    t0 = time.monotonic()
    reps, child_env_info = [], None
    reference_hashes = {}
    k = 0
    try:
        while True:
            traced = bool(trace) and k % 2 == 1
            same = [r["wall_s"] for r in reps if r["traced"] == traced and "wall_s" in r]
            estimate = statistics.median(same) if same else 0.0
            elapsed = time.monotonic() - t0
            if k >= MIN_REPS and elapsed + estimate > seconds:
                break
            if k >= 1 and elapsed + estimate > HARD_LIMIT_S:
                break
            rep, env = run_rep(workload, seed, sizes, work_dir, k, traced, spans_path,
                               HARD_LIMIT_S - elapsed)
            child_env_info = child_env_info or env
            flag_changed_hashes(reference_hashes, rep)
            reps.append(rep)
            shutil.rmtree(work_dir / ("rep%d" % k), ignore_errors=True)
            k += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_after = os.getloadavg()

    attempted = sum(len(r["outcomes"]) for r in reps)
    failures = [(r["rep"], s, why) for r in reps for s, why in r["outcomes"].items()
                if why is not None]
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced_reps = [r for r in reps if r["traced"] and "wall_s" in r]

    end_to_end = {name: median(r[name] for r in plain) for name, _ in END_TO_END}
    per_layer = {}
    for name, _ in PER_LAYER:
        per_layer[name] = median(r["layers"].get(name) for r in traced_reps)
    if traced_reps and plain:
        per_layer["trace.wall_ratio"] = (median(r["work_wall_s"] for r in traced_reps)
                                         / median(r["work_wall_s"] for r in plain))
    environment = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "pinned_threads": int(PINNED_THREADS),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    environment.update(child_env_info or {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "environment": environment,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {"untraced": len(plain), "traced": len(traced_reps)},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "absent": sorted({a for r in traced_reps for a in r["absent"]}),
        "cert_statuses": sorted({c for r in traced_reps for c in r["cert_statuses"]}),
        "repetitions": reps,
    }


def final_line(summary):
    """The last-line result object, or None when a metric could not be measured.

    Per-layer metrics that are absent on this workload (boundary gone, or
    never called) read 0 here; the report and the results file say "absent".
    """
    if summary["trace"]:
        names = PER_LAYER
        values = {name: summary["per_layer"].get(name) or 0 for name, _ in names}
        if summary["samples"]["traced"] == 0:
            return None
    else:
        names = END_TO_END
        values = summary["end_to_end"]
        if any(values[name] is None for name, _ in names):
            return None
    return {
        "correct": summary["failed"] == 0 and summary["attempted"] > 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def report(summary):
    """Human-readable lines for standard output."""
    env = summary["environment"]
    lines = [
        "papc benchmark: workload %s, seed %d, %g s, trace %d"
        % (summary["workload"], summary["seed"], summary["seconds"], summary["trace"]),
        "environment: %d cpus (%s), python %s, numpy %s, blas %s, %d thread, "
        "load %.2f -> %.2f"
        % (env["nproc"], env["cpu_model"], env["python"], env.get("numpy"), env.get("blas"),
           env["pinned_threads"], env["loadavg_before"][0], env["loadavg_after"][0]),
        "operations: %d attempted, %d failed" % (summary["attempted"], summary["failed"]),
    ]
    lines += ["  failed: repetition %d seed %s: %s" % f for f in summary["failures"]]
    n_plain, n_traced = summary["samples"]["untraced"], summary["samples"]["traced"]
    if not summary["trace"]:
        for name, unit in END_TO_END:
            value = summary["end_to_end"][name]
            lines.append("  %-14s %14.6g %-5s (median of %d)" % (name, value or 0, unit, n_plain))
        return lines
    lines.append("per-layer metrics (median of %d traced repetitions; "
                 "%d untraced for the overhead)" % (n_traced, n_plain))
    for name, unit in PER_LAYER:
        value = summary["per_layer"].get(name)
        if value is None:
            shown = "absent"
        elif name == "linop.cert_status":
            shown = CERT_NAMES.get(int(value), str(value))
        else:
            shown = "%.6g %s" % (value, unit)
        lines.append("  %-32s %s" % (name, shown))
    if summary["absent"]:
        lines.append("absent boundaries: " + ", ".join(summary["absent"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "papc" / "__init__.py").is_file():
        print("error: no papc sources at %s; run from a papc checkout" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    summary = measure(args.workload, args.seed, args.seconds, args.trace)
    line = final_line(summary)
    out_root = ROOT / ".bench_run"
    out_root.mkdir(exist_ok=True)
    with open(out_root / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, default=str)
    for text in report(summary):
        print(text)
    if line is None:
        print("error: no repetition produced every metric", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
