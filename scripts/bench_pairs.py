"""Alternating before/after pairs of the benchmark, summarized in one file.

    python3 scripts/bench_pairs.py --workload multi-composite --pairs 10 \
        [--seed 0] [--seconds 40] [--trace 0] [--base HEAD] [--out BENCH_<workload>.json]

Extracts the committed files of ``--base`` (``git archive``, so the
repository's own git state is untouched) into a temporary directory and runs
``perfbench/run.py`` there and in the working tree, one after the other, for
``--pairs`` pairs; odd pairs run the working tree first.  Each side runs its
own checkout's unchanged benchmark.  The output file holds, per metric, each
side's values, median and quartiles, the number of pairs the working tree
won (in the direction ``BENCHMARK.json`` declares), the operations attempted
and failed, and the environment ``perfbench/run.py`` recorded.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, dest):
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_side(checkout, workload, seed, seconds, trace):
    """One benchmark run in ``checkout``: its last-line result and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("benchmark failed in %s:\n%s" % (checkout, proc.stderr))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = Path(checkout) / ".bench_run" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    env = json.loads(record.read_text(encoding="utf-8"))["environment"]
    return line, env


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def directions():
    """metric name -> "lower" | "higher", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(results, better):
    out = {}
    for name in results[0]["base"]["metrics"]:
        base = [r["base"]["metrics"][name]["value"] for r in results]
        change = [r["change"]["metrics"][name]["value"] for r in results]
        sign = 1.0 if better[name] == "higher" else -1.0
        base_q, change_q = quartiles(base), quartiles(change)
        out[name] = {
            "unit": results[0]["base"]["metrics"][name]["unit"],
            "better": better[name],
            "base": dict(base_q, values=base),
            "change": dict(change_q, values=change),
            "pairs_won": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "median_gain": (change_q["median"] - base_q["median"]) / base_q["median"]
                           if base_q["median"] else None,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    base_rev = git("rev-parse", args.base)
    out_path = Path(args.out or ROOT / ("BENCH_%s.json" % args.workload))
    results, env = [], None
    with tempfile.TemporaryDirectory() as tmp:
        extract(base_rev, tmp)
        sides = {"base": tmp, "change": str(ROOT)}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"order": list(order)}
            for side in order:
                pair[side], env = run_side(sides[side], args.workload, args.seed,
                                           args.seconds, args.trace)
            results.append(pair)
            print("pair %d: %s" % (i + 1, json.dumps(
                {side: {k: v["value"] for k, v in pair[side]["metrics"].items()}
                 for side in ("base", "change")})), flush=True)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "base": base_rev,
        "change": "working tree at %s%s" % (
            git("rev-parse", "HEAD"), " (uncommitted changes)" if git("status", "--porcelain") else ""),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "operations": {side: {"attempted": sum(r[side]["attempted"] for r in results),
                              "failed": sum(r[side]["failed"] for r in results)}
                       for side in ("base", "change")},
        "environment": env,
        "metrics": summarize(results, directions()),
    }
    out_path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for name, m in summary["metrics"].items():
        print("%-14s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  won %d/%d"
              % (name, m["base"]["median"], m["base"]["q1"], m["base"]["q3"],
                 m["change"]["median"], m["change"]["q1"], m["change"]["q3"],
                 m["pairs_won"], args.pairs))
    print("wrote %s" % out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
