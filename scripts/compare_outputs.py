"""Compare the outputs of ``papc run`` and ``papc validate`` at a base revision
and in the working tree.

    python3 scripts/compare_outputs.py --base HEAD configs/*.cfg [--keep DIR]
        [--force] [--seed-override S]

Extracts the committed files of ``--base`` (``git archive``, as
``scripts/bench_pairs.py`` does) into a temporary directory, then runs both
commands on every config, once with that checkout's ``src`` and once with
the working tree's.  Both sides read the same config file and write to their
own output directory; ``--force`` and ``--seed-override S`` are passed to
``papc run`` on both sides, so a config past its certificate still runs.  For each CSV the run writes, it prints ``identical``
when the bytes agree, and otherwise the largest absolute difference in each
column (``text`` for a column whose cells differ but do not parse as
numbers).  It prints the exit codes when they differ and a diff of the
``papc validate`` output when that differs.  For the ``config.cfg`` the run
writes it prints ``identical`` or a unified diff.  ``summary.json`` is compared
without its non-stable fields, the experiment's and each seed's
``wall_time_s``: it prints ``identical``, or each differing dotted key with
both values.  The exit status is 0 when everything is identical and 1
otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, extract, git  # noqa: E402


def papc(checkout, *args):
    """Run the papc command line of ``checkout``: (exit code, stdout + stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    proc = subprocess.run([sys.executable, "-m", "papc.cli", *args], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def column_differences(base_text, change_text):
    """Per column, the largest absolute difference between two CSVs with the
    same header and row count; None when their shapes differ."""
    base_rows = [line.split(",") for line in base_text.splitlines()]
    change_rows = [line.split(",") for line in change_text.splitlines()]
    if (len(base_rows) != len(change_rows) or not base_rows
            or base_rows[0] != change_rows[0]):
        return None
    worst = {name: 0.0 for name in base_rows[0]}
    for b_row, c_row in zip(base_rows[1:], change_rows[1:]):
        if len(b_row) != len(c_row):
            return None
        for name, b, c in zip(base_rows[0], b_row, c_row):
            if b == c or worst[name] == "text":
                continue
            x, y = _number(b), _number(c)
            if x is None or y is None:
                worst[name] = "text"
            elif math.isfinite(x) and math.isfinite(y):
                worst[name] = max(worst[name], abs(x - y))
            else:
                worst[name] = math.inf
    return worst


def compare_dirs(base_dir, change_dir):
    """One line per CSV of either run; True when every CSV is identical."""
    names = sorted({p.name for p in Path(base_dir).glob("*.csv")}
                   | {p.name for p in Path(change_dir).glob("*.csv")})
    same = True
    for name in names:
        b, c = Path(base_dir) / name, Path(change_dir) / name
        if not b.exists() or not c.exists():
            print("  %s: only in %s" % (name, "change" if c.exists() else "base"))
            same = False
            continue
        b_text, c_text = b.read_text(encoding="utf-8"), c.read_text(encoding="utf-8")
        if b_text == c_text:
            print("  %s: identical" % name)
            continue
        same = False
        worst = column_differences(b_text, c_text)
        if worst is None:
            print("  %s: differs in header or row count" % name)
        else:
            print("  %s: %s" % (name, ", ".join(
                "%s %s" % (col, d if d == "text" else "%.3g" % d) for col, d in worst.items())))
    if not names:
        print("  no CSV written")
    return same


def stable_fields(summary, key=""):
    """The dotted keys and leaf values of a summary.json document, less the
    wall times."""
    if isinstance(summary, dict) and summary:
        return {k: v for name, item in summary.items()
                for k, v in stable_fields(item, key + "." + name if key else name).items()}
    unstable = key == "wall_time_s" or (key.startswith("seeds.") and key.endswith(".wall_time_s"))
    return {} if unstable else {key: summary}


def compare_summaries(base_dir, change_dir):
    """One line, or one per differing key; True when the summaries agree."""
    docs = []
    for out in (base_dir, change_dir):
        path = Path(out) / "summary.json"
        docs.append(stable_fields(json.loads(path.read_text(encoding="utf-8")))
                    if path.exists() else None)
    if docs[0] == docs[1]:
        print("  summary.json: %s" % ("identical" if docs[0] is not None else "not written"))
        return True
    if None in docs:
        print("  summary.json: only in %s" % ("change" if docs[0] is None else "base"))
        return False
    absent = "<absent>"
    for key in sorted(set(docs[0]) | set(docs[1])):
        b, c = docs[0].get(key, absent), docs[1].get(key, absent)
        if b != c:
            print("  summary.json %s: %r -> %r" % (key, b, c))
    return False


def print_diff(base_text, change_text):
    sys.stdout.writelines("    " + line for line in difflib.unified_diff(
        base_text.splitlines(True), change_text.splitlines(True), "base", "change"))


def compare_written_configs(base_dir, change_dir):
    """``identical``, or a unified diff of the config.cfg each run wrote;
    True when they agree."""
    texts = [path.read_text(encoding="utf-8") if path.exists() else None
             for path in (Path(base_dir) / "config.cfg", Path(change_dir) / "config.cfg")]
    if texts[0] == texts[1]:
        print("  config.cfg: %s" % ("identical" if texts[0] is not None else "not written"))
        return True
    if None in texts:
        print("  config.cfg: only in %s" % ("change" if texts[0] is None else "base"))
    else:
        print("  config.cfg: differs")
        print_diff(*texts)
    return False


def compare_config(base, config, out, run_args=()):
    print(config)
    same = True
    validated = {side: papc(checkout, "validate", "--config", config)
                 for side, checkout in (("base", base), ("change", ROOT))}
    if validated["base"] == validated["change"]:
        print("  validate: identical (exit %d)" % validated["base"][0])
    else:
        same = False
        print("  validate: exit %d -> %d" % (validated["base"][0], validated["change"][0]))
        print_diff(validated["base"][1], validated["change"][1])
    codes = {}
    for side, checkout in (("base", base), ("change", ROOT)):
        codes[side], _ = papc(checkout, "run", "--config", config,
                              "--out", str(out / side), *run_args)
    if codes["base"] != codes["change"]:
        same = False
        print("  run: exit %d -> %d" % (codes["base"], codes["change"]))
    same &= compare_dirs(out / "base", out / "change")
    same &= compare_written_configs(out / "base", out / "change")
    return compare_summaries(out / "base", out / "change") and same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--keep", default=None,
                        help="write the runs' outputs under this directory and keep them")
    parser.add_argument("--force", action="store_true",
                        help="run configs past their certificate")
    parser.add_argument("--seed-override", default=None, metavar="S",
                        help="run seed S alone")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)
    run_args = ["--force"] if args.force else []
    if args.seed_override is not None:
        run_args += ["--seed-override", args.seed_override]

    base_rev = git("rev-parse", args.base)
    print("base %s, change: the working tree" % base_rev)
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        extract(base_rev, base)
        outputs = Path(args.keep).resolve() if args.keep else Path(tmp) / "out"
        for i, config in enumerate(args.configs):
            same &= compare_config(base, str(Path(config).resolve()), outputs / str(i),
                                   run_args)
    print("all identical" if same else "differences found")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
