import os
import re
import subprocess
import sys

import pytest

import papc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    """The stdout lines of one of the example scripts, which drive the library
    API directly; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(papc.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_deterministic_suite_runs():
    lines = run_script("run_deterministic_suite.py", "--horizon", "500")
    assert lines[0].split() == ["problem", "dist_to_ref", "kkt", "slope", "gap>bd", "seconds",
                                "cycle"]
    assert [line.split()[0] for line in lines[1:]] == ["cls", "lasso", "fused", "multi"]
    # no checkpoint's ergodic gap exceeds its bound on any problem
    assert [line.split()[4] for line in lines[1:]] == ["0", "0", "0", "0"]
    # the cycle replayed, as entry+period; multi's (511+56) lies past 500 steps
    assert [bool(re.fullmatch(r"\d+\+\d+", line.split()[6])) for line in lines[1:]] == [
        True, True, True, False]
    assert lines[-1].split()[6] == "-"


def test_stochastic_lasso_runs():
    lines = run_script("run_stochastic_lasso.py", "--seeds", "3", "--horizon", "500")
    assert lines[0] == ("noise certificate: certified "
                        "(polynomial decay: tail bounded by integral comparison)")
    assert [line.split(":")[0] for line in lines[1:5]] == [
        "seed  0", "seed  1", "seed  2", "max over seeds"]
    assert lines[6].split() == ["N", "mean_gap", "2se", "bound"]


RETIRING = """
[problem]
name = lasso

[schedules]
gamma0 = 2.2

[noise]
kind = gaussian
sigma0 = 1.0
epsilon = 1.0

[run]
horizon = 1120
seeds = 0 1
"""


def test_compare_outputs_runs_forced_single_seed_configs(tmp_path):
    # Past its certificate the config runs only with --force; with
    # --seed-override 1 only seed 1's trace is written (it diverges, so it
    # has no gap table).
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("compare_outputs.py compares against a git revision")
    cfg = tmp_path / "retiring.cfg"
    cfg.write_text(RETIRING)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "compare_outputs.py"),
                           "--base", "HEAD", "--force", "--seed-override", "1", str(cfg)],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode in (0, 1), proc.stderr
    csv_lines = [line.split(":")[0].strip() for line in proc.stdout.splitlines()
                 if ".csv:" in line]
    assert csv_lines == ["seed_1_trace.csv"], proc.stdout
    assert "no CSV written" not in proc.stdout
    assert "  config.cfg: identical" in proc.stdout.splitlines()
