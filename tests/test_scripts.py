import os
import subprocess
import sys

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
    assert lines[0].split() == ["problem", "dist_to_ref", "kkt", "slope", "gap>bd", "seconds"]
    assert [line.split()[0] for line in lines[1:]] == ["cls", "lasso", "fused", "multi"]


def test_stochastic_lasso_runs():
    lines = run_script("run_stochastic_lasso.py", "--seeds", "3", "--horizon", "500")
    assert lines[0] == ("noise certificate: certified "
                        "(polynomial decay: tail bounded by integral comparison)")
    assert [line.split(":")[0] for line in lines[1:5]] == [
        "seed  0", "seed  1", "seed  2", "max over seeds"]
    assert lines[6].split() == ["N", "mean_gap", "2se", "bound"]
