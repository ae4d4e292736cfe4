import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import papc
from papc import config, runner
from papc.cli import main as cli_main
from papc.config import (ExperimentConfig, parse_config, parse_prox_spec,
                         parse_projector_spec, parse_smooth_spec, serialize_config)
from papc.errors import ConfigError
from papc.monotone import quadratic_lipschitz
from papc.runner import default_checkpoints, run_experiment, validate_only

from checks import write_matrix

BASIC = """
[problem]
name = lasso

[schedules]
gamma_kind = constant
gamma0 = auto
tau_kind = constant
tau_cap = auto

[noise]
kind = gaussian
sigma0 = 1.0
epsilon = 1.0
regime = almost-sure

[run]
horizon = 500
seeds = 0 1
checkpoints = log

[output]
dir = out
"""


class TestConfigParsing:
    def test_round_trip_is_identity(self):
        cfg = parse_config(BASIC)
        again = parse_config(serialize_config(cfg))
        assert cfg == again
        assert serialize_config(cfg) == serialize_config(again)

    # Every key of every section set to a value other than its default.
    EVERY_KEY = """
[problem]
name = custom
dim = 3
h = sq_dist(b=0.5)
g = l1(weight=0.2)
L = identity
projector = full
sigma = 2

[schedules]
gamma_kind = harmonic_floor
gamma0 = 0.25
tau_kind = ramp
tau_cap = 0.5

[noise]
kind = minibatch
sigma0 = 2
epsilon = 0.5
regime = ergodic
batch_schedule = 3

[run]
horizon = 77
seeds = 4 5
checkpoints = 0 10 20

[output]
dir = results/every
"""

    def test_every_key_round_trips_to_pinned_text(self):
        cfg = parse_config(self.EVERY_KEY)
        text = serialize_config(cfg)
        assert text == (
            "[problem]\nname = custom\nL = identity\ndim = 3\ng = l1(weight=0.2)\n"
            "h = sq_dist(b=0.5)\nprojector = full\nsigma = 2\n\n"
            "[schedules]\ngamma_kind = harmonic_floor\ngamma0 = 0.25\ntau_kind = ramp\n"
            "tau_cap = 0.5\n\n"
            "[noise]\nkind = minibatch\nsigma0 = 2.0\nepsilon = 0.5\nregime = ergodic\n"
            "batch_schedule = 3\n\n"
            "[run]\nhorizon = 77\nseeds = 4 5\ncheckpoints = 0 10 20\n\n"
            "[output]\ndir = results/every\n")
        assert parse_config(text) == cfg
        defaults = ExperimentConfig()
        for name in ("problem", "gamma_kind", "gamma0", "tau_kind", "tau_cap", "noise_kind",
                     "sigma0_sq", "epsilon", "regime", "batch_schedule", "horizon", "seeds",
                     "checkpoints", "out_dir"):
            assert getattr(cfg, name) != getattr(defaults, name), name

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# top\n[problem]\nname = cls  # trailing\n\n[run]\nseeds = 3\n")
        assert cfg.problem == "cls"
        assert cfg.seeds == (3,)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nseeds = \n").validate()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[wat]\nx = 1\n")

    def test_explicit_checkpoints(self):
        cfg = parse_config("[run]\ncheckpoints = 1 10 100\n")
        assert cfg.checkpoints == (1, 10, 100)

    def test_problem_params_pass_through(self):
        cfg = parse_config("[problem]\nname = lasso\ndim = 4\nweight = 0.7\n")
        assert cfg.problem_params == {"dim": "4", "weight": "0.7"}

    @pytest.mark.parametrize("name,params", [
        ("lasso", "dim = 4\nweight = 0.7\ndata_seed = 2"),
        ("fused", "dim = 4\nweight = 0.7\ndata_seed = 2"),
        ("cls", "dim = 4\nsubspace_dim = 2\ndata_seed = 2"),
        ("multi", "dim = 4\ndata_seed = 2"),
        ("custom", "dim = 3\nh = zero\ng = zero\nL = identity\nprojector = full\nsigma = 1"),
        ("custom_composite", "dim = 3\nh = zero\nblock1.g = zero\nblock1.sigma = 1\n"
         "block1.omega = 0.5\nblock2.L = identity\nblock2.omega = 0.5"),
    ])
    def test_problem_accepts_its_own_keys(self, name, params):
        cfg = parse_config("[problem]\nname = %s\n%s\n" % (name, params))
        assert len(cfg.problem_params) == params.count("\n") + 1

    @pytest.mark.parametrize("name,params,key", [
        ("lasso", "dimm = 7", "dimm"),
        ("fused", "wieght = 5", "wieght"),
        ("cls", "weight = 1", "weight"),
        ("multi", "subspace_dim = 2", "subspace_dim"),
        ("custom", "sigmaa = 3", "sigmaa"),
        # block 3 without a block 2 was dropped
        ("custom_composite", "block1.g = zero\nblock1.omega = 1\nblock3.g = zero", "block3.g"),
        ("custom_composite", "block1.g = zero\nblock1.omega = 1\nblock2.sigma = 2",
         "block2.sigma"),
        ("custom_composite", "block0.g = zero", "block0.g"),
    ])
    def test_problem_rejects_keys_it_does_not_read(self, name, params, key):
        with pytest.raises(ConfigError, match=r"^\[problem\] %s: unknown key '%s' \(accepted: "
                           % (name, re.escape(key))):
            parse_config("[problem]\nname = %s\n%s\n" % (name, params))

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 4: key 'horizon' repeated in \[run\]$"):
            parse_config("[run]\nhorizon = 100\n\nhorizon = 7\n")
        # in a section given twice, too
        with pytest.raises(ConfigError, match=r"^line 6: key 'seeds' repeated in \[run\]$"):
            parse_config("[run]\nseeds = 0\n[output]\ndir = o\n[run]\nseeds = 1\n")


class TestProxSpecs:
    def test_l1_tag(self):
        f = parse_prox_spec("l1(weight=0.5)", 3)
        assert f.prox(1.0, np.array([2.0, -0.2, 1.0]))[0] == pytest.approx(1.5)

    def test_box_tag(self):
        f = parse_prox_spec("box(lo=-1, hi=1)", 2)
        np.testing.assert_allclose(f.prox(1.0, np.array([5.0, -3.0])), [1.0, -1.0])

    def test_quadratic_tag(self, tmp_path):
        write_matrix(tmp_path / "D.txt", np.eye(2))
        write_matrix(tmp_path / "a.txt", np.array([[1.0], [2.0]]))
        f = parse_prox_spec("quadratic(D=D.txt, a=a.txt)", 2, base_dir=str(tmp_path))
        np.testing.assert_allclose(f.gradient(np.zeros(2)), [-1.0, -2.0])

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            parse_prox_spec("mystery()", 2)

    @pytest.mark.parametrize("tag,key", [
        ("zero(weight=1)", "weight"), ("l1(lo=x)", "lo"), ("box(weight=1)", "weight"),
        ("box_support(low=0)", "low"), ("singleton(b=0)", "b"), ("sq_dist(c=0)", "c"),
        ("quadratic(D=D.txt, a=a.txt, c=1)", "c")])
    def test_tag_rejects_keys_outside_its_own(self, tmp_path, tag, key):
        name = tag.split("(")[0]
        with pytest.raises(ConfigError, match="prox tag %s: unknown key '%s'" % (name, key)):
            parse_prox_spec(tag, 2, base_dir=str(tmp_path))

    def test_quadratic_tag_accepts_both_spellings(self, tmp_path):
        write_matrix(tmp_path / "D.txt", np.eye(2))
        write_matrix(tmp_path / "a.txt", np.array([[1.0], [2.0]]))
        for tag in ("quadratic(D=D.txt, a=a.txt)", "quadratic(A=D.txt, b=a.txt)",
                    "quadratic(A=D.txt, a=a.txt)"):
            f = parse_prox_spec(tag, 2, base_dir=str(tmp_path))
            np.testing.assert_allclose(f.gradient(np.zeros(2)), [-1.0, -2.0])

    def test_smooth_quadratic_reads_each_file_once(self, tmp_path, monkeypatch):
        D = np.array([[2.0, 1.0], [0.0, 1.0]])
        write_matrix(tmp_path / "D.txt", D)
        write_matrix(tmp_path / "a.txt", np.array([[1.0], [2.0]]))
        read, paths = config.read_matrix, []
        monkeypatch.setattr(config, "read_matrix", lambda path: paths.append(path) or read(path))
        f, lipschitz = parse_smooth_spec("quadratic(D=D.txt, a=a.txt)", 2, str(tmp_path))
        assert len(paths) == 2
        assert lipschitz == quadratic_lipschitz(D)
        np.testing.assert_allclose(f.gradient(np.zeros(2)), -D.T @ [1.0, 2.0])


class TestProjectorSpecs:
    def test_full(self):
        P = parse_projector_spec("full", 3)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(P(x), x)

    def test_matrix_and_basis(self, tmp_path):
        basis = np.array([[1.0], [0.0]])
        write_matrix(tmp_path / "b.txt", basis)
        P = parse_projector_spec("basis:b.txt", 2, base_dir=str(tmp_path))
        np.testing.assert_allclose(P(np.array([3.0, 4.0])), [3.0, 0.0])
        write_matrix(tmp_path / "p.txt", basis @ basis.T)
        P2 = parse_projector_spec("matrix:p.txt", 2, base_dir=str(tmp_path))
        np.testing.assert_allclose(P2(np.array([3.0, 4.0])), [3.0, 0.0])

    def test_averaging(self):
        P = parse_projector_spec("averaging:2", 4)
        np.testing.assert_allclose(P(np.array([1.0, 0.0, 3.0, 0.0])), [2.0, 0.0, 2.0, 0.0])

    def test_unknown(self):
        with pytest.raises(ConfigError):
            parse_projector_spec("diag:3", 3)


class TestRunner:
    def test_checkpoint_grid(self):
        cps = default_checkpoints(1000)
        assert cps[0] == 0 and cps[-1] == 999
        assert len(cps) >= 30

    def test_artifacts_and_reproducibility(self, tmp_path):
        cfg = parse_config(BASIC)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        r1 = run_experiment(cfg, out_dir=out1)
        r2 = run_experiment(cfg, out_dir=out2)
        assert r1.exit_code == 0 and r2.exit_code == 0
        for fname in ("seed_0_trace.csv", "seed_1_trace.csv", "seed_0_gap.csv",
                      "gap_mean.csv", "config.cfg"):
            b1 = open(os.path.join(out1, fname), "rb").read()
            b2 = open(os.path.join(out2, fname), "rb").read()
            assert b1 == b2, fname
        summary = json.load(open(os.path.join(out1, "summary.json")))
        assert summary["status"] == "ok"
        assert set(summary["seeds"]) == {"0", "1"}

    def test_trace_schema(self, tmp_path):
        cfg = parse_config(BASIC)
        res = run_experiment(cfg, out_dir=str(tmp_path / "t"))
        header = open(os.path.join(res.out_dir, "seed_0_trace.csv")).readline().strip()
        assert header == ("n,gamma_n,tau_n,primal_res,dual_res,fejer_phi,"
                          "dist_x_oracle,dist_v_oracle,grad_gap_partial_sum")

    def test_gap_schema(self, tmp_path):
        cfg = parse_config(BASIC)
        res = run_experiment(cfg, out_dir=str(tmp_path / "t"))
        header = open(os.path.join(res.out_dir, "seed_0_gap.csv")).readline().strip()
        assert header == "N,gap,bound,sum_gamma,slope_window"

    def test_seed_override_leaves_the_config_alone(self, tmp_path):
        cfg = parse_config(BASIC.replace("horizon = 500", "horizon = 20"))
        run_experiment(cfg, out_dir=str(tmp_path / "a"), seed_override=5)
        assert cfg.seeds == (0, 1)
        assert sorted(run_experiment(cfg, out_dir=str(tmp_path / "b")).summary["seeds"]) == [
            "0", "1"]

    def test_rejected_schedule_exit_2(self, tmp_path):
        text = BASIC.replace("gamma0 = auto", "gamma0 = 100.0")
        res = run_experiment(parse_config(text), out_dir=str(tmp_path / "r"))
        assert res.exit_code == 2

    def test_force_overrides_rejection(self, tmp_path):
        text = BASIC.replace("gamma0 = auto", "gamma0 = 100.0").replace(
            "horizon = 500", "horizon = 5")
        res = run_experiment(parse_config(text), out_dir=str(tmp_path / "f"), force=True)
        assert res.exit_code in (0, 1)  # runs; may diverge, must not be rejected

    def test_validate_only(self):
        cert = validate_only(parse_config(BASIC))
        assert cert.ok

    def test_cls_deterministic_summary_reaches_oracle(self, tmp_path):
        text = """
[problem]
name = cls

[run]
horizon = 10000
seeds = 0
checkpoints = none
"""
        res = run_experiment(parse_config(text), out_dir=str(tmp_path / "cls"))
        assert res.exit_code == 0
        assert res.summary["max_terminal_dist_x"] <= 1e-8


class TestCustomProblems:
    def _write_data(self, tmp_path):
        rng = np.random.default_rng(0)
        write_matrix(tmp_path / "D.txt", np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
        write_matrix(tmp_path / "a.txt", rng.standard_normal((3, 1)))

    def test_custom_single_runs(self, tmp_path):
        self._write_data(tmp_path)
        text = """
[problem]
name = custom
dim = 3
h = quadratic(A=D.txt, b=a.txt)
g = l1(weight=0.4)
L = identity
projector = full
sigma = 1.0

[run]
horizon = 300
seeds = 0
"""
        cfg = parse_config(text, base_dir=str(tmp_path))
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert res.exit_code == 0
        # oracle-relative columns are empty for custom problems
        row = open(os.path.join(res.out_dir, "seed_0_trace.csv")).read().splitlines()[1]
        assert row.endswith(",,,")

    def test_custom_composite_runs(self, tmp_path):
        self._write_data(tmp_path)
        text = """
[problem]
name = custom_composite
dim = 3
h = quadratic(A=D.txt, b=a.txt)
block1.g = l1(weight=0.3)
block1.L = identity
block1.omega = 0.6
block1.sigma = 1.0
block2.g = box_support(lo=-0.5, hi=0.5)
block2.L = identity
block2.omega = 0.4
block2.sigma = 1.0

[run]
horizon = 200
seeds = 0
"""
        cfg = parse_config(text, base_dir=str(tmp_path))
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert res.exit_code == 0

    def test_minibatch_noise_from_config(self, tmp_path, capsys):
        # A batch of 2 of lasso's 5 rows leaves variance that does not
        # vanish: the ergodic regime runs it on its finite-horizon sum.
        text = """
[problem]
name = lasso

[noise]
kind = minibatch
batch_schedule = 2
regime = ergodic

[run]
horizon = 200
seeds = 0
"""
        res = run_experiment(parse_config(text), out_dir=str(tmp_path / "mb"))
        assert res.exit_code == 0
        # The almost-sure regime needs summable noise, so the gate rejects a
        # partial batch: on fused (batch 4 of 12 rows, each drawn coordinate
        # scaled by 3) every seed's primal_res reaches inf by step 3000, and
        # the run used to report every seed ok.
        cfg_path = tmp_path / "fused.cfg"
        cfg_path.write_text("[problem]\nname = fused\n\n[noise]\nkind = minibatch\n"
                            "batch_schedule = 4\nregime = almost-sure\n\n"
                            "[run]\nhorizon = 3000\nseeds = 0 1 2\n")
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr().out
        assert ("[FAIL] noise summability - status violation: a batch of 4 of 12 rows "
                "leaves variance that does not vanish") in captured
        assert "failed condition: noise summability" in captured
        with open(out / "summary.json", encoding="utf-8") as fh:
            assert json.load(fh)["status"] == "rejected"
        # The ergodic regime runs it.  No step goes non-finite, but the trace
        # diagnostics overflow, so every seed is diverged.
        cfg_path.write_text(cfg_path.read_text().replace("almost-sure", "ergodic"))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        with open(out / "summary.json", encoding="utf-8") as fh:
            seeds = json.load(fh)["seeds"]
        assert {s: (d["status"], d["error"]) for s, d in seeds.items()} == {
            s: ("diverged", "non-finite values in grad_gap_partial_sum at iteration %d" % n)
            for s, n in (("0", 1806), ("1", 1915), ("2", 1922))}

    def test_minibatch_full_batch_matches_deterministic(self, tmp_path):
        batch = """
[problem]
name = lasso

[noise]
kind = minibatch
batch_schedule = 5

[run]
horizon = 100
seeds = 0
"""
        plain = batch.replace("kind = minibatch\nbatch_schedule = 5", "kind = none")
        r1 = run_experiment(parse_config(batch), out_dir=str(tmp_path / "b"))
        r2 = run_experiment(parse_config(plain), out_dir=str(tmp_path / "p"))
        assert validate_only(parse_config(batch)).checks[-1].detail == (
            "status certified: full batch of 5 rows: the exact gradient")
        d1 = r1.summary["seeds"]["0"]["terminal_dist_x"]
        d2 = r2.summary["seeds"]["0"]["terminal_dist_x"]
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_custom_rejects_nonsmooth_h(self, tmp_path):
        text = """
[problem]
name = custom
dim = 2
h = l1(weight=1.0)
g = zero
"""
        with pytest.raises(ConfigError):
            run_experiment(parse_config(text, base_dir=str(tmp_path)),
                           out_dir=str(tmp_path / "x"))


def _reject_constant(name):
    raise ValueError("summary.json holds %s" % name)


class TestCli:
    def test_zoo_list(self, capsys):
        assert cli_main(["zoo", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("cls", "lasso", "fused", "multi", "custom", "custom_composite"):
            assert name in out

    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASIC)
        assert cli_main(["validate", "--config", str(cfg_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_rejects(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASIC.replace("gamma0 = auto", "gamma0 = 100.0"))
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2

    def test_run_with_seed_override(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASIC.replace("horizon = 500", "horizon = 50"))
        out = str(tmp_path / "out")
        code = cli_main(["run", "--config", str(cfg_path), "--out", out,
                         "--seed-override", "7"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "seed_7_trace.csv"))

    def test_zero_gamma_composite_rejected(self, tmp_path, capsys):
        # gamma0 = 0 in the ergodic regime passed validation on composites and
        # then crashed the run with a ZeroDivisionError in the step.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = multi\n\n[schedules]\ngamma0 = 0.0\n\n"
                            "[noise]\nkind = none\nregime = ergodic\n\n"
                            "[run]\nhorizon = 20\nseeds = 0\n")
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] gamma positive" in captured.out
        assert "failed condition: gamma positive" in captured.out
        assert "Traceback" not in captured.out + captured.err
        with open(out / "summary.json", encoding="utf-8") as fh:
            assert json.load(fh)["status"] == "rejected"

    # (section, entries, what the message must say beyond "config error").
    OUT_OF_RANGE = [
        ("noise", "kind = gaussian\nsigma0 = -1", ""),
        ("schedules", "tau_cap = -1", ""),
        ("schedules", "tau_cap = 0", ""),
        ("noise", "kind = minibatch\nbatch_schedule = -1", ""),
        ("noise", "kind = gaussian\nepsilon = -1", ""),
        ("run", "horizon = abc", "config error: [run] horizon: invalid literal"),
        ("noise", "kind = gaussian\nsigma0 = abc", "config error: [noise] sigma0: could not"),
        ("schedules", "gamma_kind = bogus", ""),
        ("schedules", "tau_kind = bogus", ""),
        ("problem", "dim = x", "config error: [problem] dim: invalid literal"),
        ("problem", "name = fused\ndim = 1", "config error: [problem] dim: must be at least 2"),
        ("problem", "name = fused\ndim = 0", "config error: [problem] dim: must be at least 2"),
        ("problem", "name = lasso\ndim = 0", "config error: [problem] dim: must be at least 1"),
        ("problem", "name = cls\ndim = 0", "config error: [problem] dim: must be at least 1"),
        ("problem", "name = multi\ndim = 0", "config error: [problem] dim: must be at least 2"),
        ("problem", "name = multi\ndim = 1", "config error: [problem] dim: must be at least 2"),
        ("problem", "name = custom\ndim = 0", "config error: [problem] dim: must be at least 1"),
        ("problem", "name = custom_composite\ndim = 0",
         "config error: [problem] dim: must be at least 1"),
        ("run", "checkpoints = -1 10 20", "config error: checkpoints must be nonnegative"),
        ("run", "checkpoints = 10 100 200",
         "config error: [run] checkpoints: 200 is not below the horizon 20"),
        ("problem", "name = custom\nh = sq_dist(b=0.0)\ng = l1(weight=abc)",
         "config error: prox tag l1: weight: could not convert string to float: 'abc'"),
        ("problem", "name = custom\nh = sq_dist(b=0.0)\ng = box(lo=0, hi=z)",
         "config error: prox tag box: hi: could not convert"),
        ("problem", "name = custom\nh = sq_dist(b=0.0)\nprojector = averaging:abc",
         "config error: projector 'averaging:abc': the number of copies: invalid literal"),
        # A key the tag does not accept once ran the tag's default.
        ("problem", "name = custom\nh = sq_dist(b=0.0)\ng = l1(lo=x)",
         "config error: prox tag l1: unknown key 'lo' (accepted: weight)"),
        ("problem", "name = custom\nh = sq_dist(bb=0.0)",
         "config error: prox tag sq_dist: unknown key 'bb' (accepted: b)"),
        ("schedules", "gamma0 = x", "config error: [schedules] gamma0: could not"),
        ("run", "seeds = 0 x", "config error: [run] seeds: invalid literal"),
        ("problem", "name = custom\nh = sq_dist(b=0.0)\nprojector = averaging:0",
         "config error: projector 'averaging:0': the number of copies must be at least 1"),
        ("problem", "name = custom\nh = sq_dist(b=0.0)\nprojector = averaging:-2",
         "config error: projector 'averaging:-2': the number of copies must be at least 1"),
        # Every comparison with NaN is False, so a NaN weight once passed the check.
        ("problem", "name = custom_composite\nh = sq_dist(b=0.5)\nblock1.g = l1(weight=0.3)\n"
         "block1.omega = nan\nblock2.g = sq_dist(b=0.1)\nblock2.omega = 1.0",
         "config error: weights must lie in (0,1] and sum to 1"),
        # A misspelt key was once dropped, and the run took the key's default.
        ("schedules", "gama_kind = harmonic", "config error: [schedules]: unknown key "
         "'gama_kind' (accepted: gamma_kind, gamma0, tau_kind, tau_cap)"),
        ("noise", "regim = ergodic", "config error: [noise]: unknown key 'regim' "
         "(accepted: kind, sigma0, epsilon, regime, batch_schedule)"),
        ("run", "horizn = 50",
         "config error: [run]: unknown key 'horizn' (accepted: horizon, seeds, checkpoints)"),
        ("output", "dirr = elsewhere",
         "config error: [output]: unknown key 'dirr' (accepted: dir)"),
        # NaN weights and bounds once passed "w < 0" and "lo > hi".
        ("problem", "name = fused\nweight = nan", "config error: l1 weight must be nonnegative"),
        ("problem", "name = lasso\nweight = nan", "config error: l1 weight must be nonnegative"),
        ("problem", "name = custom\nh = sq_dist(b=0.0)\ng = box(lo=nan, hi=1)",
         "config error: box bounds must satisfy lo <= hi elementwise"),
        ("problem", "name = custom\nh = sq_dist(b=0.0)\ng = box_support(lo=0, hi=nan)",
         "config error: box bounds must satisfy lo <= hi elementwise"),
        ("problem", "name = cls\nsubspace_dim = 0",
         "config error: [problem] subspace_dim: must be at least 1"),
        ("problem", "name = cls\nsubspace_dim = -1",
         "config error: [problem] subspace_dim: must be at least 1"),
        # A subspace wider than the space once passed, and ran on the full space.
        ("problem", "name = cls\ndim = 4\nsubspace_dim = 50",
         "config error: [problem] subspace_dim: must be at most dim (4)"),
        # numpy's own message for a negative seed named no key.
        ("problem", "name = lasso\ndata_seed = -1",
         "config error: [problem] data_seed: must be at least 0"),
    ]

    @pytest.mark.parametrize("section,entries,cause", OUT_OF_RANGE,
                             ids=["%s-%s" % case[:2] for case in OUT_OF_RANGE])
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, section, entries, cause):
        cfg_path = tmp_path / "c.cfg"
        # The entries replace the defaults of the keys they set (a key may
        # appear once in a section).
        sections = {"problem": ["name = lasso"], "run": ["horizon = 20", "seeds = 0"]}
        lines = entries.split("\n")
        given = {line.split("=")[0].strip() for line in lines}
        sections[section] = [line for line in sections.get(section, [])
                             if line.split("=")[0].strip() not in given] + lines
        cfg_path.write_text("".join("[%s]\n%s\n\n" % (name, "\n".join(body))
                                    for name, body in sections.items()))
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert cause in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("matrix,cause", [
        (None, "No such file"),  # the --config file itself is missing
        ("absent.txt", "absent.txt"),
        ("headerless.txt", "expected 0 entries, found 7"),
        # eigvalsh returns finite eigenvalues for a matrix with a NaN entry.
        ("nan.txt", "config error: the coupling spectrum is not finite"),
    ])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, matrix, cause):
        cfg_path = tmp_path / "c.cfg"
        (tmp_path / "headerless.txt").write_text("1 0 0\n0 1 0\n0 0 1\n")
        (tmp_path / "nan.txt").write_text("3 3\nnan 0 0\n0 1 0\n0 0 1\n")
        if matrix is not None:
            cfg_path.write_text("[problem]\nname = custom\ndim = 3\nh = sq_dist(b=0.0)\n"
                                "L = matrix:%s\n\n[run]\nhorizon = 20\nseeds = 0\n" % matrix)
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and cause in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_uncreatable_output_directory_exit_2(self, tmp_path, capsys):
        # The output directory lies below a file: a config error, once the
        # problem is built and certified.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = lasso\n\n[run]\nhorizon = 20\nseeds = 0\n")
        (tmp_path / "afile").write_text("")
        out = str(tmp_path / "afile" / "sub")
        assert cli_main(["run", "--config", str(cfg_path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create the output directory %r" % out)
        assert "Traceback" not in err

    def test_unknown_problem_key_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = lasso\ndimm = 7\n\n[run]\nhorizon = 20\n")
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: [problem] lasso: unknown key 'dimm' "
                         "(accepted: dim, weight, data_seed)") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,key", [
        ("schedules", "gama_kind"), ("noise", "regim"), ("run", "horizn"), ("output", "dirr")])
    def test_unknown_section_key_exit_2(self, tmp_path, capsys, section, key):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = lasso\n\n[%s]\n%s = 1\n" % (section, key))
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: [%s]: unknown key '%s' (accepted: " % (section, key)) == 2
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_nan_composite_coupling_exit_2(self, tmp_path, capsys):
        # A composite block's NaN coupling is rejected by the spectral gate
        # before the stacked (dense, at this size) map is formed.
        cfg_path = tmp_path / "c.cfg"
        (tmp_path / "nan.txt").write_text("3 3\nnan 0 0\n0 1 0\n0 0 1\n")
        cfg_path.write_text("[problem]\nname = custom_composite\ndim = 3\nh = sq_dist(b=0.0)\n"
                            "block1.L = identity\nblock1.omega = 0.5\n"
                            "block2.L = matrix:nan.txt\nblock2.omega = 0.5\n\n"
                            "[run]\nhorizon = 20\nseeds = 0\n")
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: the coupling spectrum is not finite") == 2
        assert "Traceback" not in err

    def test_wide_fused_is_certified(self, tmp_path, capsys):
        # The difference coupling's spectrum clusters at its top at this
        # width, where an iterative estimate stalls; the exact gate accepts
        # the zoo's own tau*lambda_max = 0.9.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = fused\ndim = 2000\n\n[noise]\nkind = none\n\n"
                            "[run]\nhorizon = 20\nseeds = 0\n")
        assert cli_main(["validate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "tau*lambda_max=0.9 (status accepted)" in out and "PASS" in out

    def test_nonsummable_noise_is_rejected(self, tmp_path, capsys):
        # Constant gaussian noise is not summable, which the almost-sure
        # regime needs; validate passed it and run reported a run that never
        # reached the solution as ok.
        text = BASIC.replace("epsilon = 1.0", "epsilon = 0")
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr().out
        assert "[FAIL] noise summability - status violation" in captured
        assert "failed condition: noise summability" in captured
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--force"]) == 0
        assert "forced past failed condition: noise summability" in capsys.readouterr().out
        # The ergodic regime only needs a finite horizon sum, and zero noise
        # is summable in either regime.
        for variant in (text.replace("regime = almost-sure", "regime = ergodic"),
                        text.replace("sigma0 = 1.0", "sigma0 = 0.0")):
            cfg_path.write_text(variant)
            assert cli_main(["validate", "--config", str(cfg_path)]) == 0
            assert "[ok] noise summability" in capsys.readouterr().out

    def test_shipped_configs_validate(self, capsys):
        configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "configs")
        names = sorted(n for n in os.listdir(configs) if n.endswith(".cfg"))
        assert names
        for name in names:
            assert cli_main(["validate", "--config", os.path.join(configs, name)]) == 0, name

    def test_composite_block_without_omega_exit_2(self, tmp_path, capsys):
        # A block with no omega has weight 0, which is not a composite weight.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = custom_composite\ndim = 3\nh = sq_dist(b=0.0)\n"
                            "block1.g = l1(weight=0.3)\nblock1.omega = 1\n"
                            "block2.g = box_support(lo=-0.5, hi=0.5)\n\n"
                            "[run]\nhorizon = 20\nseeds = 0\n")
        assert cli_main(["validate", "--config", str(cfg_path)]) == 2
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "(0,1]" in err and "Traceback" not in err

    def test_seed_error_is_recorded_per_seed(self, tmp_path, capsys):
        # tau_cap = 5 violates the step-size condition on lasso; under --force
        # the trace's weighted norm turns negative.  That ended the whole
        # experiment with no summary; each seed now records the error.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = lasso\n\n[schedules]\ntau_cap = 5.0\n\n"
                            "[noise]\nkind = none\n\n[run]\nhorizon = 50\nseeds = 0 1\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--force"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["status"] == "error"
        assert set(summary["seeds"]) == {"0", "1"}
        for seed in summary["seeds"].values():
            assert seed["status"] == "error"
            assert "weighted norm is negative" in seed["error"]

    def test_divergence_prints_no_numpy_warning(self, tmp_path):
        # gamma0 = 2.2 is above beta on lasso; under --force the iterates
        # overflow at step 1115, which numpy reported with RuntimeWarnings
        # (and their source lines) ahead of the CLI's own status line.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = lasso\n\n[schedules]\ngamma0 = 2.2\n\n"
                            "[noise]\nkind = none\n\n[run]\nhorizon = 2000\nseeds = 0 1\n")
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(papc.__file__)))
        proc = subprocess.run([sys.executable, "-m", "papc.cli", "run", "--config",
                               str(cfg_path), "--out", str(out), "--force"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert "run lasso: diverged" in proc.stdout + proc.stderr
        assert "forced past failed condition: gamma0 below beta" in proc.stdout
        # The terminal distances overflow; strict JSON has no Infinity or NaN.
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=_reject_constant)
        assert summary["status"] == "diverged"
        assert summary["max_terminal_dist_x"] is None
        for seed in summary["seeds"].values():
            assert seed["status"] == "diverged"
            assert seed["error"] == "non-finite values in p_n at iteration 1115"
            assert seed["terminal_dist_x"] is None

    def test_forced_run_names_failed_conditions(self, tmp_path, capsys):
        # Past a failed certificate the iterates grow to 2.4e82 in 300 steps
        # yet stay finite, so the run is ok: the output must say it was forced.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = lasso\n\n[schedules]\ngamma0 = 2.2\n\n"
                            "[noise]\nkind = none\n\n[run]\nhorizon = 300\nseeds = 0 1\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--force"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run lasso: ok")
        assert lines[1:] == ["  forced past failed condition: gamma0 below beta"]
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=_reject_constant)
        assert summary["certificate"]["failed"] == ["gamma0 below beta"]
        assert summary["max_terminal_dist_x"] > 1e80

    def test_foreign_seed_error_is_recorded_per_seed(self, tmp_path, capsys, monkeypatch):
        # An exception from outside the package in one seed ended the whole
        # experiment with a traceback and no summary.
        real_run = runner.run

        def flaky_run(spec, sched, oracle, *args, **kwargs):
            if 1 in oracle.seeds:
                raise np.linalg.LinAlgError("singular matrix")
            return real_run(spec, sched, oracle, *args, **kwargs)

        monkeypatch.setattr(runner, "run", flaky_run)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(BASIC.replace("horizon = 500", "horizon = 50"))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["status"] == "error"
        assert summary["seeds"]["0"]["status"] == "ok"
        assert summary["seeds"]["0"]["wall_time_s"] > 0
        assert summary["seeds"]["1"] == {
            "status": "error", "error": "LinAlgError: singular matrix",
            "terminal_dist_x": None, "terminal_dist_v": None, "wall_time_s": None}
        assert os.path.exists(out / "seed_0_trace.csv")

    def test_failed_reference_is_recorded_per_seed(self, tmp_path, capsys):
        # An infinite l1 weight passes the gate, but the reference pair fails
        # its self-check.  That ended the run with exit 1 and no summary.
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = lasso\nweight = inf\n\n"
                            "[run]\nhorizon = 20\nseeds = 0 1\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["status"] == "error"
        assert {s: (d["status"], d["error"]) for s, d in summary["seeds"].items()} == {
            s: ("error", "OracleError: oracle self-check failed for lasso: kkt=(nan, nan)")
            for s in ("0", "1")}
        assert sorted(os.listdir(out)) == ["config.cfg", "summary.json"]

    @settings(max_examples=40)
    @given(problem=st.sampled_from(["cls", "lasso", "fused", "multi"]),
           gamma_kind=st.sampled_from(["constant", "harmonic_floor", "harmonic"]),
           gamma0=st.one_of(st.just("auto"), st.floats(1e-3, 3.0)),
           tau_kind=st.sampled_from(["constant", "ramp"]),
           tau_cap=st.one_of(st.just("auto"), st.floats(1e-3, 3.0)),
           noise=st.sampled_from(["none", "gaussian", "minibatch"]),
           sigma0=st.floats(0.0, 4.0), epsilon=st.floats(0.0, 2.0),
           regime=st.sampled_from(["almost-sure", "ergodic"]))
    def test_validate_pass_means_run_decides(self, problem, gamma_kind, gamma0, tau_kind,
                                             tau_cap, noise, sigma0, epsilon, regime):
        # If validate passes, run converges or reports divergence; if it
        # rejects, run rejects too.  Neither ever raises.
        text = ("[problem]\nname = %s\n\n[schedules]\ngamma_kind = %s\ngamma0 = %s\n"
                "tau_kind = %s\ntau_cap = %s\n\n[noise]\nkind = %s\nsigma0 = %r\n"
                "epsilon = %r\nregime = %s\nbatch_schedule = 2\n\n"
                "[run]\nhorizon = 30\nseeds = 0 1\n"
                % (problem, gamma_kind, gamma0, tau_kind, tau_cap, noise, sigma0, epsilon,
                   regime))
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "c.cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(tmp, "o")
            validated = cli_main(["validate", "--config", cfg_path])
            ran = cli_main(["run", "--config", cfg_path, "--out", out])
            assert validated in (0, 2)
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
        if validated == 2:
            assert ran == 2 and summary["status"] == "rejected"
        else:
            assert ran in (0, 1)
            assert {d["status"] for d in summary["seeds"].values()} <= {"ok", "diverged"}

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("[problem]\nname = unknown-problem\n")
        assert cli_main(["run", "--config", str(cfg_path), "--out",
                         str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# Config fuzzing from the key tables
# ---------------------------------------------------------------------------

# Values every key is tried with, whatever its parser.
EDGE = ("0", "-1", "nan", "inf", "-inf", "1e308", "", "abc")
# The words of the sections' str keys (the tables hold parsers, not choices).
WORDS = {"gamma_kind": ("constant", "harmonic_floor", "harmonic"),
         "tau_kind": ("constant", "ramp"), "kind": ("none", "gaussian", "minibatch"),
         "regime": ("almost-sure", "ergodic")}
# The largest integer drawn for a key: dimensions, seeds and batches stay
# desk-sized, and so does the horizon.
LARGEST = {"horizon": 30, "checkpoints": 30}


def _ints_text(key, least):
    return st.lists(st.integers(least, LARGEST.get(key, 6)), min_size=1, max_size=3).map(
        lambda values: " ".join(map(str, values)))


def _typed_text(key, parse):
    """Text of the type ``parse`` reads, in the range the fuzz keeps to."""
    if parse is str:
        return st.sampled_from(WORDS[key])
    if parse is int:
        return st.integers(1, LARGEST.get(key, 6)).map(str)
    if parse is config._ints:
        return _ints_text(key, 0)
    if parse is config._checkpoints:
        return st.one_of(st.sampled_from(["log", "none"]), _ints_text(key, 0))
    floats = st.one_of(st.sampled_from(["0.5", "1"]), st.floats(0.0, 4.0).map(repr))
    return st.one_of(st.just("auto"), floats) if parse is config._opt_float else floats


def _text(key, parse):
    """Text for ``key``: one draw in ten from the edge values."""
    return st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(EDGE) if k == 9 else _typed_text(key, parse))


def _sometimes(draw):
    return draw(st.integers(0, 2)) == 2


@st.composite
def fuzzed_configs(draw):
    """A config text: a problem named in ``config._PROBLEM_KEYS`` with any of
    its numeric keys, any keys of the other sections but [output] (the run's
    directory is given on the command line), and now and then a misspelt or
    a repeated key.  Tags keep their defaults; the custom problems get the
    smooth term they need, and custom_composite one or two identity blocks."""
    name = draw(st.sampled_from(sorted(config._PROBLEM_KEYS)))
    lines = {"problem": [("name", name)]}
    blocks = draw(st.integers(1, 2)) if name == "custom_composite" else 0
    if name.startswith("custom"):
        lines["problem"].append(("h", "sq_dist(b=1.0)"))
    lines["problem"] += [("block%d.L" % n, "identity") for n in range(1, blocks + 1)]
    for key, (parse, _, _) in config._PROBLEM_KEYS[name].items():
        keys = ([key.replace("N", str(n)) for n in range(1, blocks + 1)]
                if key.startswith("blockN.") else [key])
        for k in keys:
            if parse is not str and _sometimes(draw):
                lines["problem"].append((k, draw(_text(k, parse))))
    for section, table in config._KEYS.items():
        if section == "output":
            continue
        lines[section] = [(key, draw(_text(key, parse))) for key, (_, parse, _) in table.items()
                          if key in ("horizon", "seeds") or _sometimes(draw)]
    flaw = draw(st.sampled_from([None] * 8 + ["misspelt", "repeated"]))
    if flaw:
        section = draw(st.sampled_from(sorted(s for s in lines if lines[s])))
        key, text = draw(st.sampled_from(lines[section]))
        lines[section].append((key + "x" if flaw == "misspelt" else key, text))
    return "".join("[%s]\n%s\n" % (section, "".join("%s = %s\n" % kv for kv in body))
                   for section, body in lines.items())


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(text=fuzzed_configs())
    def test_every_config_ends_in_a_documented_exit(self, text):
        # validate and run exit 0, 1 or 2 and never raise; they reject the
        # same configs.  A config error leaves no output directory and a
        # rejected certificate only its summary; a run writes a summary in
        # which every seed has a status.
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "c.cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(tmp, "o")
            validated = cli_main(["validate", "--config", cfg_path])
            ran = cli_main(["run", "--config", cfg_path, "--out", out])
            assert validated in (0, 2) and ran in (0, 1, 2)
            assert (ran == 2) == (validated == 2)
            summary = None
            if os.path.exists(out):
                if ran == 2:
                    assert os.listdir(out) == ["summary.json"]
                with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
        if ran == 2:
            assert summary is None or summary["status"] == "rejected"
        else:
            assert summary is not None
            assert {d["status"] for d in summary["seeds"].values()} <= {"ok", "diverged",
                                                                        "error"}
