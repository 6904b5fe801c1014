import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mixedhmc
from mixedhmc.cli import main
from mixedhmc.runner import resolve_threads


def write_config(tmp_path, **overrides):
    config = {
        "model": {"type": "gmm1d"},
        "kernel": {"type": "laplace", "epsilon": 0.5, "T": 4.5, "L": 18,
                   "n_D": 1},
        "run": {"chains": 3, "burn_in": 50, "samples": 200, "seed": 11},
        "output": {"samples_path": "samples.csv",
                   "summary_path": "summary.json"},
    }
    for key, value in overrides.items():
        config[key] = value
    path = os.path.join(tmp_path, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def read_rows(path):
    with open(path) as fh:
        return fh.read().splitlines()


class TestRun:
    def test_csv_shape_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = os.path.join(tmp_path, "a")
        out_b = os.path.join(tmp_path, "b")
        assert main(["run", "--config", cfg, "--out-dir", out_a,
                     "--threads", "2"]) == 0
        assert main(["run", "--config", cfg, "--out-dir", out_b,
                     "--threads", "1"]) == 0
        rows_a = read_rows(os.path.join(out_a, "samples.csv"))
        rows_b = read_rows(os.path.join(out_b, "samples.csv"))
        assert rows_a == rows_b  # byte-identical, thread count irrelevant
        assert rows_a[0] == "chain,iter,accept,x_0,q_0"
        assert len(rows_a) == 1 + 3 * 200

    def test_chain_zero_rows_independent_of_chain_count(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = os.path.join(tmp_path, "one")
        out_b = os.path.join(tmp_path, "four")
        assert main(["run", "--config", cfg, "--chains", "1",
                     "--out-dir", out_a, "--threads", "1"]) == 0
        assert main(["run", "--config", cfg, "--chains", "4",
                     "--out-dir", out_b, "--threads", "1"]) == 0
        rows_a = read_rows(os.path.join(out_a, "samples.csv"))
        rows_b = read_rows(os.path.join(out_b, "samples.csv"))
        assert rows_a[1:] == rows_b[1:1 + len(rows_a) - 1]

    def test_summary_round_trip_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a = os.path.join(tmp_path, "a")
        out_b = os.path.join(tmp_path, "b")
        main(["run", "--config", cfg, "--out-dir", out_a, "--threads", "1"])
        main(["run", "--config", cfg, "--out-dir", out_b, "--threads", "1"])
        with open(os.path.join(out_a, "summary.json")) as fh:
            summary_a = json.load(fh)
        with open(os.path.join(out_b, "summary.json")) as fh:
            summary_b = json.load(fh)
        # lossless round trip
        assert json.loads(json.dumps(summary_a)) == summary_a
        # numeric fields reproduce exactly; wall time is a measurement
        summary_a.pop("wall_time")
        summary_b.pop("wall_time")
        assert summary_a == summary_b
        assert summary_a["mress"] > 0
        assert set(summary_a["ks_vs_exact"]) == {"q_0"}

    def test_zero_samples(self, tmp_path):
        cfg = write_config(tmp_path, run={"chains": 2, "burn_in": 0,
                                          "samples": 0, "seed": 1})
        out = os.path.join(tmp_path, "empty")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 0
        rows = read_rows(os.path.join(out, "samples.csv"))
        assert len(rows) == 1
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["mress"] is None

    def test_general_kernel_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"type": "binary", "n_sites": 4, "seed": 9},
            kernel={"type": "general", "T": 1.0, "beta": 1.0, "tau": 1.0,
                    "integrator_eps": 0.1},
            run={"chains": 2, "burn_in": 20, "samples": 100, "seed": 5})
        out = os.path.join(tmp_path, "gen")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 0
        rows = read_rows(os.path.join(out, "samples.csv"))
        assert rows[0] == "chain,iter,accept,x_0,x_1,x_2,x_3"
        assert len(rows) == 1 + 2 * 100

    def test_naive_and_gibbs_kernel_configs(self, tmp_path):
        for kernel in ({"type": "naive", "epsilon": 0.45, "L": 10},
                       {"type": "gibbs", "rw_scale": 0.3}):
            cfg = write_config(tmp_path, kernel=kernel,
                               run={"chains": 2, "burn_in": 10,
                                    "samples": 50, "seed": 2})
            out = os.path.join(tmp_path, kernel["type"])
            assert main(["run", "--config", cfg, "--out-dir", out,
                         "--threads", "1"]) == 0

    def test_gmm24_with_benchmark_settings(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"type": "gmm24"},
            kernel={"type": "laplace", "epsilon": 1.7, "T": 136.0, "L": 80,
                    "n_D": 1},
            run={"chains": 2, "burn_in": 10, "samples": 60, "seed": 3})
        out = os.path.join(tmp_path, "gmm24")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["mress"] > 0
        assert len(summary["ess"]) == 25  # x_0 plus q_0..q_23

    def test_divergent_run_warns_but_exits_zero(self, tmp_path, capsys):
        # absurd step size: the harmonic trajectory blows up every step
        cfg = write_config(
            tmp_path,
            kernel={"type": "laplace", "epsilon": 50.0, "T": 50.0, "L": 1},
            run={"chains": 1, "burn_in": 0, "samples": 40, "seed": 4})
        out = os.path.join(tmp_path, "div")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["divergences"] > 20
        assert summary["warnings"]
        assert "divergence rate" in capsys.readouterr().err


class TestConfigValidation:
    def test_missing_required_field_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kernel={"type": "laplace", "T": 1.0,
                                             "L": 2})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "kernel.epsilon" in err

    def test_bad_type_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, run={"chains": "four", "samples": 10,
                                          "burn_in": 0, "seed": 0})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path)]) == 2
        assert "run.chains" in capsys.readouterr().err

    def test_unknown_model_type(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"type": "ising"})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path)]) == 2
        assert "model.type" in capsys.readouterr().err

    def test_naive_requires_1d_gmm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"type": "gmm24"},
                           kernel={"type": "naive", "epsilon": 0.3, "L": 5})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path)]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    def test_n_d_exceeding_sites(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kernel={"type": "laplace",
                                             "epsilon": 0.2, "T": 1.0,
                                             "L": 2, "n_D": 5})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path)]) == 2
        assert "kernel.n_D" in capsys.readouterr().err

    def test_mass_diag_length_names_path(self, tmp_path, capsys):
        run = {"chains": 1, "burn_in": 0, "samples": 2, "seed": 0}
        for model, mass in (({"type": "gmm24"}, [2.0]),
                            ({"type": "gmm1d"}, [1.0, 2.0, 3.0]),
                            ({"type": "gmm1d"}, [-1.0]),
                            ({"type": "gmm1d"}, "heavy")):
            cfg = write_config(tmp_path, model=model, run=run,
                               kernel={"type": "laplace", "epsilon": 0.5,
                                       "T": 2.0, "L": 4, "mass_diag": mass})
            assert main(["run", "--config", cfg, "--out-dir",
                         str(tmp_path), "--threads", "1"]) == 2
            assert "kernel.mass_diag" in capsys.readouterr().err


class TestCheckCommand:
    def test_gradients_suite_passes(self, capsys):
        assert main(["check", "gradients"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(c["suite"] == "gradients" for c in report["checks"])

    def test_distributions_suite_passes(self, capsys):
        assert main(["check", "distributions"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in report["checks"]}
        assert "hit_time_uniform_pvalue" in names


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        """``mixedhmc run`` does not pay for scipy, which only the check
        suites and rank-normalized ESS use."""
        src = os.path.dirname(os.path.dirname(mixedhmc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, mixedhmc.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestThreads:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("MHMC_THREADS", raising=False)
        assert resolve_threads(4, 8) == 4
        assert resolve_threads(4, 2) == 2
        monkeypatch.setenv("MHMC_THREADS", "3")
        assert resolve_threads(None, 8) == 3
        assert resolve_threads(1, 8) == 1
