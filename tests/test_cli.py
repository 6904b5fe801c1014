import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mixedhmc
import mixedhmc.cli
import mixedhmc.models
import mixedhmc.runner as runner
from mixedhmc import ChainRng, run_chain_general
from mixedhmc.baselines import run_gibbs_chain, run_naive_chain
from mixedhmc.cli import (MODELS, main, output_paths, run_settings,
                          write_samples_csv)
from mixedhmc.models import blr_dataset_to_csv, blr_generate
from mixedhmc.runner import (KERNELS, chain_batches, default_init,
                             resolve_threads, run_chains)


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


class TestDeterminismAcrossWorkers:
    """The samples CSV is byte-identical for one and two workers; with 9
    chains the two workers step batches of 5 and 4 in lockstep."""

    @pytest.mark.parametrize("model,kernel", [
        ({"type": "gmm1d"},
         {"type": "laplace", "epsilon": 0.5, "T": 4.5, "L": 18, "n_D": 1}),
        ({"type": "blr", "seed": 0, "n": 100, "d": 20},
         {"type": "laplace", "epsilon": 0.15, "T": 3.0, "L": 20, "n_D": 1}),
        ({"type": "gmm24"},
         {"type": "laplace", "epsilon": 1.7, "T": 136.0, "L": 80, "n_D": 1}),
    ], ids=["gmm1d", "blr", "gmm24"])
    def test_threads_1_and_2_byte_identical(self, tmp_path, model, kernel):
        cfg = write_config(tmp_path, model=model, kernel=kernel,
                           run={"chains": 9, "burn_in": 5, "samples": 30,
                                "seed": 8})
        data = []
        for threads in ("1", "2"):
            out = os.path.join(tmp_path, threads)
            assert main(["run", "--config", cfg, "--out-dir", out,
                         "--threads", threads]) == 0
            with open(os.path.join(out, "samples.csv"), "rb") as fh:
                data.append(fh.read())
        assert data[0] == data[1]
        assert data[0].count(b"\n") == 1 + 9 * 30


class TestAtomicWrites:
    def test_failed_csv_write_leaves_no_file(self, tmp_path):
        class Broken:
            """A chain output whose second row cannot be read."""
            n_samples = 2
            accept_trace = np.ones(2, dtype=bool)

            class samples:
                def __getitem__(self, i):
                    if i:
                        raise RuntimeError("lost row")
                    return np.zeros(2)
            samples = samples()

        model = mixedhmc.models.gmm1d_preset()
        path = os.path.join(tmp_path, "samples.csv")
        with pytest.raises(RuntimeError, match="lost row"):
            write_samples_csv(path, [Broken()], model)
        assert os.listdir(tmp_path) == []

        # An earlier complete file survives a failed rewrite.
        with open(path, "w") as fh:
            fh.write("old\n")
        with pytest.raises(RuntimeError, match="lost row"):
            write_samples_csv(path, [Broken()], model)
        assert os.listdir(tmp_path) == ["samples.csv"]
        assert read_rows(path) == ["old"]

    def test_failed_summary_write_fails_run_and_leaves_no_file(
            self, tmp_path, monkeypatch, capsys):
        def dump(obj, fh, **kwargs):
            fh.write('{"partial": ')
            raise OSError("disk full")

        cfg = write_config(tmp_path, run={"chains": 1, "burn_in": 0,
                                          "samples": 10, "seed": 1})
        monkeypatch.setattr(json, "dump", dump)
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 1
        assert "disk full" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["samples.csv"]
        assert len(read_rows(os.path.join(out, "samples.csv"))) == 11


class TestOutputPaths:
    def test_out_dir_that_is_a_file_fails_before_sampling(
            self, tmp_path, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the output check")

        monkeypatch.setattr(mixedhmc.cli, "run_chains", no_sampling)
        cfg = write_config(tmp_path)
        out = os.path.join(tmp_path, "taken")
        with open(out, "w") as fh:
            fh.write("a file\n")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 1
        assert "cannot write outputs" in capsys.readouterr().err

    def test_nested_samples_path_is_written(self, tmp_path):
        cfg = write_config(tmp_path,
                           run={"chains": 1, "burn_in": 0, "samples": 10,
                                "seed": 1},
                           output={"samples_path": "sub/deeper/s.csv"})
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 0
        assert len(read_rows(os.path.join(out, "sub", "deeper",
                                          "s.csv"))) == 11
        assert os.path.exists(os.path.join(out, "summary.json"))


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

    @pytest.mark.parametrize("kernel", [
        {"type": "general", "T": 1.0, "beta": 2.0},
        {"type": "laplace", "epsilon": 0.5, "T": 4.5, "L": 18}])
    def test_single_value_site_rejected(self, tmp_path, capsys, kernel):
        """A one-component mixture leaves site 0 no other value to move to:
        rejected before sampling, naming the site."""
        cfg = write_config(tmp_path, kernel=kernel,
                           model={"type": "gmm1d", "weights": [1.0],
                                  "means": [[0.0]], "variances": [[1.0]]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out),
                     "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "kernel.type: site 0 has a single value" in err
        assert "Traceback" not in err
        assert not out.exists()

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


    @pytest.mark.parametrize("model,kernel,field", [
        ({"type": "gmm1d"},
         {"type": "laplace", "epsilon": 0.5, "T": 2.0, "L": 4, "n_d": 1},
         "n_d"),
        ({"type": "gmm1d"},
         {"type": "general", "T": 1.0, "mass_diag": [2.0]}, "mass_diag"),
    ], ids=["laplace-n_d", "general-mass_diag"])
    def test_unknown_kernel_field_names_it(self, tmp_path, capsys, model,
                                           kernel, field):
        cfg = write_config(tmp_path, model=model, kernel=kernel)
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 2
        assert f"kernel.{field}:" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("chains", ["0", "-3"])
    def test_chains_override_below_one(self, tmp_path, capsys, chains):
        cfg = write_config(tmp_path)
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--chains", chains,
                     "--out-dir", out, "--threads", "1"]) == 2
        assert "run.chains" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_negative_seed_names_run_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, run={"chains": 1, "burn_in": 0,
                                          "samples": 5, "seed": -1})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path), "--threads", "1"]) == 2
        assert "run.seed" in capsys.readouterr().err
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--seed", "-5", "--out-dir",
                     str(tmp_path), "--threads", "1"]) == 2
        assert "run.seed" in capsys.readouterr().err

    def test_bad_csv_content_names_csv_path(self, tmp_path, capsys):
        data = os.path.join(tmp_path, "data.csv")
        for content in ("y = 2\n", "", "y,x_0\n1,abc\n"):
            with open(data, "w") as fh:
                fh.write(content)
            cfg = write_config(tmp_path, model={"type": "blr",
                                                "csv_path": data})
            assert main(["run", "--config", cfg, "--out-dir",
                         str(tmp_path), "--threads", "1"]) == 2
            assert "model.csv_path" in capsys.readouterr().err

    def test_unreadable_csv_path_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={
            "type": "blr", "csv_path": os.path.join(tmp_path, "absent.csv")})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path), "--threads", "1"]) == 2
        assert "model.csv_path: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("seed", 3), ("n", 100),
                                           ("d", 4)])
    def test_csv_path_takes_no_generator_setting(self, tmp_path, capsys,
                                                 key, value):
        """A saved BLR dataset refuses the settings that would generate
        one, rather than dropping them."""
        data = os.path.join(tmp_path, "data.csv")
        blr_dataset_to_csv(blr_generate(0, n=30, d=4).spec, data)
        model = {"type": "blr", "csv_path": data}
        assert mixedhmc.cli.build_model(model).n_discrete == 4
        cfg = write_config(tmp_path, model={**model, key: value},
                           kernel={"type": "gibbs", "rw_scale": 0.5})
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: model.csv_path: " in err and repr(key) in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path)
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--threads", threads,
                     "--out-dir", out]) == 2
        assert "error: --threads: must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unknown_kernel_type_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kernel={"type": "nuts"})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path), "--threads", "1"]) == 2
        assert "kernel.type: unknown type 'nuts'" in capsys.readouterr().err

    def test_top_level_not_an_object(self, tmp_path, capsys):
        cfg = os.path.join(tmp_path, "config.json")
        with open(cfg, "w") as fh:
            json.dump([{"model": {"type": "gmm1d"}}], fh)
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--out-dir", out]) == 2
        assert ("config: top level must be a JSON object"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    def test_non_numeric_gmm_override_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"type": "gmm1d",
                                            "weights": "abc"})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path), "--threads", "1"]) == 2
        assert "model.weights" in capsys.readouterr().err

    @pytest.mark.parametrize("section,value,path", [
        ("run", {"samples": 5, "smaples": 5}, "run.smaples"),
        ("model", {"type": "blr", "N": 30}, "model.N"),
        ("model", {"type": "binary", "n": 4}, "model.n"),
        ("model", {"type": "gmm24", "mean": [0.0]}, "model.mean"),
        ("output", {"sample_path": "a.csv"}, "output.sample_path"),
        ("outputs", {}, "outputs"),
        ("output", "x", "output"),
        ("output", {"samples_path": 5}, "output.samples_path"),
    ], ids=["run", "blr", "binary", "gmm24", "output", "top-level",
            "output-not-object", "output-not-string"])
    def test_bad_key_names_it(self, tmp_path, capsys, section, value, path):
        cfg = write_config(tmp_path, **{section: value})
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 2
        assert f"error: {path}:" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("model", [
        {"type": "blr", "seed": -1, "n": 30, "d": 4},
        {"type": "binary", "seed": -1},
    ], ids=["blr", "binary"])
    def test_negative_model_seed_names_it(self, tmp_path, capsys, model):
        cfg = write_config(tmp_path, model=model,
                           kernel={"type": "gibbs", "rw_scale": 0.5})
        assert main(["run", "--config", cfg, "--out-dir",
                     str(tmp_path), "--threads", "1"]) == 2
        assert "model.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("model,kernel,path", [
        ({"type": "gmm1d"},
         {"type": "laplace", "epsilon": 0.5, "T": float("inf"), "L": 4},
         "kernel.T"),
        ({"type": "gmm1d"},
         {"type": "laplace", "epsilon": 0.5, "T": 2.0, "L": 4,
          "mass_diag": [float("inf")]}, "kernel.mass_diag"),
        ({"type": "gmm1d"}, {"type": "gibbs", "rw_scale": float("inf")},
         "kernel.rw_scale"),
        ({"type": "gmm1d", "means": [[float("nan")], [0.0], [2.0], [4.0]]},
         {"type": "gibbs", "rw_scale": 0.5}, "means must be finite"),
        ({"type": "gmm1d", "variances": [[float("inf")], [1.0], [1.0], [1.0]]},
         {"type": "gibbs", "rw_scale": 0.5}, "variances must be positive"),
    ], ids=["laplace-T", "mass_diag", "rw_scale", "gmm-means",
            "gmm-variances"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, model,
                                        kernel, path):
        """JSON's Infinity and NaN are refused at the boundary."""
        cfg = write_config(tmp_path, model=model, kernel=kernel)
        with open(cfg) as fh:
            text = fh.read()
        assert "Infinity" in text or "NaN" in text
        out = os.path.join(tmp_path, "out")
        assert main(["run", "--config", cfg, "--out-dir", out,
                     "--threads", "1"]) == 2
        assert path in capsys.readouterr().err
        assert not os.path.exists(out)


class TestKernelParams:
    """``runner.run_chains`` builds each kernel's params object once, in
    the parent, from the fields and defaults of its class."""

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown kernel kind 'hmc'"):
            runner.kernel_params("hmc", mixedhmc.models.gmm1d_preset(), {})

    # The fields each kind needs, at valid values.
    REQUIRED = {"laplace": {"epsilon": 0.5, "T": 4.5, "L": 18},
                "general": {"T": 1.0}, "naive": {"epsilon": 0.45, "L": 10},
                "gibbs": {"rw_scale": 1.0}}

    @pytest.mark.parametrize("kind", list(KERNELS))
    def test_unknown_key_named(self, kind):
        model = mixedhmc.models.gmm1d_preset()
        settings = {**self.REQUIRED[kind], "foo": 1}
        with pytest.raises(ValueError, match=r"^foo: unknown setting"):
            runner.kernel_params(kind, model, settings)

    @pytest.mark.parametrize("kind", list(KERNELS))
    def test_missing_key_named(self, kind):
        """Each field without a default is named when it is left out; the
        fields given are accepted."""
        model = mixedhmc.models.gmm1d_preset()
        required = self.REQUIRED[kind]
        assert isinstance(runner.kernel_params(kind, model, required),
                          KERNELS[kind])
        for name in required:
            settings = {k: v for k, v in required.items() if k != name}
            with pytest.raises(ValueError, match=rf"^{name}: missing"):
                runner.kernel_params(kind, model, settings)

    def test_general_defaults_integrator_eps(self):
        model = mixedhmc.models.gmm1d_preset()
        runs = [run_chains("general", model, kernel, 2, 5, 40, 3, threads=1)
                for kernel in ({"T": 1.0}, {"T": 1.0, "integrator_eps": 0.1})]
        for a, b in zip(*runs):
            assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("kind", [k for k in KERNELS if k != "laplace"])
    def test_chain_runner_takes_the_shared_arguments(self, kind):
        """Every kind that runs its chains one at a time is run as
        ``runner(init, params, model, n_burn, n_samples, rng)``, chain ``c``
        on ``ChainRng(seed, c)`` from its ``default_init``."""
        chain_runner = {"general": run_chain_general,
                        "naive": run_naive_chain,
                        "gibbs": run_gibbs_chain}[kind]
        settings = self.REQUIRED[kind]
        model = mixedhmc.models.gmm1d_preset()
        params = KERNELS[kind](**settings)
        outputs = run_chains(kind, model, settings, 2, 5, 40, 3, threads=1)
        for c, out in enumerate(outputs):
            rng = ChainRng(3, c)
            want = chain_runner(default_init(model, rng), params, model, 5, 40,
                                rng)
            assert np.array_equal(out.samples, want.samples)
            assert np.array_equal(out.accept_trace, want.accept_trace)

    @pytest.mark.parametrize("kind,model,kernel,error", [
        ("laplace", "gmm1d", {"epsilon": -0.5, "T": 1.0, "L": 2}, ValueError),
        ("laplace", "gmm1d", {"epsilon": 0.5, "T": 1.0, "L": 2, "n_D": 3},
         ValueError),
        ("laplace", "gmm24", {"epsilon": 0.5, "T": 1.0, "L": 2,
                              "mass_diag": [1.0]}, ValueError),
        ("general", "gmm1d", {"T": 1.0, "tau": 0.0}, ValueError),
        ("naive", "gmm24", {"epsilon": 0.5, "L": 2}, ValueError),
        ("gibbs", "gmm1d", {"rw_scale": 1.0, "scale": 2.0}, ValueError),
    ], ids=["epsilon", "n_D", "mass_diag", "tau", "naive-model", "unknown"])
    def test_bad_value_raises_before_any_worker(self, monkeypatch, kind,
                                                model, kernel, error):
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker started")

        monkeypatch.setattr(runner, "_batch_task", no_worker)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_worker)
        preset = {"gmm1d": mixedhmc.models.gmm1d_preset,
                  "gmm24": mixedhmc.models.gmm24_preset}[model]()
        for threads in (1, 2):
            with pytest.raises(error):
                run_chains(kind, preset, kernel, 8, 0, 5, 0, threads=threads)


class TestReadme:
    def test_kernel_table_lists_each_params_field_and_default(self):
        """README's kernel table is the params classes' fields, in order,
        with their JSON defaults."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            text = fh.read()
        rows = re.findall(r"^\| `(\w+)` +\| `(\w+)` +\| ([^|]+?) +\|",
                          text[text.index("Kernel types:"):], re.M)
        expected = [(kind, f.name,
                     "required" if f.default is dataclasses.MISSING
                     else f"`{json.dumps(f.default)}`")
                    for kind, cls in KERNELS.items()
                    for f in dataclasses.fields(cls)]
        assert rows == expected

    def test_model_run_and_output_tables_list_each_setting_and_default(
            self):
        """README's model, run and output table is the builders'
        parameters, in order, with their JSON defaults."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            text = fh.read()
        rows = re.findall(r"^\| `(\w+)` +\| `(\w+)` +\| ([^|]+?) +\|",
                          text[text.index("Model, run and output settings:"):
                               text.index("Kernel types:")], re.M)
        builders = [*MODELS.items(), ("run", run_settings),
                    ("output", output_paths)]
        expected = [(kind, name,
                     "required" if p.default is p.empty
                     else f"`{json.dumps(p.default)}`")
                    for kind, build in builders
                    for name, p in inspect.signature(build).parameters.items()]
        assert rows == expected

    def test_top_level_exports_match_readme(self):
        """``mixedhmc.__all__`` is the list README states, and every
        ``from mixedhmc... import`` line of README's code blocks imports."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            text = fh.read()
        stated = re.search(r"exports these \d+ names and no others:(.*?)\.\s",
                           text, re.S).group(1)
        assert re.findall(r"`(\w+)`", stated) == mixedhmc.__all__
        blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
        lines = [line for block in blocks for line in block.splitlines()
                 if re.match(r"from mixedhmc(\.\w+)* import ", line)]
        assert any(line.startswith("from mixedhmc import ") for line in lines)
        for line in lines:
            exec(line, {})

    def test_module_bullets_are_exported(self):
        """Every name README's per-module bullets give is in that module's
        ``__all__``."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            text = fh.read()
        start = text.index("imported from its own module:")
        bullets = re.findall(r"^- `(mixedhmc\.\w+)`: (.*?)(?=^- |^$)",
                             text[start:], re.S | re.M)
        assert "mixedhmc.core" in dict(bullets)
        for mod, names in bullets:
            missing = (set(re.findall(r"`(\w+)`", names))
                       - set(importlib.import_module(mod).__all__))
            assert not missing, (mod, missing)


def _load(path):
    """The module of the source file ``path``."""
    spec = importlib.util.spec_from_file_location(
        os.path.splitext(os.path.basename(path))[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestShippedConfigs:
    """Every config that ``tools/samples_hash.py`` and the benchmark run
    passes the config checks: its model, kernel params, run and output
    settings are built, and no chain is sampled."""

    class Sampled(Exception):
        pass

    def test_each_config_is_read(self, tmp_path, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        bench = _load(os.path.join(root, "perfbench", "run.py"))
        tool = _load(os.path.join(root, "tools", "samples_hash.py"))
        configs = [*tool.CONFIGS.items(),
                   *((f"bench-{name}", w["config"])
                     for name, w in bench.WORKLOADS.items())]
        assert len(configs) == len(tool.CONFIGS) + 3

        def run_chains(*args, **kwargs):
            raise self.Sampled(*args)

        monkeypatch.setattr(mixedhmc.cli, "run_chains", run_chains)
        for name, config in configs:
            cfg = os.path.join(tmp_path, f"{name}.json")
            with open(cfg, "w") as fh:
                json.dump(config, fh)
            out = os.path.join(tmp_path, name)
            with pytest.raises(self.Sampled) as read:
                main(["run", "--config", cfg, "--out-dir", out,
                      "--threads", "1"])
            kind, model, params, chains, burn_in, samples, seed = \
                read.value.args
            run = config["run"]
            assert kind == config["kernel"]["type"], name
            assert isinstance(params, KERNELS[kind]), name
            assert model.n_discrete >= 1, name
            assert (chains, burn_in, samples, seed) == (
                run["chains"], run["burn_in"], run["samples"],
                run.get("seed", 0)), name
            assert os.path.isdir(out), name


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
        suites use."""
        src = os.path.dirname(os.path.dirname(mixedhmc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, mixedhmc.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestBenchmarkTracer:
    def test_tracer_installs(self):
        """Every name the benchmark's tracer wraps still exists."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
        code = "import tracer; tracer.install(tracer.Tracer())"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


class TestSamplesHashTool:
    def test_one_config(self):
        """tools/samples_hash.py runs a config at one and two workers and
        prints its name and one sha256."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "samples_hash.py"),
             "blr_n_d2"], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert re.fullmatch(r"blr_n_d2 [0-9a-f]{64}\n", out.stdout)


class TestCodeLinesTool:
    def test_counts_code_only(self, tmp_path):
        """tools/code_lines.py counts no docstring, comment or blank line;
        a string that is not a docstring counts on each of its lines."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        (tmp_path / "a.py").write_text(
            '"""Module docstring,\nover two lines."""\n\n'
            'import os  # a comment\n# a comment line\n\n\n'
            'def f(x):\n    """Docstring."""\n'
            '    s = """a string\n    of data"""\n    return x\n')
        (tmp_path / "b.py").write_text("x = 1\n")
        tool = os.path.join(root, "tools", "code_lines.py")
        out = subprocess.run([sys.executable, tool, str(tmp_path)],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [f"5 {tmp_path / 'a.py'}",
                                           f"1 {tmp_path / 'b.py'}",
                                           "6 total"]
        out = subprocess.run([sys.executable, tool], capture_output=True,
                             text=True, timeout=60)
        assert re.fullmatch(r"\d+ total", out.stdout.splitlines()[-1])


class TestThreads:
    def test_resolution_order(self):
        assert resolve_threads(4, 8) == 4
        assert resolve_threads(4, 2) == 2
        assert resolve_threads(1, 8) == 1
        assert resolve_threads(None, 8) == min(os.cpu_count() or 1, 8)

    def test_laplace_batches_hold_at_least_four_chains(self):
        assert chain_batches("laplace", 4, 4) == [[0, 1, 2, 3]]
        assert chain_batches("laplace", 9, 4) == [[0, 1, 2, 3, 4],
                                                   [5, 6, 7, 8]]
        assert chain_batches("laplace", 48, 2) == [list(range(24)),
                                                   list(range(24, 48))]
        assert chain_batches("laplace", 2, 2) == [[0, 1]]
        # The other kernels run chains one after another: one per worker.
        assert chain_batches("general", 4, 4) == [[0], [1], [2], [3]]
        assert chain_batches("gibbs", 5, 2) == [[0, 1, 2], [3, 4]]
