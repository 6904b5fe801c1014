"""Benchmark of mixedhmc: sampling speed and ESS per second on three presets.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing.  Every measured run of ``mixedhmc run``
is a fresh process with one worker (``--threads 1``) and single-threaded
BLAS, so the numbers measure the sampler, not the scheduler.  Each workload
repeats a fixed number of whole ``mixedhmc run`` invocations and reports
medians; set-up is also timed in extra processes that stop before the first
chain step.  ``--seconds`` is accepted as the nominal run length: the
invocation counts are fixed, so that every run attempts the same work, and
were chosen to sample for about 20 s on a 2-core x86 machine.  The timed
metrics are seconds at a fixed reference speed of the host, measured by
the probes of ``speedmeter.py`` that run inside each invocation.
``--trace 1`` instead runs one untraced and one traced invocation of the
same seed, both without probes, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (chain-iterations), ``failed`` (divergent
chain-iterations) and ``metrics``.  The exit code is 1 when an output check
fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from ess_estimator import ess
import oracles
from speedmeter import REF_PROBE_S, clock, ref_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Every run of a workload makes the same number of invocations, at least two,
# so that no single slow spell of a shared host decides a run's median.
WORKLOADS = {
    "gmm24_laplace": {
        "config": {
            "model": {"type": "gmm24"},
            "kernel": {"type": "laplace", "epsilon": 1.7, "T": 136.0,
                       "L": 80, "n_D": 1},
            "run": {"chains": 48, "burn_in": 10, "samples": 120},
        },
        "invocations": 2,
    },
    "blr_laplace": {
        "config": {
            "model": {"type": "blr", "seed": 0, "n": 100, "d": 20},
            "kernel": {"type": "laplace", "epsilon": 0.15, "T": 3.0,
                       "L": 20, "n_D": 1},
            "run": {"chains": 8, "burn_in": 100, "samples": 500},
        },
        "invocations": 3,
    },
    "binary6_general": {
        "config": {
            "model": {"type": "binary", "n_sites": 6, "seed": 2026},
            "kernel": {"type": "general", "T": 1.0, "beta": 1.0, "tau": 1.0,
                       "integrator_eps": 0.1},
            "run": {"chains": 4, "burn_in": 100, "samples": 8000},
        },
        "invocations": 3,
    },
}
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "iter_per_s": "iter/s", "ess_per_s": "1/s",
                    "report_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACED_LAYERS = ("models.grad_q", "models.site_cond_neglogp",
                 "models.potential", "core.propose_and_delta", "rng")
TRACED_STEPS = ("kernels_laplace.laplace_step",
                "kernels_laplace.get_step_sizes_n_steps",
                "kernels_general.general_step")
TRACED_TOTALS = ("cli.write_samples_csv", "cli.build_summary",
                 "diagnostics.ess", "diagnostics.ks_two_sample",
                 "cli.build_model")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(mode, config_path, seed, out_dir):
    """One ``mixedhmc run`` process; returns its timings and peak memory."""
    out_dir.mkdir(parents=True)
    marks_path = out_dir / "marks.json"
    cmd = [sys.executable, str(HERE / "launch.py"), str(marks_path), mode,
           "run", "--config", str(config_path), "--seed", str(seed),
           "--threads", "1", "--out-dir", str(out_dir)]
    with open(out_dir / "log.txt", "w") as log:
        start = clock()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        # A blocking wait returns at once when the child exits; a wait with a
        # timeout polls, and its sleeps would add to wall_s.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        end = clock()
    if code != 0 or not marks_path.exists():
        log_tail = (out_dir / "log.txt").read_text()[-2000:]
        raise BenchError(f"mixedhmc run exited with {code}:\n{log_tail}")
    record = json.loads(marks_path.read_text())
    marks = record["marks"]
    phases = {"setup_s": (start, marks["sampling_start"]),
              "wall_s": (start, end)}
    if mode != "setup":
        phases["sampling_s"] = (marks["sampling_start"], marks["sampling_end"])
        phases["report_s"] = (marks["sampling_end"], marks["end"])
    result = {"peak_rss_mb": record["peak_rss_kb"] / 1024.0,
              "import_s": marks["import_end"] - marks["import_start"],
              "trace": record.get("trace"),
              "dir": out_dir}
    probes = record.get("probes")
    for key, (lo, hi) in phases.items():
        # With probes on, a phase is given in seconds at the reference
        # speed, and its unscaled seconds, probe time left out, as raw_*.
        if probes:
            result[key], result[f"raw_{key}"] = ref_seconds(probes, lo, hi)
        else:
            result[key] = result[f"raw_{key}"] = hi - lo
    if probes:
        result["host_speed"] = statistics.median(
            REF_PROBE_S / (stop - begin) for begin, stop in probes)
    return result


class Workload:
    """One preset: its config, the reference its outputs are checked
    against, and the columns whose ESS enters ``ess_per_s``."""

    def __init__(self, name):
        self.name = name
        self.config = WORKLOADS[name]["config"]
        self.invocations = WORKLOADS[name]["invocations"]
        run = self.config["run"]
        self.chains, self.samples = run["chains"], run["samples"]
        self.chain_iters = self.chains * (run["burn_in"] + run["samples"])

        from mixedhmc.cli import build_model
        self.model = build_model(self.config["model"])
        self.nd = self.model.n_discrete
        self.nc = self.model.n_continuous
        if self.name == "blr_laplace":
            from mixedhmc.models import blr_generate
            m = self.config["model"]
            self.support = blr_generate(m["seed"], n=m["n"], d=m["d"]).support

    def check(self, result):
        """Validate one invocation's outputs; returns the draws whose column
        ESS enters ``ess_per_s``, shaped (chains, samples, columns), the
        divergences, the failure messages and the worst check statistic as a
        share of its limit."""
        out_dir = result["dir"]
        try:
            accept, draws = oracles.read_samples(
                out_dir / "samples.csv", self.chains, self.samples, self.nd,
                self.nc)
        except ValueError as exc:
            return None, 0, [str(exc)], float("inf")
        summary = json.loads((out_dir / "summary.json").read_text())
        divergences = int(summary["divergences"])
        x, q = draws[..., :self.nd], draws[..., self.nd:]
        spec = getattr(self.model, "spec", None)
        if self.name == "gmm24_laplace":
            # Chains never leave the component they start in, so the ESS of
            # q is pinned near the chain count, and that of the residual
            # (q - mu_z) / sd_z exceeds the draw count on antithetic chains.
            # The ESS of the squared residual measures mixing within a
            # component.
            resid = oracles.mixture_residuals(x[..., 0], q, spec.means,
                                              spec.variances)
            failures, margin = oracles.check_mixture(
                accept, x[..., 0], q, spec.means, spec.variances)
            return resid * resid, divergences, failures, margin
        if self.name == "blr_laplace":
            failures, margin = oracles.check_blr(x, divergences, self.support)
            return q, divergences, failures, margin
        failures, margin = oracles.check_binary(x, ess(x), spec.W, spec.b)
        return x, divergences, failures, margin


def run_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def measure(work, seed, work_dir, config_path):
    """End-to-end metrics: each timing is the median over the run's
    invocations; ``ess_per_s`` pools the chains of every invocation."""
    reps = work.invocations
    setup_runs = [launch("setup", config_path, 0, work_dir / f"setup{i}")
                  for i in range(SETUP_RUNS)]
    setups = [res["setup_s"] for res in setup_runs]
    speeds = [res["host_speed"] for res in setup_runs]
    rows, ess_draws, failures, divergences, margin = [], [], [], 0, 0.0
    for i, rep_seed in enumerate(run_seeds(seed, reps)):
        res = launch("full", config_path, rep_seed, work_dir / f"rep{i}")
        draws, div, bad, rep_margin = work.check(res)
        if draws is not None:
            ess_draws.append(draws)
        divergences += div
        margin = max(margin, rep_margin)
        failures += [f"seed {rep_seed}: {msg}" for msg in bad]
        setups.append(res["setup_s"])
        speeds.append(res["host_speed"])
        rows.append({"iter_per_s": work.chain_iters / res["sampling_s"],
                     "sampling_s": res["sampling_s"],
                     "report_s": res["report_s"],
                     "wall_s": res["wall_s"],
                     "peak_rss_mb": res["peak_rss_mb"],
                     "raw_iter_per_s": work.chain_iters / res["raw_sampling_s"],
                     "raw_wall_s": res["raw_wall_s"]})
        shutil.rmtree(res["dir"])
    # The median over columns of the ESS of every invocation's chains
    # together: the invocations sample the same target from independent
    # seeds, and one pooled estimate is steadier than a median of three.
    median_ess = float("nan")
    if len(ess_draws) == reps:
        column_ess = ess(np.concatenate(ess_draws))
        median_ess = float(np.median(column_ess))
        if not np.all(np.isfinite(column_ess)):
            failures.append("ESS undefined: a column has zero variance")
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("iter_per_s", "report_s", "wall_s", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in rows)
    metrics["ess_per_s"] = median_ess / sum(r["sampling_s"] for r in rows)
    info = {"invocations": reps, "setups": len(setups),
            "median_ess": median_ess, "check_margin": margin,
            "host_speed": statistics.median(speeds),
            "raw_iter_per_s": statistics.median(r["raw_iter_per_s"] for r in rows),
            "raw_wall_s": statistics.median(r["raw_wall_s"] for r in rows)}
    return ({k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items()},
            reps * work.chain_iters, divergences, failures, info)


def trace(work, seed, work_dir, config_path):
    """Per-layer metrics from one traced invocation, against an untraced one
    of the same seed whose samples CSV must match byte for byte."""
    rep_seed = run_seeds(seed, 1)[0]
    plain = launch("plain", config_path, rep_seed, work_dir / "plain")
    traced = launch("trace", config_path, rep_seed, work_dir / "traced")
    failures, divergences = [], 0
    for res in (plain, traced):
        _, div, bad, _ = work.check(res)
        divergences += div
        failures += bad
    if ((plain["dir"] / "samples.csv").read_bytes()
            != (traced["dir"] / "samples.csv").read_bytes()):
        failures.append("traced and untraced samples CSVs differ")

    spans = traced["trace"]["spans"]
    iters = work.chain_iters
    metrics = {}
    for layer in TRACED_LAYERS:
        calls, self_s, _ = spans[layer]
        metrics[f"{layer}.calls_per_iter"] = (calls / iters, "calls/iter")
        metrics[f"{layer}.self_us_per_iter"] = (self_s * 1e6 / iters, "us/iter")
    for step in TRACED_STEPS:
        metrics[f"{step}.self_us_per_iter"] = (spans[step][1] * 1e6 / iters,
                                               "us/iter")
    proposals = spans["core.propose_and_delta"][0]
    accepts = traced["trace"]["discrete_accepts"]
    metrics["kernels.discrete_accepts_per_proposal"] = (
        accepts / proposals if proposals else 0.0, "share")
    for name in TRACED_TOTALS:
        metrics[f"{name}.s"] = (spans[name][2], "s")
    metrics["cli.import_s"] = (traced["import_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    info = {"invocations": 2, "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": plain["wall_s"]}
    return metrics, 2 * iters, divergences, failures, info


def run_workload(name, seed, traced):
    work = Workload(name)
    work_dir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    config = dict(work.config, output={"samples_path": "samples.csv",
                                       "summary_path": "summary.json"})
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config))
    try:
        if traced:
            return trace(work, seed, work_dir, config_path)
        return measure(work, seed, work_dir, config_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal run length; the invocation counts are "
                             "fixed and do not change with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "mixedhmc" / "cli.py").is_file():
        print(f"error: no mixedhmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct, attempted, failed, all_metrics = True, 0, 0, {}
    for name, (metrics, n_iter, n_div, failures, info) in results.items():
        attempted += n_iter
        failed += n_div
        correct = correct and not failures
        print(f"{name}: {n_iter} chain-iterations attempted, {n_div} diverged, "
              f"checks {'passed' if not failures else 'FAILED'}; "
              + ", ".join(f"{k} {v:.6g}" for k, v in info.items()))
        for msg in failures:
            print(f"  check failed: {msg}", file=sys.stderr)
        for key, (value, unit) in metrics.items():
            print(f"  {key:48s} {value:14.6g} {unit}")
            label = key if len(names) == 1 else f"{name}.{key}"
            all_metrics[label] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
