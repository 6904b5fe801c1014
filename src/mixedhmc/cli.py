"""Experiment runner CLI.

``mixedhmc run --config cfg.json`` executes a configured multi-chain run and
writes a samples CSV plus a summary JSON; ``mixedhmc check <suite>`` runs the
built-in validation suites.  Config files are a single JSON object with
``model``, ``kernel``, ``run``, and ``output`` sections; see README for the
full schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import checks
from .diagnostics import DegenerateDimensionWarning, ess, ks_two_sample
from .models import (
    BlrVarsel,
    GaussianMixture,
    GmmSpec,
    blr_dataset_from_csv,
    blr_generate,
    gmm1d_preset,
    gmm24_preset,
    random_binary_quadratic,
)
from .rng import ChainRng
from .runner import resolve_threads, run_chains

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    """Invalid run configuration; message carries the offending field path."""


def _get(section: dict, path: str, key: str, kind, required=False, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _positive(value, path, key):
    if value is None or value <= 0:
        raise ConfigError(f"{path}.{key}: must be positive")
    return value


def build_model(section: dict):
    mtype = _get(section, "model", "type", str, required=True)
    if mtype == "gmm1d" or mtype == "gmm24":
        model = gmm1d_preset() if mtype == "gmm1d" else gmm24_preset()
        if any(k in section for k in ("weights", "means", "variances")):
            spec = model.spec
            weights = np.asarray(section.get("weights", spec.weights), dtype=float)
            means = np.asarray(section.get("means", spec.means), dtype=float)
            variances = np.asarray(section.get("variances", spec.variances),
                                   dtype=float)
            try:
                model = GaussianMixture(GmmSpec(weights, means, variances))
            except ValueError as exc:
                raise ConfigError(f"model: invalid GMM override: {exc}") from exc
        return model
    if mtype == "blr":
        csv_path = section.get("csv_path")
        if csv_path:
            try:
                return BlrVarsel(blr_dataset_from_csv(csv_path))
            except OSError as exc:
                raise ConfigError(f"model.csv_path: cannot read: {exc}") from exc
        seed = _get(section, "model", "seed", int, default=0)
        n = _positive(_get(section, "model", "n", int, default=100), "model", "n")
        d = _positive(_get(section, "model", "d", int, default=20), "model", "d")
        return BlrVarsel(blr_generate(seed, n=n, d=d).spec)
    if mtype == "binary":
        seed = _get(section, "model", "seed", int, default=0)
        n_sites = _positive(_get(section, "model", "n_sites", int, default=6),
                            "model", "n_sites")
        return random_binary_quadratic(n_sites, ChainRng(seed, stream=0))
    raise ConfigError(f"model.type: unknown type {mtype!r} "
                      "(expected gmm1d|gmm24|blr|binary)")


def build_kernel(section: dict, model):
    ktype = _get(section, "kernel", "type", str, required=True)
    if ktype == "laplace":
        kw = {
            "epsilon": _positive(_get(section, "kernel", "epsilon", float,
                                      required=True), "kernel", "epsilon"),
            "T": _positive(_get(section, "kernel", "T", float, required=True),
                           "kernel", "T"),
            "L": _positive(_get(section, "kernel", "L", int, required=True),
                           "kernel", "L"),
            "n_D": _positive(_get(section, "kernel", "n_D", int, default=1),
                             "kernel", "n_D"),
        }
        if "mass_diag" in section:
            try:
                mass = np.asarray(section["mass_diag"], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"kernel.mass_diag: {exc}") from exc
            if mass.shape != (model.n_continuous,) or not np.all(mass > 0):
                raise ConfigError(f"kernel.mass_diag: expected a list of "
                                  f"{model.n_continuous} positive entries, one "
                                  "per continuous coordinate")
            kw["mass_diag"] = mass
        if model.n_discrete >= 1 and kw["n_D"] > model.n_discrete:
            raise ConfigError("kernel.n_D: exceeds the model's discrete sites")
        return "laplace", kw
    if ktype == "general":
        kw = {
            "T": _positive(_get(section, "kernel", "T", float, required=True),
                           "kernel", "T"),
            "beta": _positive(_get(section, "kernel", "beta", float, default=1.0),
                              "kernel", "beta"),
            "tau": _positive(_get(section, "kernel", "tau", float, default=1.0),
                             "kernel", "tau"),
            "integrator_eps": _positive(
                _get(section, "kernel", "integrator_eps", float, default=0.1),
                "kernel", "integrator_eps"),
            "resample_positions": _get(section, "kernel", "resample_positions",
                                       bool, default=True),
        }
        return "general", kw
    if ktype == "naive":
        if not isinstance(model, GaussianMixture) or model.n_continuous != 1:
            raise ConfigError("kernel.type: naive kernel requires a 1D GMM model")
        kw = {
            "epsilon": _positive(_get(section, "kernel", "epsilon", float,
                                      required=True), "kernel", "epsilon"),
            "L": _positive(_get(section, "kernel", "L", int, required=True),
                           "kernel", "L"),
            "use_k": _get(section, "kernel", "use_k", bool, default=True),
        }
        return "naive", kw
    if ktype == "gibbs":
        kw = {"rw_scale": _positive(_get(section, "kernel", "rw_scale", float,
                                         required=True), "kernel", "rw_scale")}
        return "gibbs", kw
    raise ConfigError(f"kernel.type: unknown type {ktype!r} "
                      "(expected laplace|general|naive|gibbs)")


def parse_run_section(section: dict):
    chains = _positive(_get(section, "run", "chains", int, default=1),
                       "run", "chains")
    burn_in = _get(section, "run", "burn_in", int, default=0)
    if burn_in < 0:
        raise ConfigError("run.burn_in: must be >= 0")
    samples = _get(section, "run", "samples", int, default=1000)
    if samples < 0:
        raise ConfigError("run.samples: must be >= 0")
    seed = _get(section, "run", "seed", int, default=0)
    return chains, burn_in, samples, seed


def _column_names(model):
    return ([f"x_{j}" for j in range(model.n_discrete)]
            + [f"q_{d}" for d in range(model.n_continuous)])


def _write_atomic(path, write):
    """Call ``write(fh)`` on a temporary file beside ``path``, then rename it
    to ``path``: a failed write leaves no partial file."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_samples_csv(path, outputs, model):
    cols = _column_names(model)

    def write(fh):
        fh.write("chain,iter,accept," + ",".join(cols) + "\n")
        for chain_id, out in enumerate(outputs):
            for i in range(out.n_samples):
                row = out.samples[i]
                fh.write(f"{chain_id},{i},{int(out.accept_trace[i])},")
                fh.write(",".join(format(v, ".17g") for v in row))
                fh.write("\n")

    _write_atomic(path, write)


def write_summary_json(path, summary):
    def write(fh):
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    _write_atomic(path, write)


def build_summary(config, model, outputs, seed, wall_time):
    nd, nc = model.n_discrete, model.n_continuous
    cols = _column_names(model)
    n_samples = outputs[0].n_samples if outputs else 0
    total = sum(o.n_samples for o in outputs)
    summary = {
        "model": config["model"],
        "kernel": config["kernel"],
        "chains": len(outputs),
        "samples": n_samples,
        "seed": seed,
        "acceptance_rate": (float(np.mean([o.accept_trace.mean() for o in outputs]))
                            if total else 0.0),
        "divergences": int(sum(o.divergence_count for o in outputs)),
        "wall_time": wall_time,
        "warnings": [],
    }

    if total and n_samples >= 8:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateDimensionWarning)
            per_dim = {cols[d]: float(ess([o.samples[:, d] for o in outputs]))
                       for d in range(nd + nc)}
            dims = list(range(nd, nd + nc)) if nc else list(range(nd))
            summary["ess"] = per_dim
            summary["mress"] = min(per_dim[cols[d]] for d in dims) / total
    else:
        summary["ess"] = {}
        summary["mress"] = None

    if total and hasattr(model, "exact_sample") and nc:
        ref_rng = ChainRng(seed, stream=len(outputs))
        ref = model.exact_sample(ref_rng, min(total, 100_000))
        ks = {}
        for d in range(nc):
            pooled = np.concatenate([o.samples[:, nd + d] for o in outputs])
            ks[cols[nd + d]] = float(ks_two_sample(pooled, ref[:, 1 + d]))
        summary["ks_vs_exact"] = ks

    div_rate = summary["divergences"] / max(total, 1)
    if div_rate > 0.5:
        summary["warnings"].append(
            f"divergence rate {div_rate:.2f} exceeds 0.5; results unreliable")
    return summary


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        if not isinstance(config, dict):
            raise ConfigError("config: top level must be a JSON object")
        model = build_model(config.get("model", {}))
        kind, kernel_kwargs = build_kernel(config.get("kernel", {}), model)
        chains, burn_in, samples, seed = parse_run_section(config.get("run", {}))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    if args.chains is not None:
        chains = args.chains
    if args.seed is not None:
        seed = args.seed
    threads = resolve_threads(args.threads, chains)

    out_section = config.get("output", {})
    out_dir = args.out_dir or "."
    samples_path = os.path.join(out_dir, out_section.get("samples_path",
                                                         "samples.csv"))
    summary_path = os.path.join(out_dir, out_section.get("summary_path",
                                                         "summary.json"))

    t_start = time.perf_counter()
    outputs = run_chains(kind, model, kernel_kwargs, chains, burn_in, samples,
                         seed, threads=threads)
    wall = time.perf_counter() - t_start

    summary = build_summary(config, model, outputs, seed, wall)
    try:
        os.makedirs(out_dir, exist_ok=True)
        write_samples_csv(samples_path, outputs, model)
        write_summary_json(summary_path, summary)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    for msg in summary["warnings"]:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"wrote {samples_path} ({chains} chains x {samples} samples) "
          f"and {summary_path}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        results = checks.run_suite(args.suite)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.suite}/{r.name}: value={r.value:.6g} "
              f"{r.comparison} threshold={r.threshold:g}", file=sys.stderr)
    report = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK if report["passed"] else EXIT_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixedhmc",
        description="Mixed HMC experiment runner and validation checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured sampling experiment")
    p_run.add_argument("--config", required=True, help="path to JSON config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
    p_run.add_argument("--chains", type=int, default=None,
                       help="override run.chains")
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: MHMC_THREADS or cores)")
    p_run.add_argument("--out-dir", default=None,
                       help="directory for output files (default: cwd)")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a built-in validation suite")
    p_check.add_argument("suite", choices=checks.SUITE_NAMES)
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
