"""Experiment runner CLI.

``mixedhmc run --config cfg.json`` executes a configured multi-chain run and
writes a samples CSV plus a summary JSON; ``mixedhmc check <suite>`` runs the
built-in validation suites.  Config files are a single JSON object with
``model``, ``kernel``, ``run``, and ``output`` sections; see README for the
full schema.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import typing
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
from .runner import KERNELS, kernel_params, run_chains

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


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object, "
                          f"got {type(section).__name__}")
    return section


def _known_keys(section: dict, path: str, keys) -> None:
    """Reject the first key of ``section`` that is not in ``keys``."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key "
                              f"(expected one of {', '.join(keys)})")


def _positive(value, path, key):
    if value is None or value <= 0:
        raise ConfigError(f"{path}.{key}: must be positive")
    return value


def _nonnegative(value, path, key):
    if value < 0:
        raise ConfigError(f"{path}.{key}: must be >= 0")
    return value


def build_model(section: dict):
    mtype = _get(section, "model", "type", str, required=True)
    if mtype == "gmm1d" or mtype == "gmm24":
        _known_keys(section, "model", ("type", "weights", "means", "variances"))
        model = gmm1d_preset() if mtype == "gmm1d" else gmm24_preset()
        if any(k in section for k in ("weights", "means", "variances")):
            parts = {}
            for key in ("weights", "means", "variances"):
                try:
                    parts[key] = np.asarray(
                        section.get(key, getattr(model.spec, key)), dtype=float)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"model.{key}: {exc}") from None
            try:
                model = GaussianMixture(GmmSpec(**parts))
            except ValueError as exc:
                raise ConfigError(f"model: invalid GMM override: {exc}") from exc
        return model
    if mtype == "blr":
        _known_keys(section, "model", ("type", "csv_path", "seed", "n", "d"))
        csv_path = _get(section, "model", "csv_path", str)
        if csv_path:
            try:
                return BlrVarsel(blr_dataset_from_csv(csv_path))
            except OSError as exc:
                raise ConfigError(f"model.csv_path: cannot read: {exc}") from exc
            except ValueError as exc:
                raise ConfigError(f"model.csv_path: bad content: {exc}") from exc
        seed = _nonnegative(_get(section, "model", "seed", int, default=0),
                            "model", "seed")
        n = _positive(_get(section, "model", "n", int, default=100), "model", "n")
        d = _positive(_get(section, "model", "d", int, default=20), "model", "d")
        return BlrVarsel(blr_generate(seed, n=n, d=d).spec)
    if mtype == "binary":
        _known_keys(section, "model", ("type", "seed", "n_sites"))
        seed = _nonnegative(_get(section, "model", "seed", int, default=0),
                            "model", "seed")
        n_sites = _positive(_get(section, "model", "n_sites", int, default=6),
                            "model", "n_sites")
        return random_binary_quadratic(n_sites, ChainRng(seed, stream=0))
    raise ConfigError(f"model.type: unknown type {mtype!r} "
                      "(expected gmm1d|gmm24|blr|binary)")


def build_kernel(section: dict, model):
    """The kernel kind and its params object, read from the fields of the
    kind's params class in :data:`KERNELS`; any other key is rejected."""
    kind = _get(section, "kernel", "type", str, required=True)
    if kind not in KERNELS:
        raise ConfigError(f"kernel.type: unknown type {kind!r} "
                          f"(expected {'|'.join(KERNELS)})")
    cls = KERNELS[kind]
    hints = typing.get_type_hints(cls)  # each field's name and type
    _known_keys(section, "kernel", ("type", *hints))
    settings = {}
    for f in dataclasses.fields(cls):
        if f.name in section or f.default is dataclasses.MISSING:
            hint = hints[f.name]
            settings[f.name] = (
                _get(section, "kernel", f.name, hint, required=True)
                if hint in (bool, float, int) else section[f.name])
    try:
        return kind, kernel_params(kind, model, settings)
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"kernel.{exc}") from None


def parse_run_section(section: dict):
    _known_keys(section, "run", ("chains", "burn_in", "samples", "seed"))
    chains = _positive(_get(section, "run", "chains", int, default=1),
                       "run", "chains")
    burn_in, samples, seed = (
        _nonnegative(_get(section, "run", key, int, default=default), "run", key)
        for key, default in (("burn_in", 0), ("samples", 1000), ("seed", 0)))
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
    # One %-format per row over Python floats; one write per row keeps the
    # whole file out of memory.
    line = "%d,%d,%d," + ",".join(["%.17g"] * len(cols)) + "\n"

    def write(fh):
        fh.write("chain,iter,accept," + ",".join(cols) + "\n")
        for chain_id, out in enumerate(outputs):
            samples = out.samples
            for i, accept in enumerate(out.accept_trace.tolist()):
                fh.write(line % (chain_id, i, accept, *samples[i].tolist()))

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
        _known_keys(config, "", ("model", "kernel", "run", "output"))
        model = build_model(_section(config, "model"))
        kind, params = build_kernel(_section(config, "kernel"), model)
        run = dict(_section(config, "run"))
        for key in ("chains", "seed"):  # flags override, and pass the checks
            if getattr(args, key) is not None:
                run[key] = getattr(args, key)
        chains, burn_in, samples, seed = parse_run_section(run)
        out = _section(config, "output")
        _known_keys(out, "output", ("samples_path", "summary_path"))
        out_dir = args.out_dir or "."
        samples_path, summary_path = (
            os.path.join(out_dir, _get(out, "output", key, str, default=name))
            for key, name in (("samples_path", "samples.csv"),
                              ("summary_path", "summary.json")))
        for path in (samples_path, summary_path):  # fail before sampling
            os.makedirs(os.path.dirname(path), exist_ok=True)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    t_start = time.perf_counter()
    outputs = run_chains(kind, model, params, chains, burn_in, samples, seed,
                         threads=args.threads)
    wall = time.perf_counter() - t_start

    summary = build_summary(config, model, outputs, seed, wall)
    try:
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
                       help="worker processes (default: cores)")
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
