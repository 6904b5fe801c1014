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
import inspect
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


def _get(section: dict, path: str, key: str, kind):
    """``section[key]``, which must be there and be a ``kind``; a JSON int
    is read as a float where a float is asked for."""
    if key not in section:
        raise ConfigError(f"{path}.{key}: required field is missing")
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _known_keys(section: dict, path: str, keys) -> None:
    """Reject the first key of ``section`` that is not in ``keys``."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key "
                              f"(expected one of {', '.join(keys)})")


def _read(section, path: str, build, **given):
    """``build`` called on the JSON object ``section``, the config's
    ``path``: its keys are the parameters of ``build`` (a params class or a
    builder function, or a dict of them by the section's ``type``), and one
    without a default is required.  A parameter annotated ``bool``, ``int``,
    ``float`` or ``str`` is checked to be one.  ``given`` (command-line
    flags) replaces the section's values and passes the same checks.  A
    ``ValueError("<field>: ...")`` from ``build`` becomes
    ``ConfigError("<path>.<field>: ...")``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object, "
                          f"got {type(section).__name__}")
    section, keys = {**section, **given}, ()
    if isinstance(build, dict):
        kind = _get(section, path, "type", str)
        if kind not in build:
            raise ConfigError(f"{path}.type: unknown type {kind!r} "
                              f"(expected {'|'.join(build)})")
        build, keys = build[kind], ("type",)
    params = inspect.signature(build).parameters
    _known_keys(section, path, (*keys, *params))
    kinds = {name: kind for name, kind in typing.get_type_hints(build).items()
             if kind in (bool, int, float, str)}
    settings = {name: _get(section, path, name, kinds.get(name, object))
                for name, p in params.items()
                if name in section or p.default is p.empty}
    try:
        return build(**settings)
    except ConfigError:
        raise
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"{path}.{exc}") from None


def _at_least(low: int, **values) -> None:
    """Raise ``ValueError("<name>: must be positive")`` (``low`` 1) or
    ``"<name>: must be >= 0"`` (``low`` 0) for the first of ``values``
    below ``low``."""
    for name, value in values.items():
        if value < low:
            raise ValueError(f"{name}: must be {'positive' if low else '>= 0'}")


def _mixture(preset):
    """The builder of a mixture type: ``preset()``, with the weights, means
    or variances given in place of its own."""
    def build(weights=None, means=None, variances=None):
        given = {}
        for key, value in (("weights", weights), ("means", means),
                           ("variances", variances)):
            try:
                if value is not None:
                    given[key] = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from None
        model = preset()
        if not given:
            return model
        try:
            return GaussianMixture(dataclasses.replace(model.spec, **given))
        except ValueError as exc:  # names no single field
            raise ConfigError(f"model: invalid GMM override: {exc}") from exc
    return build


def _blr(seed: int = 0, n: int = 100, d: int = 20, csv_path: str = None):
    """BLR variable selection on a dataset generated from ``seed`` with
    ``n`` rows and ``d`` covariates, or on the one saved at ``csv_path``."""
    if csv_path is None:
        _at_least(0, seed=seed)
        _at_least(1, n=n, d=d)
        return BlrVarsel(blr_generate(seed, n=n, d=d).spec)
    try:
        return BlrVarsel(blr_dataset_from_csv(csv_path))
    except OSError as exc:
        raise ValueError(f"csv_path: cannot read: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"csv_path: bad content: {exc}") from None


def _binary(seed: int = 0, n_sites: int = 6):
    """The random binary quadratic target on ``n_sites`` sites, drawn from
    ``seed``."""
    _at_least(0, seed=seed)
    _at_least(1, n_sites=n_sites)
    return random_binary_quadratic(n_sites, ChainRng(seed, stream=0))


# Each model type's builder; its parameters are the type's settings, with
# their defaults.
MODELS = {"gmm1d": _mixture(gmm1d_preset), "gmm24": _mixture(gmm24_preset),
          "blr": _blr, "binary": _binary}


def run_settings(chains: int = 1, burn_in: int = 0, samples: int = 1000,
                 seed: int = 0):
    """The ``run`` section: chain count, iterations dropped and kept per
    chain, and the seed of the chains' streams."""
    _at_least(1, chains=chains)
    _at_least(0, burn_in=burn_in, samples=samples, seed=seed)
    return chains, burn_in, samples, seed


def output_paths(samples_path: str = "samples.csv",
                 summary_path: str = "summary.json"):
    """The ``output`` section: the two output paths, under ``--out-dir``."""
    return samples_path, summary_path


def build_model(section: dict):
    """The model of the ``model`` section, by its type's builder in
    :data:`MODELS`.  A saved BLR dataset takes no generator setting."""
    model = _read(section, "model", MODELS)
    generated = sorted(set(section) - {"type", "csv_path"})
    if "csv_path" in section and generated:
        raise ConfigError(f"model.csv_path: loads a saved dataset, which "
                          f"takes no {generated[0]!r}")
    return model


def build_kernel(section: dict, model):
    """The kernel kind and its params object, read from the fields of the
    kind's params class in :data:`KERNELS` and checked against ``model``."""
    params = _read(section, "kernel", KERNELS)
    kind = section["type"]
    try:
        return kind, kernel_params(kind, model, params)
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"kernel.{exc}") from None


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
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads: must be at least 1")
        model = build_model(config.get("model", {}))
        kind, params = build_kernel(config.get("kernel", {}), model)
        flags = {key: getattr(args, key) for key in ("chains", "seed")
                 if getattr(args, key) is not None}
        chains, burn_in, samples, seed = _read(config.get("run", {}), "run",
                                               run_settings, **flags)
        samples_path, summary_path = (
            os.path.join(args.out_dir or ".", path)
            for path in _read(config.get("output", {}), "output", output_paths))
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
