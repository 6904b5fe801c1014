"""Print one sha256 of the samples CSV per config, after checking that the
CSV is byte-identical at one and two worker processes, and one of the
kernel's step statistics.

    python3 tools/samples_hash.py [NAME ...] [--src DIR]

Runs ``mixedhmc run --threads 1`` and ``--threads 2`` on each named config
of ``CONFIGS`` (all of them by default), in a temporary directory, with the
package imported from ``DIR`` (default: this checkout's ``src/``) and
single-threaded BLAS.  Prints ``<name> <sha256> <stats>`` per config:
``<stats>`` is the sha256 of every ``StepStats`` field of every iteration
(:func:`stats_digest`), which sees a last-bit change in an energy error
that moves no sample, or ``-`` for a baseline kernel, which has none.  Two
versions of the sampler draw the same samples and step statistics when
their outputs match, e.g.

    diff <(python3 tools/samples_hash.py) \\
         <(python3 tools/samples_hash.py --src ../other/src)

Exits 1 if a config's CSV differs between the two worker counts, 2 if a
run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_GMM24 = {"type": "laplace", "epsilon": 1.7, "T": 136.0, "L": 80, "n_D": 1}
_BLR = {"type": "blr", "seed": 0, "n": 100, "d": 20}
_GMM1D_GENERAL = {"type": "general", "T": 4.0, "beta": 2.0, "tau": 1.0,
                  "integrator_eps": 0.4}

# A 12-component mixture on a line, whose site has more than 8 values:
# past 8, numpy's row sums change their order of additions.  The CSV holds
# only x and q, so a last-bit change in a proposal's cost shows here only
# if it flips a decision; summing the costs in another order did not.  The
# order itself is held by tests/test_core.py::TestInformedRowsProperty.
_WIDE_GMM1D = {"type": "gmm1d", "weights": [0.05] * 4 + [0.1] * 8,
               "means": [[m - 5.5] for m in range(12)],
               "variances": [[0.3]] * 12}

# The benchmark's three workloads, README's example, and the kernel options,
# site widths and chain drivers that they leave out.
CONFIGS = {
    "gmm24_laplace": {
        "model": {"type": "gmm24"}, "kernel": _GMM24,
        "run": {"chains": 48, "burn_in": 10, "samples": 120}},
    "blr_laplace": {
        "model": _BLR,
        "kernel": {"type": "laplace", "epsilon": 0.15, "T": 3.0, "L": 20,
                   "n_D": 1},
        "run": {"chains": 8, "burn_in": 100, "samples": 500}},
    "binary6_general": {
        "model": {"type": "binary", "n_sites": 6, "seed": 2026},
        "kernel": {"type": "general", "T": 1.0, "beta": 1.0, "tau": 1.0,
                   "integrator_eps": 0.1},
        "run": {"chains": 4, "burn_in": 100, "samples": 8000}},
    "gmm1d_readme": {
        "model": {"type": "gmm1d"},
        "kernel": {"type": "laplace", "epsilon": 0.5, "T": 4.5, "L": 18,
                   "n_D": 1},
        "run": {"chains": 4, "burn_in": 500, "samples": 2000, "seed": 7}},
    "gmm1d_wide_sites": {
        "model": _WIDE_GMM1D,
        "kernel": {"type": "laplace", "epsilon": 0.5, "T": 4.5, "L": 18,
                   "n_D": 1},
        "run": {"chains": 4, "burn_in": 200, "samples": 1000, "seed": 11}},
    "laplace_mass_diag": {
        "model": {"type": "gmm24"},
        "kernel": dict(_GMM24, T=13.6, L=8,
                       mass_diag=[0.5 + 0.0625 * i for i in range(24)]),
        "run": {"chains": 8, "burn_in": 20, "samples": 200}},
    "blr_n_d2": {
        "model": dict(_BLR, n=40, d=6),
        "kernel": {"type": "laplace", "epsilon": 0.2, "T": 2.0, "L": 6,
                   "n_D": 2},
        "run": {"chains": 8, "burn_in": 50, "samples": 300}},
    "general_beta2": {
        "model": {"type": "gmm1d"}, "kernel": _GMM1D_GENERAL,
        "run": {"chains": 4, "burn_in": 100, "samples": 800, "seed": 3}},
    "general_fixed_positions": {
        "model": {"type": "gmm1d"},
        "kernel": dict(_GMM1D_GENERAL, beta=0.5, resample_positions=False),
        "run": {"chains": 4, "burn_in": 100, "samples": 800, "seed": 5}},
    # Chains at beta 1 step in lockstep: one continuous coordinate, a
    # 4-value site, and event counts that differ between chains.
    "general_beta1_gmm1d": {
        "model": {"type": "gmm1d"},
        "kernel": dict(_GMM1D_GENERAL, beta=1.0, T=2.5, integrator_eps=0.3),
        "run": {"chains": 4, "burn_in": 100, "samples": 800, "seed": 13}},
    # With T below tau and positions redrawn, each clock fires at most once
    # in an iteration.
    "general_beta1_sorted_gmm1d": {
        "model": {"type": "gmm1d"},
        "kernel": dict(_GMM1D_GENERAL, beta=1.0, T=0.9),
        "run": {"chains": 4, "burn_in": 100, "samples": 800, "seed": 21}},
    # Two chains each, so that --threads 2 runs two lone chains and
    # --threads 1 one batch of 2.  At beta 1.5 numpy's array pow, which
    # every clock's energy, momentum and speed take, differs from libm's
    # on about 5% of values.
    "general_beta1.5": {
        "model": {"type": "gmm1d"}, "kernel": dict(_GMM1D_GENERAL, beta=1.5),
        "run": {"chains": 2, "burn_in": 100, "samples": 800, "seed": 23}},
    # Clock positions kept at beta 1: each clock's end position is computed
    # at T from its last event, and the next iteration starts there.
    "general_kept_positions_beta1": {
        "model": {"type": "gmm1d"},
        "kernel": dict(_GMM1D_GENERAL, beta=1.0, T=2.5, integrator_eps=0.3,
                       resample_positions=False),
        "run": {"chains": 2, "burn_in": 100, "samples": 800, "seed": 29}},
    # The baselines: Gibbs proposes through core.propose_and_delta.
    "gibbs_gmm1d": {
        "model": {"type": "gmm1d"},
        "kernel": {"type": "gibbs", "rw_scale": 0.5},
        "run": {"chains": 4, "burn_in": 100, "samples": 2000, "seed": 17}},
    "naive_gmm1d": {
        "model": {"type": "gmm1d"},
        "kernel": {"type": "naive", "epsilon": 0.2, "L": 20},
        "run": {"chains": 4, "burn_in": 100, "samples": 2000, "seed": 19}},
}


def _run(argv, src: Path, what: str):
    """Run ``argv`` with the package imported from ``src`` and
    single-threaded BLAS; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


def samples_digest(name: str, src: Path, threads: int, work: Path) -> str:
    """sha256 of the samples CSV of one ``mixedhmc run``."""
    out = work / f"{name}-{threads}"
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    _run(["-m", "mixedhmc.cli", "run", "--config", str(config), "--threads",
          str(threads), "--out-dir", str(out)], src,
         f"{name} at --threads {threads}")
    return hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()


def stats_digest(name: str) -> str:
    """sha256 of every ``StepStats`` field, in field order, of every
    iteration of config ``name``'s chains, stepped as one batch through the
    public lockstep step (``laplace_step_batch`` or ``general_step_batch``)
    from the inits and streams of its run; ``-`` for a baseline kernel.
    It imports the package, so :func:`main` calls it in a child process."""
    import numpy as np

    from mixedhmc.cli import build_kernel, build_model, run_settings
    from mixedhmc.core import KineticEnergy, stack_points
    from mixedhmc.kernels_general import general_step_batch, sample_auxiliary
    from mixedhmc.kernels_laplace import laplace_step_batch
    from mixedhmc.rng import ChainRng
    from mixedhmc.runner import default_init

    config = CONFIGS[name]
    model = build_model(config["model"])
    kind, params = build_kernel(config["kernel"], model)
    if kind not in ("laplace", "general"):
        return "-"
    chains, burn_in, samples, seed = run_settings(**config["run"])
    rngs = [ChainRng(seed, stream) for stream in range(chains)]
    x, q = stack_points([default_init(model, rng) for rng in rngs], model)
    if kind == "general":
        # As run_chain_general_batch draws the first clocks.
        kinetic = KineticEnergy(params.beta)
        qd = np.array([sample_auxiliary(model.n_discrete, params.tau, kinetic,
                                        rng).qD for rng in rngs])
        qd = qd.reshape(chains, model.n_discrete)
    digest, potential = hashlib.sha256(), None
    for _ in range(burn_in + samples):
        if kind == "laplace":
            x, q, stats = laplace_step_batch(x, q, params, model, rngs)
        else:
            x, q, qd, potential, stats = general_step_batch(
                x, q, qd, params, model, rngs, potential)
        for field in dataclasses.fields(stats):
            value = np.asarray(getattr(stats, field.name))
            digest.update(value.dtype.str.encode() + value.tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"one of {', '.join(CONFIGS)} (default: all)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the mixedhmc package")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in CONFIGS]
    if unknown:
        parser.error(f"unknown config {unknown[0]!r}")
    code, src = 0, args.src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names or CONFIGS:
            try:
                one, two = (samples_digest(name, src, threads, Path(tmp))
                            for threads in (1, 2))
                stats = _run(
                    ["-c", f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                     "import samples_hash; "
                     f"print(samples_hash.stats_digest({name!r}))"],
                    src, f"{name}'s step statistics").strip()
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if one != two:
                print(f"{name} differs: --threads 1 {one}, --threads 2 {two}")
                code = 1
            else:
                print(f"{name} {one} {stats}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
