"""Print one sha256 of the samples CSV per config, after checking that the
CSV is byte-identical at one and two worker processes.

    python3 tools/samples_hash.py [NAME ...] [--src DIR]

Runs ``mixedhmc run --threads 1`` and ``--threads 2`` on each named config
of ``CONFIGS`` (all of them by default), in a temporary directory, with the
package imported from ``DIR`` (default: this checkout's ``src/``) and
single-threaded BLAS.  Prints ``<name> <sha256>`` per config.  Two versions
of the sampler draw the same samples when their outputs match, e.g.

    diff <(python3 tools/samples_hash.py) \\
         <(python3 tools/samples_hash.py --src ../other/src)

Exits 1 if a config's CSV differs between the two worker counts, 2 if a
run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
    # in an iteration, and the lockstep path takes its events from one sort
    # of the hit times, between leapfrog segments.
    "general_beta1_sorted_gmm1d": {
        "model": {"type": "gmm1d"},
        "kernel": dict(_GMM1D_GENERAL, beta=1.0, T=0.9),
        "run": {"chains": 4, "burn_in": 100, "samples": 800, "seed": 21}},
    # Two chains each, so that --threads 2 runs two lone chains and
    # --threads 1 one batch of 2.  At beta 1.5 a refracted momentum takes
    # numpy's own pow in kinv, and a clock's energy and speed libm's.
    "general_beta1.5": {
        "model": {"type": "gmm1d"}, "kernel": dict(_GMM1D_GENERAL, beta=1.5),
        "run": {"chains": 2, "burn_in": 100, "samples": 800, "seed": 23}},
    # Clock positions kept at beta 1: every iteration finds its events
    # round by round.
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


def samples_digest(name: str, src: Path, threads: int, work: Path) -> str:
    """sha256 of the samples CSV of one ``mixedhmc run``."""
    out = work / f"{name}-{threads}"
    out.mkdir()
    config = out / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "mixedhmc.cli", "run", "--config", str(config),
         "--threads", str(threads), "--out-dir", str(out)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} at --threads {threads} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()


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
    code = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names or CONFIGS:
            try:
                one, two = (samples_digest(name, args.src.resolve(), threads,
                                           Path(tmp)) for threads in (1, 2))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if one != two:
                print(f"{name} differs: --threads 1 {one}, --threads 2 {two}")
                code = 1
            else:
                print(f"{name} {one}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
