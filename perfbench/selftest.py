"""Tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

The file name keeps it out of the package's pytest collection; it also runs
under ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
from scipy import signal

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
from ess_estimator import ess  # noqa: E402
from speedmeter import REF_PROBE_S, ref_seconds  # noqa: E402


def _ar1(rho, n_chains, n_iter, n_cols, seed):
    gen = np.random.default_rng(seed)
    noise = gen.standard_normal((n_chains, n_iter, n_cols))
    noise[:, 1:] *= np.sqrt(1.0 - rho * rho)  # stationary from the first draw
    return signal.lfilter([1.0], [1.0, -rho], noise, axis=1)


def test_ess_matches_ar1_closed_form():
    """ESS / draws of a stationary AR(1) tends to (1 - rho) / (1 + rho)."""
    for rho in (0.0, 0.5, 0.9, -0.5):
        draws = _ar1(rho, 4, 20_000, 4, seed=int(100 * (rho + 1)))
        rel = ess(draws) / draws[..., 0].size
        want = (1.0 - rho) / (1.0 + rho)
        assert np.all(np.abs(rel - want) <= 0.1 * want), (rho, rel, want)


def test_ess_sees_chains_that_disagree():
    """Chains stuck at different levels give an ESS near the chain count."""
    draws = _ar1(0.0, 8, 2000, 1, seed=3) * 0.01 + np.arange(8)[:, None, None]
    assert ess(draws)[0] < 2 * 8


def test_ref_seconds_scales_program_time_by_the_probes_around_it():
    """Program time is scaled by the reference probe time over the probes'
    smoothed duration around it; probe time is left out."""
    ref = REF_PROBE_S
    # One probe a second: 50 at the reference speed, then 50 at half of it.
    probes = [(t, t + ref * (1 if t < 50 else 2)) for t in range(100)]
    scaled, raw = ref_seconds(probes, 10.5, 20.5)
    assert abs(raw - (10 - 10 * ref)) < 1e-9
    assert abs(scaled - raw) < 1e-9
    scaled, raw = ref_seconds(probes, 80.5, 90.5)
    assert abs(raw - (10 - 20 * ref)) < 1e-9
    assert abs(scaled - raw / 2) < 1e-9
    # Before the first probe and after the last, the nearest probes count.
    assert abs(ref_seconds(probes, -1.0, 0.0)[0] - 1.0) < 1e-9
    assert abs(ref_seconds(probes, 200.0, 201.0)[0] - 0.5) < 1e-9


def test_binary_enumeration_two_sites():
    """Two coupled spins, checked by hand: P(x = 1) from four states."""
    W = np.array([[0.0, 0.7], [0.7, 0.0]])
    b = np.array([0.2, -0.4])
    states = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    s = 2 * states - 1
    w = np.exp(0.7 * s[:, 0] * s[:, 1] + s @ b)
    assert np.allclose(oracles.binary_marginals(W, b), w @ states / w.sum())


def test_mixture_check_passes_exact_draws_and_fails_broken_samplers():
    """Exact i.i.d. draws pass.  A sampler that never moves q, every
    trajectory rejected, fails; so does one whose within-component spread is
    10% too wide."""
    sys.path.insert(0, str(run.SRC))
    from mixedhmc.models.gmm import gmm24_preset
    spec = gmm24_preset().spec
    gen = np.random.default_rng(11)
    z = gen.choice(4, size=(48, 1), p=spec.weights).repeat(120, axis=1)
    noise = gen.standard_normal((48, 120, 24))
    sd = np.sqrt(spec.variances[z])
    accept = np.ones((48, 120))

    def check(accept, noise):
        return oracles.check_mixture(accept, z, spec.means[z] + sd * noise,
                                     spec.means, spec.variances)[0]

    assert check(accept, noise) == []
    stuck = check(0.0 * accept, noise[:, :1].repeat(120, axis=1))
    assert any("accepted no trajectory" in msg for msg in stuck)
    assert any("pooled" in msg for msg in check(accept, 1.1 * noise))


def test_traced_and_untraced_runs_write_identical_samples():
    """Tracing wraps the program from outside and must not change a draw."""
    small = {"gmm24_laplace": {"chains": 2, "burn_in": 2, "samples": 10},
             "blr_laplace": {"chains": 2, "burn_in": 5, "samples": 10},
             "binary6_general": {"chains": 2, "burn_in": 5, "samples": 50}}
    sys.path.insert(0, str(run.SRC))
    work_dir = run.OUT / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        for name, size in small.items():
            config = dict(run.WORKLOADS[name]["config"], run=size)
            config_path = work_dir / name / "config.json"
            config_path.parent.mkdir(parents=True)
            config_path.write_text(json.dumps(config))
            plain = run.launch("full", config_path, 7, work_dir / name / "plain")
            traced = run.launch("trace", config_path, 7,
                                work_dir / name / "traced")
            assert ((plain["dir"] / "samples.csv").read_bytes()
                    == (traced["dir"] / "samples.csv").read_bytes()), name
            assert traced["trace"]["spans"]["rng"][0] > 0, name
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print(f"PASS {test_name}")
