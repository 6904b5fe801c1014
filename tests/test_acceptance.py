"""Acceptance suite: one test per criterion, tolerances pinned, one summary
line printed per criterion.

Heavy comparisons use fixed seeds and 2 worker processes; the whole module is
sized to finish well inside its stated runtime limits on a 2-core box.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy import signal

from mixedhmc import (
    ChainRng,
    LaplaceKernelParams,
    get_step_sizes_n_steps,
)
from mixedhmc.checks import (
    check_distributions,
    check_exactness,
    check_gradients,
    check_reversibility,
)
from mixedhmc.cli import main as cli_main
from mixedhmc.diagnostics import ess, ks_two_sample, mress
from mixedhmc.models import gmm1d_preset, gmm24_preset
from mixedhmc.runner import run_chains

SEED = 2026
GMM1D_KERNEL = {"epsilon": 0.5, "T": 4.5, "L": 18, "n_D": 1}
GMM24_KERNEL = {"epsilon": 1.7, "T": 136.0, "L": 80, "n_D": 1}
NAIVE_KERNEL = {"epsilon": 0.55, "L": 9}


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} {name}: PASS ({detail})", flush=True)


@pytest.fixture(scope="module")
def gmm1d_run():
    """Criterion 2's run, shared with criterion 3: 16 chains x 12500 samples
    of the Laplace kernel on the 1D mixture, plus the exact reference draw."""
    model = gmm1d_preset()
    t_start = time.perf_counter()
    outputs = run_chains("laplace", model, GMM1D_KERNEL, 16, 100, 12500,
                         SEED, threads=2)
    wall = time.perf_counter() - t_start
    z = np.concatenate([o.samples[:, 0] for o in outputs])
    q = np.concatenate([o.samples[:, 1] for o in outputs])
    reference = model.exact_sample(ChainRng(SEED, 99), 200_000)[:, 1]
    return {
        "model": model,
        "wall": wall,
        "freqs": np.bincount(z.astype(int), minlength=4) / z.size,
        "ks": ks_two_sample(q, reference),
        "reference": reference,
    }


def test_criterion_01_exactness():
    """6-site binary quadratic target, event-driven kernel with unit-power
    momentum and flip proposals: marginals within 0.01 of enumeration, by
    the check that ``mixedhmc check exactness`` runs."""
    t_start = time.perf_counter()
    (result,) = check_exactness(seed=SEED)
    err = result.value
    wall = time.perf_counter() - t_start
    assert err < 0.01
    assert wall < 30.0
    report(1, "exactness", f"max marginal error {err:.4f} < 0.01, "
                           f"runtime {wall:.0f}s < 30s")


def test_criterion_02_gmm1d_correctness(gmm1d_run):
    """Benchmark 1D mixture, 2e5 pooled samples: component frequencies within
    +-0.02 of (0.15, 0.30, 0.30, 0.25) and K-S vs the exact ancestral sampler
    below 0.02."""
    weights = gmm1d_run["model"].spec.weights
    err = float(np.abs(gmm1d_run["freqs"] - weights).max())
    assert err <= 0.02
    assert gmm1d_run["ks"] < 0.02
    assert gmm1d_run["wall"] < 60.0
    report(2, "gmm1d correctness",
           f"max freq error {err:.4f} <= 0.02, K-S {gmm1d_run['ks']:.4f} "
           f"< 0.02, runtime {gmm1d_run['wall']:.0f}s < 60s")


def test_criterion_03_naive_update_bias(gmm1d_run):
    """Replacing the kinetic-energy bookkeeping by fresh Exponential(1)
    thresholds (use_k=False) leaves a systematic bias: its K-S distance to
    the exact sampler is at least twice criterion 2's."""
    model = gmm1d_run["model"]
    kernel = dict(NAIVE_KERNEL, use_k=False)
    outputs = run_chains("naive", model, kernel, 16, 100, 12500, SEED,
                         threads=2)
    q = np.concatenate([o.samples[:, 1] for o in outputs])
    ks_naive = ks_two_sample(q, gmm1d_run["reference"])
    ratio = ks_naive / gmm1d_run["ks"]
    assert ratio >= 2.0
    report(3, "naive-update bias",
           f"K-S {ks_naive:.4f} >= 2 x {gmm1d_run['ks']:.4f} "
           f"(ratio {ratio:.2f})")


def test_criterion_04_reversibility():
    results = check_reversibility(n_trials=100, tol=1e-8)
    assert results, "no models checked"
    for r in results:
        assert r.passed, f"{r.name}: {r.value} > {r.threshold}"
    worst = max(r.value for r in results)
    report(4, "leapfrog reversibility",
           f"worst relative error {worst:.2e} < 1e-8 over 100 trials/model")


def test_criterion_05_gradients():
    results = check_gradients(n_points=20, tol=1e-5)
    assert results
    for r in results:
        assert r.passed, f"{r.name}: {r.value} > {r.threshold}"
    worst = max(r.value for r in results)
    report(5, "gradient oracle",
           f"worst relative error {worst:.2e} < 1e-5 at 20 points/model")


def test_criterion_06_step_schedule_contract():
    rng = ChainRng(SEED, 5)
    worst_sum = 0.0
    for _ in range(10_000):
        n_sites = 1 + int(rng.uniform() * 8)
        n_d = 1 + int(rng.uniform() * n_sites)
        L = 1 + int(rng.uniform() * 60)
        T = 0.1 + 20.0 * float(rng.uniform())
        eps = 0.02 + 2.0 * float(rng.uniform())
        params = LaplaceKernelParams(epsilon=eps, T=T, L=L, n_D=n_d)
        sched = get_step_sizes_n_steps(params, n_sites, rng)
        rel = abs(float(sched.eta @ sched.n_steps) - T) / T
        worst_sum = max(worst_sum, rel)
        assert rel <= 1e-9
        assert sched.eta.max() <= eps
    report(6, "step schedule contract",
           f"worst |sum eta*M - T|/T {worst_sum:.2e} <= 1e-9, "
           "max eta <= epsilon in all 10^4 draws")


@pytest.fixture(scope="module")
def distributions():
    """check_distributions' results, shared by criteria 7 and 8."""
    return check_distributions(seed=SEED)


def test_criterion_07_clock_distributions(distributions):
    by_name = {r.name: r for r in distributions}
    t_check = by_name["hit_time_uniform_pvalue"]
    k_check = by_name["energy_exponential_pvalue"]
    assert t_check.passed, f"hit-time K-S p-value {t_check.value}"
    assert k_check.passed, f"energy K-S p-value {k_check.value}"
    report(7, "clock start distributions",
           f"hit-time p={t_check.value:.3f}, energy p={k_check.value:.3f}, "
           "both >= 0.01")


def test_criterion_08_refraction_energy_identity(distributions):
    refr = [r for r in distributions if r.name.startswith("refract_energy")]
    assert len(refr) == 3
    for r in refr:
        assert r.passed, f"{r.name}: {r.value}"
    worst = max(r.value for r in refr)
    report(8, "refraction energy identity",
           f"worst |k(p') - (k(p) - dE)| = {worst:.2e} < 1e-12 "
           "for beta in {2/3, 1, 2}")


def residual_ess(outputs, spec):
    """min_d ESS((q_d - mu_{z,d})^2 / var_{z,d}) over all draws: mixing
    within a component, which the sampler's moves drive even where z does
    not move."""
    draws = np.stack([o.samples for o in outputs])
    z = draws[..., 0].astype(int)
    r = draws[..., 1:] - spec.means[z]
    sq = r * r / spec.variances[z]
    return min(ess(sq[..., d]) for d in range(sq.shape[-1]))


def test_criterion_09_efficiency_vs_gibbs():
    """24D mixture with the hand-tuned kernel settings vs the sweep baseline
    given a matched per-chain time budget (sweep count from measured costs,
    clamped to [2000, 20000]): the mixed kernel's MRESS, and its ESS of the
    squared within-component residual over all draws, are each at least
    twice the baseline's."""
    t_start = time.perf_counter()
    model = gmm24_preset()
    dims = list(range(1, 25))

    outputs = run_chains("laplace", model, GMM24_KERNEL, 48, 100, 2000,
                         SEED, threads=2)
    mress_mixed = mress(outputs, dims)
    per_chain = float(np.mean([o.wall_time for o in outputs]))

    calib = run_chains("gibbs", model, {"rw_scale": 0.8}, 1, 50, 2000,
                       SEED + 1, threads=1)
    per_sweep = calib[0].wall_time / 2050
    n_sweeps = min(max(int(per_chain / per_sweep), 2000), 20_000)

    outputs_g = run_chains("gibbs", model, {"rw_scale": 0.8}, 48, 100,
                           n_sweeps, SEED, threads=2)
    mress_gibbs = mress(outputs_g, dims)
    resid_mixed = residual_ess(outputs, model.spec)
    resid_gibbs = residual_ess(outputs_g, model.spec)
    wall = time.perf_counter() - t_start

    assert mress_mixed >= 2.0 * mress_gibbs
    assert resid_mixed >= 2.0 * resid_gibbs
    assert wall < 600.0
    report(9, "efficiency vs sweep baseline",
           f"MRESS {mress_mixed:.4f} >= 2 x {mress_gibbs:.6f} "
           f"(ratio {mress_mixed / mress_gibbs:.2f}); residual ESS "
           f"{resid_mixed:.0f} >= 2 x {resid_gibbs:.0f} (ratio "
           f"{resid_mixed / resid_gibbs:.2f}); {n_sweeps} sweeps at "
           f"matched budget, runtime {wall:.0f}s < 600s")


def test_criterion_10_ess_estimator():
    rho = 0.9
    rng = ChainRng(SEED, 6)
    chains = []
    for _ in range(4):
        e = rng.normal(20_000) * np.sqrt(1 - rho * rho)
        e[0] = rng.normal()
        chains.append(signal.lfilter([1.0], [1.0, -rho], e))
    rel = ess(chains) / 80_000
    want = (1 - rho) / (1 + rho)
    assert abs(rel - want) / want <= 0.30

    iid = [ChainRng(SEED, 7 + c).normal(5000) for c in range(4)]
    rel_iid = ess(iid) / 20_000
    assert 0.8 <= rel_iid <= 1.2
    report(10, "ESS estimator validity",
           f"AR(1) rel ESS {rel:.4f} within 30% of {want:.4f}; "
           f"iid rel ESS {rel_iid:.3f} in [0.8, 1.2]")


def test_criterion_11_determinism(tmp_path):
    config = {
        "model": {"type": "gmm1d"},
        "kernel": {"type": "laplace", "epsilon": 0.5, "T": 4.5, "L": 18,
                   "n_D": 1},
        "run": {"chains": 4, "burn_in": 100, "samples": 1000, "seed": SEED},
        "output": {"samples_path": "samples.csv",
                   "summary_path": "summary.json"},
    }
    cfg_path = os.path.join(tmp_path, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    dirs = [os.path.join(tmp_path, d) for d in ("a", "b")]
    for out_dir, threads in zip(dirs, ("2", "1")):
        assert cli_main(["run", "--config", cfg_path, "--out-dir", out_dir,
                         "--threads", threads]) == 0
    with open(os.path.join(dirs[0], "samples.csv"), "rb") as fh:
        bytes_a = fh.read()
    with open(os.path.join(dirs[1], "samples.csv"), "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b
    report(11, "determinism",
           f"samples CSV byte-identical across runs ({len(bytes_a)} bytes), "
           "independent of worker count")
