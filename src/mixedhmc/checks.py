"""Built-in validation suites: exactness, reversibility, gradients, distributions.

Each suite returns a list of :class:`CheckResult` with the measured value and
the threshold it was held to, so the CLI can emit a machine-readable report.
The same checks back the heavier acceptance tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from .core import KineticEnergy, leapfrog
from .kernels_general import (GeneralParams, initial_hit_time, refract,
                              run_chain_general)
from .models import (
    BlrVarsel,
    blr_generate,
    binary_quadratic_enumerate,
    gmm1d_preset,
    gmm24_preset,
    random_binary_quadratic,
)
from .rng import ChainRng
from .runner import random_point

__all__ = [
    "CheckResult",
    "check_gradients",
    "check_reversibility",
    "check_exactness",
    "check_distributions",
    "run_suite",
    "SUITE_NAMES",
]

SUITE_NAMES = ("exactness", "reversibility", "gradients", "distributions", "all")


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<="

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.value = float(self.value)
        self.threshold = float(self.threshold)

    def to_dict(self):
        return asdict(self)


def _bench_models(seed: int):
    rng = ChainRng(seed, stream=0)
    return [
        ("gmm1d", gmm1d_preset()),
        ("gmm24", gmm24_preset()),
        ("blr", BlrVarsel(blr_generate(seed).spec)),
        ("binary6", random_binary_quadratic(6, rng)),
    ]


def fd_gradient(model, x, q, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the potential in q."""
    g = np.empty_like(q)
    for d in range(q.size):
        qp = q.copy()
        qm = q.copy()
        qp[d] += h
        qm[d] -= h
        g[d] = (model.potential(x, qp) - model.potential(x, qm)) / (2.0 * h)
    return g


def check_gradients(seed: int = 20240, n_points: int = 20,
                    tol: float = 1e-5) -> list:
    """Analytic gradients vs central differences, per model."""
    results = []
    for name, model in _bench_models(seed):
        if model.n_continuous == 0:
            continue
        rng = ChainRng(seed, stream=1)
        worst = 0.0
        for _ in range(n_points):
            pt = random_point(model, rng)
            ga = model.grad_q(pt.x, pt.q)
            gf = fd_gradient(model, pt.x, pt.q)
            rel = np.abs(ga - gf) / np.maximum(np.abs(ga), 1.0)
            worst = max(worst, float(rel.max()))
        results.append(CheckResult("gradients", f"fd_match_{name}",
                                   worst <= tol, worst, tol))
    return results


def check_reversibility(seed: int = 20241, n_trials: int = 100,
                        tol: float = 1e-8) -> list:
    """Leapfrog forward, momentum flip, leapfrog back recovers the start."""
    results = []
    for name, model in _bench_models(seed):
        if model.n_continuous == 0:
            continue
        rng = ChainRng(seed, stream=2)
        worst = 0.0
        for _ in range(n_trials):
            start = random_point(model, rng)
            x, q0 = start.x, start.q
            p0 = rng.normal(model.n_continuous)
            eta = 0.02 + 0.1 * float(rng.uniform())
            n_steps = 5 + int(rng.uniform() * 20)
            q, p = q0.copy(), p0.copy()
            leapfrog(x, q, p, eta, n_steps, model.grad_q)
            p = -p
            leapfrog(x, q, p, eta, n_steps, model.grad_q)
            scale = max(float(np.abs(q0).max()), float(np.abs(p0).max()), 1.0)
            err = max(float(np.abs(q - q0).max()),
                      float(np.abs(p + p0).max())) / scale
            worst = max(worst, err)
        results.append(CheckResult("reversibility", f"leapfrog_{name}",
                                   worst <= tol, worst, tol))
    return results


def check_exactness(seed: int = 20242, n_iters: int = 100_000,
                    tol: float = 0.01) -> list:
    """Event-driven kernel marginals vs enumeration on a 6-site instance."""
    rng = ChainRng(seed, stream=0)
    model = random_binary_quadratic(6, rng)
    exact, _ = binary_quadratic_enumerate(model.spec)
    init = model.initial_point(rng)
    params = GeneralParams(T=1.0, tau=1.0, integrator_eps=0.1)
    out = run_chain_general(init, params, model, 1000, n_iters, rng)
    err = float(np.abs(out.samples.mean(axis=0) - exact).max())
    return [CheckResult("exactness", "binary6_marginals_vs_enumeration",
                        err <= tol, err, tol)]


def check_distributions(seed: int = 20243, n_draws: int = 100_000,
                        alpha: float = 0.01) -> list:
    """Clock-start facts under Laplace momentum, plus the refraction identity.

    With tau=1 and momenta from ``nu ∝ e^{-|p|}``, the first hit time of each
    clock is Uniform([0, 1]) and its initial kinetic energy is Exponential(1).
    """
    from scipy import stats

    results = []
    rng = ChainRng(seed, stream=0)
    kin = KineticEnergy(1.0)
    qd = rng.uniform(n_draws)
    pd = kin.sample(rng, n_draws)
    t0 = initial_hit_time(qd, pd, 1.0, kin)
    p_t = stats.kstest(t0, "uniform").pvalue
    results.append(CheckResult("distributions", "hit_time_uniform_pvalue",
                               p_t >= alpha, float(p_t), alpha, ">="))
    k0 = kin.k(pd)
    p_k = stats.kstest(k0, "expon").pvalue
    results.append(CheckResult("distributions", "energy_exponential_pvalue",
                               p_k >= alpha, float(p_k), alpha, ">="))

    for beta in (2.0 / 3.0, 1.0, 2.0):
        kin_b = KineticEnergy(beta)
        p = kin_b.sample(rng, 1_000_000)
        p = p[p != 0.0]
        energy = kin_b.k(p)
        d_e = rng.uniform(p.size) * energy  # always below k(p)
        keep = energy > d_e
        out = np.array(list(map(refract, p[keep].tolist(),
                                d_e[keep].tolist(), repeat(kin_b))))
        err = float(np.abs(kin_b.k(out) - (energy[keep] - d_e[keep])).max())
        results.append(CheckResult("distributions",
                                   f"refract_energy_identity_beta_{beta:.4g}",
                                   err <= 1e-12, err, 1e-12))
    return results


_SUITES = {
    "exactness": check_exactness,
    "reversibility": check_reversibility,
    "gradients": check_gradients,
    "distributions": check_distributions,
}


def run_suite(name: str) -> list:
    if name == "all":
        out = []
        for fn in _SUITES.values():
            out.extend(fn())
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name]()
