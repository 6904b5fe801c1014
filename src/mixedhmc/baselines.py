"""Reference and deliberately-incorrect comparison samplers.

``naive_mixed_hmc_step`` interleaves single leapfrog steps with discrete
updates on a 1D Gaussian mixture.  With ``use_k=True`` it tracks a kinetic
energy budget per trajectory (the correct bookkeeping); with ``use_k=False``
every discrete update draws a fresh Exponential(1) threshold instead, which
is exactly the "Metropolis updates inside an HMC trajectory" shortcut that
yields systematically biased samples no matter how long the run.

``gibbs_mh_sweep`` is the frequent-small-update comparator: a systematic
single-site scan of locally informed Metropolis moves followed by one
Gaussian random-walk update of the whole continuous block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MixedPoint, ModelSpec, propose_and_delta
from .diagnostics import ChainOutput, drive_chains
from .models.gmm import GaussianMixture
from .rng import ChainRng

__all__ = [
    "NaiveParams",
    "naive_mixed_hmc_step",
    "run_naive_chain",
    "gibbs_mh_sweep",
    "run_gibbs_chain",
]


@dataclass(frozen=True)
class NaiveParams:
    """Leapfrog step size, number of (leapfrog, discrete-update) rounds, and
    the bookkeeping switch: ``use_k=True`` spends tracked kinetic energy,
    ``use_k=False`` is the naive Metropolis-within-HMC variant."""

    epsilon: float
    L: int
    use_k: bool = True

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.L < 1:
            raise ValueError("L must be >= 1")


def _gmm1d_tables(model: GaussianMixture):
    if model.n_continuous != 1:
        raise ValueError("naive sampler supports 1D mixtures only")
    spec = model.spec
    mu = spec.means[:, 0]
    var = spec.variances[:, 0]
    neg_log_w = -np.log(spec.weights) + 0.5 * np.log(2.0 * np.pi * var)
    return mu, var, neg_log_w


def naive_mixed_hmc_step(z: int, q: float, params: NaiveParams,
                         model: GaussianMixture, rng: ChainRng):
    """One trajectory of L x (leapfrog step, uniform-proposal discrete update).

    Returns ``(z, q, accepted)`` after the final Metropolis test on
    ``U + k + p^2/2``.
    """
    mu, var, neg_log_w = _gmm1d_tables(model)
    n_comp = mu.size
    exp_ = math.exp

    def pot(zz, qq):
        d = qq - mu[zz]
        return neg_log_w[zz] + 0.5 * d * d / var[zz]

    p0 = float(rng.normal())
    k0 = float(rng.exponential())
    z0, q0 = z, q
    p, k = p0, k0
    eps = params.epsilon

    for _ in range(params.L):
        p -= 0.5 * eps * (q - mu[z]) / var[z]
        q += eps * p
        p -= 0.5 * eps * (q - mu[z]) / var[z]

        # Uniform proposal over the other components.
        r = int(rng.uniform() * (n_comp - 1))
        z_new = r if r < z else r + 1
        d_e = pot(z_new, q) - pot(z, q)
        if params.use_k:
            if k > d_e:
                z = z_new
                k -= d_e
        else:
            if float(rng.exponential()) > d_e:
                z = z_new

    err = pot(z, q) + k + 0.5 * p * p - (pot(z0, q0) + k0 + 0.5 * p0 * p0)
    u = float(rng.uniform())
    accepted = err <= 0.0 or u < exp_(-err)
    if not accepted:
        z, q = z0, q0
    return z, q, accepted


def run_naive_chain(init: MixedPoint, params: NaiveParams,
                    model: GaussianMixture, n_burn: int, n_samples: int,
                    rng: ChainRng) -> ChainOutput:
    """Iterate ``naive_mixed_hmc_step``; samples hold columns (z, q)."""
    z, q = int(init.x[0]), float(init.q[0])

    def step():
        nonlocal z, q
        z, q, acc = naive_mixed_hmc_step(z, q, params, model, rng)
        return z, q, acc, False

    return drive_chains(step, 1, 1, 1, n_burn, n_samples)[0]


def gibbs_mh_sweep(point: MixedPoint, model: ModelSpec, rw_scale: float,
                   rng: ChainRng) -> MixedPoint:
    """One systematic scan of site-wise Metropolis moves plus a random-walk
    Metropolis update of the full continuous block."""
    if not rw_scale > 0:
        raise ValueError("rw_scale must be positive")
    x = point.x.copy()
    q = point.q.copy()

    for j in range(model.n_discrete):
        new, d_e = propose_and_delta(j, x, q, model, rng)
        u = rng.uniform()
        if d_e <= 0.0 or u < np.exp(-d_e):
            x[j] = new

    if model.n_continuous:
        q_new = q + rw_scale * rng.normal(model.n_continuous)
        d_u = model.potential(x, q_new) - model.potential(x, q)
        u = rng.uniform()
        if d_u <= 0.0 or u < np.exp(-d_u):
            q = q_new

    return MixedPoint(x, q)


def run_gibbs_chain(init: MixedPoint, model: ModelSpec, rw_scale: float,
                    n_burn: int, n_samples: int, rng: ChainRng) -> ChainOutput:
    init.validate(model)
    pt = init.copy()

    def step():
        nonlocal pt
        pt = gibbs_mh_sweep(pt, model, rw_scale, rng)
        return pt.x, pt.q, True, False  # sweeps always advance

    return drive_chains(step, 1, model.n_discrete, model.n_continuous, n_burn,
                        n_samples)[0]
