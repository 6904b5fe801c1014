"""Output checks, each computed apart from the sampler under test.

Every check returns its failure messages, an empty list being a pass, and
its worst statistic as a share of the limit, so a run shows how close
correct output came to failing.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.stats import norm

from ess_estimator import ess

# A check that fails on correct output would stop the benchmark, so the
# statistical thresholds sit far out in the tails: each check runs a few
# thousand times over the benchmark's life.
Z_LIMIT = 5.0           # standard errors allowed on a marginal probability
KS_ROOT_ESS_LIMIT = 3.0  # sqrt(ESS) * K-S distance; P(exceed) ~ 2 exp(-18)


def read_samples(path, n_chains, n_samples, n_discrete, n_continuous):
    """Load a samples CSV as its accept column, shaped (chains, samples),
    and its draws, shaped (chains, samples, columns); or raise ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    want = (["chain", "iter", "accept"]
            + [f"x_{j}" for j in range(n_discrete)]
            + [f"q_{d}" for d in range(n_continuous)])
    if header != want:
        raise ValueError(f"CSV header {header[:6]}... does not match the model")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (n_chains * n_samples, len(want)):
        raise ValueError(f"CSV has shape {rows.shape}, expected "
                         f"({n_chains * n_samples}, {len(want)})")
    if not np.all(np.isfinite(rows)):
        raise ValueError("CSV holds non-finite values")
    if not (np.array_equal(rows[:, 0], np.repeat(np.arange(n_chains), n_samples))
            and np.array_equal(rows[:, 1], np.tile(np.arange(n_samples), n_chains))):
        raise ValueError("CSV chain/iter columns are out of order")
    return (rows[:, 2].reshape(n_chains, n_samples),
            rows[:, 3:].reshape(n_chains, n_samples, -1))


def binary_marginals(W, b):
    """P(x_j = 1) under U(x) = -(s'Ws/2 + b's), s = 2x - 1, by enumeration."""
    n = len(b)
    states = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    spins = 2.0 * states - 1.0
    log_w = 0.5 * np.einsum("si,ij,sj->s", spins, W, spins) + spins @ b
    w = np.exp(log_w - log_w.max())
    return (w @ states) / w.sum()


def check_binary(draws, site_ess, W, b):
    """Pooled site marginals against enumeration, within Z_LIMIT standard
    errors computed from each site's ESS."""
    if not np.all((draws == 0.0) | (draws == 1.0)):
        return ["binary sites hold values other than 0 and 1"], np.inf
    exact = binary_marginals(np.asarray(W), np.asarray(b))
    est = draws.reshape(-1, draws.shape[-1]).mean(axis=0)
    z = np.abs(est - exact) / np.sqrt(exact * (1.0 - exact) / site_ess)
    failures = [f"site {j}: marginal {est[j]:.4f} vs exact {exact[j]:.4f} "
                f"({z[j]:.1f} standard errors)"
                for j in np.flatnonzero(z > Z_LIMIT)]
    return failures, float(z.max() / Z_LIMIT)


def ks_one_sample(samples, cdf):
    """sup_t |F_n(t) - F(t)| for a sample and a vectorised CDF."""
    x = np.sort(samples)
    f = cdf(x)
    n = x.size
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(n) / n
    return float(max(upper.max(), lower.max()))


def mixture_residuals(z_draws, q_draws, means, variances):
    """(q - mu_z) / sd_z at every draw: i.i.d. N(0, 1) under the target,
    whichever component each draw is in."""
    z = z_draws.astype(int)
    return (q_draws - means[z]) / np.sqrt(variances[z])


def indicator_ess(residuals):
    """The ESS behind a K-S distance: per column, the smallest ESS of the
    indicators 1{r < t} at the N(0, 1) quartiles.  The ESS of r itself can
    exceed the draw count on antithetic chains and would make the limit
    too tight."""
    return np.minimum.reduce([ess((residuals < t).astype(float))
                              for t in norm.ppf([0.25, 0.5, 0.75])])


def check_mixture(accept, z_draws, q_draws, means, variances):
    """K-S of each coordinate's within-component residual, and of all of
    them pooled, against N(0, 1), with the limit scaled by 1/sqrt(ESS); and
    every chain accepts at least one trajectory.

    Chains on this model keep the component they start in, so a K-S test of
    pooled q against the mixture CDF would be limited by the chain count,
    not by how well q mixes inside a component."""
    failures = [f"chain {c} accepted no trajectory"
                for c in np.flatnonzero(accept.max(axis=1) == 0)]
    r = mixture_residuals(z_draws, q_draws, means, variances)
    r_ess = indicator_ess(r)
    tests = [(f"q_{d} residual", r[..., d], r_ess[d])
             for d in range(r.shape[-1])]
    tests.append(("pooled residuals", r, r_ess.sum()))
    worst = 0.0
    for label, sample, n_eff in tests:
        dist = ks_one_sample(sample.ravel(), norm.cdf)
        stat = dist * np.sqrt(n_eff)
        worst = max(worst, stat / KS_ROOT_ESS_LIMIT)
        if not stat <= KS_ROOT_ESS_LIMIT:
            failures.append(f"{label}: K-S {dist:.4f} exceeds "
                            f"{KS_ROOT_ESS_LIMIT}/sqrt(ESS {n_eff:.0f})")
    return failures, worst


def check_blr(gamma_draws, divergences, support):
    """BLR has no oracle: no divergences, indicators in {0, 1}, and every
    site included more often than not lies in the generator's support."""
    failures = []
    if divergences:
        failures.append(f"{divergences} divergent iterations")
    if not np.all((gamma_draws == 0.0) | (gamma_draws == 1.0)):
        failures.append("inclusion indicators hold values other than 0 and 1")
    inclusion = gamma_draws.reshape(-1, gamma_draws.shape[-1]).mean(axis=0)
    outside = np.setdiff1d(np.arange(inclusion.size), support)
    for j in outside[inclusion[outside] > 0.5]:
        failures.append(f"site {j} outside the true support "
                        f"{list(support)} has inclusion {inclusion[j]:.2f}")
    return failures, float(inclusion[outside].max() / 0.5)
