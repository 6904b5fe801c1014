"""Run outputs and the performance measures used to compare samplers.

Effective sample size follows the split-chain estimator with Geyer's
initial-positive / initial-monotone truncation of the pooled autocorrelation
sequence.  The headline efficiency measure is MRESS: the minimum ESS across
selected dimensions divided by total recorded samples.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainOutput",
    "DegenerateDimensionWarning",
    "drive_chains",
    "ess",
    "mress",
    "ks_two_sample",
]


class DegenerateDimensionWarning(UserWarning):
    """A dimension had zero variance; its ESS is reported as the draw count."""


@dataclass
class ChainOutput:
    """Recorded chain: one row per kept sample, discrete columns stored as reals."""

    samples: np.ndarray        # (n_samples, N_D + N_C)
    accept_trace: np.ndarray   # (n_samples,) bool
    wall_time: float = 0.0
    divergence_count: int = 0
    n_discrete: int = 0        # leading columns holding discrete sites

    def __post_init__(self):
        if self.samples.shape[0] != self.accept_trace.shape[0]:
            raise ValueError("accept_trace length must match sample count")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def drive_chains(step, n_chains: int, n_discrete: int, n_continuous: int,
                 n_burn: int, n_samples: int) -> list:
    """Call ``step`` ``n_burn + n_samples`` times, recording the last
    ``n_samples`` states of each of ``n_chains`` chains stepped together.

    ``step()`` advances every chain and returns ``(x, q, accepted,
    divergent)`` for the new states, one row or entry per chain; a single
    chain may return them unstacked.  Divergences are counted over burn-in
    too.  Each chain's ``wall_time`` is its share, ``1 / n_chains``, of the
    time spent stepping.
    """
    nd = n_discrete
    samples = np.empty((n_chains, n_samples, nd + n_continuous))
    accepts = np.zeros((n_chains, n_samples), dtype=bool)
    divergences = np.zeros(n_chains, dtype=np.int64)

    t_start = time.perf_counter()
    for i in range(n_burn + n_samples):
        x, q, accepted, divergent = step()
        divergences += divergent
        r = i - n_burn
        if r >= 0:
            samples[:, r, :nd] = x
            samples[:, r, nd:] = q
            accepts[:, r] = accepted
    wall = (time.perf_counter() - t_start) / max(n_chains, 1)

    return [ChainOutput(samples=samples[c], accept_trace=accepts[c],
                        wall_time=wall, divergence_count=int(divergences[c]),
                        n_discrete=nd) for c in range(n_chains)]


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of a 1D series via FFT (divides by n)."""
    n = x.size
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n]
    return acov / n


def _split_chains(chains: np.ndarray) -> np.ndarray:
    """Split each row in half; drops the middle draw of odd-length chains."""
    n = chains.shape[1]
    half = n // 2
    return np.vstack([chains[:, :half], chains[:, n - half:]])


def ess(chains) -> float:
    """Multi-chain effective sample size of one dimension.

    Parameters
    ----------
    chains : sequence of 1D arrays
        Per-chain sample vectors, equal lengths >= 8.

    Returns
    -------
    float
        Estimated ESS.  Zero-variance input returns ``chains * length`` and
        emits :class:`DegenerateDimensionWarning`.
    """
    arr = np.atleast_2d(np.asarray(chains, dtype=np.float64))
    if arr.shape[1] < 8:
        raise ValueError("ess requires chains of length >= 8")
    n_total = arr.size

    if np.all(arr == arr.flat[0]):
        warnings.warn("zero-variance dimension, ESS set to total draw count",
                      DegenerateDimensionWarning)
        return float(n_total)

    arr = _split_chains(arr)
    m, n = arr.shape

    acov = np.vstack([_autocov(arr[c]) for c in range(m)])
    chain_means = arr.mean(axis=1)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += np.var(chain_means, ddof=1)
    if var_plus <= 0 or not np.isfinite(var_plus):
        warnings.warn("zero-variance dimension, ESS set to total draw count",
                      DegenerateDimensionWarning)
        return float(n_total)

    mean_acov = acov.mean(axis=0)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho[1] = 1.0 - (mean_var - mean_acov[1]) / var_plus

    # Geyer initial positive sequence: keep pairs while their sum stays >= 0.
    t = 1
    rho_even, rho_odd = rho[0], rho[1]
    while t < n - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - mean_acov[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - mean_acov[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t

    # Geyer initial monotone sequence: pair sums must not increase.
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2

    tau = -1.0 + 2.0 * float(rho[: max_t + 1].sum())
    # Antithetic chains can push tau toward 0 or below; floor it so ESS stays
    # finite and positive (draws * log10(draws) is the resulting cap).
    tau = max(tau, 1.0 / np.log10(n_total))
    return n_total / tau


def mress(outputs, dims) -> float:
    """Minimum relative ESS over the selected sample columns.

    Parameters
    ----------
    outputs : sequence of ChainOutput
        One entry per independent chain, equal sample counts.
    dims : sequence of int
        Column indices of ``samples`` to scan (typically the continuous ones).
    """
    outputs = list(outputs)
    if not outputs:
        raise ValueError("mress needs at least one chain")
    total = sum(o.n_samples for o in outputs)
    values = []
    for d in dims:
        chains = [o.samples[:, d] for o in outputs]
        values.append(ess(chains) / total)
    return min(values)


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_a(t) - F_b(t)|."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())
