"""Run outputs and the performance measures used to compare samplers.

Effective sample size follows the split-chain estimator with Geyer's
initial-positive / initial-monotone truncation of the pooled autocorrelation
sequence, one dimension per call.  The headline efficiency measure is MRESS:
the minimum ESS across selected dimensions divided by total recorded samples.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainOutput",
    "DegenerateDimensionWarning",
    "StepStats",
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

    def __post_init__(self):
        if self.samples.shape[0] != self.accept_trace.shape[0]:
            raise ValueError("accept_trace length must match sample count")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass
class StepStats:
    """Per-iteration statistics of a kernel step: scalars from a one-chain
    step, ``(C,)`` arrays, one entry per chain, from a lockstep step."""

    accepted: bool
    energy_error: float
    n_discrete_accepts: int
    n_grad_evals: int
    divergent: bool = False

    def chain(self, c: int) -> "StepStats":
        """The scalar stats of chain ``c`` of a lockstep step."""
        return StepStats(accepted=bool(self.accepted[c]),
                         energy_error=float(self.energy_error[c]),
                         n_discrete_accepts=int(self.n_discrete_accepts[c]),
                         n_grad_evals=int(self.n_grad_evals[c]),
                         divergent=bool(self.divergent[c]))


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
                        wall_time=wall, divergence_count=int(divergences[c]))
            for c in range(n_chains)]


def ess(chains) -> float:
    """Multi-chain effective sample size of one dimension.

    The chains' centred halves (an odd length drops its middle draw) share
    one FFT; the inverse of their mean power spectrum is their mean biased
    autocovariance.  Autocorrelations are summed in lag pairs (0, 1), (2, 3),
    ...: pair 0 is kept, a later one if every pair up to it sums to >= 0,
    and the kept sums are made non-increasing.

    Parameters
    ----------
    chains : sequence of 1D arrays, or array of shape (chains, length)
        Per-chain sample vectors, equal lengths >= 8.

    Returns
    -------
    float
        Estimated ESS.  Zero-variance input returns ``chains * length`` and
        emits :class:`DegenerateDimensionWarning`.
    """
    arr = np.atleast_2d(np.asarray(chains, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] < 8:
        raise ValueError(f"ess takes (chains, length >= 8), got {arr.shape}")
    n_total = arr.size

    if np.all(arr == arr.flat[0]):
        warnings.warn("zero-variance dimension, ESS set to total draw count",
                      DegenerateDimensionWarning)
        return float(n_total)

    n = arr.shape[1] // 2
    halves = np.concatenate([arr[:, :n], arr[:, -n:]])
    means = halves.mean(axis=1, keepdims=True)
    halves -= means
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(halves, nfft)
    # Mean power spectrum re² + im², with no temporary of f's size.
    power = (np.einsum("ij,ij->j", f.real, f.real)
             + np.einsum("ij,ij->j", f.imag, f.imag)) / len(f)
    acov = np.fft.irfft(power, nfft)[:n] / n
    mean_var = acov[0] * n / (n - 1.0)
    var_plus = acov[0] + np.var(means, ddof=1)
    if var_plus <= 0 or not np.isfinite(var_plus):
        warnings.warn("zero-variance dimension, ESS set to total draw count",
                      DegenerateDimensionWarning)
        return float(n_total)

    rho = 1.0 - (mean_var - acov[:2 * (n // 2)]) / var_plus
    rho[0] = 1.0
    pairs = rho[0::2] + rho[1::2]
    kept = max(1, int(np.cumprod(pairs >= 0.0).sum()))
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs[:kept]).sum())
    # Antithetic chains can push tau toward 0 or below; floor it so ESS stays
    # finite and positive (draws * log10(draws) is the resulting cap).
    tau = max(tau, 1.0 / np.log10(n_total))
    return float(n_total / tau)


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
