"""Multi-chain effective sample size, kept apart from ``mixedhmc.diagnostics``.

The benchmark computes ESS itself from the samples CSV, so that a change to
the package's estimator cannot move the ``ess_per_s`` metric by redefining
it.  The estimator is the split-chain one of Gelman et al. (BDA3, ch. 11):
each chain is cut in half, autocorrelations are pooled across the halves
through the between/within variance estimate, and the sum is truncated with
Geyer's initial positive and initial monotone sequences.
"""

from __future__ import annotations

import numpy as np


def ess(draws) -> np.ndarray:
    """ESS of every column of ``draws``, an array (chains, iterations, columns).

    A 2-D array is read as (chains, iterations) of a single column.  A column
    with zero variance has no defined ESS and is reported as NaN.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim == 2:
        draws = draws[:, :, None]
    n_chains, n_iter, _ = draws.shape
    n = n_iter // 2
    if n < 4:
        raise ValueError("ESS needs chains of at least 8 iterations")
    halves = np.concatenate([draws[:, :n], draws[:, n_iter - n:]], axis=0)
    m = halves.shape[0]

    centred = halves - halves.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, nfft, axis=1)
    acov = np.fft.irfft(spectrum * spectrum.conj(), nfft, axis=1)[:, :n] / n

    within = acov[:, 0].mean(axis=0) * n / (n - 1.0)
    between = halves.mean(axis=1).var(axis=0, ddof=1)
    var_plus = within * (n - 1.0) / n + between
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: sum adjacent pairs, stop at the first pair that is not positive,
    # and force the pair sums to be non-increasing.
    n_pairs = n // 2
    pairs = rho[: 2 * n_pairs].reshape(n_pairs, 2, -1).sum(axis=1)
    positive = np.cumprod(pairs > 0.0, axis=0).astype(bool)
    monotone = np.minimum.accumulate(pairs, axis=0)
    tau = -1.0 + 2.0 * np.where(positive, monotone, 0.0).sum(axis=0)

    total = m * n
    # Antithetic chains can push tau toward 0; floor it as Stan does.
    tau = np.maximum(tau, 1.0 / np.log10(total))
    out = total / tau
    out[~(var_plus > 0.0)] = np.nan
    return out
