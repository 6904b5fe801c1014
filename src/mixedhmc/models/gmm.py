"""Gaussian mixture targets with a discrete component label.

The mixed state is ``(z, q)`` with a single discrete site ``z`` (the mixture
component) and ``q`` in R^D.  Diagonal covariances only.  Both benchmark
presets live here: the 1D four-component mixture and its 24-dimensional
variant whose per-dimension component means run through all permutations of
``(-2, 0, 2, 4)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..core import MixedPoint, ModelSpec
from ..rng import ChainRng

__all__ = ["GmmSpec", "GaussianMixture", "gmm1d_preset", "gmm24_preset"]

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GmmSpec:
    """Mixture parameters: weights (K,), means (K, D), variances (K, D)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        if self.weights.ndim != 1 or means.shape != variances.shape \
                or means.shape[0] != self.weights.size:
            raise ValueError("inconsistent GMM parameter shapes")
        if not np.all(self.weights > 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if not np.all(variances > 0):
            raise ValueError("variances must be positive")

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


class GaussianMixture(ModelSpec):
    """ModelSpec for ``p(z, q) = phi_z N(q | mu_z, diag(var_z))``.

    ``U(z, q) = -log phi_z + sum_d [ 0.5 log(2 pi var_zd)
                                     + 0.5 (q_d - mu_zd)^2 / var_zd ]``.
    """

    row_stacked = True

    def __init__(self, spec: GmmSpec):
        self.spec = spec
        self._neg_log_w = -np.log(spec.weights)
        self._inv_var = 1.0 / spec.variances
        self._log_norm = 0.5 * np.sum(_LOG_2PI + np.log(spec.variances), axis=1)
        self._const = self._neg_log_w + self._log_norm
        # elementwise fast path for one continuous dimension
        self._dim1 = spec.dim == 1
        if self._dim1:
            self._mu_flat = spec.means[:, 0].copy()
            self._half_inv_flat = 0.5 * self._inv_var[:, 0].copy()

    @property
    def n_discrete(self) -> int:
        return 1

    @property
    def n_continuous(self) -> int:
        return self.spec.dim

    def site_cardinality(self, j: int) -> int:
        return self.spec.n_components

    def potential(self, x, q):
        z = x[..., 0]
        d = q - self.spec.means[z]
        u = self._const[z] + 0.5 * np.einsum("...d,...d->...", d,
                                             d * self._inv_var[z])
        return float(u) if x.ndim == 1 else u

    def grad_q(self, x, q) -> np.ndarray:
        z = x[..., 0]
        return (q - self.spec.means[z]) * self._inv_var[z]

    def site_cond_neglogp(self, j, x, q) -> np.ndarray:
        if self._dim1:
            d = q[..., :1] - self._mu_flat
            return self._const + d * d * self._half_inv_flat
        d = q[..., None, :] - self.spec.means
        quad = np.einsum("...kd,...kd->...k", d, d * self._inv_var)
        return self._const + 0.5 * quad

    def exact_sample(self, rng: ChainRng, n: int) -> np.ndarray:
        """Ancestral draws; column 0 is z, columns 1..D are q."""
        spec = self.spec
        z = rng.gen.choice(spec.n_components, size=n, p=spec.weights)
        q = (spec.means[z]
             + rng.gen.standard_normal((n, spec.dim)) * np.sqrt(spec.variances[z]))
        return np.column_stack([z.astype(np.float64), q])

    def initial_point(self, rng: ChainRng) -> MixedPoint:
        row = self.exact_sample(rng, 1)[0]
        return MixedPoint(np.array([int(row[0])]), row[1:])


def gmm1d_preset() -> GaussianMixture:
    """Four-component 1D mixture: weights (.15, .3, .3, .25), means (-2, 0, 2, 4),
    common variance 0.1."""
    spec = GmmSpec(
        weights=np.array([0.15, 0.30, 0.30, 0.25]),
        means=np.array([[-2.0], [0.0], [2.0], [4.0]]),
        variances=np.full((4, 1), 0.1),
    )
    return GaussianMixture(spec)


def gmm24_preset() -> GaussianMixture:
    """Four-component 24D mixture with common variance 3 per dimension.

    Dimension ``d``'s four component means are the d-th permutation of
    ``(-2, 0, 2, 4)`` in lexicographic order, so every column of the 4 x 24
    mean matrix is a permutation of those values and dimension 0 keeps the
    identity order.
    """
    perms = list(itertools.permutations((-2.0, 0.0, 2.0, 4.0)))
    means = np.array(perms).T  # (4 components, 24 dims)
    spec = GmmSpec(
        weights=np.array([0.15, 0.30, 0.30, 0.25]),
        means=means,
        variances=np.full((4, 24), 3.0),
    )
    return GaussianMixture(spec)
