"""Bayesian logistic regression with spike-and-slab style variable selection.

Joint target over coefficients ``beta`` (continuous) and inclusion
indicators ``gamma`` (one binary site per coefficient):

    p(beta, gamma, y) = N(beta | 0, prior_var I)
                        * prod_i p_i^{y_i} (1 - p_i)^{1 - y_i},
    p_i = sigmoid( sum_j X_ij beta_j gamma_j ).

Includes the synthetic-data generator (correlated Gaussian design, sparse
true coefficients) and CSV serialization of generated datasets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..core import MixedPoint, ModelSpec
from ..rng import ChainRng

__all__ = [
    "BlrVarselSpec",
    "BlrDataset",
    "BlrVarsel",
    "blr_generate",
    "blr_dataset_to_csv",
    "blr_dataset_from_csv",
]


@dataclass(frozen=True)
class BlrVarselSpec:
    """Observed data and prior scale: design X (n, d), responses y (n,),
    stored C-contiguous."""

    X: np.ndarray
    y: np.ndarray
    prior_var: float = 25.0

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.int64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) with y of length n")
        if not np.all(np.isfinite(X)):
            raise ValueError("X has non-finite entries")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("y entries must be 0 or 1")
        if not self.prior_var > 0:
            raise ValueError("prior_var must be positive")


@dataclass(frozen=True)
class BlrDataset:
    """Generated dataset plus the ground truth used for reporting."""

    spec: BlrVarselSpec
    beta_true: np.ndarray
    support: np.ndarray  # indices of the nonzero true coefficients


def _softplus(t):
    # log(1 + exp(t)), overflow safe
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


class BlrVarsel(ModelSpec):
    """ModelSpec over ``x = gamma`` (d binary sites) and ``q = beta``.

    ``U = |beta|^2 / (2 prior_var) + (d/2) log(2 pi prior_var)
         + sum_i [ softplus(t_i) - y_i t_i ]``  with ``t = X (beta * gamma)``.
    """

    row_stacked = True

    def __init__(self, spec: BlrVarselSpec):
        self.spec = spec
        self._d = spec.X.shape[1]
        self._prior_const = 0.5 * self._d * np.log(2.0 * np.pi * spec.prior_var)
        self._Xt = np.ascontiguousarray(spec.X.T)

    @property
    def n_discrete(self) -> int:
        return self._d

    @property
    def n_continuous(self) -> int:
        return self._d

    def site_cardinality(self, j: int) -> int:
        return 2

    def _predictor(self, gamma, beta):
        # One vector-matrix product per row: unlike one (C, d) @ (d, n)
        # product, each row's sums do not depend on the other rows.
        return np.matmul((beta * gamma)[..., None, :], self._Xt)[..., 0, :]

    def _nll(self, t):
        return np.sum(_softplus(t) - self.spec.y * t, axis=-1)

    def _prior(self, q):
        return (0.5 * np.einsum("...d,...d->...", q, q) / self.spec.prior_var
                + self._prior_const)

    def potential(self, x, q):
        u = self._prior(q) + self._nll(self._predictor(x, q))
        return float(u) if x.ndim == 1 else u

    def grad_q(self, x, q) -> np.ndarray:
        t = self._predictor(x, q)
        p = 1.0 / (1.0 + np.exp(-t))
        r = (self.spec.y - p)[..., None, :]
        return q / self.spec.prior_var - x * np.matmul(r, self.spec.X)[..., 0, :]

    def site_cond_neglogp(self, j, x, q) -> np.ndarray:
        # Rank-one update of the linear predictor: only column j toggles.
        # One state goes through as a one-row stack.
        one = x.ndim == 1
        if one:
            j, x, q = np.array([j]), x[None], q[None]
        at = np.arange(x.shape[0]) * self._d + j  # flat index of (r, j[r])
        t = self._predictor(x, q)
        col = self._Xt.take(j, 0) * q.take(at)[:, None]
        both = np.empty((x.shape[0], 2, t.shape[1]))
        np.subtract(t, x.take(at)[:, None] * col, out=both[:, 0])
        np.add(both[:, 0], col, out=both[:, 1])
        out = self._prior(q)[:, None] + self._nll(both)
        return out[0] if one else out

    def initial_point(self, rng: ChainRng) -> MixedPoint:
        gamma = (rng.uniform(self._d) < 0.5).astype(np.int64)
        beta = 0.1 * rng.normal(self._d)
        return MixedPoint(gamma, beta)


def blr_generate(seed: int, n: int = 100, d: int = 20, beta_true=None) -> BlrDataset:
    """Synthetic dataset: rows of X iid N(0, Sigma) with Sigma_jj = 3 and
    Sigma_jk = 0.3 off the diagonal; 5 randomly picked true coefficients are
    0.5 and the rest 0 (unless ``beta_true`` overrides); ``y_i`` Bernoulli at
    the sigmoid of the true predictor.

    Sigma = 2.7 I + 0.3 11^T has the closed-form symmetric square root
    a I + b 11^T with a = sqrt(2.7) and a^2 + 2ab d + ... solved below.
    """
    rng = ChainRng(seed, stream=0)
    a = np.sqrt(2.7)
    # (a I + b 11^T)^2 = a^2 I + (2 a b + d b^2) 11^T, match 0.3 off-diagonal.
    b = (-a + np.sqrt(a * a + 0.3 * d)) / d
    z = rng.normal((n, d))
    X = a * z + b * z.sum(axis=1, keepdims=True)

    if beta_true is None:
        beta_true = np.zeros(d)
        support = np.sort(rng.permutation(d)[:5])
        beta_true[support] = 0.5
    else:
        beta_true = np.asarray(beta_true, dtype=np.float64)
        support = np.flatnonzero(beta_true)

    p = 1.0 / (1.0 + np.exp(-X @ beta_true))
    y = (rng.uniform(n) < p).astype(np.int64)
    return BlrDataset(BlrVarselSpec(X=X, y=y), beta_true=beta_true, support=support)


def blr_dataset_to_csv(spec: BlrVarselSpec, path) -> None:
    """Write ``y, x_1 .. x_d`` rows, one per observation."""
    d = spec.X.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x_{j + 1}" for j in range(d)])
        for yi, row in zip(spec.y, spec.X):
            writer.writerow([int(yi)] + [format(v, ".17g") for v in row])


def blr_dataset_from_csv(path, prior_var: float = 25.0) -> BlrVarselSpec:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[0] != "y":
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = [row for row in reader if row]
    y = np.array([int(r[0]) for r in rows], dtype=np.int64)
    X = np.array([[float(v) for v in r[1:]] for r in rows], dtype=np.float64)
    return BlrVarselSpec(X=X, y=y, prior_var=prior_var)
