"""Binary quadratic target with an exact enumeration oracle.

Spins ``s_j = 2 x_j - 1 in {-1, +1}`` over N sites with

    U(x) = -( 0.5 s^T W s + b^T s ),   W symmetric, zero diagonal.

Purely discrete (no continuous coordinates).  Small instances are exactly
enumerable, which makes this the exactness oracle for the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import MixedPoint, ModelSpec
from ..rng import ChainRng

__all__ = [
    "BinaryQuadraticSpec",
    "BinaryQuadratic",
    "binary_quadratic_enumerate",
    "random_binary_quadratic",
]

_ENUM_MAX_SITES = 20
_SIGNS = np.array([1.0, -1.0])
_SPINS = np.array([-1.0, 1.0])         # s = 2 x - 1 at x = 0 and x = 1


@dataclass(frozen=True)
class BinaryQuadraticSpec:
    """Couplings W (N, N) symmetric with zero diagonal, fields b (N,),
    stored C-contiguous."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = np.ascontiguousarray(self.W, dtype=np.float64)
        b = np.ascontiguousarray(self.b, dtype=np.float64)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        n = b.size
        if W.shape != (n, n):
            raise ValueError("W must be (N, N) matching b")
        if not np.allclose(W, W.T) or np.any(np.diag(W) != 0.0):
            raise ValueError("W must be symmetric with zero diagonal")

    @property
    def n_sites(self) -> int:
        return self.b.size


class BinaryQuadratic(ModelSpec):
    row_stacked = True

    def __init__(self, spec: BinaryQuadraticSpec):
        self.spec = spec

    @property
    def n_discrete(self) -> int:
        return self.spec.n_sites

    @property
    def n_continuous(self) -> int:
        return 0

    def site_cardinality(self, j: int) -> int:
        return 2

    def potential(self, x, q):
        s = _SPINS.take(x)
        u = -(0.5 * np.einsum("...i,ij,...j->...", s, self.spec.W, s)
              + np.einsum("...i,i->...", s, self.spec.b))
        return float(u) if x.ndim == 1 else u

    def grad_q(self, x, q) -> np.ndarray:
        return np.zeros(x.shape[:-1] + (0,))

    def site_cond_neglogp(self, j, x, q) -> np.ndarray:
        # U(s_j = sigma) = const - sigma * h with local field h = W[j] s + b[j]
        # (the diagonal of W is zero), so values (-1, +1) weigh (h, -h).
        s = _SPINS.take(x)
        # A stack's sites are gathered with take, by the layout rule; one
        # site's row, as the float event loop asks for it, is a view.
        W, b = self.spec.W, self.spec.b
        if isinstance(j, np.ndarray):
            w, field = W.take(j, axis=0), b.take(j)
        else:
            w, field = W[j], b[j]
        h = (w * s).sum(axis=-1) + field
        return h[..., None] * _SIGNS

    def initial_point(self, rng: ChainRng) -> MixedPoint:
        x = (rng.uniform(self.spec.n_sites) < 0.5).astype(np.int64)
        return MixedPoint(x, np.zeros(0))


def binary_quadratic_enumerate(spec: BinaryQuadraticSpec):
    """Exact per-site marginals ``P(x_j = 1)`` and log partition function.

    Full enumeration over the 2^N states with log-sum-exp; refuses N > 20.
    """
    n = spec.n_sites
    if n > _ENUM_MAX_SITES:
        raise ValueError(f"enumeration limited to {_ENUM_MAX_SITES} sites, got {n}")
    states = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    s = 2.0 * states - 1.0
    log_w = 0.5 * np.einsum("ij,jk,ik->i", s, spec.W, s) + s @ spec.b  # -U
    m = log_w.max()
    w = np.exp(log_w - m)
    log_z = m + np.log(w.sum())
    marginals = (w @ states) / w.sum()
    return marginals, log_z


def random_binary_quadratic(n_sites: int, rng: ChainRng,
                            coupling_scale: float = 0.3,
                            field_scale: float = 0.3) -> BinaryQuadratic:
    """Random symmetric instance, handy for exactness checks."""
    a = rng.normal((n_sites, n_sites)) * coupling_scale
    W = np.triu(a, k=1)
    W = W + W.T
    b = rng.normal(n_sites) * field_scale
    return BinaryQuadratic(BinaryQuadraticSpec(W=W, b=b))
