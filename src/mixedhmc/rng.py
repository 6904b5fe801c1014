"""Seeded random number streams for reproducible (multi-chain) sampling.

Every sampler in this package draws exclusively through a :class:`ChainRng`,
which wraps a PCG64 generator keyed by ``(seed, stream)``.  Identical
``(seed, stream)`` pairs produce bit-identical draw sequences; distinct
streams are statistically independent, so chain ``c`` of a run simply uses
``stream=c`` with a shared seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ChainRng"]


class ChainRng:
    """Deterministic random stream identified by a 64-bit (seed, stream) pair.

    Parameters
    ----------
    seed : int
        Base seed shared by all chains of a run.
    stream : int
        Stream id; chain ``c`` uses ``stream=c``.
    """

    __slots__ = ("seed", "stream", "gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self):
        return f"ChainRng(seed={self.seed}, stream={self.stream})"

    def uniform(self, size=None, out=None):
        """Uniform(0, 1) draw(s); with ``out``, as many as it holds, written
        into it."""
        return self.gen.random(size, out=out)

    def normal(self, size=None, out=None):
        """Standard normal draw(s); ``out`` as for :meth:`uniform`."""
        return self.gen.standard_normal(size, out=out)

    def exponential(self, size=None, out=None):
        """Exponential(1) draw(s); ``out`` as for :meth:`uniform`.  The
        draws of :meth:`dirichlet_ones` are these, normalized by their
        sum."""
        return self.gen.standard_exponential(size, out=out)

    def gamma(self, shape, size=None, out=None):
        """Gamma(shape, scale=1) draw(s); used by power-family momenta.
        ``out`` as for :meth:`uniform`."""
        return self.gen.standard_gamma(shape, size, out=out)

    def categorical(self, weights) -> int:
        """Index drawn with probability proportional to ``weights``.

        Weights need not be normalized; they must be non-negative with a
        positive, finite total.
        """
        c = np.cumsum(weights)
        total = c[-1]
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("categorical weights must have positive finite total")
        return int(np.searchsorted(c, self.gen.random() * total, side="right"))

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of ``range(n)`` (Fisher-Yates)."""
        return self.gen.permutation(n)

    def dirichlet_ones(self, n: int) -> np.ndarray:
        """Dirichlet(1, ..., 1) draw over ``n`` parts.

        Sampled as normalized iid Exponential(1) draws, which is exact for a
        unit concentration parameter.
        """
        e = self.gen.standard_exponential(n)
        return e / e.sum()
