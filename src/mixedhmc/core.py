"""Domain types shared by all kernels: mixed states, target models, momenta.

A target distribution over mixed support is specified by a :class:`ModelSpec`
exposing the potential ``U(x, q)`` (negative unnormalized log density), its
gradient in the continuous coordinates, and per-site conditional weights for
the discrete coordinates.  Discrete site values are dense integers
``0 .. cardinality-1``; models map them to their own semantics (mixture
component, inclusion indicator, spin).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields

import numpy as np

from .rng import ChainRng

__all__ = [
    "MixedPoint",
    "ModelSpec",
    "KineticEnergy",
    "DegenerateSiteError",
    "NonFiniteWeightsError",
    "check_positive",
    "leapfrog",
]

# Energy errors beyond this mark a trajectory divergent and reject the step.
DIVERGENCE_MAX = 1.0e4


class DegenerateSiteError(ValueError):
    """Raised when a single-site proposal is requested at a cardinality-1 site."""


class NonFiniteWeightsError(ValueError):
    """No finite proposal at a site; the kernels count it as a divergence."""


def check_positive(params) -> None:
    """Raise ``ValueError("<field>: must be positive and finite")`` for the
    first numeric field of the dataclass ``params`` that is not positive and
    finite everywhere."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not (value is None or isinstance(value, bool)
                or np.all(np.asarray(value) > 0)
                and np.all(np.isfinite(np.asarray(value, dtype=np.float64)))):
            raise ValueError(f"{f.name}: must be positive and finite")


@dataclass
class MixedPoint:
    """A point of the mixed state space: discrete sites ``x`` and location ``q``.

    ``x`` holds one integer per discrete site, each in
    ``[0, model.site_cardinality(j))``; ``q`` holds the continuous coordinates.
    """

    x: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.int64)
        self.q = np.asarray(self.q, dtype=np.float64)

    def copy(self) -> "MixedPoint":
        return MixedPoint(self.x.copy(), self.q.copy())

    def validate(self, model: "ModelSpec") -> None:
        """Raise ValueError if this point is not a valid state of ``model``."""
        if self.x.shape != (model.n_discrete,):
            raise ValueError(
                f"x has shape {self.x.shape}, expected ({model.n_discrete},)"
            )
        if self.q.shape != (model.n_continuous,):
            raise ValueError(
                f"q has shape {self.q.shape}, expected ({model.n_continuous},)"
            )
        for j in range(model.n_discrete):
            if not 0 <= self.x[j] < model.site_cardinality(j):
                raise ValueError(
                    f"x[{j}]={self.x[j]} outside [0, {model.site_cardinality(j)})"
                )
        if self.q.size and not np.all(np.isfinite(self.q)):
            raise ValueError("q has non-finite entries")


class ModelSpec(abc.ABC):
    """Target distribution ``pi(x, q) ∝ exp(-U(x, q))`` over mixed support.

    Immutable after construction and safely shareable across threads and
    processes.  Subclasses may override :meth:`site_cond_neglogp` to exploit
    model structure; the default adapter evaluates the potential once per
    admissible site value.

    A subclass that sets ``row_stacked = True`` also accepts row stacks in
    :meth:`potential`, :meth:`grad_q` and :meth:`site_cond_neglogp`: ``x``
    of shape ``(C, n_discrete)``, ``q`` of shape ``(C, n_continuous)`` and
    ``j`` of shape ``(C,)``, returning ``(C,)``, ``(C, n_continuous)`` and
    ``(C, K)`` with row ``r`` that of the single-state call on row ``r``.
    ``K`` is the largest site cardinality; entries past site ``j[r]``'s
    cardinality are ``+inf``.  Each row must not depend on the other rows
    or on ``C``, bit for bit: reduce with row sums, ``np.einsum`` or one
    vector-matrix product per row (``np.matmul`` on a ``(C, 1, d)``
    stack), never one ``(C, d) @ (d, n)`` product, whose rows change with
    ``C``.  Other models are called once per row by :func:`row_method`.

    Layout rule: parameter arrays are stored C-contiguous, and gathers by
    site value use ``ndarray.take`` rather than ``a[z]``.  On the small
    arrays of a batch, broadcasting against a Fortran-ordered array and
    fancy indexing each cost 2-4x.
    """

    row_stacked = False

    @property
    @abc.abstractmethod
    def n_discrete(self) -> int:
        """Number of discrete sites."""

    @property
    @abc.abstractmethod
    def n_continuous(self) -> int:
        """Number of continuous coordinates."""

    @abc.abstractmethod
    def site_cardinality(self, j: int) -> int:
        """Number of admissible values of site ``j``."""

    @abc.abstractmethod
    def potential(self, x: np.ndarray, q: np.ndarray) -> float:
        """U(x, q), finite on the model's support."""

    @abc.abstractmethod
    def grad_q(self, x: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Gradient of ``U`` in the continuous coordinates (analytic)."""

    def site_cond_neglogp(self, j: int, x: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Unnormalized negative log conditional weights of site ``j``.

        Entry ``v`` equals ``U(x with x[j] := v, q)`` up to a common constant,
        so differences of entries are exact potential differences.
        """
        card = self.site_cardinality(j)
        out = np.empty(card)
        xw = x.copy()
        for v in range(card):
            xw[j] = v
            out[v] = self.potential(xw, q)
        return out


@dataclass(frozen=True)
class KineticEnergy:
    """Power-family kinetic energy ``k(p) = |p|^beta`` for discrete momenta.

    ``beta=1`` is Laplace momentum, under which auxiliary clocks move at
    constant unit speed.  Any ``beta > 0`` is accepted; methods operate
    elementwise on arrays.
    """

    beta: float = 1.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def k(self, p):
        """Kinetic energy |p|^beta (>= 0, zero only at p=0)."""
        return np.abs(p) ** self.beta

    def kprime(self, p):
        """Velocity dk/dp = sign(p) * beta * |p|^(beta-1)."""
        p = np.asarray(p, dtype=np.float64)
        return np.sign(p) * self.beta * np.abs(p) ** (self.beta - 1.0)

    def kinv(self, e):
        """Inverse on magnitudes: kinv(k(p)) == |p| for e >= 0."""
        return np.asarray(e, dtype=np.float64) ** (1.0 / self.beta)

    def sample(self, rng: ChainRng, size=None):
        """Draw momenta from ``nu(p) ∝ exp(-|p|^beta)``.

        ``|p|^beta ~ Gamma(1/beta, 1)``, so the magnitude is a transformed
        gamma draw with a symmetric random sign.
        """
        g = rng.gamma(1.0 / self.beta, size)
        mag = g ** (1.0 / self.beta)
        sign = np.where(rng.uniform(size) < 0.5, -1.0, 1.0)
        return sign * mag


def leapfrog(x, q, p, h, n, grad_q, mass=None, g=None):
    """``n`` leapfrog steps of size ``h`` at fixed ``x``, updating ``q`` and
    ``p`` in place, with diagonal ``mass`` (identity when None), from the
    gradient ``g`` at the start, evaluated when None; returns the gradient
    at the end, which a segment starting there can reuse.  That makes ``n``
    gradient evaluations, plus one when ``g`` is None.

    On row stacks (``q``, ``p`` of shape ``(C, n_continuous)``, ``h`` of
    shape ``(C, 1)`` or, cheaper to multiply by, ``(C, n_continuous)``,
    ``grad_q`` taking row stacks) ``n`` may be a ``(C,)`` array: row ``r``
    then takes ``n[r]`` steps of size ``h[r]``.  Every row is stepped
    ``max(n)`` times, making ``max(n)`` gradient calls, and a row that is
    done takes zero-length steps (its step size is 0 from then on), which
    leave its ``q``, ``p`` and gradient as they were, so each row ends with
    the bits of its own int-count call.  A row whose momentum is
    already non-finite turns NaN there (``0 * inf``, with numpy's invalid
    warning silenced); it was divergent either way, and its batch-mates
    are not touched.
    """
    if g is None:
        g = grad_q(x, q)
    if isinstance(n, (int, np.integer)):
        half = 0.5 * h
        for _ in range(n):
            g = _leapfrog_step(x, q, p, g, half, h, grad_q, mass)
        return g
    hs = np.where(np.arange(int(n.max()))[:, None, None] < n[:, None], h, 0.0)
    with np.errstate(invalid="ignore"):
        for h_i, half_i in zip(hs, 0.5 * hs):
            g = _leapfrog_step(x, q, p, g, half_i, h_i, grad_q, mass)
    return g


def _leapfrog_step(x, q, p, g, half, h, grad_q, mass):
    p -= half * g
    q += h * p if mass is None else h * (p / mass)
    g = grad_q(x, q)
    p -= half * g
    return g


def row_method(model, name):
    """``model.<name>`` on row stacks: the method itself when the model is
    ``row_stacked``, else a wrapper that calls it once per row and stacks
    the results.  Site conditionals are padded with ``+inf`` to the model's
    largest site cardinality, as a row-stacked model returns them: a width
    set by the batch would change a row's sums with its batch-mates."""
    fn = getattr(model, name)
    if model.row_stacked:
        return fn
    if name == "site_cond_neglogp":
        width = max((model.site_cardinality(j)
                     for j in range(model.n_discrete)), default=0)

        def per_row_cond(j, x, q):
            out = np.full((len(j), width), np.inf)
            for r, row in enumerate(zip(j, x, q)):
                v = np.asarray(fn(*row), dtype=np.float64)
                out[r, :v.size] = v
            return out

        return per_row_cond

    def per_row(*args):
        return np.array([np.asarray(fn(*row), dtype=np.float64)
                         for row in zip(*args)])

    return per_row


def _masked_logsumexp(neglogp: np.ndarray, skip: int):
    """log sum_{v != skip} exp(-neglogp[v]) plus the per-value logits."""
    logits = -neglogp
    logits[skip] = -np.inf
    m = logits.max()
    if not np.isfinite(m):
        raise NonFiniteWeightsError(f"no admissible proposal from value {skip}: "
                                    "conditional weights zero or non-finite")
    w = np.exp(logits - m)
    return logits, m + np.log(w.sum()), w


# log of the smallest normal float: a cost below it was computed from a
# subnormal normalizer.
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))
_ONE_ROW = np.zeros(1, dtype=np.intp)
_ONE_ROW.flags.writeable = False


def propose_and_delta(j, x, q, model, rng):
    """Single-site proposal together with its energy cost, one conditional eval.

    For the locally informed proposal the potential difference and the
    proposal correction collapse to the log ratio of the two masked
    normalizers.  A binary site flips, at the cost of the difference of its
    two conditionals; a site with more than 2 values goes through the
    one-row call of :func:`informed_rows`.

    Returns ``(new_value, delta_e)`` for site ``j``.
    """
    card = model.site_cardinality(j)
    if card < 2:
        raise DegenerateSiteError(f"degenerate site {j}: cardinality {card} "
                                  "admits no move")
    cur = int(x[j])
    neglogp = model.site_cond_neglogp(j, x, q)

    if card == 2:
        return 1 - cur, float(neglogp[1 - cur] - neglogp[cur])

    new, delta, ok = informed_rows(np.array([j]), x[None], q[None], model,
                                   np.asarray(neglogp)[None], rng.uniform(1),
                                   _ONE_ROW, x[j:j + 1])
    if not ok[0]:
        raise NonFiniteWeightsError(f"no admissible proposal from value {cur}: "
                                    "conditional weights zero or non-finite")
    return int(new[0]), float(delta[0])


def informed_rows(j, x, q, model, neglogp, u, rows, cur):
    """Locally informed proposals at sites ``j`` of the rows of ``x``, ``q``,
    with their energy costs.

    ``neglogp`` holds each row's site conditionals (``+inf`` past the site's
    cardinality), ``u`` one uniform per row, ``rows`` is
    ``np.arange(len(j))`` and ``cur`` the current values ``x[rows, j]``.
    Row ``r`` moves to a value ``v != cur[r]`` with probability proportional
    to ``exp(-neglogp[r, v])``.  Returns ``(new, delta, ok)``; ``ok`` is
    False on rows whose weights leave no finite proposal, and their other
    entries are meaningless.
    """
    # One column per row: the min, the running sums and the counts below do
    # not depend on the layout and are cheaper across rows.  The one float
    # sum over a row's values is taken on the (rows, values) layout, where
    # a row's sum does not change with the number of rows.
    w = np.array(neglogp.T, dtype=np.float64, order="C")
    width, n = w.shape
    at = cur * n + rows                # flat index of each current value
    w_cur = w.take(at)
    w.put(at, np.inf)
    shift = w.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # The weights relative to the largest, in w's buffer.
        e = np.exp(np.subtract(shift, w, out=w), out=w)
        acc = np.add.accumulate(e)
        z_fwd = acc[-1]
        new = (acc <= u * z_fwd).sum(axis=0)
        if new.max(initial=0) == width:
            # u * z_fwd rounded up to z_fwd: take the last positive weight.
            past = new == width
            new[past] = width - 1 - np.argmax(e[::-1, past] > 0.0, axis=0)
        # Backward normalizer by exclusion sum (subtracting e[new] from z_fwd
        # would cancel catastrophically when e[new] dominates).
        e.put(new * n + rows, 0.0)
        e.put(at, np.exp(shift - w_cur))
        delta = np.log(e.T.copy().sum(axis=1) / z_fwd)
    ok = np.isfinite(shift)
    if not (delta.min() > _LOG_TINY and delta.max() < np.inf):
        # The backward normalizer overflowed, or fell below the smallest
        # normal float, where it keeps too few bits: redo the cost in log
        # space.
        redo = ~((delta > _LOG_TINY) & (delta < np.inf))
        for r in np.flatnonzero(ok & redo):
            try:
                delta[r] = forced_delta(int(j[r]), x[r], q[r], model,
                                        int(new[r]))
            except NonFiniteWeightsError:
                ok[r] = False
    return new, delta, ok


def forced_delta(j, x, q, model, new_value) -> float:
    """Energy cost of moving site ``j`` to ``new_value`` under the locally
    informed proposal, with both normalizers evaluated in log space.

    Used to replay recorded proposal sequences and for deterministic moves.
    """
    cur = int(x[j])
    if new_value == cur:
        raise ValueError("forced proposal must differ from the current value")
    neglogp = np.asarray(model.site_cond_neglogp(j, x, q), dtype=np.float64)
    if neglogp.size == 2:
        return float(neglogp[new_value] - neglogp[cur])
    _, log_z_new, _ = _masked_logsumexp(neglogp, new_value)
    _, log_z_cur, _ = _masked_logsumexp(neglogp, cur)
    return float(log_z_new - log_z_cur)
