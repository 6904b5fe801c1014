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
from dataclasses import dataclass

import numpy as np

from .rng import ChainRng

__all__ = [
    "MixedPoint",
    "ModelSpec",
    "KineticEnergy",
    "DegenerateSiteError",
    "NonFiniteWeightsError",
    "default_proposal_sample",
    "delta_E",
    "leapfrog",
]

# Energy errors beyond this mark a trajectory divergent and reject the step.
DIVERGENCE_MAX = 1.0e4


class DegenerateSiteError(ValueError):
    """Raised when a single-site proposal is requested at a cardinality-1 site."""


class NonFiniteWeightsError(ValueError):
    """No finite proposal at a site; the kernels count it as a divergence."""


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


def leapfrog(x, q, p, h, n, grad_q, mass=None):
    """``n`` leapfrog steps of size ``h`` at fixed ``x``, updating ``q`` and
    ``p`` in place, with diagonal ``mass`` (identity when None); returns the
    number of gradient evaluations, ``n + 1``.

    On row stacks (``q``, ``p`` of shape ``(C, n_continuous)``, ``h`` of
    shape ``(C, 1)``, ``grad_q`` taking row stacks) ``n`` may be a ``(C,)``
    array: row ``r`` then takes ``n[r]`` steps, and rows that are done sit
    out the later steps and their gradient calls.
    """
    half = 0.5 * h
    g = grad_q(x, q)
    if isinstance(n, (int, np.integer)):
        for _ in range(n):
            g = _leapfrog_step(x, q, p, g, half, h, grad_q, mass)
        return n + 1
    n_min = int(n.min())
    for i in range(int(n.max())):
        if i < n_min:
            g = _leapfrog_step(x, q, p, g, half, h, grad_q, mass)
        else:
            r = np.flatnonzero(n > i)
            qr, pr = q[r], p[r]
            g[r] = _leapfrog_step(x[r], qr, pr, g[r], half[r], h[r], grad_q,
                                  mass)
            q[r], p[r] = qr, pr
    return n + 1


def _leapfrog_step(x, q, p, g, half, h, grad_q, mass):
    p -= half * g
    q += h * p if mass is None else h * (p / mass)
    g = grad_q(x, q)
    p -= half * g
    return g


def row_method(model, name):
    """``model.<name>`` on row stacks: the method itself when the model is
    ``row_stacked``, else a wrapper that calls it once per row and stacks
    the results, padding site conditionals of smaller sites with ``+inf``."""
    fn = getattr(model, name)
    if model.row_stacked:
        return fn

    def per_row(*args):
        out = [np.asarray(fn(*row), dtype=np.float64) for row in zip(*args)]
        width = max(v.size for v in out)
        return np.array([
            np.pad(v, (0, width - v.size), constant_values=np.inf)
            if v.ndim and v.size < width else v for v in out])

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


def default_proposal_sample(j, x, q, model, rng):
    """Locally informed single-site proposal that never stays put.

    Draws ``x_tilde`` differing from ``x`` only at site ``j``, with the new
    value ``v != x[j]`` chosen with probability proportional to its conditional
    weight ``exp(-site_cond_neglogp(j, x, q)[v])``.

    Returns
    -------
    x_tilde : np.ndarray
        Proposed discrete state.
    log_fwd : float
        log Q_j(x_tilde | x).
    log_bwd : float
        log Q_j(x | x_tilde), from the same conditional weight vector with the
        respective current value masked out.
    """
    card = model.site_cardinality(j)
    if card < 2:
        raise DegenerateSiteError(f"degenerate site {j}: cardinality {card} "
                                  "admits no move")
    cur = int(x[j])
    neglogp = np.asarray(model.site_cond_neglogp(j, x, q), dtype=np.float64)

    if card == 2:
        # Binary site: the flip is the only legal move, with probability 1.
        new = 1 - cur
        log_fwd = 0.0
        log_bwd = 0.0
    else:
        logits, log_z_fwd, w = _masked_logsumexp(neglogp, cur)
        u = rng.uniform() * w.sum()
        new = int(np.searchsorted(np.cumsum(w), u, side="right"))
        log_fwd = logits[new] - log_z_fwd
        logits_b, log_z_bwd, _ = _masked_logsumexp(neglogp, new)
        log_bwd = logits_b[cur] - log_z_bwd

    x_tilde = x.copy()
    x_tilde[j] = new
    return x_tilde, log_fwd, log_bwd


def delta_E(x, x_tilde, q, log_fwd, log_bwd, model) -> float:
    """Energy cost of the discrete move ``x -> x_tilde`` at location ``q``.

    ``log [ pi(x, q) Q(x_tilde|x) / (pi(x_tilde, q) Q(x|x_tilde)) ]``,
    i.e. ``U(x_tilde, q) - U(x, q) + log_fwd - log_bwd``.
    """
    return (model.potential(x_tilde, q) - model.potential(x, q)
            + log_fwd - log_bwd)


def propose_and_delta(j, x, q, model, rng):
    """Single-site proposal together with its energy cost, one conditional eval.

    Fast path used inside kernels.  Equivalent to
    ``default_proposal_sample`` followed by ``delta_E``: for the locally
    informed proposal the potential differences and proposal corrections
    collapse to the log ratio of the two masked normalizers.  Sites with
    more than 2 values go through the one-row call of
    :func:`informed_rows`.

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
                                   np.asarray(neglogp)[None], rng.uniform(1))
    if not ok[0]:
        raise NonFiniteWeightsError(f"no admissible proposal from value {cur}: "
                                    "conditional weights zero or non-finite")
    return int(new[0]), float(delta[0])


def informed_rows(j, x, q, model, neglogp, u):
    """Locally informed proposals at sites ``j`` of the rows of ``x``, ``q``,
    with their energy costs.

    ``neglogp`` holds each row's site conditionals (``+inf`` past the site's
    cardinality) and ``u`` one uniform per row.  Row ``r`` moves to a value
    ``v != x[r, j[r]]`` with probability proportional to
    ``exp(-neglogp[r, v])``.  Returns ``(new, delta, ok)``; ``ok`` is False
    on rows whose weights leave no finite proposal, and their other entries
    are meaningless.
    """
    rows = np.arange(j.size)
    cur = x[rows, j]
    w = np.array(neglogp, dtype=np.float64)
    w_cur = w[rows, cur]
    w[rows, cur] = np.inf
    shift = w.min(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e = np.exp(shift[:, None] - w)
        acc = e.cumsum(axis=1)
        z_fwd = acc[:, -1]
        new = (acc <= (u * z_fwd)[:, None]).sum(axis=1)
        if new.max(initial=0) == w.shape[1]:
            # u * z_fwd rounded up to z_fwd: take the last positive weight.
            past = new == w.shape[1]
            new[past] = w.shape[1] - 1 - np.argmax(e[past, ::-1] > 0.0, axis=1)
        # Backward normalizer by exclusion sum (subtracting e[new] from z_fwd
        # would cancel catastrophically when e[new] dominates).
        e[rows, new] = 0.0
        e[rows, cur] = np.exp(shift - w_cur)
        delta = np.log(e.sum(axis=1) / z_fwd)
    ok = np.isfinite(shift)
    if not np.isfinite(delta).all():
        # The backward normalizer over- or underflowed: redo the cost in log
        # space.
        for r in np.flatnonzero(ok & ~np.isfinite(delta)):
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
