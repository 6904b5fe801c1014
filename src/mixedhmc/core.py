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
import math
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
    "stack_points",
    "site_widths",
    "kinetic_energy",
    "leapfrog",
    "propose_and_delta",
    "flip_costs",
    "informed_rows",
    "site_proposals",
    "RowModel",
]

# Energy errors beyond this mark a trajectory divergent and reject the step.
DIVERGENCE_MAX = 1.0e4


class DegenerateSiteError(ValueError):
    """Raised when a single-site proposal is requested at a cardinality-1 site."""


class NonFiniteWeightsError(ValueError):
    """No finite proposal at a site; the kernels count it as a divergence."""


def check_positive(params) -> None:
    """Raise ``ValueError("<field>: ...")`` for the first field of the
    dataclass ``params`` that is annotated ``int`` and holds another value,
    a bool included ("must be an integer"), or that is numeric and not
    positive and finite everywhere ("must be positive and finite")."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type in (int, "int") and (isinstance(value, bool) or not
                                       isinstance(value, (int, np.integer))):
            raise ValueError(f"{f.name}: must be an integer")
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


def stack_points(points, model: "ModelSpec"):
    """The row stacks ``x`` (``(C, n_discrete)``) and ``q`` (``(C,
    n_continuous)``) of the states ``points``, each first checked by
    :meth:`MixedPoint.validate`."""
    for point in points:
        point.validate(model)
    n = len(points)
    x = np.array([p.x for p in points], dtype=np.int64)
    q = np.array([p.q for p in points], dtype=np.float64)
    return x.reshape(n, model.n_discrete), q.reshape(n, model.n_continuous)


def site_widths(model: "ModelSpec") -> np.ndarray:
    """The cardinality of each of ``model``'s sites, as int64.  A site with
    a single value admits no move to another value: raises
    :class:`DegenerateSiteError` naming the first."""
    widths = np.array([model.site_cardinality(j)
                       for j in range(model.n_discrete)], dtype=np.int64)
    if widths.size and widths.min() < 2:
        j = int(np.argmax(widths < 2))
        raise DegenerateSiteError(f"site {j} has a single value")
    return widths


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
    ``C``.  Other models are called once per row by :class:`RowModel`.

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


def kinetic_energy(p, mass=None):
    """``0.5 * sum_d p_d^2 / m_d`` of each row of the ``(C, n)`` momentum
    stack ``p``, with diagonal ``mass`` (identity when None).  A row's value
    does not depend on the other rows, so a chain stepped alone (as a
    one-row stack) and in a batch gets the same bits at any ``n``."""
    return 0.5 * np.einsum("cd,cd->c", p, p if mass is None else p / mass)


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


def propose_and_delta(j, x, q, model, rng):
    """Single-site proposal together with its energy cost, one conditional eval.

    For the locally informed proposal the potential difference and the
    proposal correction collapse to the log ratio of the two masked
    normalizers.  A binary site flips, at the cost of the difference of its
    two conditionals; a site with more than 2 values goes through the
    one-row call of :func:`informed_rows`, which makes no further model call.

    Returns ``(new_value, delta_e)`` for site ``j``.
    """
    card = model.site_cardinality(j)
    if card < 2:
        raise DegenerateSiteError(f"degenerate site {j}: cardinality {card} "
                                  "admits no move")
    cur = int(x[j])
    neglogp = model.site_cond_neglogp(j, x, q)

    if card == 2:
        with np.errstate(invalid="ignore"):    # inf - inf: NaN, no move
            return 1 - cur, float(neglogp[1 - cur] - neglogp[cur])

    new, delta, ok = informed_rows(np.asarray(neglogp)[None], x[j:j + 1],
                                   rng.uniform(1))
    if not ok[0]:
        raise NonFiniteWeightsError(f"no admissible proposal from value {cur}: "
                                    "conditional weights zero or non-finite")
    return int(new[0]), float(delta[0])


def informed_rows(neglogp, cur, u):
    """Locally informed proposals, with their energy costs, from the site
    conditionals alone: no model is called.

    Row ``r`` of ``neglogp`` holds a site's conditionals (``+inf`` past the
    site's cardinality), ``cur[r]`` its current value and ``u[r]`` a
    uniform.  Row ``r`` moves to a value ``v != cur[r]`` with probability
    proportional to ``exp(-neglogp[r, v])``, at the cost ``log(Z_back /
    Z_fwd)`` of the normalizers with ``v`` and ``cur[r]`` masked out.
    Returns ``(new, delta, ok)``; ``ok`` is False on rows whose weights
    leave no finite proposal, and their other entries are meaningless.
    """
    # The running sums and the counts below, like the min, do not depend on
    # the layout and are cheaper across rows.  The one float sum over a
    # row's values is taken on the (rows, values) layout, where a row's sum
    # does not change with the number of rows.
    w, at, w_cur, shift = _masked_columns(neglogp, cur)
    n = w.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # The weights relative to the largest, in w's buffer.
        e = np.exp(np.subtract(shift, w, out=w), out=w)
        acc = np.add.accumulate(e)
        z_fwd = acc[-1]
        new = (acc <= u * z_fwd).sum(axis=0)
        # Backward normalizer by exclusion sum (subtracting e[new] from z_fwd
        # would cancel catastrophically when e[new] dominates).
        e.put(at + (new - cur) * n, 0.0)
        e.put(at, np.exp(shift - w_cur))
        delta = np.log(e.T.copy().sum(axis=1) / z_fwd)
    ok = np.isfinite(shift)
    if not (delta.min() > _LOG_TINY and delta.max() < np.inf):
        # The backward normalizer overflowed, or fell below the smallest
        # normal float, where it keeps too few bits: redo the cost in log
        # space, from the row in hand.
        redo = ~((delta > _LOG_TINY) & (delta < np.inf))
        for r in np.flatnonzero(ok & redo):
            try:
                delta[r] = _log_space_delta(neglogp[r], int(cur[r]),
                                            int(new[r]))
            except NonFiniteWeightsError:
                ok[r] = False
    return new, delta, ok


_FLIP_SIGN = np.array([1.0, -1.0])


@np.errstate(invalid="ignore")          # inf - inf
def flip_costs(neglogp, cur):
    """The cost of flipping each row's binary site from value ``cur``:
    ``neglogp[1] - neglogp[0]`` from 0, and its negation, bit for bit,
    from 1; NaN when neither value has weight.  Rows at wider sites get a
    meaningless value."""
    return ((neglogp[:, 1] - neglogp[:, 0])
            * _FLIP_SIGN.take(cur, mode="clip"))


def site_proposals(neglogp, cur, widths, u):
    """The single-site proposals of a row stack, with their energy costs,
    each priced on its own site's values.

    Row ``r`` of ``neglogp`` holds the conditionals of a site of
    ``widths[r]`` values (``+inf`` past them), ``cur[r]`` its current value
    and ``u[r]`` a uniform, read only where ``widths[r] > 2``.  A binary
    site flips, at the cost :func:`flip_costs` gives; a flip is always
    proposed, at the cost ``+inf`` when the other value has no weight.  A
    wider site makes the move of :func:`informed_rows` on
    ``neglogp[r, :widths[r]]``: past 8 values numpy's sums change with the
    number of summands, so a width set by the stack would change a row's
    bits with its stack-mates.  Returns ``(new, delta, ok)`` as
    :func:`informed_rows` does.
    """
    distinct = set(widths.tolist())
    if len(distinct) == 1 and 2 not in distinct:
        return informed_rows(neglogp[:, :distinct.pop()], cur, u)
    new = 1 - cur
    delta = flip_costs(neglogp, cur)   # rows at wider sites replaced below
    ok = np.ones(cur.size, dtype=bool)
    for width in distinct - {2}:
        r = np.flatnonzero(widths == width)
        new[r], delta[r], ok[r] = informed_rows(neglogp[r, :width], cur[r],
                                                u[r])
    return new, delta, ok


def _log_space_delta(neglogp, cur, new) -> float:
    """The cost :func:`informed_rows` gives the move ``cur -> new`` at a site
    with conditionals ``neglogp``, with both normalizers in log space."""
    neglogp = np.asarray(neglogp, dtype=np.float64)
    _, log_z_new, _ = _masked_logsumexp(neglogp, new)
    _, log_z_cur, _ = _masked_logsumexp(neglogp, cur)
    return float(log_z_new - log_z_cur)


def _masked_columns(neglogp, cur):
    """The site conditionals ``neglogp`` (``(C, K)``) laid out one column
    per row, with each row's current value ``cur[r]`` put to ``+inf``:
    returns that ``(K, C)`` copy, the flat index of each current value in
    it, the current values' conditionals and each column's min, the least
    alternative (a min does not round, so it is the same in any layout)."""
    w = np.array(neglogp.T, dtype=np.float64, order="C")
    n = w.shape[1]
    at = cur * n + np.arange(n)
    w_cur = w.take(at)
    w.put(at, np.inf)
    return w, at, w_cur, w.min(axis=0)


def _sure_rejections(neglogp, cur, k_j):
    """Rows of site conditionals ``neglogp`` whose proposal from ``cur`` is
    sure to be rejected at the site energy ``k_j``.

    A locally informed proposal from ``cur`` at a site of at most ``K``
    values (the width of ``neglogp``) costs at least ``min_{v != cur} w_v -
    w_cur - log(K - 1)``, for conditionals ``w``: its backward normalizer
    holds ``exp(-w_cur)``, and its forward one is at most ``(K - 1)
    exp(-min_{v != cur} w_v)``.  A row is sure to be rejected when that
    bound is finite and exceeds ``k_j`` by more than ``1e-6 * (1 + k_j)``.
    """
    w, _, w_cur, shift = _masked_columns(neglogp, cur)
    # NaN where no alternative is finite: inf - inf would warn.
    bound = np.where(np.isfinite(shift), shift, np.nan) - w_cur
    return (bound < np.inf) & (
        bound > k_j * (1 + 1e-6) + (1e-6 + math.log(w.shape[0] - 1)))


class RowModel:
    """A model as the lockstep kernels use it, read once for a run: its
    ``potential``, ``grad_q`` and ``site_cond_neglogp`` on row stacks
    (:func:`_on_rows`), its sites' ``widths`` (:func:`site_widths`),
    ``flips_only``, True when every site is binary, and the M-HMC site
    update, :meth:`move`."""

    def __init__(self, model: ModelSpec):
        self.widths = site_widths(model)
        self.flips_only = bool(self.widths.max(initial=2) == 2)
        self.potential = _on_rows(model, "potential")
        self.grad_q = _on_rows(model, "grad_q")
        self.site_cond_neglogp = _on_rows(model, "site_cond_neglogp",
                                          int(self.widths.max(initial=0)))

    def move(self, j, at, x, q, k, live, width, u):
        """One single-site move of each row of the stacks ``x`` and ``q``
        in ``live``, at site ``j[r]`` (flat index ``at[r]`` into ``x`` and
        the site energies ``k``, both updated in place), which has
        ``width[r]`` values; ``u[r]`` is the uniform of an informed
        proposal.

        A row takes its proposal when the cost fits in its site's energy,
        which the cost then lowers: ``energy - cost > 0``, the refraction of
        the event-driven kernel and the Laplace kernel's update alike.  A
        live row whose weights leave no finite proposal is stuck and does
        not move.  Returns ``(moved, stuck, energy - cost)``, ``stuck``
        None when every row found a proposal; or None, leaving ``x`` and
        ``k`` as they were, when at sites wider than 2 every live row is
        sure to reject (:func:`_sure_rejections`).
        """
        neglogp = self.site_cond_neglogp(j, x, q)
        cur = x.take(at)
        energy = k.take(at)
        stuck = None
        if self.flips_only:
            cost = flip_costs(neglogp, cur)
        else:
            if _sure_rejections(neglogp, cur, energy).all(where=live):
                return None
            new, cost, found = site_proposals(neglogp, cur, width, u)
            if not found.all():
                stuck = live & ~found
                live = live & found
        left = energy - cost
        moved = live & (left > 0.0)
        x.put(at, cur ^ moved if self.flips_only
              else np.where(moved, new, cur))
        k.put(at, np.where(moved, left, energy))
        return moved, stuck, left


def _on_rows(model, name, width=None):
    """``model.<name>`` on row stacks: the method itself when the model is
    ``row_stacked``, else a wrapper that calls it once per row and stacks
    the results, each padded with ``+inf`` to ``width`` entries if given,
    as a row-stacked model pads its site conditionals to its largest site
    cardinality: a width set by the stack would change a row's sums with
    its stack-mates."""
    fn = getattr(model, name)
    if model.row_stacked:
        return fn

    def per_row(*args):
        rows = [np.asarray(fn(*row), dtype=np.float64) for row in zip(*args)]
        if width is None:
            return np.array(rows)
        out = np.full((len(rows), width), np.inf)
        for r, v in enumerate(rows):
            out[r, :v.size] = v
        return out
    return per_row
