"""Mixed HMC kernel with Laplace momentum.

Under Laplace momentum the auxiliary clock variables move at constant unit
speed, so the boundary-event schedule of a whole trajectory can be drawn up
front: a Dirichlet draw fixes the leapfrog time between consecutive rounds of
discrete updates, a random permutation fixes the site visitation order, and
only the per-site kinetic energies (initially Exponential(1)) need tracking.
Each discrete proposal is accepted iff its energy cost fits in the site's
remaining kinetic energy, which is then reduced by that cost
(:meth:`~mixedhmc.core.RowModel.move`); a standard Metropolis test on the
total energy closes the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (DIVERGENCE_MAX, MixedPoint, ModelSpec, RowModel,
                   check_positive, kinetic_energy, leapfrog, stack_points)
# Not called here, but perfbench/tracer.py wraps the kernels' proposal by
# this module attribute.
from .core import propose_and_delta  # noqa: F401
from .diagnostics import ChainOutput, StepStats, drive_chains
from .rng import ChainRng

__all__ = [
    "LaplaceKernelParams",
    "StepSchedule",
    "get_step_sizes_n_steps",
    "laplace_step",
    "laplace_step_batch",
    "run_chain",
    "run_chain_batch",
]


@dataclass(frozen=True)
class LaplaceKernelParams:
    """Settings: max leapfrog step ``epsilon``, total travel time ``T``,
    ``L`` rounds of discrete updates, ``n_D`` sites updated per round.

    ``mass_diag`` optionally scales the continuous kinetic energy
    ``sum_i p_i^2 / (2 m_i)`` (identity by default).  A bad value raises
    ``ValueError("<field>: ...")``.
    """

    epsilon: float
    T: float
    L: int
    n_D: int = 1
    mass_diag: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mass_diag is not None:
            try:
                m = np.asarray(self.mass_diag, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"mass_diag: {exc}") from None
            object.__setattr__(self, "mass_diag", m)
        check_positive(self)

    def validate_for(self, n_sites: int,
                     n_continuous: Optional[int] = None) -> None:
        """Raise ValueError if these params do not fit a model with
        ``n_sites`` discrete sites and ``n_continuous`` coordinates."""
        if n_sites >= 1 and self.n_D > n_sites:
            raise ValueError(f"n_D: {self.n_D} exceeds the {n_sites} discrete sites")
        if (n_continuous is not None and self.mass_diag is not None
                and self.mass_diag.shape != (n_continuous,)):
            raise ValueError(f"mass_diag: shape {self.mass_diag.shape}, expected"
                             f" one entry per coordinate, ({n_continuous},)")


@dataclass
class StepSchedule:
    """Per-round leapfrog step sizes (post-division) and step counts."""

    eta: np.ndarray      # (L,)
    n_steps: np.ndarray  # (L,) positive ints


def _schedules(params: LaplaceKernelParams, phi: np.ndarray):
    """Leapfrog step sizes and counts, ``(C, L)`` each, of the trajectories
    whose Dirichlet draws are the rows of ``phi`` (``(C, n_sites + 1)``)."""
    L, n_d = params.L, params.n_D
    n_sites = phi.shape[1] - 1
    if n_sites == 0:
        eta = np.full((phi.shape[0], L), params.T / L)
    else:
        phi[:, 0] += phi[:, n_sites]
        idx = np.arange(L * n_d).reshape(L, n_d) % n_sites
        # np.take keeps rows contiguous; phi[:, idx] would not, and row sums
        # over other layouts change with the number of rows.
        eta = np.take(phi, idx, axis=1).sum(axis=2)
        eta[:, 0] -= phi[:, n_sites]
        eta *= params.T / eta.sum(axis=1, keepdims=True)
    n_steps = np.maximum(np.ceil(eta / params.epsilon).astype(np.int64), 1)
    return eta / n_steps, n_steps


def get_step_sizes_n_steps(params: LaplaceKernelParams, n_sites: int,
                           rng: ChainRng) -> StepSchedule:
    """Draw the random leapfrog schedule for one trajectory.

    A Dirichlet(1, ..., 1) draw over ``n_sites + 1`` parts plays the role of
    the gaps between consecutive clock events; the last part is folded into
    the first, each round sums the ``n_D`` parts it consumes cyclically, the
    fold is backed out of the first round, and the rounds are rescaled to
    total travel time ``T``.  Rounds longer than ``epsilon`` are subdivided,
    so ``sum_t eta_t * M_t == T`` and ``max_t eta_t <= epsilon`` always hold.

    With no discrete sites the schedule degenerates to ``L`` equal rounds.
    """
    phi = rng.dirichlet_ones(n_sites + 1) if n_sites else np.ones(1)
    eta, n_steps = _schedules(params, phi[None])
    return StepSchedule(eta=eta[0], n_steps=n_steps[0])


def laplace_step(point: MixedPoint, params: LaplaceKernelParams,
                 model: ModelSpec, rng: ChainRng):
    """One full mixed-HMC iteration; returns the next point and step stats.

    The one-chain call of :func:`laplace_step_batch`.
    """
    x, q, stats = laplace_step_batch(point.x[None], point.q[None], params,
                                     model, [rng])
    return MixedPoint(x[0], q[0]), stats.chain(0)


def _noise(params, nc, rngs, widths):
    """Each chain's draws for one iteration, from its own stream, in the
    order the kernel consumes them: site energies, momenta, visiting order,
    schedule, then one uniform per proposal at a site with more than 2
    values and the Metropolis uniform.  Each chain's draws are written in
    place into its rows, and the Dirichlet rows of the schedule are the
    exponential draws of :meth:`~mixedhmc.rng.ChainRng.dirichlet_ones`
    normalized together.

    ``u[m, r]`` is chain ``r``'s uniform for proposal ``m`` of the
    trajectory (NaN at 2-value sites), ``u[-1, r]`` its Metropolis uniform;
    ``sites[m, r]`` is the site of proposal ``m``, and ``width[m, r]`` its
    number of values, from the sites' ``widths``.
    """
    nd, n = widths.size, len(rngs)
    n_prop = params.L * params.n_D if nd else 0
    k, p = np.empty((n, nd)), np.empty((n, nc))
    perm = np.zeros((n, nd), dtype=np.int64)
    phi = np.ones((n, nd + 1))
    u = np.full((n, n_prop + 1), np.nan)
    # Every uniform is drawn in place when every site is wider than 2, the
    # Metropolis uniform alone when every site is binary.
    mixed = widths.min(initial=3) == 2 < widths.max(initial=2)
    first = n_prop if widths.max(initial=2) == 2 else 0
    for r, rng in enumerate(rngs):
        if nd:
            rng.exponential(out=k[r])
        if nc:
            rng.normal(out=p[r])
        if nd:
            if nd > 1:  # permutation(1) takes nothing from the stream
                perm[r] = rng.permutation(nd)
            rng.exponential(out=phi[r])
        if not mixed:
            rng.uniform(out=u[r, first:])
    phi /= phi.sum(axis=1, keepdims=True)
    sites = perm.T.take(np.arange(n_prop) % max(nd, 1), axis=0)
    width = widths.take(sites)
    if mixed:
        drawn = np.concatenate([width.T > 2, np.ones((n, 1), dtype=bool)],
                               axis=1)
        u[drawn] = np.concatenate([rng.uniform(c) for rng, c
                                   in zip(rngs, drawn.sum(axis=1))])
    if params.mass_diag is not None:
        p *= np.sqrt(params.mass_diag)
    return k, p, sites, width, _schedules(params, phi), u.T.copy()


def laplace_step_batch(x, q, params: LaplaceKernelParams, model: ModelSpec,
                       rngs):
    """One mixed-HMC iteration of each of a batch of chains, in lockstep.

    Row ``r`` of ``x`` (``(C, n_discrete)``) and ``q`` (``(C,
    n_continuous)``) is the state of chain ``r``, which draws only from
    ``rngs[r]``.  Chains share each leapfrog round and each round of
    discrete updates; a chain whose round needs fewer leapfrog steps takes
    zero-length steps for the rest.  A round starts from the gradient the
    last one ended with, re-evaluated only on the rows whose ``x`` changed
    in between.  Returns the new ``(x, q)`` and a :class:`StepStats` of
    ``(C,)`` arrays; ``n_grad_evals`` counts the gradients of each chain's
    own trajectory, as when it steps alone.

    A chain whose conditional weights leave no finite proposal is stuck: it
    moves no further site, is rejected and counted divergent, as are
    non-finite or huge energy errors, and is still evaluated with its
    batch-mates for the rest of the trajectory.  Any other model error
    raises.  Each row's result does not depend on the other rows.

    On a model with a site of more than 2 values, a proposal is skipped
    when every row that is not stuck is sure to reject it
    (:meth:`~mixedhmc.core.RowModel.move`): each row's uniform was drawn up
    front, so the samples do not change.  On a model of binary sites every
    proposal is a flip.
    """
    x, q, _, stats = _laplace_step(x, q, params, RowModel(model), rngs)
    return x, q, stats


def _laplace_step(x, q, params, rm, rngs, potential=None):
    """:func:`laplace_step_batch` on the model ``rm`` (a
    :class:`~mixedhmc.core.RowModel`), from ``potential``, ``U`` at each
    row's ``(x, q)``, evaluated when None.  Returns ``(x, q, potential,
    stats)`` for the next iteration."""
    nc = q.shape[1]
    mass, L, n_d = params.mass_diag, params.L, params.n_D
    n = len(rngs)
    k, p, sites, width, (eta, n_steps), u = _noise(params, nc, rngs,
                                                   rm.widths)
    # The flat index of each proposal's site in x and k.
    at = sites + np.arange(n) * rm.widths.size

    if potential is None:
        potential = rm.potential(x, q)
    e0 = potential + k.sum(axis=1) + kinetic_energy(p, mass)
    rounds = np.full(n, L)             # leapfrog rounds each chain ran
    took = np.zeros((L * n_d, n), dtype=bool)  # chains taking proposal m
    stuck = np.zeros(n, dtype=bool)    # no finite proposal: moves no more
    live, n_live = ~stuck, n
    xs, qs = x.copy(), q.copy()
    lo, hi = n_steps.min(axis=0).tolist(), n_steps.max(axis=0).tolist()
    # Each round's step sizes, one column per chain, and the buffer they
    # are repeated along each row in: a product with a (C, 1) column
    # broadcasts row by row and costs about 2.5x as much.
    eta_t, h = eta.T.copy(), np.empty_like(p)
    g = None                           # gradient at (xs, qs)
    moved = False                      # a chain moved since the last leapfrog

    for t in range(L):
        if not n_live:
            break
        if nc:
            if moved:
                # The last round's gradient holds where x did not change.
                r = took[(t - 1) * n_d:t * n_d].any(axis=0).nonzero()[0]
                g[r] = rm.grad_q(xs[r], qs[r])
                moved = False
            # An int step count when every chain takes the same number.
            np.copyto(h, eta_t[t, :, None])
            g = leapfrog(xs, qs, p, h,
                         lo[t] if lo[t] == hi[t] else n_steps[:, t],
                         rm.grad_q, mass, g)
        for m in range(t * n_d, (t + 1) * n_d) if rm.widths.size else ():
            result = rm.move(sites[m], at[m], xs, qs, k, live, width[m], u[m])
            if result is None:
                continue
            take, new_stuck, _ = result
            if new_stuck is not None:
                rounds[new_stuck] = t + 1
                stuck |= new_stuck
                live = ~stuck
                n_live = np.count_nonzero(live)
            if take.any():
                took[m] = take
                moved = True

    u_end = rm.potential(xs, qs)
    err = u_end + k.sum(axis=1) + kinetic_energy(p, mass) - e0
    divergent = stuck | ~(np.abs(err) <= DIVERGENCE_MAX)
    energy_error = np.where(divergent, np.nan, err)
    accepted = ~divergent & (u[-1] < np.exp(-np.maximum(err, 0.0)))
    x_new = np.where(accepted[:, None], xs, x)
    q_new = np.where(accepted[:, None], qs, q)
    # A chain's own gradients: one at the start, one per leapfrog step of
    # the rounds it ran, and one more for each of those rounds that began
    # after it moved.
    ran = np.arange(L) < rounds[:, None]
    moved = took.reshape(L, n_d, n).any(axis=1).T
    n_grad = (1 + np.where(ran, n_steps, 0).sum(axis=1)
              + (ran[:, 1:] & moved[:, :-1]).sum(axis=1)
              if nc else np.zeros(n, dtype=np.int64))
    return x_new, q_new, np.where(accepted, u_end, potential), StepStats(
        accepted=accepted, energy_error=energy_error,
        n_discrete_accepts=took.sum(axis=0), n_grad_evals=n_grad,
        divergent=divergent)


def run_chain_batch(inits, params: LaplaceKernelParams, model: ModelSpec,
                    n_burn: int, n_samples: int, rngs) -> list:
    """Iterate the kernel on a batch of chains in lockstep, chain ``r``
    starting at ``inits[r]`` and drawing from ``rngs[r]``; returns one
    :class:`ChainOutput` per chain, in order.

    Each chain's samples are those it gives when run alone.  Step-level
    divergences are counted, never raised.  A chain's start potential is
    carried from one iteration to the next, so each iteration makes one
    ``potential`` call on the stack.
    """
    params.validate_for(model.n_discrete, model.n_continuous)
    x, q = stack_points(inits, model)
    rm = RowModel(model)
    potential = None

    def step():
        nonlocal x, q, potential
        x, q, potential, stats = _laplace_step(x, q, params, rm, rngs,
                                               potential)
        return x, q, stats.accepted, stats.divergent

    return drive_chains(step, len(inits), model.n_discrete, model.n_continuous,
                        n_burn, n_samples)


def run_chain(init: MixedPoint, params: LaplaceKernelParams, model: ModelSpec,
              n_burn: int, n_samples: int, rng: ChainRng) -> ChainOutput:
    """Iterate the kernel, discarding ``n_burn`` steps and recording the rest.

    The one-chain call of :func:`run_chain_batch`.  Step-level divergences
    are counted, never raised.
    """
    return run_chain_batch([init], params, model, n_burn, n_samples, [rng])[0]
