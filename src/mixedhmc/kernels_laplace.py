"""Mixed HMC kernel with Laplace momentum.

Under Laplace momentum the auxiliary clock variables move at constant unit
speed, so the boundary-event schedule of a whole trajectory can be drawn up
front: a Dirichlet draw fixes the leapfrog time between consecutive rounds of
discrete updates, a random permutation fixes the site visitation order, and
only the per-site kinetic energies (initially Exponential(1)) need tracking.
Each discrete proposal is accepted iff its energy cost fits in the site's
remaining kinetic energy, which is then reduced by that cost; a standard
Metropolis test on the total energy closes the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (DIVERGENCE_MAX, MixedPoint, ModelSpec, NonFiniteWeightsError,
                   leapfrog, propose_and_delta)
from .diagnostics import ChainOutput, drive_chain
from .rng import ChainRng

__all__ = [
    "LaplaceKernelParams",
    "StepSchedule",
    "StepStats",
    "get_step_sizes_n_steps",
    "laplace_step",
    "run_chain",
]


@dataclass(frozen=True)
class LaplaceKernelParams:
    """Tuning knobs: max leapfrog step ``epsilon``, total travel time ``T``,
    ``L`` rounds of discrete updates, ``n_D`` sites updated per round.

    ``mass_diag`` optionally scales the continuous kinetic energy
    ``sum_i p_i^2 / (2 m_i)`` (identity by default).
    """

    epsilon: float
    T: float
    L: int
    n_D: int = 1
    mass_diag: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.T > 0:
            raise ValueError("T must be positive")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.n_D < 1:
            raise ValueError("n_D must be >= 1")
        if self.mass_diag is not None:
            m = np.asarray(self.mass_diag, dtype=np.float64)
            if np.any(m <= 0):
                raise ValueError("mass_diag entries must be positive")
            object.__setattr__(self, "mass_diag", m)

    def validate_for(self, n_sites: int,
                     n_continuous: Optional[int] = None) -> None:
        """Raise ValueError if these params do not fit a model with
        ``n_sites`` discrete sites and ``n_continuous`` coordinates."""
        if n_sites >= 1 and self.n_D > n_sites:
            raise ValueError(f"n_D={self.n_D} exceeds the {n_sites} discrete sites")
        if (n_continuous is not None and self.mass_diag is not None
                and self.mass_diag.shape != (n_continuous,)):
            raise ValueError(f"mass_diag has shape {self.mass_diag.shape}, "
                             f"expected ({n_continuous},)")


@dataclass
class StepSchedule:
    """Per-round leapfrog step sizes (post-division) and step counts."""

    eta: np.ndarray      # (L,)
    n_steps: np.ndarray  # (L,) positive ints


@dataclass
class StepStats:
    accepted: bool
    energy_error: float
    n_discrete_accepts: int
    n_grad_evals: int
    divergent: bool = False


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
    L, n_d = params.L, params.n_D
    if n_sites == 0:
        eta = np.full(L, params.T / L)
    else:
        phi = rng.dirichlet_ones(n_sites + 1)
        phi[0] += phi[n_sites]
        idx = np.arange(L * n_d).reshape(L, n_d) % n_sites
        eta = phi[idx].sum(axis=1)
        eta[0] -= phi[n_sites]
        eta *= params.T / eta.sum()
    n_steps = np.maximum(np.ceil(eta / params.epsilon).astype(np.int64), 1)
    return StepSchedule(eta=eta / n_steps, n_steps=n_steps)


def laplace_step(point: MixedPoint, params: LaplaceKernelParams,
                 model: ModelSpec, rng: ChainRng):
    """One full mixed-HMC iteration; returns the next point and step stats.

    Non-finite energies or conditional weights abort the step as a divergent
    rejection rather than raising; any other model error raises.
    """
    nd = model.n_discrete
    nc = model.n_continuous
    mass = params.mass_diag

    x = point.x.copy()
    q = point.q.copy()

    k = rng.exponential(nd) if nd else np.zeros(0)
    if nc:
        if mass is None:
            p = rng.normal(nc)
            ke0 = 0.5 * float(p @ p)
        else:
            p = rng.normal(nc) * np.sqrt(mass)
            ke0 = 0.5 * float(p @ (p / mass))
    else:
        p = np.zeros(0)
        ke0 = 0.0
    perm = rng.permutation(nd) if nd else np.zeros(0, dtype=np.int64)
    sched = get_step_sizes_n_steps(params, nd, rng)

    e0 = model.potential(point.x, point.q) + float(k.sum()) + ke0

    grad = model.grad_q
    n_grad = 0
    n_acc = 0
    diverged = False
    n_d, L = params.n_D, params.L

    for t in range(L):
        if nc:
            n_grad += leapfrog(x, q, p, sched.eta[t], sched.n_steps[t], grad,
                               mass)
        if nd:
            base = t * n_d
            try:
                for s in range(n_d):
                    j = perm[(base + s) % nd]
                    new, d_e = propose_and_delta(j, x, q, model, rng)
                    if k[j] > d_e:
                        x[j] = new
                        k[j] -= d_e
                        # k[j] > d_e guarantees the budget stays positive
                        assert k[j] >= 0.0
                        n_acc += 1
            except NonFiniteWeightsError:
                diverged = True
                break

    if not diverged:
        if nc:
            ke1 = 0.5 * float(p @ p) if mass is None \
                else 0.5 * float(p @ (p / mass))
        else:
            ke1 = 0.0
        err = model.potential(x, q) + float(k.sum()) + ke1 - e0
        if not np.isfinite(err) or abs(err) > DIVERGENCE_MAX:
            diverged = True

    if diverged:
        return point.copy(), StepStats(accepted=False, energy_error=np.nan,
                                       n_discrete_accepts=n_acc,
                                       n_grad_evals=n_grad, divergent=True)

    u = rng.uniform()
    if err > 0.0 and u >= np.exp(-err):
        return point.copy(), StepStats(accepted=False, energy_error=err,
                                       n_discrete_accepts=n_acc,
                                       n_grad_evals=n_grad)
    return MixedPoint(x, q), StepStats(accepted=True, energy_error=err,
                                       n_discrete_accepts=n_acc,
                                       n_grad_evals=n_grad)


def run_chain(init: MixedPoint, params: LaplaceKernelParams, model: ModelSpec,
              n_burn: int, n_samples: int, rng: ChainRng) -> ChainOutput:
    """Iterate the kernel, discarding ``n_burn`` steps and recording the rest.

    Step-level divergences are counted, never raised.
    """
    params.validate_for(model.n_discrete, model.n_continuous)
    init.validate(model)
    pt = init.copy()

    def step():
        nonlocal pt
        pt, stats = laplace_step(pt, params, model, rng)
        return pt.x, pt.q, stats.accepted, stats.divergent

    return drive_chain(step, model.n_discrete, model.n_continuous, n_burn,
                       n_samples)
