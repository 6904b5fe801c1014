"""Event-driven mixed HMC for arbitrary power-family kinetic energies.

Each discrete site carries an auxiliary clock ``qD_i`` on the circle
``[0, tau]`` and a momentum ``pD_i``.  Clocks advance at constant velocity
``k'(pD_i)`` between events; when a clock hits 0 or tau a single-site move is
proposed and the boundary is crossed (refraction, paying the move's energy
cost out of that site's kinetic energy) or bounced off (reflection, momentum
negated) depending on whether enough kinetic energy is available.  The
continuous coordinates evolve by leapfrog between events.  A Metropolis test
on the total energy ends the iteration, negating all momenta on acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DIVERGENCE_MAX, KineticEnergy, MixedPoint, ModelSpec,
                   NonFiniteWeightsError, leapfrog, propose_and_delta)
from .diagnostics import ChainOutput, drive_chains
from .kernels_laplace import StepStats
from .rng import ChainRng

__all__ = [
    "AuxiliaryState",
    "initial_hit_time",
    "refract",
    "general_step",
    "sample_auxiliary",
    "run_chain_general",
]

_MAX_EVENTS = 10_000_000


@dataclass
class AuxiliaryState:
    """Clock positions ``qD`` in [0, tau], momenta ``pD``, circumference tau."""

    qD: np.ndarray
    pD: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        self.qD = np.asarray(self.qD, dtype=np.float64)
        self.pD = np.asarray(self.pD, dtype=np.float64)
        if self.qD.shape != self.pD.shape:
            raise ValueError("qD and pD must have matching shapes")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.qD.size and (self.qD.min() < 0 or self.qD.max() > self.tau):
            raise ValueError("qD entries must lie in [0, tau]")

    def copy(self) -> "AuxiliaryState":
        return AuxiliaryState(self.qD.copy(), self.pD.copy(), self.tau)


def _hit_time(qd, v, tau):
    """Time until a clock at ``qd`` moving at nonzero velocity ``v`` reaches
    0 or tau."""
    return (tau * (np.sign(v) + 1.0) - 2.0 * qd) / (2.0 * v)


def initial_hit_time(qd, pd, tau: float, kinetic: KineticEnergy):
    """Time until a clock at ``qd`` with momentum ``pd`` reaches 0 or tau.

    ``(tau (sign(v) + 1) - 2 qd) / (2 v)`` with velocity ``v = k'(pd)``;
    elementwise on arrays.
    """
    pd = np.asarray(pd, dtype=np.float64)
    if np.any(pd == 0.0):
        raise ValueError("zero momentum: hit time is infinite, resample upstream")
    t = _hit_time(np.asarray(qd, dtype=np.float64), kinetic.kprime(pd), tau)
    return t if t.ndim else float(t)


def refract(pd, delta_e, kinetic: KineticEnergy):
    """Pass through a boundary, paying ``delta_e`` out of the kinetic energy.

    Returns ``sign(pd) * kinv(k(pd) - delta_e)``; requires ``k(pd) > delta_e``
    (callers must reflect otherwise).  Sign is preserved and the new kinetic
    energy is exactly the old minus ``delta_e``.
    """
    pd = np.asarray(pd, dtype=np.float64)
    energy = kinetic.k(pd)
    if not np.all(energy > delta_e):
        raise ValueError("refract requires k(p) > delta_e; reflect instead")
    out = np.sign(pd) * kinetic.kinv(energy - delta_e)
    return out if out.ndim else float(out)


def _integrate(x, q, p, duration, max_step, model):
    """Leapfrog for ``duration`` in equal steps no larger than ``max_step``."""
    n = max(int(np.ceil(duration / max_step)), 1)
    return leapfrog(x, q, p, duration / n, n, model.grad_q)


def _simulate(x, qD, pD, qC, pC, tau, T, model, kinetic, integrator_eps, rng,
              propose, events):
    """Run the event loop, mutating all state arrays in place.

    ``propose(j, x, qC, rng) -> (new_value, delta_e)`` may be overridden to
    inject a fixed proposal sequence (used by reversibility tests).
    Returns ``(n_accepts, n_grads, ok)``; ``ok`` is False when the trajectory
    degenerated (non-finite weights or runaway event count).
    """
    nd = qD.size
    nc = qC.size
    n_acc = 0
    n_grad = 0

    if nd:
        v = kinetic.kprime(pD)
        hit = _hit_time(qD, v, tau)
    else:
        v = hit = np.zeros(0)

    t_rem = T
    n_events = 0
    while t_rem > 0.0:
        if nd:
            j = int(np.argmin(hit))
            event = hit[j] <= t_rem
            step = hit[j] if event else t_rem
        else:
            event = False
            step = t_rem

        if step > 0.0:
            if nd:
                qD += step * v
                np.clip(qD, 0.0, tau, out=qD)
            if nc:
                n_grad += _integrate(x, qC, pC, step, integrator_eps, model)
        t_rem -= step

        if event:
            hit -= step
            np.maximum(hit, 0.0, out=hit)
            try:
                new, d_e = propose(j, x, qC, rng)
            except NonFiniteWeightsError:
                return n_acc, n_grad, False
            old = int(x[j])
            energy = kinetic.k(pD[j])
            accepted = energy > d_e
            if accepted:
                x[j] = new
                qD[j] = tau - qD[j]
                pD[j] = np.sign(pD[j]) * kinetic.kinv(energy - d_e)
                v[j] = kinetic.kprime(pD[j])
                n_acc += 1
            else:
                pD[j] = -pD[j]
                v[j] = -v[j]
            hit[j] = _hit_time(qD[j], v[j], tau)
            if events is not None:
                events.append((j, old, new, accepted))
            n_events += 1
            if n_events > _MAX_EVENTS:
                return n_acc, n_grad, False

    return n_acc, n_grad, True


def general_step(point: MixedPoint, aux: AuxiliaryState, pC: np.ndarray,
                 T: float, model: ModelSpec, kinetic: KineticEnergy,
                 integrator_eps: float, rng: ChainRng,
                 propose=None, events=None):
    """One trajectory of the event-driven kernel plus the Metropolis test.

    Returns ``(point, aux, pC, stats)``: the accepted end state with both
    momenta negated, or the unchanged inputs on rejection.
    """
    if aux.qD.size != model.n_discrete:
        raise ValueError("auxiliary state size does not match model sites")
    if propose is None:
        def propose(j, x, q, r):
            return propose_and_delta(j, x, q, model, r)

    x = point.x.copy()
    qC = point.q.copy()
    qD = aux.qD.copy()
    pD = aux.pD.copy()
    p = np.array(pC, dtype=np.float64, copy=True)

    e0 = model.potential(x, qC) + float(np.sum(kinetic.k(pD))) \
        + 0.5 * float(p @ p)

    n_acc, n_grad, ok = _simulate(x, qD, pD, qC, p, aux.tau, T, model, kinetic,
                                  integrator_eps, rng, propose, events)

    if ok:
        err = model.potential(x, qC) + float(np.sum(kinetic.k(pD))) \
            + 0.5 * float(p @ p) - e0
        if not np.isfinite(err) or abs(err) > DIVERGENCE_MAX:
            ok = False

    if not ok:
        stats = StepStats(accepted=False, energy_error=np.nan,
                          n_discrete_accepts=n_acc,
                          n_grad_evals=n_grad, divergent=True)
        return point.copy(), aux.copy(), np.array(pC, copy=True), stats

    u = rng.uniform()
    if err <= 0.0 or u < np.exp(-err):
        stats = StepStats(accepted=True, energy_error=err,
                          n_discrete_accepts=n_acc, n_grad_evals=n_grad)
        return (MixedPoint(x, qC),
                AuxiliaryState(qD, -pD, aux.tau), -p, stats)
    stats = StepStats(accepted=False, energy_error=err,
                      n_discrete_accepts=n_acc, n_grad_evals=n_grad)
    return point.copy(), aux.copy(), np.array(pC, copy=True), stats


def sample_auxiliary(n_sites: int, tau: float, kinetic: KineticEnergy,
                     rng: ChainRng) -> AuxiliaryState:
    """Fresh clocks uniform on [0, tau] and momenta from ``nu ∝ e^{-k}``."""
    qD = rng.uniform(n_sites) * tau if n_sites else np.zeros(0)
    pD = kinetic.sample(rng, n_sites) if n_sites else np.zeros(0)
    return AuxiliaryState(np.atleast_1d(qD), np.atleast_1d(pD), tau)


def run_chain_general(init: MixedPoint, T: float, model: ModelSpec,
                      kinetic: KineticEnergy, tau: float,
                      integrator_eps: float, n_burn: int, n_samples: int,
                      rng: ChainRng, resample_positions: bool = True
                      ) -> ChainOutput:
    """Iterate the event-driven kernel.

    ``resample_positions=True`` redraws the clock positions every iteration;
    False keeps them across iterations (momenta are always redrawn), the
    variant under which the binary HMC samplers arise.
    """
    init.validate(model)
    nd, nc = model.n_discrete, model.n_continuous
    pt = init.copy()
    aux = sample_auxiliary(nd, tau, kinetic, rng)

    def step():
        nonlocal pt, aux
        if nd:
            if resample_positions:
                aux.qD = rng.uniform(nd) * tau
            aux.pD = np.atleast_1d(kinetic.sample(rng, nd))
        pC = rng.normal(nc) if nc else np.zeros(0)
        pt, aux, _, stats = general_step(pt, aux, pC, T, model, kinetic,
                                         integrator_eps, rng)
        return pt.x, pt.q, stats.accepted, stats.divergent

    return drive_chains(step, 1, nd, nc, n_burn, n_samples)[0]
