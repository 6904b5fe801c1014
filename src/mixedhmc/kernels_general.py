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

import math
from dataclasses import dataclass

import numpy as np

from .core import (DIVERGENCE_MAX, KineticEnergy, MixedPoint, ModelSpec,
                   NonFiniteWeightsError, check_positive, leapfrog,
                   propose_and_delta)
from .diagnostics import ChainOutput, StepStats, drive_chains
from .rng import ChainRng

__all__ = [
    "AuxiliaryState",
    "GeneralParams",
    "initial_hit_time",
    "refract",
    "general_step",
    "sample_auxiliary",
    "run_chain_general",
]

_MAX_EVENTS = 10_000_000


@dataclass(frozen=True)
class GeneralParams:
    """Settings of :func:`run_chain_general`: travel time ``T``, clock
    kinetic energy ``|p|^beta``, circumference ``tau``, largest leapfrog
    step ``integrator_eps``, and whether clocks are redrawn each step.

    ``resample_positions=True`` redraws the clock positions every
    iteration; False keeps them across iterations (momenta are always
    redrawn), the variant under which the binary HMC samplers arise.
    """

    T: float
    beta: float = 1.0
    tau: float = 1.0
    integrator_eps: float = 0.1
    resample_positions: bool = True

    def __post_init__(self):
        check_positive(self)


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


def _hit_time(qd, v, tau):
    """Time until a clock at ``qd`` moving at nonzero velocity ``v`` reaches
    0 or tau; on floats, or elementwise on arrays."""
    return (2.0 * tau * (v > 0) - 2.0 * qd) / (2.0 * v)


def initial_hit_time(qd, pd, tau: float, kinetic: KineticEnergy):
    """Time until a clock at ``qd`` with momentum ``pd`` reaches 0 or tau.

    ``(2 tau [v > 0] - 2 qd) / (2 v)`` with velocity ``v = k'(pd)``;
    elementwise on arrays.
    """
    pd = np.asarray(pd, dtype=np.float64)
    if np.any(pd == 0.0):
        raise ValueError("zero momentum: hit time is infinite, resample upstream")
    t = _hit_time(np.asarray(qd, dtype=np.float64), kinetic.kprime(pd), tau)
    return t if t.ndim else float(t)


def refract(pd: float, delta_e: float, kinetic: KineticEnergy) -> float:
    """Pass through a boundary, paying ``delta_e`` out of the kinetic energy.

    Returns ``sign(pd) * kinv(k(pd) - delta_e)`` on floats, by the event
    loop's own refraction; requires ``k(pd) > delta_e`` (callers must
    reflect otherwise).  Sign is preserved and the new kinetic energy is
    the old minus ``delta_e``.
    """
    energy = float(kinetic.k(pd))
    if not energy > delta_e:
        raise ValueError("refract requires k(p) > delta_e; reflect instead")
    return _refracted(pd, energy, delta_e, _float_kinv(kinetic))


def _integrate(x, q, p, duration, max_step, model, g):
    """Leapfrog for ``duration`` in equal steps no larger than ``max_step``,
    from the gradient ``g`` at the start (evaluated when None); returns the
    number of gradient evaluations and the gradient at the end."""
    n = max(math.ceil(duration / max_step), 1)
    return (n + (g is None),
            leapfrog(x, q, p, duration / n, n, model.grad_q, g=g))


def _float_kinv(kinetic: KineticEnergy):
    """``kinetic.kinv`` on one float, bit for bit.

    numpy computes ``e ** (1 / beta)`` on an array with its own ``pow``,
    except for the exponents 1, 2 and 0.5, where it takes the identity, the
    square and ``sqrt``; only those have float forms that match it.
    """
    r = 1.0 / kinetic.beta
    if r == 1.0:
        return float
    if r == 2.0:
        return lambda e: e * e
    if r == 0.5:
        return math.sqrt
    return lambda e: float(kinetic.kinv(e))


def _refracted(p, energy, delta_e, kinv):
    """The momentum ``p`` of kinetic energy ``energy > delta_e`` after
    paying ``delta_e``: ``sign(p) * kinv(energy - delta_e)``, with ``kinv``
    from :func:`_float_kinv`."""
    mag = kinv(energy - delta_e)
    return mag if p > 0.0 else -mag


def _runs(p, v) -> bool:
    """Whether a clock with momentum ``p`` and velocity ``v`` can be run:
    both finite, and the clock not standing still."""
    return math.isfinite(p) and math.isfinite(v) and v != 0.0


def _simulate(x, qD, pD, qC, pC, tau, T, model, kinetic, integrator_eps, rng,
              propose, events):
    """Run the event loop, mutating all state arrays in place.

    The clocks' positions, momenta, velocities and hit times live in Python
    lists of floats for the whole trajectory, read from ``qD`` and ``pD``
    on entry and written back on exit, so an event costs a few float
    operations rather than numpy calls on single values.  Each leapfrog
    segment starts from the gradient the last one ended with, unless a
    refraction moved ``x`` in between.

    ``propose(j, x, qC, rng) -> (new_value, delta_e)`` may be overridden to
    inject a fixed proposal sequence (used by reversibility tests).
    Returns ``(n_accepts, n_grads, ok)``; ``ok`` is False when the trajectory
    degenerated: non-finite weights, a clock whose momentum or velocity is
    not finite or whose velocity is zero (on entry or after a refraction),
    a refraction leaving a clock fast enough to cross the circle more than
    ``_MAX_EVENTS`` times in time ``T``, or a runaway event count.
    """
    nd = qD.size
    nc = qC.size
    beta = kinetic.beta
    kinv = _float_kinv(kinetic)
    v = kinetic.kprime(pD)
    qd, pd, vel = qD.tolist(), pD.tolist(), v.tolist()
    hit = _hit_time(qD, v, tau).tolist()
    n_acc = 0
    n_grad = 0
    g = None  # gradient at (x, qC) where the last leapfrog segment ended

    ok = all(map(_runs, pd, vel))
    t_rem = T
    n_events = 0
    while ok and t_rem > 0.0:
        if nd:
            h = min(hit)
            j = hit.index(h)
            event = h <= t_rem
            step = h if event else t_rem
        else:
            event = False
            step = t_rem

        if step > 0.0:
            if nd:  # np.clip(qd + step * vel, 0, tau)
                qd = [tau if (c := a + step * w) > tau else
                      (0.0 if c < 0.0 else c) for a, w in zip(qd, vel)]
            if nc:
                n, g = _integrate(x, qC, pC, step, integrator_eps, model, g)
                n_grad += n
        t_rem -= step

        if event:  # np.maximum(hit - step, 0)
            hit = [d if (d := h - step) > 0.0 else 0.0 for h in hit]
            try:
                new, d_e = propose(j, x, qC, rng)
            except NonFiniteWeightsError:
                ok = False
                break
            old = int(x[j])
            p = pd[j]
            try:
                energy = abs(p) ** beta
            except OverflowError:
                energy = math.inf
            accepted = energy > d_e
            if accepted:
                x[j] = new
                g = None
                qd[j] = tau - qd[j]
                p = _refracted(p, energy, d_e, kinv)
                try:
                    w = beta * abs(p) ** (beta - 1.0)
                except (OverflowError, ZeroDivisionError):
                    w = math.nan
                # A clock this fast would run into the event cap: diverge now.
                if not _runs(p, w) or w * T > tau * _MAX_EVENTS:
                    ok = False
                    break
                pd[j] = p
                vel[j] = w if p > 0.0 else -w
                n_acc += 1
            else:
                pd[j] = -p
                vel[j] = -vel[j]
            hit[j] = _hit_time(qd[j], vel[j], tau)
            if events is not None:
                events.append((j, old, new, accepted))
            n_events += 1
            if n_events > _MAX_EVENTS:
                ok = False

    qD[:] = qd
    pD[:] = pd
    return n_acc, n_grad, ok


def general_step(point: MixedPoint, aux: AuxiliaryState, pC: np.ndarray,
                 T: float, model: ModelSpec, kinetic: KineticEnergy,
                 integrator_eps: float, rng: ChainRng,
                 propose=None, events=None):
    """One trajectory of the event-driven kernel plus the Metropolis test.

    Returns ``(point, aux, pC, stats)``: the accepted end state with both
    momenta negated, or the inputs themselves on rejection.
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

    e0 = _energy(model, kinetic, x, qC, pD, p)
    n_acc, n_grad, ok = _simulate(x, qD, pD, qC, p, aux.tau, T, model, kinetic,
                                  integrator_eps, rng, propose, events)
    err = _energy(model, kinetic, x, qC, pD, p) - e0 if ok else np.nan
    ok = bool(abs(err) <= DIVERGENCE_MAX)  # False on NaN
    # Every trajectory that did not diverge draws the Metropolis uniform.
    u = rng.uniform() if ok else 1.0
    accepted = ok and (err <= 0.0 or bool(u < np.exp(-err)))
    stats = StepStats(accepted=accepted, energy_error=err if ok else np.nan,
                      n_discrete_accepts=n_acc, n_grad_evals=n_grad,
                      divergent=not ok)
    if accepted:
        return MixedPoint(x, qC), _unchecked_aux(qD, -pD, aux.tau), -p, stats
    return point, aux, pC, stats


def _energy(model, kinetic, x, q, pD, p):
    return (model.potential(x, q) + float(np.sum(kinetic.k(pD)))
            + 0.5 * float(p @ p))


def _unchecked_aux(qD, pD, tau) -> AuxiliaryState:
    """An AuxiliaryState of arrays known to be valid, built without
    re-running its checks: the event loop keeps every clock in [0, tau]."""
    aux = object.__new__(AuxiliaryState)
    aux.qD, aux.pD, aux.tau = qD, pD, tau
    return aux


def sample_auxiliary(n_sites: int, tau: float, kinetic: KineticEnergy,
                     rng: ChainRng) -> AuxiliaryState:
    """Fresh clocks uniform on [0, tau] and momenta from ``nu ∝ e^{-k}``."""
    qD = rng.uniform(n_sites) * tau if n_sites else np.zeros(0)
    pD = kinetic.sample(rng, n_sites) if n_sites else np.zeros(0)
    return AuxiliaryState(np.atleast_1d(qD), np.atleast_1d(pD), tau)


def run_chain_general(init: MixedPoint, params: GeneralParams,
                      model: ModelSpec, n_burn: int, n_samples: int,
                      rng: ChainRng) -> ChainOutput:
    """Iterate the event-driven kernel, discarding ``n_burn`` steps and
    recording the rest; the clocks' kinetic energy is
    ``KineticEnergy(params.beta)``."""
    init.validate(model)
    nd, nc = model.n_discrete, model.n_continuous
    kinetic = KineticEnergy(params.beta)
    pt = init.copy()
    aux = sample_auxiliary(nd, params.tau, kinetic, rng)
    no_momentum = np.zeros(0)

    def step():
        nonlocal pt, aux
        if nd:
            if params.resample_positions:
                aux.qD = rng.uniform(nd) * params.tau
            aux.pD = kinetic.sample(rng, nd)
        pC = rng.normal(nc) if nc else no_momentum
        pt, aux, _, stats = general_step(pt, aux, pC, params.T, model, kinetic,
                                         params.integrator_eps, rng)
        return pt.x, pt.q, stats.accepted, stats.divergent

    return drive_chains(step, 1, nd, nc, n_burn, n_samples)[0]
