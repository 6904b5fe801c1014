"""Event-driven mixed HMC for arbitrary power-family kinetic energies.

Each discrete site carries an auxiliary clock ``qD_i`` on the circle
``[0, tau]`` and a momentum ``pD_i``.  Clocks advance at constant velocity
``k'(pD_i)`` between events; when a clock hits 0 or tau a single-site move is
proposed and the boundary is crossed (refraction, paying the move's energy
cost out of that site's kinetic energy) or bounced off (reflection, momentum
negated) depending on whether enough kinetic energy is available.  The
continuous coordinates evolve by leapfrog between events.  A Metropolis test
on the total energy ends the iteration, negating all momenta on acceptance.

At beta 1 every clock moves at unit speed, so the events of a batch of
chains can be handled in lockstep, the m-th event of every chain in one
call on the row stack (:func:`general_step_batch`,
:func:`run_chain_general_batch`); each chain's samples are those of the
float loop, bit for bit.  When no clock can fire twice in an iteration,
the order of its events comes from one sort of the clocks' hit times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DIVERGENCE_MAX, KineticEnergy, MixedPoint, ModelSpec,
                   NonFiniteWeightsError, RowModel, check_positive,
                   kinetic_energy, leapfrog, propose_and_delta, stack_points)
from .diagnostics import ChainOutput, StepStats, drive_chains
from .rng import ChainRng

__all__ = [
    "AuxiliaryState",
    "GeneralParams",
    "initial_hit_time",
    "refract",
    "general_step",
    "general_step_batch",
    "sample_auxiliary",
    "run_chain_general",
    "run_chain_general_batch",
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
    e = model.potential(x, q) + float(np.sum(kinetic.k(pD)))
    # The continuous momenta as a one-row stack, as the lockstep path sums
    # them; with none, the term is 0.
    return e + float(kinetic_energy(p[None])[0]) if p.size else e


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


def _draw_iteration(qD, params, nd, nc, rngs):
    """Each chain's draws at the start of an iteration, from its own stream
    in the order of ``run_chain_general``: clock positions (when
    ``params.resample_positions``), then the ``gamma(1)`` and uniform draws
    of ``KineticEnergy(1).sample``, then ``normal(nc)``.  Returns the
    positions (a copy of ``qD`` when kept), the clocks' kinetic energies
    ``|pD| = g ** 1 = g``, the uniforms that sign the momenta (negative
    below 0.5) and the continuous momenta, as row stacks."""
    n = len(rngs)
    resample = params.resample_positions and nd
    qd = np.empty((n, nd)) if resample else qD.copy()
    g, u = np.empty((n, nd)), np.empty((n, nd))
    pC = np.empty((n, nc))
    for r, rng in enumerate(rngs):
        if nd:
            if resample:
                rng.uniform(out=qd[r])
            rng.gamma(1.0, out=g[r])
            rng.uniform(out=u[r])
        if nc:
            rng.normal(out=pC[r])
    if resample:
        qd *= params.tau
    return qd, g, u, pC


def _event_schedule(hit, T, tau):
    """The events of one iteration in which every clock fires at most
    once, from the ``(C, n_discrete)`` hit times: ``(order, hs)`` of shape
    ``(n_discrete + 1, C)``, column ``r`` holding row ``r``'s hit times
    and ``T`` in increasing order (``hs``) and their sites (``order``, with
    ``n_discrete - 1`` standing in for ``T`` and every time after it), or
    None when rounding may order the events otherwise.

    The per-round loop subtracts each step from every hit time and from the
    time left ``t_rem = T``, the same floats from all of them, and rounding
    is monotone: values ``a <= b`` stay ``a' <= b'``.  So the loop fires
    the clocks in sorted order, exactly those whose hit times are below
    ``T``, unless a gap closes to a tie that it breaks otherwise.  Each of
    the at most ``n_discrete`` subtractions moves a value of size at most
    ``max(T, tau)`` by half an ulp, so a gap shrinks by less than
    ``n_discrete * eps * max(T, tau)``; every gap between neighbours must
    exceed four times that.  Iterations that fail the check, a share of
    order ``C n_discrete^2 1e-15`` when positions are drawn, take the
    per-round loop.
    """
    n, nd = hit.shape
    times = np.concatenate([hit.T, np.full((1, n), T)])
    hs = np.sort(times, axis=0)
    margin = 4.0 * nd * np.finfo(np.float64).eps * max(T, tau)
    if (hs[1:] - hs[:-1]).min(initial=np.inf) <= margin:
        return None
    order = times.argsort(axis=0, kind="stable")
    np.minimum(order, nd - 1, out=order)
    return order, hs


def general_step_batch(x, q, qD, params: GeneralParams, model: ModelSpec,
                       rngs, potential=None):
    """One iteration of the event-driven kernel at beta 1 for each of a
    batch of chains, in lockstep.

    Row ``r`` of ``x`` (``(C, n_discrete)``), ``q`` (``(C, n_continuous)``)
    and ``qD`` (``(C, n_discrete)``, the clock positions kept from the last
    iteration) is the state of chain ``r``, which draws only from
    ``rngs[r]``: its momenta and, when ``params.resample_positions``, its
    clock positions first, as :func:`run_chain_general` does, then one
    uniform at each event at a site with more than 2 values, then the
    Metropolis uniform unless it diverged.  ``potential`` holds ``U`` at
    each row's ``(x, q)``, evaluated when None.  Returns ``(x, q, qD,
    potential)`` for the next iteration (``qD`` is read only when positions
    are kept) and a :class:`StepStats` of ``(C,)`` arrays.  Each row's
    result is that of :func:`general_step` on its own, bit for bit.

    Under beta 1 every clock moves at unit speed whatever happens at its
    events, so each chain's events are read off its clocks' hit times, and
    the ``m``-th events of all chains are handled together: one
    ``site_cond_neglogp`` call on the row stack and a few whole-row
    operations (:meth:`~mixedhmc.core.RowModel.move`).  A proposal that
    every chain with an event is sure to reject is not priced: those
    chains reflect, their uniforms drawn all the same.  When positions are
    redrawn and no clock can reach its boundary a second time within
    ``T``, each clock fires at most once, in the order of its hit time:
    one sort of the hit times gives every chain's events for the
    iteration, and a clock needs only its kinetic energy ``|p|``, which a
    refraction lowers and a reflection keeps.
    Otherwise, and in the rare iteration where two hit times, or a hit
    time and ``T``, lie within rounding of each other, each round finds
    every chain's next event afresh, stepping the hit times, the time left
    and, when they decide anything, the clock positions and directions
    with the loop's own float arithmetic.  Between events the
    continuous coordinates take one leapfrog segment per chain, a chain
    whose segment needs fewer steps taking zero-length steps for the rest;
    a segment starts from the gradient the last one ended with unless a
    refraction came in between.  A chain diverges, with the loop, on a
    non-finite or zero clock momentum on entry, at a proposal with no
    finite weights, at a refraction to a non-finite momentum or one that
    would run into the event cap, past the event cap, and on an energy
    error above ``DIVERGENCE_MAX``; it then takes no further step or draw
    and is rejected.
    """
    if params.beta != 1.0:
        raise ValueError("beta: chains step in lockstep only at beta 1")
    return _general_step(x, q, qD, params, RowModel(model), rngs, potential)


def _general_step(x, q, qD, params, rm, rngs, potential):
    """:func:`general_step_batch` on the model ``rm`` (a
    :class:`~mixedhmc.core.RowModel`)."""
    (n, nd), nc = x.shape, q.shape[1]
    tau, T, eps = params.tau, params.T, params.integrator_eps
    resample = params.resample_positions

    qd, k, u, pC = _draw_iteration(qD, params, nd, nc, rngs)
    if potential is None:
        potential = rm.potential(x, q)
    e0 = potential + k.sum(axis=1)
    if nc:
        e0 += kinetic_energy(pC)
    # A clock runs when its momentum is finite, as gamma draws are, and
    # nonzero; its velocity is then the momentum's sign.  A chain with a
    # clock that does not run diverges.
    ok = k.min(axis=1, initial=np.inf) > 0.0
    t_rem = ok * T
    # The loop's hit time (2 tau [v > 0] - 2 qD) / (2 v) at the velocity
    # v = -1 (where u < 0.5) or +1 is qD or tau - qD, bit for bit: scaling
    # by 2 is exact.
    hit = np.where(u < 0.5, qd, tau - qd)
    # A clock reaches its boundary again about tau after an event, so in
    # time T only after an event before about T - tau.  When no clock
    # starts that close to its boundary and positions are redrawn, each
    # clock fires at most once (the event times drift by an ulp or so per
    # event, far inside the margin of 1e-6 tau), and every row's events
    # come in the order of its hit times, read off one sort, unless
    # rounding may decide otherwise.
    once = nd == 0 or (resample and hit.min() > T - tau * (1.0 - 1e-6))
    schedule = _event_schedule(hit, T, tau) if once else None
    offsets = np.arange(n) * nd
    if schedule is not None:
        order, hs = schedule
        fires = hs < T
        at_m = order + offsets         # flat index of each row's m-th event
    else:
        # Each round finds every row's next event afresh, stepping the
        # clock positions and directions with the loop's own arithmetic.
        qd_start = qd.copy()
        v = np.where(u < 0.5, -1.0, 1.0)
    # A refraction leaves a clock at unit speed, which the loop ends as
    # divergent when unit speed would run into the event cap in time T.
    refraction_diverges = 1.0 * T > tau * _MAX_EVENTS

    xs, qs = x.copy(), q.copy()
    accepts = []                       # each event round's refractions
    n_grad = np.zeros(n, dtype=np.int64)
    if nc:
        g = np.zeros((n, nc))          # gradient at (xs, qs) where not stale
        stale = np.ones(n, dtype=bool)
    n_events = 0
    while True:
        if schedule is not None:
            # Round m handles each row's m-th event.  Its segment before
            # the event is the loop's: the sorted hit times are stepped with
            # the loop's own subtractions.
            m = n_events
            j, at = order[m], at_m[m]
            event = fires[m] & ok      # divergent rows have no more events
            more = np.count_nonzero(event)
            if nc:
                step = np.minimum(hs[m], t_rem)
                hs[m + 1:] -= step
                t_rem -= step
            elif not more:
                break
        else:
            # Finished and divergent rows have t_rem 0, so their step is 0.
            live = t_rem > 0.0
            j = hit.argmin(axis=1)     # the first of equal times, as the loop
            at = offsets + j
            h = hit.take(at)
            event = live & (h <= t_rem)
            step = np.minimum(h, t_rem)
            more = np.count_nonzero(event)
            col = step[:, None]
            # With positions redrawn, the last segment moves nothing read.
            if more or not resample:
                qd += col * v
                np.maximum(qd, 0.0, out=qd)
                np.minimum(qd, tau, out=qd)
            # No hit time is below the smallest: none needs clipping.
            hit -= col
            t_rem -= step
        if nc:
            seg = step > 0.0
            steps = np.maximum(np.ceil(step / eps), 1.0)
            counts = np.where(seg, steps, 0.0).astype(np.int64)
            fresh = stale & seg
            if np.count_nonzero(fresh):
                r = np.flatnonzero(fresh)
                g[r] = rm.grad_q(xs[r], qs[r])
                stale &= ~seg
            n_grad += counts + fresh
            lo, hi = counts.min(), counts.max()
            g = leapfrog(xs, qs, pC, np.repeat((step / steps)[:, None], nc,
                                               axis=1),
                         int(lo) if lo == hi else counts, rm.grad_q, g=g)
        if not more:
            break
        n_events += 1

        width = u = None
        if not rm.flips_only:
            # A locally informed move draws one uniform from its row's own
            # stream; a flip and a row with no event draw none.
            width = rm.widths.take(j)
            u = np.full(n, np.nan)
            for r in np.flatnonzero(event & (width > 2)).tolist():
                u[r] = rngs[r].uniform()
        # A refraction pays the cost out of the clock's kinetic energy |p|;
        # a reflection negates p, keeping |p|.  A skipped proposal reflects
        # every row with an event.
        acc, stuck, left = (rm.move(j, at, xs, qs, k, event, width, u)
                            or (np.zeros_like(event), None, None))
        if stuck is not None:
            ok &= ~stuck
            event &= ~stuck
            t_rem[stuck] = 0.0
        if schedule is None:
            # A refraction mirrors the clock; a reflection turns it round.
            # Either way the loop's next hit time, from the new position and
            # velocity, is a if the clock moved up and tau - a otherwise,
            # bit for bit.
            w = v.take(at)
            a = qd.take(at)
            far = tau - a
            qd.put(at, np.where(acc, far, a))
            hit.put(at, np.where(w > 0.0, a, far))
            v.put(at, np.where(event & ~acc, -w, w))
        accepts.append(acc)
        if nc:
            stale |= acc
        if (refraction_diverges or n_events > _MAX_EVENTS
                or left is not None and math.inf in left.tolist()):
            diverged = acc if refraction_diverges else acc & (left == np.inf)
            accepts[-1] = acc & ~diverged
            if n_events > _MAX_EVENTS:
                diverged = diverged | event
            ok &= ~diverged
            t_rem[diverged] = 0.0
            k[diverged] = 1.0          # no whole-row operation sees inf

    u_end = rm.potential(xs, qs)
    # Divergent rows may hold non-finite energies; the loop's float
    # arithmetic on them raises no warning either.
    with np.errstate(over="ignore", invalid="ignore"):
        err = u_end + k.sum(axis=1)
        if nc:
            err += kinetic_energy(pC)
        err -= e0
    ok &= np.abs(err) <= DIVERGENCE_MAX  # False on NaN
    u = np.array([rng.uniform() if run else 1.0
                  for rng, run in zip(rngs, ok.tolist())])
    accepted = ok & (u < np.exp(-np.maximum(err, 0.0)))
    keep = accepted[:, None]
    if schedule is None:
        qd = np.where(keep, qd, qd_start)
    n_acc = (np.add.reduce(accepts, dtype=np.int64) if accepts
             else np.zeros(n, dtype=np.int64))
    stats = StepStats(accepted=accepted,
                      energy_error=np.where(ok, err, np.nan),
                      n_discrete_accepts=n_acc, n_grad_evals=n_grad,
                      divergent=~ok)
    return (np.where(keep, xs, x), np.where(keep, qs, q) if nc else q, qd,
            np.where(accepted, u_end, potential), stats)


def run_chain_general_batch(inits, params: GeneralParams, model: ModelSpec,
                            n_burn: int, n_samples: int, rngs) -> list:
    """Iterate :func:`general_step_batch` on a batch of chains at beta 1,
    chain ``r`` starting at ``inits[r]`` and drawing from ``rngs[r]``;
    returns one :class:`ChainOutput` per chain, in order, each that of
    :func:`run_chain_general` on the same stream.

    A chain's start potential is carried from one iteration to the next,
    so each iteration makes one ``potential`` call on the stack."""
    if params.beta != 1.0:
        raise ValueError("beta: chains step in lockstep only at beta 1")
    x, q = stack_points(inits, model)
    n, nd, nc = len(inits), model.n_discrete, model.n_continuous
    kinetic = KineticEnergy(1.0)
    qD = np.array([sample_auxiliary(nd, params.tau, kinetic, rng).qD
                   for rng in rngs]).reshape(n, nd)
    rm = RowModel(model)
    potential = None

    def step():
        nonlocal x, q, qD, potential
        x, q, qD, potential, stats = _general_step(
            x, q, qD, params, rm, rngs, potential)
        return x, q, stats.accepted, stats.divergent

    return drive_chains(step, n, nd, nc, n_burn, n_samples)
