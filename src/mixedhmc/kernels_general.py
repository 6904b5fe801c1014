"""Event-driven mixed HMC for arbitrary power-family kinetic energies.

Each discrete site carries an auxiliary clock ``qD_i`` on the circle
``[0, tau]`` and a momentum ``pD_i``.  Clocks advance at constant velocity
``k'(pD_i)`` between events; when a clock hits 0 or tau a single-site move is
proposed and the boundary is crossed (refraction, paying the move's energy
cost out of that site's kinetic energy) or bounced off (reflection, momentum
negated) depending on whether enough kinetic energy is available.  The
continuous coordinates evolve by leapfrog between events.  A Metropolis test
on the total energy ends the iteration, negating all momenta on acceptance.

A batch of chains steps in lockstep, the m-th event of every chain in one
call on the row stack (:func:`general_step_batch`,
:func:`run_chain_general_batch`); :func:`general_step` and
:func:`run_chain_general` are its one-chain calls.  Event times are
absolute: a clock that fires at time t leaves its boundary at speed |v| and
fires next at ``t + tau / |v|``; a leapfrog segment runs from one event
time to the next, and a clock's position is computed once, at ``T``.  At
beta 1 every clock moves at unit speed whatever happens at its events, so
an iteration's events come from one sort of the times ``h_j + k tau`` up to
``T``.  At other beta a refraction changes a clock's speed, and each round
finds every chain's next event afresh.  The arithmetic is that of an event
loop on one chain ("the loop" below, which ``tests/oracle.py`` keeps as the
reference), so each chain's samples are the same alone and in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DIVERGENCE_MAX, KineticEnergy, MixedPoint, ModelSpec,
                   RowModel, check_positive, kinetic_energy, leapfrog,
                   stack_points)
# Not called here, but perfbench/tracer.py wraps the kernels' proposal by
# this module attribute.
from .core import propose_and_delta  # noqa: F401
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
    kernel's own refraction; requires ``k(pd) > delta_e`` (callers must
    reflect otherwise).  Sign is preserved and the new kinetic energy is
    the old minus ``delta_e``.
    """
    energy = float(kinetic.k(pd))
    if not energy > delta_e:
        raise ValueError("refract requires k(p) > delta_e; reflect instead")
    return _refracted(pd, energy - delta_e, _float_kinv(kinetic))


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


def _refracted(p, left, kinv):
    """The momentum of the sign of ``p`` and kinetic energy ``left > 0``:
    ``sign(p) * kinv(left)``, with ``kinv`` from :func:`_float_kinv`."""
    mag = kinv(left)
    return mag if p > 0.0 else -mag


def _float_energy(p, beta):
    """A clock's kinetic energy ``|p| ** beta`` on a float, by libm's
    ``pow`` (numpy's array ``pow`` differs from it in the last bit on some
    values); inf where it overflows."""
    try:
        return abs(p) ** beta
    except OverflowError:
        return math.inf


def _runs(p, v) -> bool:
    """Whether a clock with momentum ``p`` and velocity ``v`` can be run:
    both finite, and the clock not standing still."""
    return math.isfinite(p) and math.isfinite(v) and v != 0.0


def general_step(point: MixedPoint, aux: AuxiliaryState, pC: np.ndarray,
                 T: float, model: ModelSpec, kinetic: KineticEnergy,
                 integrator_eps: float, rng: ChainRng):
    """One trajectory of the event-driven kernel plus the Metropolis test,
    from the clocks ``aux`` and the continuous momenta ``pC``.

    Returns ``(point, aux, pC, stats)``: the accepted end state with both
    momenta negated, or the inputs themselves on rejection.  The one-chain
    call of the lockstep step, with the clock positions kept.
    """
    if aux.qD.size != model.n_discrete:
        raise ValueError("auxiliary state size does not match model sites")
    if not np.isfinite(aux.pD).all():
        # A clock that does not run: the trajectory diverges on entry.
        return point, aux, pC, StepStats(
            accepted=False, energy_error=np.nan, n_discrete_accepts=0,
            n_grad_evals=0, divergent=True)
    params = GeneralParams(T, kinetic.beta, aux.tau, integrator_eps,
                           resample_positions=False)
    p = np.array(pC, dtype=np.float64)[None]
    x, q, qd, pd, _, stats = _general_step(
        point.x[None], point.q[None], aux.qD[None].copy(),
        np.abs(aux.pD)[None], (aux.pD < 0.0)[None], p, params,
        RowModel(model), [rng], None)
    stats = stats.chain(0)
    if stats.accepted:
        return (MixedPoint(x[0], q[0]), AuxiliaryState(qd[0], -pd[0], aux.tau),
                -p[0], stats)
    return point, aux, pC, stats


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
    ``KineticEnergy(params.beta)``.  The one-chain call of
    :func:`run_chain_general_batch`."""
    return run_chain_general_batch([init], params, model, n_burn, n_samples,
                                   [rng])[0]


def _draw_iteration(qD, params, nd, nc, rngs):
    """Each chain's draws at the start of an iteration, from its own
    stream: clock positions (when ``params.resample_positions``), then the
    ``gamma(1 / beta)`` and uniform draws of ``KineticEnergy(beta).sample``,
    then ``normal(nc)``.  Returns the positions (a copy of ``qD`` when
    kept), the magnitudes ``g ** (1 / beta)`` of the clock momenta and
    where they are negative (where the uniform is below 0.5), as ``sample``
    computes them, and the continuous momenta, as row stacks."""
    n = len(rngs)
    resample = params.resample_positions and nd
    qd = np.empty((n, nd)) if resample else qD.copy()
    g, u = np.empty((n, nd)), np.empty((n, nd))
    pC = np.empty((n, nc))
    shape = 1.0 / params.beta
    for r, rng in enumerate(rngs):
        if nd:
            if resample:
                rng.uniform(out=qd[r])
            rng.gamma(shape, out=g[r])
            rng.uniform(out=u[r])
        if nc:
            rng.normal(out=pC[r])
    if resample:
        qd *= params.tau
    return qd, g ** shape if shape != 1.0 else g, u < 0.5, pC


def _event_schedule(hit, T, tau):
    """Every event of one iteration at beta 1, from the ``(C, n_discrete)``
    first hit times: ``(sites, times, fires)`` of shape ``(M, C)``, column
    ``r`` holding row ``r``'s clock times in increasing order, the site of
    each and whether it fires.

    At unit speed a clock that fires at time t leaves a boundary tau away
    from the next one, whether it refracts or reflects, so it fires next at
    ``t + tau``: clock j fires at ``hit[j]``, ``hit[j] + tau``, ..., summed
    one ``tau`` at a time as the loop sums them, until every clock's next
    time is past ``T``.  Equal times go to the lower site, as the loop's
    first minimum does.  Every time below ``T`` fires, and the first time
    equal to ``T``, which ends the trajectory.

    Past the event cap a row diverges, so it runs at most ``_MAX_EVENTS +
    1`` events.  All first hit times lie in ``[0, tau]``, so before a
    clock's k-th event every other clock has fired at least k - 2 times: no
    clock fires more than ``(_MAX_EVENTS - 1) // n_discrete + 2`` times
    among those events, and no clock's times are summed further.  A row
    then has at most ``_MAX_EVENTS + 2 n_discrete`` entries, however long
    ``T``.
    """
    n, nd = hit.shape
    laps = [hit.T]                     # (n_discrete, C) each
    most = (_MAX_EVENTS - 1) // max(nd, 1) + 2
    # Rounding is monotone: a lap's soonest time is the soonest first hit
    # time with tau added as often.
    soonest = hit.min(initial=np.inf)
    while len(laps) < most and (soonest := soonest + tau) <= T:
        laps.append(laps[-1] + tau)
    k = len(laps)
    times = laps[0] if k == 1 else np.stack(laps, axis=1).reshape(nd * k, n)
    hs = np.sort(times, axis=0)
    order = times.argsort(axis=0, kind="stable")
    if k > 1:
        order //= k
    fires = hs <= T
    fires[1:] &= hs[:-1] < T
    return order, hs, fires


def general_step_batch(x, q, qD, params: GeneralParams, model: ModelSpec,
                       rngs, potential=None):
    """One iteration of the event-driven kernel for each of a batch of
    chains, in lockstep.

    Row ``r`` of ``x`` (``(C, n_discrete)``), ``q`` (``(C, n_continuous)``)
    and ``qD`` (``(C, n_discrete)``, the clock positions kept from the last
    iteration) is the state of chain ``r``, which draws only from
    ``rngs[r]``: its clock positions first, when
    ``params.resample_positions``, then its momenta, then one uniform at
    each event at a site with more than 2 values, then the Metropolis
    uniform unless it diverged.  ``potential`` holds ``U`` at each row's
    ``(x, q)``, evaluated when None.  Returns ``(x, q, qD, potential)`` for
    the next iteration (``qD`` is read only when positions are kept) and a
    :class:`StepStats` of ``(C,)`` arrays.  Each row's result is the same
    alone and in any batch, bit for bit.

    Each clock holds the absolute time of its next event.  Round ``m``
    handles the ``m``-th events of all chains together: one
    ``site_cond_neglogp`` call on the row stack and a few whole-row
    operations (:meth:`~mixedhmc.core.RowModel.move`).  A proposal that
    every chain with an event is sure to reject is not priced: those
    chains reflect, their uniforms drawn all the same.  At beta 1 a clock
    fires every tau from its first hit time, and its kinetic energy
    ``|p|``, which a refraction lowers and a reflection keeps, is all it
    carries: one sort of those times up to ``T`` gives every chain's events
    for the iteration (:func:`_event_schedule`).  At other beta each round
    finds every chain's next event, the first of its clocks' next times;
    the clock that fires takes its energy ``|p| ** beta``, refracted
    momentum, new speed and next time on floats, one per chain, as the loop
    takes them.  Between events the continuous coordinates take one
    leapfrog segment per chain, from one event time to the next and from
    the last to ``T``, a chain whose segment needs fewer steps taking
    zero-length steps for the rest; a segment starts from the gradient the
    last one ended with unless a refraction came in between.  The clock
    positions are computed once, at ``T``, and only when they are kept.  A
    chain diverges on a non-finite momentum or velocity, or a zero
    velocity, of a clock on entry, at a proposal with no finite weights, at
    a refraction to such a clock or to one that would run into the event
    cap, past the event cap, and on an energy error above
    ``DIVERGENCE_MAX``; it then takes no further step or draw and is
    rejected.
    """
    nd, nc = model.n_discrete, model.n_continuous
    x, q, qD, _, potential, stats = _general_step(
        x, q, *_draw_iteration(qD, params, nd, nc, rngs), params,
        RowModel(model), rngs, potential)
    return x, q, qD, potential, stats


def _general_step(x, q, qd, mag, neg, pC, params, rm, rngs, potential):
    """:func:`general_step_batch` on the model ``rm`` (a
    :class:`~mixedhmc.core.RowModel`), from the iteration's clock positions
    ``qd``, the magnitudes ``mag`` of the clock momenta and where they are
    negative (``neg``), and the continuous momenta ``pC``, row stacks; it
    moves ``pC`` in place to each row's end momenta.  Returns ``(x, q, qd,
    pd, potential, stats)``: ``pd`` each row's end clock momenta, ``qd``
    its end clock positions when they are kept, else ``qd`` as given."""
    (n, nd), nc = x.shape, q.shape[1]
    tau, T, eps, beta = params.tau, params.T, params.integrator_eps, params.beta

    if potential is None:
        potential = rm.potential(x, q)
    offsets = np.arange(n) * nd
    if beta == 1.0:
        # |p| ** 1 is |p|.  A clock runs when its momentum is nonzero (and
        # finite, as drawn); it moves at unit speed, and the loop's first
        # hit time (2 tau [v > 0] - 2 qD) / (2 v) at v = -1 or +1 is qD or
        # tau - qD, bit for bit: scaling by 2 is exact.
        k = mag
        ok = k.all(axis=1)
        sites, hs, fires = _event_schedule(np.where(neg, qd, tau - qd), T,
                                           tau)
        at_m = sites + offsets         # flat index of each row's m-th event
        fires &= ok                    # divergent rows have no more events
    else:
        kinetic = KineticEnergy(beta)
        kinv = _float_kinv(kinetic)
        pd = np.where(neg, -mag, mag)
        k = kinetic.k(pd)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vel = kinetic.kprime(pd)
            fire = _hit_time(qd, vel, tau)   # each clock's next event time
        ok = (np.isfinite(pd) & np.isfinite(vel) & (vel != 0.0)).all(axis=1)
        last = np.full((n, nd), -np.inf)     # each clock's last event time
    e0 = potential + k.sum(axis=1)
    if nc:
        e0 += kinetic_energy(pC)
    if beta != 1.0 and not ok.all():
        # A chain with a clock that does not run diverges; its clocks are
        # put where no whole-row operation makes a NaN.
        k[~ok], vel[~ok], fire[~ok] = 1.0, 1.0, tau
    now = np.where(ok, 0.0, T)         # each row's time; divergent rows' is T
    # The loop ends a refraction as divergent when the clock's new speed w
    # has w * T > cap.
    cap = tau * _MAX_EVENTS

    xs, qs = x.copy(), q.copy()
    accepts = []                       # each event round's refractions
    n_grad = np.zeros(n, dtype=np.int64)
    if nc:
        g = np.zeros((n, nc))          # gradient at (xs, qs) where not stale
        stale = np.ones(n, dtype=bool)
    n_events = 0
    while True:
        if beta == 1.0:
            # Round m handles each row's m-th event.
            m = n_events
            if m < len(hs):
                j, at, t, event = sites[m], at_m[m], hs[m], fires[m]
            else:                      # every row's every time has fired
                t, event = T, np.zeros(n, dtype=bool)
        else:
            # Each round finds every row's next event, its first clock.
            j = fire.argmin(axis=1)    # the first of equal times, as the loop
            at = offsets + j
            t = fire.take(at)
            event = (now < T) & (t <= T)
        more = np.count_nonzero(event)
        if nc or beta != 1.0:
            # A row's segment runs to its event, or to T; finished and
            # divergent rows are at T, so their step is 0.
            end = np.where(event, t, T)
            step, now = end - now, end
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
        if beta != 1.0:
            # The fired clocks' energies, as the loop takes them at each
            # event; at beta 1 they are kept in k.
            fired = at.compress(event)
            k.put(fired, [_float_energy(p, beta)
                          for p in pd.take(fired).tolist()])
        # A refraction pays the cost out of the clock's kinetic energy;
        # a reflection keeps it.  A skipped proposal reflects every row
        # with an event.
        acc, stuck, left = (rm.move(j, at, xs, qs, k, event, width, u)
                            or (np.zeros_like(event), None, None))
        if stuck is not None:
            event &= ~stuck            # a stuck row turns no clock
        accepts.append(acc)
        if nc:
            stale |= acc
        diverged = None
        if beta != 1.0:
            # Each fired clock turns as the loop turns it, on floats: a
            # reflection negates its momentum and velocity; a refraction
            # takes the momentum of the energy left and its speed, unless
            # the clock would not run, or would run into the event cap:
            # then the chain diverges, its clock left as it was.  The clock
            # fires next tau / |v| after this event.
            rows = event.nonzero()[0]
            fired = at.take(rows)
            turned, dead = [], []      # each fired clock's p, v, next, last
            # With no proposal priced no clock refracts, and e goes unread.
            for r, moved, p, w, s, e in zip(
                    rows.tolist(), acc.take(rows).tolist(),
                    pd.take(fired).tolist(), vel.take(fired).tolist(),
                    t.take(rows).tolist(),
                    (acc if left is None else left).take(rows).tolist()):
                if not moved:
                    p, w = -p, -w
                else:
                    p_in, w_in = p, w
                    p = _refracted(p, e, kinv)
                    try:
                        w = beta * abs(p) ** (beta - 1.0)
                    except (OverflowError, ZeroDivisionError):
                        w = math.nan
                    if not _runs(p, w) or w * T > cap:
                        dead.append(r)
                        p, w = p_in, w_in
                    else:
                        w = w if p > 0.0 else -w
                turned.append((p, w, s + tau / abs(w), s))
            for stack, values in zip((pd, vel, fire, last), zip(*turned)):
                stack.put(fired, values)
            if dead:
                diverged = np.zeros(n, dtype=bool)
                diverged[dead] = True
        elif left is not None and (T > cap or math.inf in left.tolist()):
            # At unit speed a refraction diverges to an infinite momentum,
            # and any refraction does once T alone passes the event cap.
            diverged = acc if T > cap else acc & (left == np.inf)
        if diverged is not None:
            accepts[-1] = acc & ~diverged
        if n_events > _MAX_EVENTS:
            diverged = event if diverged is None else diverged | event
        if stuck is not None:
            diverged = stuck if diverged is None else diverged | stuck
        if diverged is not None:
            ok &= ~diverged
            now[diverged] = T
            k[diverged] = 1.0          # no whole-row operation sees inf
            if beta == 1.0:
                fires[n_events:] &= ok

    u_end = rm.potential(xs, qs)
    moved = np.array(accepts, dtype=bool).reshape(n_events, n)
    if beta == 1.0:
        # A clock's momentum changes sign at each reflection: each time it
        # fired and did not move.
        at, ev = at_m[:n_events], fires[:n_events]
        pd = np.where(neg, -k, k)
        np.negative.at(pd.reshape(-1), at[ev > moved])
    else:
        k = kinetic.k(pd)              # by numpy, as the loop's energy error
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
    if not params.resample_positions:
        # Each clock's position at T, as the loop takes it: the boundary
        # that its end velocity w leaves plus w (T - t) after its last
        # event at t, or its start plus w T if it never fired.
        if beta == 1.0:
            w = np.copysign(1.0, pd)
            last = np.full(n * nd, -np.inf)
            np.maximum.at(last, at[ev], hs[:n_events][ev])
            last = last.reshape(n, nd)
        else:
            w = vel
        pos = (np.where(last >= 0.0, np.where(w > 0.0, 0.0, tau), qd)
               + w * (T - np.maximum(last, 0.0)))
        qd = np.where(keep, np.clip(pos, 0.0, tau, out=pos), qd)
    stats = StepStats(accepted=accepted,
                      energy_error=np.where(ok, err, np.nan),
                      n_discrete_accepts=np.add.reduce(moved, dtype=np.int64),
                      n_grad_evals=n_grad, divergent=~ok)
    return (np.where(keep, xs, x), np.where(keep, qs, q) if nc else q, qd,
            pd, np.where(accepted, u_end, potential), stats)


def run_chain_general_batch(inits, params: GeneralParams, model: ModelSpec,
                            n_burn: int, n_samples: int, rngs) -> list:
    """Iterate :func:`general_step_batch` on a batch of chains, chain ``r``
    starting at ``inits[r]`` and drawing from ``rngs[r]``; returns one
    :class:`ChainOutput` per chain, in order, each the same as that chain
    run alone.

    Each chain draws its first clocks with :func:`sample_auxiliary`, whose
    positions it keeps when ``params.resample_positions`` is False.  A
    chain's start potential is carried from one iteration to the next, so
    each iteration makes one ``potential`` call on the stack."""
    x, q = stack_points(inits, model)
    n, nd, nc = len(inits), model.n_discrete, model.n_continuous
    kinetic = KineticEnergy(params.beta)
    qD = np.array([sample_auxiliary(nd, params.tau, kinetic, rng).qD
                   for rng in rngs]).reshape(n, nd)
    rm = RowModel(model)
    potential = None

    def step():
        nonlocal x, q, qD, potential
        x, q, qD, _, potential, stats = _general_step(
            x, q, *_draw_iteration(qD, params, nd, nc, rngs), params, rm,
            rngs, potential)
        return x, q, stats.accepted, stats.divergent

    return drive_chains(step, n, nd, nc, n_burn, n_samples)
