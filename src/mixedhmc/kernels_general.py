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
:func:`run_chain_general` are its one-chain calls.  A round handles only
the clocks that fire, with the float arithmetic of an event loop on one
chain ("the loop" below, which ``tests/oracle.py`` keeps as the
reference), so each chain's samples are the same alone and in any batch.
At beta 1, when no clock can fire twice in an iteration, the order of its
events comes from one sort of the clocks' hit times.
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
_EPS = float(np.finfo(np.float64).eps)


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
        pD = -(aux.pD if pd is None else pd[0])   # no clocks when None
        return (MixedPoint(x[0], q[0]), AuxiliaryState(qd[0], pD, aux.tau),
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
    margin = 4.0 * nd * _EPS * max(T, tau)
    if (hs[1:] - hs[:-1]).min(initial=np.inf) <= margin:
        return None
    order = times.argsort(axis=0, kind="stable")
    np.minimum(order, nd - 1, out=order)
    return order, hs


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

    Each round finds every chain's next event, the first of its clocks'
    hit times, and handles the ``m``-th events of all chains together: one
    ``site_cond_neglogp`` call on the row stack and a few whole-row
    operations (:meth:`~mixedhmc.core.RowModel.move`).  A proposal that
    every chain with an event is sure to reject is not priced: those
    chains reflect, their uniforms drawn all the same.  Only the clock that
    fires changes: its energy ``|p| ** beta``, its refracted momentum and
    its new speed are computed on floats, one per chain, as an event loop
    on one chain computes them; the hit times, the time left and the clock
    positions are stepped with that loop's own subtractions on the whole
    stack.  At beta 1, when positions are redrawn and no clock can reach
    its boundary a second time within ``T``, each clock fires at most once,
    in the order of its hit time: one sort of the hit times gives every
    chain's events for the iteration, and a clock needs only its kinetic
    energy ``|p|``, which a refraction lowers and a reflection keeps,
    unless two hit times, or a hit time and ``T``, lie within rounding of
    each other.  Between events the continuous coordinates take one
    leapfrog segment per chain, a chain whose segment needs fewer steps
    taking zero-length steps for the rest; a segment starts from the
    gradient the last one ended with unless a refraction came in between.
    A chain diverges on a non-finite momentum or velocity, or a zero
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
    moves ``qd`` and ``pC`` in place, ``pC`` to each row's end momenta.
    Returns ``(x, q, qd, pd, potential, stats)``, ``pd`` each row's end
    clock momenta when the events are found round by round (always when
    positions are kept), None when they come from one sort."""
    (n, nd), nc = x.shape, q.shape[1]
    tau, T, eps, beta = params.tau, params.T, params.integrator_eps, params.beta
    resample = params.resample_positions

    if potential is None:
        potential = rm.potential(x, q)
    if beta == 1.0:
        # |p| ** 1 is |p|.  A clock runs when its momentum is nonzero (and
        # finite, as drawn); its velocity is then the momentum's sign, and
        # the loop's hit time (2 tau [v > 0] - 2 qD) / (2 v) at v = -1 or +1
        # is qD or tau - qD, bit for bit: scaling by 2 is exact.
        k, pd, vel = mag, None, None
        ok = k.min(axis=1, initial=np.inf) > 0.0
        hit = np.where(neg, qd, tau - qd)
    else:
        kinetic = KineticEnergy(beta)
        pd = np.where(neg, -mag, mag)
        k = kinetic.k(pd)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vel = kinetic.kprime(pd)
            hit = _hit_time(qd, vel, tau)
        ok = (np.isfinite(pd) & np.isfinite(vel) & (vel != 0.0)).all(axis=1)
    e0 = potential + k.sum(axis=1)
    if nc:
        e0 += kinetic_energy(pC)
    if beta != 1.0 and not ok.all():
        # A chain with a clock that does not run diverges; its clocks are
        # put where no whole-row operation makes a NaN.
        k[~ok], vel[~ok], hit[~ok] = 1.0, 1.0, tau
    t_rem = ok * T
    # A clock reaches its boundary again about tau after an event, so in
    # time T only after an event before about T - tau.  When at beta 1 no
    # clock starts that close to its boundary and positions are redrawn,
    # each clock fires at most once (the event times drift by an ulp or so
    # per event, far inside the margin of 1e-6 tau), and every row's events
    # come in the order of its hit times, read off one sort, unless
    # rounding may decide otherwise.
    once = nd == 0 or (beta == 1.0 and resample
                       and hit.min() > T - tau * (1.0 - 1e-6))
    schedule = _event_schedule(hit, T, tau) if once else None
    offsets = np.arange(n) * nd
    if schedule is not None:
        order, hs = schedule
        fires = hs < T
        at_m = order + offsets         # flat index of each row's m-th event
    else:
        # Each round finds every row's next event afresh, stepping the
        # clock positions, momenta and velocities with the loop's own
        # arithmetic.
        qd_start = qd.copy()
        kinv = _float_kinv(KineticEnergy(beta))
        if vel is None:
            vel = np.where(neg, -1.0, 1.0)
            pd = vel * mag
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
                qd += col * vel
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
            ok &= ~stuck
            event &= ~stuck
            t_rem[stuck] = 0.0
        accepts.append(acc)
        if nc:
            stale |= acc
        diverged = None
        if schedule is None:
            # Each fired clock turns as the loop turns it, on floats: a
            # reflection negates its momentum and velocity; a refraction
            # mirrors its position and takes the momentum of the energy
            # left and its speed, unless the clock would not run, or would
            # run into the event cap: then the chain diverges, its clock
            # left as it was.  The next hit time is the loop's, from the
            # new position and velocity.
            rows = event.nonzero()[0]
            fired = at.take(rows)
            turned, dead = [], []      # each fired clock's p, v, qd, hit
            # With no proposal priced no clock refracts, and e goes unread.
            for r, moved, p, w, a, e in zip(
                    rows.tolist(), acc.take(rows).tolist(),
                    pd.take(fired).tolist(), vel.take(fired).tolist(),
                    qd.take(fired).tolist(),
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
                        a = tau - a
                        w = w if p > 0.0 else -w
                turned.append((p, w, a, _hit_time(a, w, tau)))
            for stack, values in zip((pd, vel, qd, hit), zip(*turned)):
                stack.put(fired, values)
            if dead:
                diverged = np.zeros(n, dtype=bool)
                diverged[dead] = True
        elif left is not None and math.inf in left.tolist():
            # At unit speed a refraction diverges only to an infinite
            # momentum: with T below 2 tau, unit speed does not run into
            # the event cap.
            diverged = acc & (left == np.inf)
        if diverged is not None:
            accepts[-1] = acc & ~diverged
        if n_events > _MAX_EVENTS:
            diverged = event if diverged is None else diverged | event
        if diverged is not None:
            ok &= ~diverged
            t_rem[diverged] = 0.0
            k[diverged] = 1.0          # no whole-row operation sees inf

    u_end = rm.potential(xs, qs)
    if beta != 1.0:
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
    if schedule is None:
        qd = np.where(keep, qd, qd_start)
    n_acc = (np.add.reduce(accepts, dtype=np.int64) if accepts
             else np.zeros(n, dtype=np.int64))
    stats = StepStats(accepted=accepted,
                      energy_error=np.where(ok, err, np.nan),
                      n_discrete_accepts=n_acc, n_grad_evals=n_grad,
                      divergent=~ok)
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
