"""Reference implementations the tests check the package against.

The locally informed proposal in two steps: draw the move, then price it
from the potential, or price a given move from a fresh evaluation of the
site's conditionals (the kernels use ``core.informed_rows``).  The
event-driven kernel as an event loop on one chain, on Python floats
(``simulate``, ``loop_step``, ``run_loop_chain``), and the same loop in
numpy calls on single values (``reference_simulate``); the package steps
chains in lockstep (``kernels_general``).  And ``ess_reference``, the
effective sample size one transform per half chain with Geyer's truncation
stepped lag by lag (the package uses ``diagnostics.ess``)."""

import math
import warnings

import numpy as np

from mixedhmc import kernels_general
from mixedhmc.core import (DIVERGENCE_MAX, DegenerateSiteError, KineticEnergy,
                           MixedPoint, NonFiniteWeightsError,
                           _masked_logsumexp, kinetic_energy, leapfrog,
                           propose_and_delta)
from mixedhmc.diagnostics import (DegenerateDimensionWarning, StepStats,
                                  drive_chains)
from mixedhmc.kernels_general import (AuxiliaryState, _float_kinv,
                                      _refracted, sample_auxiliary)


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


def _hit_time(qd, v, tau):
    """Time until a clock at ``qd`` moving at nonzero velocity ``v`` reaches
    0 or tau; on floats, or elementwise on arrays."""
    return (2.0 * tau * (v > 0) - 2.0 * qd) / (2.0 * v)


def _runs(p, v) -> bool:
    """Whether a clock with momentum ``p`` and velocity ``v`` can be run:
    both finite, and the clock not standing still."""
    return math.isfinite(p) and math.isfinite(v) and v != 0.0


def _integrate(x, q, p, duration, max_step, model, g):
    """Leapfrog for ``duration`` in equal steps no larger than ``max_step``,
    from the gradient ``g`` at the start (evaluated when None); returns the
    number of gradient evaluations and the gradient at the end."""
    n = max(math.ceil(duration / max_step), 1)
    return (n + (g is None),
            leapfrog(x, q, p, duration / n, n, model.grad_q, g=g))


def simulate(x, qD, pD, qC, pC, tau, T, model, kinetic, integrator_eps, rng,
             propose, events):
    """Run the event loop, mutating all state arrays in place.

    Each clock holds the time of its next event, a Python float, for the
    whole trajectory: its first hit time from ``qD`` and ``pD``, then
    ``t + tau / |v|`` after an event at time ``t``, where it leaves a
    boundary at velocity ``v``.  A segment runs from one event time to the
    next, the last one to ``T``; a hit at exactly ``T`` fires and ends the
    trajectory.  Clock positions are not stepped: on exit each is its last
    boundary plus ``v (T - t)``, or ``qD + v T`` if it never fired, clipped
    to ``[0, tau]``, and ``pD`` the end momenta.  Each leapfrog segment
    starts from the gradient the last one ended with, unless a refraction
    moved ``x`` in between.

    ``propose(j, x, qC, rng) -> (new_value, delta_e)`` may be overridden to
    inject a fixed proposal sequence (used by reversibility tests), and
    ``events``, unless None, receives ``(site, old, new, accepted)`` for
    each event.  Returns ``(n_accepts, n_grads, ok)``; ``ok`` is False when
    the trajectory degenerated: non-finite weights, a clock whose momentum
    or velocity is not finite or whose velocity is zero (on entry or after
    a refraction), a refraction leaving a clock fast enough to cross the
    circle more than ``kernels_general._MAX_EVENTS`` times in time ``T``,
    or a runaway event count.
    """
    max_events = kernels_general._MAX_EVENTS
    nd = qD.size
    nc = qC.size
    beta = kinetic.beta
    kinv = _float_kinv(kinetic)
    v = kinetic.kprime(pD)
    pd, vel = pD.tolist(), v.tolist()
    fire = _hit_time(qD, v, tau).tolist()
    # Each clock's position at its last event, and that event's time; its
    # start and 0 before any.
    start, last = qD.tolist(), [0.0] * nd
    n_acc = 0
    n_grad = 0
    g = None  # gradient at (x, qC) where the last leapfrog segment ended

    ok = all(map(_runs, pd, vel))
    now = 0.0
    n_events = 0
    while ok and now < T:
        t = min(fire) if nd else math.inf
        event = t <= T
        if not event:
            t = T
        if nc and t - now > 0.0:
            n, g = _integrate(x, qC, pC, t - now, integrator_eps, model, g)
            n_grad += n
        now = t

        if event:
            j = fire.index(t)
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
                p = _refracted(p, energy - d_e, kinv)
                try:
                    w = beta * abs(p) ** (beta - 1.0)
                except (OverflowError, ZeroDivisionError):
                    w = math.nan
                # A clock this fast would run into the event cap: diverge now.
                if not _runs(p, w) or w * T > tau * max_events:
                    ok = False
                    break
                pd[j] = p
                vel[j] = w if p > 0.0 else -w
                n_acc += 1
            else:
                pd[j] = -p
                vel[j] = -vel[j]
            # The clock leaves the boundary that its velocity points away from.
            start[j] = 0.0 if vel[j] > 0.0 else tau
            last[j] = now
            fire[j] = now + tau / abs(vel[j])
            if events is not None:
                events.append((j, old, new, accepted))
            n_events += 1
            if n_events > max_events:
                ok = False

    # np.clip(start + vel * (T - last), 0, tau)
    qD[:] = [tau if (c := a + w * (T - s)) > tau else (0.0 if c < 0.0 else c)
             for a, w, s in zip(start, vel, last)]
    pD[:] = pd
    return n_acc, n_grad, ok


def loop_step(point, aux, pC, T, model, kinetic, integrator_eps, rng,
              propose=None, events=None):
    """One trajectory of the event loop plus the Metropolis test, with the
    signature of ``kernels_general.general_step`` and the hooks of
    :func:`simulate`.

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
    n_acc, n_grad, ok = simulate(x, qD, pD, qC, p, aux.tau, T, model, kinetic,
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
        return MixedPoint(x, qC), AuxiliaryState(qD, -pD, aux.tau), -p, stats
    return point, aux, pC, stats


def _energy(model, kinetic, x, q, pD, p):
    e = model.potential(x, q) + float(np.sum(kinetic.k(pD)))
    # The continuous momenta as a one-row stack, as the lockstep path sums
    # them; with none, the term is 0.
    return e + float(kinetic_energy(p[None])[0]) if p.size else e


def run_loop_chain(init, params, model, n_burn, n_samples, rng):
    """Iterate :func:`loop_step`, discarding ``n_burn`` steps and recording
    the rest, with the draws of ``kernels_general.run_chain_general``."""
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
        pt, aux, _, stats = loop_step(pt, aux, pC, params.T, model, kinetic,
                                      params.integrator_eps, rng)
        return pt.x, pt.q, stats.accepted, stats.divergent

    return drive_chains(step, 1, nd, nc, n_burn, n_samples)[0]


def reference_simulate(x, qD, pD, qC, pC, tau, T, model, kinetic,
                       integrator_eps, rng, propose, events):
    """The event loop written with numpy calls on single values, one
    leapfrog segment per gap between events, each starting with a fresh
    gradient: the reference that :func:`simulate` must match bit for
    bit."""
    def hit_time(qd, v):
        return (tau * (np.sign(v) + 1.0) - 2.0 * qd) / (2.0 * v)

    nd = qD.size
    nc = qC.size
    n_acc = 0
    n_grad = 0

    v = kinetic.kprime(pD) if nd else np.zeros(0)
    fire = hit_time(qD, v)
    start, last = qD.copy(), np.zeros(nd)

    now = 0.0
    while now < T:
        j = int(np.argmin(fire)) if nd else 0
        event = nd > 0 and fire[j] <= T
        t = fire[j] if event else T
        if t - now > 0.0 and nc:
            n = max(int(np.ceil((t - now) / integrator_eps)), 1)
            leapfrog(x, qC, pC, (t - now) / n, n, model.grad_q)
            n_grad += n + 1
        now = t

        if event:
            new, d_e = propose(j, x, qC, rng)
            old = int(x[j])
            energy = kinetic.k(pD[j])
            accepted = energy > d_e
            if accepted:
                x[j] = new
                pD[j] = np.sign(pD[j]) * kinetic.kinv(energy - d_e)
                v[j] = kinetic.kprime(pD[j])
                n_acc += 1
            else:
                pD[j] = -pD[j]
                v[j] = -v[j]
            start[j] = 0.0 if v[j] > 0.0 else tau
            last[j] = now
            fire[j] = now + tau / np.abs(v[j])
            events.append((j, old, new, accepted))

    np.clip(start + v * (T - last), 0.0, tau, out=qD)
    return n_acc, n_grad, True


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of a 1D series via FFT (divides by n)."""
    n = x.size
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n]
    return acov / n


def _split_chains(chains: np.ndarray) -> np.ndarray:
    """Split each row in half; drops the middle draw of odd-length chains."""
    n = chains.shape[1]
    half = n // 2
    return np.vstack([chains[:, :half], chains[:, n - half:]])


def ess_reference(chains) -> float:
    """Multi-chain effective sample size of one dimension.

    Parameters
    ----------
    chains : sequence of 1D arrays
        Per-chain sample vectors, equal lengths >= 8.

    Returns
    -------
    float
        Estimated ESS.  Zero-variance input returns ``chains * length`` and
        emits :class:`DegenerateDimensionWarning`.
    """
    arr = np.atleast_2d(np.asarray(chains, dtype=np.float64))
    if arr.shape[1] < 8:
        raise ValueError("ess requires chains of length >= 8")
    n_total = arr.size

    if np.all(arr == arr.flat[0]):
        warnings.warn("zero-variance dimension, ESS set to total draw count",
                      DegenerateDimensionWarning)
        return float(n_total)

    arr = _split_chains(arr)
    m, n = arr.shape

    acov = np.vstack([_autocov(arr[c]) for c in range(m)])
    chain_means = arr.mean(axis=1)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += np.var(chain_means, ddof=1)
    if var_plus <= 0 or not np.isfinite(var_plus):
        warnings.warn("zero-variance dimension, ESS set to total draw count",
                      DegenerateDimensionWarning)
        return float(n_total)

    mean_acov = acov.mean(axis=0)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho[1] = 1.0 - (mean_var - mean_acov[1]) / var_plus

    # Geyer initial positive sequence: keep pairs while their sum stays >= 0.
    t = 1
    rho_even, rho_odd = rho[0], rho[1]
    while t < n - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - mean_acov[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - mean_acov[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t

    # Geyer initial monotone sequence: pair sums must not increase.
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2

    tau = -1.0 + 2.0 * float(rho[: max_t + 1].sum())
    # Antithetic chains can push tau toward 0 or below; floor it so ESS stays
    # finite and positive (draws * log10(draws) is the resulting cap).
    tau = max(tau, 1.0 / np.log10(n_total))
    return n_total / tau
