import numpy as np
import pytest

from mixedhmc import (
    ChainRng,
    KineticEnergy,
    MixedPoint,
    ModelSpec,
    run_chain_general,
)
from mixedhmc.core import forced_delta, leapfrog, propose_and_delta
from mixedhmc.diagnostics import ess, ks_two_sample
from mixedhmc.kernels_general import (
    AuxiliaryState,
    GeneralParams,
    _float_kinv,
    _simulate,
    general_step,
    initial_hit_time,
    refract,
    sample_auxiliary,
)
from mixedhmc.models import (
    binary_quadratic_enumerate,
    gmm1d_preset,
    random_binary_quadratic,
)


class Gauss(ModelSpec):
    """Standard normal target, no discrete sites."""

    @property
    def n_discrete(self):
        return 0

    @property
    def n_continuous(self):
        return 3

    def site_cardinality(self, j):
        raise IndexError

    def potential(self, x, q):
        return 0.5 * float(q @ q)

    def grad_q(self, x, q):
        return q.copy()


class FlatInX(ModelSpec):
    """Binary sites that do not affect the potential; Gaussian continuous part."""

    def __init__(self, n_discrete=3, n_continuous=2):
        self._nd = n_discrete
        self._nc = n_continuous

    @property
    def n_discrete(self):
        return self._nd

    @property
    def n_continuous(self):
        return self._nc

    def site_cardinality(self, j):
        return 2

    def potential(self, x, q):
        return 0.5 * float(q @ q) if self._nc else 0.0

    def grad_q(self, x, q):
        return q.copy()


class CoupledModel(ModelSpec):
    """Binary spins coupled to one continuous coordinate."""

    def __init__(self, n_sites=3):
        self._nd = n_sites
        self.b = np.linspace(0.2, 0.6, n_sites)

    @property
    def n_discrete(self):
        return self._nd

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return 2

    def potential(self, x, q):
        s = 2.0 * x - 1.0
        m = float(self.b @ s)
        return 0.5 * (q[0] - m) ** 2 - 0.3 * float(s[0] * s[-1])

    def grad_q(self, x, q):
        s = 2.0 * x - 1.0
        return np.array([q[0] - float(self.b @ s)])


class TestInitialHitTime:
    def test_unit_speed_toward_far_boundary(self):
        kin = KineticEnergy(1.0)
        assert initial_hit_time(0.3, 2.0, 1.0, kin) == pytest.approx(0.7)

    def test_unit_speed_toward_origin(self):
        kin = KineticEnergy(1.0)
        assert initial_hit_time(0.3, -1.5, 1.0, kin) == pytest.approx(0.3)

    def test_quadratic_energy_speed(self):
        # beta=2: v = 2 p = 1, distance 0.75
        kin = KineticEnergy(2.0)
        t = initial_hit_time(0.25, 0.5, 1.0, kin)
        assert t == pytest.approx(0.75)

    def test_brute_force_time_stepping_oracle(self):
        """Forward-simulate the constant-velocity flow on a fine grid and
        compare the first boundary crossing against the closed form."""
        kin = KineticEnergy(2.0)
        rng = ChainRng(1, 0)
        for _ in range(20):
            q0 = float(rng.uniform()) * 0.96 + 0.02
            p0 = float(rng.normal())
            if abs(p0) < 0.05:
                continue
            v = kin.kprime(p0)
            dt = 1e-6
            steps = np.arange(1, int(3.0 / (abs(v) * dt)))
            pos = q0 + v * dt * steps
            crossed = np.nonzero((pos <= 0.0) | (pos >= 1.0))[0]
            t_grid = dt * steps[crossed[0]]
            t_exact = initial_hit_time(q0, p0, 1.0, kin)
            assert abs(t_grid - t_exact) < 1e-4

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            initial_hit_time(0.5, 0.0, 1.0, KineticEnergy(1.0))


class TestRefract:
    def test_zero_cost_identity(self):
        kin = KineticEnergy(1.7)
        assert refract(1.3, 0.0, kin) == pytest.approx(1.3, abs=1e-14)

    def test_laplace_momentum(self):
        assert refract(2.0, 0.5, KineticEnergy(1.0)) == pytest.approx(1.5)

    def test_quadratic_energy_identity(self):
        kin = KineticEnergy(2.0)
        out = refract(-2.0, 1.0, kin)
        assert out == pytest.approx(-np.sqrt(3.0), abs=1e-14)
        assert kin.k(out) == pytest.approx(kin.k(-2.0) - 1.0, abs=1e-12)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            refract(1.0, 2.0, KineticEnergy(1.0))


class TestPureContinuousReduction:
    def test_matches_standalone_leapfrog_bitwise(self):
        """With no discrete sites the kernel is plain HMC; trajectories agree
        bit for bit with an independent leapfrog given the same momentum."""
        model = Gauss()
        kin = KineticEnergy(1.0)
        T, eps = 0.77, 0.1
        pt = MixedPoint(np.zeros(0, dtype=np.int64), np.array([0.3, -1.2, 2.0]))
        pC = np.array([0.5, 1.5, -0.25])
        aux = AuxiliaryState(np.zeros(0), np.zeros(0), 1.0)

        # standalone oracle with identical segmenting rule
        n = int(np.ceil(T / eps))
        h = T / n
        q, p = pt.q.copy(), pC.copy()
        for _ in range(n):
            p = p - 0.5 * h * q
            q = q + h * p
            p = p - 0.5 * h * q
        e0 = model.potential(None, pt.q) + 0.5 * pC @ pC
        e1 = model.potential(None, q) + 0.5 * p @ p
        u = ChainRng(2, 0).uniform()
        accept = (e1 - e0) <= 0 or u < np.exp(-(e1 - e0))

        new_pt, new_aux, new_p, stats = general_step(
            pt, aux, pC, T, model, kin, eps, ChainRng(2, 0))
        assert stats.accepted == accept
        if accept:
            assert np.array_equal(new_pt.q, q)
            assert np.array_equal(new_p, -p)
        assert stats.energy_error == pytest.approx(e1 - e0, abs=0.0)


class TestFlatDiscretePart:
    def test_zero_cost_events_all_refract(self):
        """Flat-in-x potential: every event refracts with unchanged momentum
        magnitude, and the total discrete kinetic energy is exactly conserved."""
        model = FlatInX(n_discrete=3, n_continuous=2)
        kin = KineticEnergy(1.0)
        rng = ChainRng(3, 0)
        pt = MixedPoint(np.array([0, 1, 0]), np.array([0.5, -0.5]))
        aux = sample_auxiliary(3, 1.0, kin, rng)
        pC = rng.normal(2)
        k_before = kin.k(aux.pD).sum()
        events = []
        new_pt, new_aux, new_p, stats = general_step(
            pt, aux, pC, 25.0, model, kin, 0.05, rng, events=events)
        assert len(events) >= 60  # ~ 3 sites x 25 laps
        assert all(acc for (_, _, _, acc) in events)
        assert abs(kin.k(new_aux.pD).sum() - k_before) < 1e-12
        assert np.array_equal(np.abs(new_aux.pD), np.abs(aux.pD))

    def test_purely_discrete_energy_conservation(self):
        model = FlatInX(n_discrete=4, n_continuous=0)
        kin = KineticEnergy(2.0)
        rng = ChainRng(4, 0)
        pt = MixedPoint(np.array([0, 0, 1, 1]), np.zeros(0))
        aux = sample_auxiliary(4, 1.0, kin, rng)
        k0 = kin.k(aux.pD).sum()
        events = []
        _, new_aux, _, stats = general_step(pt, aux, np.zeros(0), 300.0, model,
                                            kin, 0.1, rng, events=events)
        assert len(events) > 500
        assert abs(kin.k(new_aux.pD).sum() - k0) < 1e-12
        assert stats.accepted
        assert abs(stats.energy_error) < 1e-10


class TestPathReversal:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("trial", range(10))
    def test_replayed_trajectory_recovers_start(self, beta, trial):
        """Run a trajectory, negate momenta, and replay it with the mapped
        proposal sequence (accepted moves propose the pre-move value, rejected
        moves repeat themselves): the start state is recovered."""
        model = CoupledModel(3)
        kin = KineticEnergy(beta)
        tau = 1.0
        rng = ChainRng(100 + trial, 0)
        x0 = (rng.uniform(3) < 0.5).astype(np.int64)
        qD0 = rng.uniform(3)
        pD0 = np.atleast_1d(kin.sample(rng, 3))
        qC0 = np.atleast_1d(rng.normal(1))
        pC0 = np.atleast_1d(rng.normal(1))
        T = 2.0 + 3.0 * float(rng.uniform())

        def default_propose(j, x, q, r):
            v = 1 - int(x[j])
            return v, forced_delta(j, x, q, model, v)

        x, qD, pD = x0.copy(), qD0.copy(), pD0.copy()
        qC, pC = qC0.copy(), pC0.copy()
        events = []
        _, _, ok = _simulate(x, qD, pD, qC, pC, tau, T, model, kin, 0.05,
                             rng, default_propose, events)
        assert ok
        pD, pC = -pD, -pC  # the accept branch negates momenta

        vals = [(old if acc else new) for (_, old, new, acc)
                in reversed(events)]
        sites = [j for (j, _, _, _) in reversed(events)]
        replay_sites = []
        it = iter(vals)

        def inject(j, x_, q_, r):
            replay_sites.append(j)
            v = next(it)
            return v, forced_delta(j, x_, q_, model, v)

        events2 = []
        _, _, ok = _simulate(x, qD, pD, qC, pC, tau, T, model, kin, 0.05,
                             rng, inject, events2)
        assert ok
        pD, pC = -pD, -pC
        assert len(events2) == len(events)
        assert replay_sites == sites
        assert np.array_equal(x, x0)
        assert np.abs(qD - qD0).max() < 1e-8
        assert np.abs(pD - pD0).max() < 1e-8
        assert np.abs(qC - qC0).max() < 1e-8
        assert np.abs(pC - pC0).max() < 1e-8


class TestExactness:
    def test_binary_marginals_smoke(self):
        model = random_binary_quadratic(6, ChainRng(5, 0))
        exact, _ = binary_quadratic_enumerate(model.spec)
        rng = ChainRng(6, 0)
        out = run_chain_general(model.initial_point(rng), 1.0, model,
                                KineticEnergy(1.0), 1.0, 0.1, 500, 30_000, rng)
        assert np.abs(out.samples.mean(axis=0) - exact).max() < 0.02

    def test_keep_positions_variant_also_exact(self):
        """Binary-HMC style: clock positions persist across iterations."""
        model = random_binary_quadratic(5, ChainRng(7, 0))
        exact, _ = binary_quadratic_enumerate(model.spec)
        rng = ChainRng(8, 0)
        out = run_chain_general(model.initial_point(rng), 1.0, model,
                                KineticEnergy(1.0), 1.0, 0.1, 500, 30_000, rng,
                                resample_positions=False)
        assert np.abs(out.samples.mean(axis=0) - exact).max() < 0.02


class TestLaplaceSpecialization:
    def test_marginals_match_laplace_kernel(self):
        """Laplace-momentum event kernel and the scheduled kernel target the
        same distribution; compare pooled continuous marginals with a K-S
        threshold scaled by the estimated effective sample sizes."""
        from mixedhmc import LaplaceKernelParams, run_chain

        model = gmm1d_preset()
        n_chains, n = 6, 4000
        qs_general, qs_laplace = [], []
        for c in range(n_chains):
            rng = ChainRng(9, c)
            out = run_chain_general(model.initial_point(rng), 4.0, model,
                                    KineticEnergy(1.0), 1.0, 0.4, 200, n, rng)
            qs_general.append(out.samples[:, 1])
            rng2 = ChainRng(10, c)
            out2 = run_chain(model.initial_point(rng2),
                             LaplaceKernelParams(epsilon=0.45, T=4.0, L=20),
                             model, 200, n, rng2)
            qs_laplace.append(out2.samples[:, 1])
        a = np.concatenate(qs_general)
        b = np.concatenate(qs_laplace)
        n_eff_a = ess(qs_general)
        n_eff_b = ess(qs_laplace)
        crit = 1.628 * np.sqrt(1.0 / n_eff_a + 1.0 / n_eff_b)
        d = ks_two_sample(a, b)
        assert d < crit


class TestAuxiliaryState:
    def test_validation(self):
        with pytest.raises(ValueError):
            AuxiliaryState(np.array([0.5, 1.5]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            AuxiliaryState(np.array([0.5]), np.array([1.0, 1.0]), 1.0)

    def test_sampled_state_in_bounds(self):
        rng = ChainRng(11, 0)
        aux = sample_auxiliary(50, 2.5, KineticEnergy(1.0), rng)
        assert aux.qD.min() >= 0.0 and aux.qD.max() <= 2.5
        assert np.all(aux.pD != 0.0)


class TestGeneralParams:
    @pytest.mark.parametrize("field", ["T", "beta", "tau", "integrator_eps"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_setting_rejected(self, field, value):
        """An infinite travel time would never end a trajectory."""
        with pytest.raises(ValueError,
                           match=f"^{field}: must be positive and finite"):
            GeneralParams(**{"T": 1.0, field: value})


def _reference_simulate(x, qD, pD, qC, pC, tau, T, model, kinetic,
                        integrator_eps, rng, propose, events):
    """The event loop written with numpy calls on single values, one
    leapfrog segment per gap between events, each starting with a fresh
    gradient: the reference that ``_simulate`` must match bit for bit."""
    def hit_time(qd, v):
        return (tau * (np.sign(v) + 1.0) - 2.0 * qd) / (2.0 * v)

    nd = qD.size
    nc = qC.size
    n_acc = 0
    n_grad = 0

    if nd:
        v = kinetic.kprime(pD)
        hit = hit_time(qD, v)
    else:
        v = hit = np.zeros(0)

    t_rem = T
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
                n = max(int(np.ceil(step / integrator_eps)), 1)
                leapfrog(x, qC, pC, step / n, n, model.grad_q)
                n_grad += n + 1
        t_rem -= step

        if event:
            hit -= step
            np.maximum(hit, 0.0, out=hit)
            new, d_e = propose(j, x, qC, rng)
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
            hit[j] = hit_time(qD[j], v[j])
            events.append((j, old, new, accepted))

    return n_acc, n_grad, True


def _counting_grad(model):
    """Make ``model.grad_q`` count its calls; returns the one-entry list
    holding the count."""
    calls = [0]
    grad_q = model.grad_q

    def counted(x, q):
        calls[0] += 1
        return grad_q(x, q)

    model.grad_q = counted
    return calls


def _trajectory_start(model, kin, seed):
    rng = ChainRng(seed, 0)
    nd, nc = model.n_discrete, model.n_continuous
    x = np.array([int(rng.uniform() * model.site_cardinality(j))
                  for j in range(nd)], dtype=np.int64)
    return (x, rng.uniform(nd), np.atleast_1d(kin.sample(rng, nd)),
            np.atleast_1d(rng.normal(nc)), np.atleast_1d(rng.normal(nc)))


# Model and travel time: the binary model has no leapfrog, so its long
# trajectories give each beta thousands of refractions.
_LOOP_MODELS = {
    "binary6": (lambda: random_binary_quadratic(6, ChainRng(2026, 0),
                                                coupling_scale=0.8), 60.0),
    "coupled": (lambda: CoupledModel(3), 3.0),
    "gmm1d": (gmm1d_preset, 3.0),
}


class TestFloatLoopMatchesReference:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 1.5, 3.0])
    @pytest.mark.parametrize("name", list(_LOOP_MODELS))
    def test_bit_identical_to_numpy_loop(self, name, beta):
        """Positions, momenta, sites, events and accept counts equal the
        numpy loop's exactly; each loop reports the gradient calls it made.
        Betas 1.5 and 3 take numpy's own ``pow`` in ``kinv``."""
        make_model, T = _LOOP_MODELS[name]
        model = make_model()
        calls = _counting_grad(model)
        kin = KineticEnergy(beta)
        tau, eps = 1.0, 0.1
        kinds = set()
        for seed in range(25):
            runs = []
            for loop in (_reference_simulate, _simulate):
                state = [a.copy() for a in _trajectory_start(model, kin, seed)]
                events = []
                calls[0] = 0
                counts = loop(*state, tau, T, model, kin, eps,
                              ChainRng(seed, 1),
                              lambda j, x, q, r: propose_and_delta(
                                  j, x, q, model, r), events)
                runs.append((state, events, counts, calls[0]))
            (ref, ref_events, ref_counts, ref_calls), \
                (new, new_events, new_counts, new_calls) = runs
            assert new_counts[2], "the float loop degenerated"
            for a, b in zip(ref, new):
                assert np.array_equal(a, b)
            assert new_events == ref_events
            assert new_counts[0] == ref_counts[0]
            assert (ref_counts[1], new_counts[1]) == (ref_calls, new_calls)
            kinds.update(acc for (_, _, _, acc) in new_events)
        assert kinds == {True, False}, "needs refractions and reflections"


class TestFloatKinv:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 1.5, 3.0])
    def test_matches_kinetic_kinv(self, beta):
        """numpy's sqrt fast path at beta 2 and libm's ``pow`` differ in the
        last bit on about 1 draw in 1,500; the float form takes numpy's."""
        kin = KineticEnergy(beta)
        kinv = _float_kinv(kin)
        e = ChainRng(31, 0).gamma(0.7, 20_000) * np.logspace(-6, 6, 20_000)
        assert [kinv(v) for v in e.tolist()] == [float(kin.kinv(v)) for v in e]


class TestGradientReuse:
    def test_segments_reuse_the_last_gradient(self):
        """A segment that follows a reflection starts from the gradient the
        last one ended with: fewer calls than one fresh gradient per
        segment, and ``n_grad_evals`` counts the calls made."""
        model = CoupledModel(3)
        calls = _counting_grad(model)
        kin = KineticEnergy(1.0)
        saved = 0
        for seed in range(10):
            x, qD, pD, qC, pC = _trajectory_start(model, kin, seed)
            pt = MixedPoint(x, qC)
            aux = AuxiliaryState(qD, pD, 1.0)
            calls[0] = 0
            _, _, _, stats = general_step(pt, aux, pC, 3.0, model, kin, 0.1,
                                          ChainRng(seed, 1))
            assert stats.n_grad_evals == calls[0] > 0
            calls[0] = 0
            _, n_grad, _ = _reference_simulate(
                x.copy(), qD.copy(), pD.copy(), qC.copy(), pC.copy(), 1.0,
                3.0, model, kin, 0.1, ChainRng(seed, 1),
                lambda j, x_, q_, r: propose_and_delta(j, x_, q_, model, r),
                [])
            saved += n_grad - stats.n_grad_evals
        assert saved > 0


class TestNonFiniteRefraction:
    def _step(self, beta, d_e):
        model = CoupledModel(3)
        kin = KineticEnergy(beta)
        x, qD, pD, qC, pC = _trajectory_start(model, kin, 5)
        pt, aux = MixedPoint(x, qC), AuxiliaryState(qD, pD, 1.0)
        events = []
        new_pt, new_aux, new_p, stats = general_step(
            pt, aux, pC, 2.0, model, kin, 0.1, ChainRng(5, 1),
            propose=lambda j, x_, q_, r: (1 - int(x_[j]), d_e),
            events=events)
        assert stats.divergent and not stats.accepted
        assert np.array_equal(new_pt.x, x) and np.array_equal(new_pt.q, qC)
        assert np.array_equal(new_aux.qD, qD)
        assert np.array_equal(new_aux.pD, pD)
        assert np.array_equal(new_p, pC)
        return events

    @pytest.mark.parametrize("beta,d_e", [
        (0.5, -np.inf), (1.0, -np.inf), (2.0, -np.inf), (0.5, -1e300),
        (1.0, -1e300)])
    def test_divergent_within_a_few_events(self, beta, d_e):
        """A refraction gaining an infinite energy, or one whose momentum
        overflows (``1e300 ** 2`` at beta 0.5), ends the trajectory at once;
        at beta 1 the momentum 1e300 moves its clock at unit speed and the
        energy error rejects the step.  Beta 2 with -1e300 is the case
        below."""
        assert len(self._step(beta, d_e)) <= 12

    def test_fast_clock_hits_event_cap(self):
        """At beta 2 a gain of 1e300 leaves the finite momentum 1e150,
        whose clock would cross the circle every 5e-151 time units, far
        more often than the event cap allows in time T: the trajectory ends
        as divergent at that refraction, at the default cap."""
        assert len(self._step(2.0, -1e300)) <= 12


class TestLoopRefraction:
    """``_simulate`` refracts inline, on floats, while criterion 8 checks
    :func:`refract`.  A clock made to cross its boundary once, at a chosen
    cost, leaves the loop with the momentum ``refract`` gives."""

    @staticmethod
    def _cross_once(kin, p, d_e):
        """Momentum of site 0 after one crossing at cost ``d_e``, starting
        just short of the boundary it moves toward; ``T`` ends the
        trajectory long before any other clock event."""
        model = random_binary_quadratic(2, ChainRng(3, 0))
        qD = np.array([1.0 - 1e-9 if p > 0 else 1e-9, 0.5])
        pD = np.array([p, 1.0])
        T = 2.0 * initial_hit_time(qD[0], p, 1.0, kin)
        sites = []

        def propose(j, x, q, rng):
            sites.append(j)
            return 1 - int(x[j]), d_e

        n_acc, n_grad, ok = _simulate(
            np.zeros(2, dtype=np.int64), qD, pD, np.zeros(0), np.zeros(0),
            1.0, T, model, kin, 0.1, ChainRng(0, 0), propose, None)
        assert ok and n_acc == 1 and n_grad == 0 and sites == [0]
        assert pD[1] == 1.0
        return pD[0]

    @staticmethod
    def _cases(kin, seed):
        """Momenta from ``nu``, each with a cost taking away 90% of its
        energy, one of 10%, and a gain of half its energy."""
        p = kin.sample(ChainRng(seed, 0), 100)
        p = p[np.abs(p) > 1e-3]
        return [(float(pi), f * float(kin.k(pi)))
                for pi in p for f in (0.9, 0.1, -0.5)]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_bit_identical_to_refract(self, beta):
        """At beta 0.5 and 2 the loop takes the energy ``|p| ** beta`` from
        libm's ``pow``, and ``KineticEnergy.k`` from numpy's ``sqrt`` or
        square, which differ in the last bit on about 1 momentum in 1,200:
        those cases are held to 1 ulp, and the rest to the bit."""
        kin = KineticEnergy(beta)
        cases = self._cases(kin, 41)
        exact = 0
        for p, d_e in cases:
            got, want = self._cross_once(kin, p, d_e), refract(p, d_e, kin)
            if abs(p) ** beta == float(kin.k(np.array(p))):
                assert got == want, (p, d_e)
                exact += 1
            else:
                assert abs(got - want) <= np.spacing(abs(want)), (p, d_e)
        assert exact >= 0.95 * len(cases)

    def test_within_a_few_ulp_at_beta_1_5(self):
        """numpy's array ``pow`` is not libm's: the loop's momentum is held
        to 4 ulp of :func:`refract`'s."""
        kin = KineticEnergy(1.5)
        for p, d_e in self._cases(kin, 43):
            got, want = self._cross_once(kin, p, d_e), refract(p, d_e, kin)
            assert np.sign(got) == np.sign(p)
            assert abs(got - want) <= 4 * np.spacing(abs(want)), (p, d_e)
