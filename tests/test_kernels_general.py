import numpy as np
import pytest

from mixedhmc import (
    AuxiliaryState,
    ChainRng,
    KineticEnergy,
    MixedPoint,
    ModelSpec,
    general_step,
    initial_hit_time,
    refract,
    run_chain_general,
    sample_auxiliary,
)
from mixedhmc.core import forced_delta
from mixedhmc.diagnostics import ess, ks_two_sample
from mixedhmc.kernels_general import GeneralParams, _simulate
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
