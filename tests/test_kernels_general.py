import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from mixedhmc import (
    ChainRng,
    KineticEnergy,
    MixedPoint,
    ModelSpec,
    run_chain_general,
)
from mixedhmc import core, kernels_general
from mixedhmc.core import RowModel, informed_rows, propose_and_delta
from mixedhmc.diagnostics import ess, ks_two_sample
from mixedhmc.kernels_general import (
    AuxiliaryState,
    GeneralParams,
    general_step,
    general_step_batch,
    initial_hit_time,
    refract,
    run_chain_general_batch,
    sample_auxiliary,
)
from mixedhmc.models import (
    binary_quadratic_enumerate,
    gmm1d_preset,
    gmm24_preset,
    random_binary_quadratic,
)
from mixedhmc.runner import default_init
from oracle import (forced_delta, loop_step, reference_simulate,
                    run_loop_chain, simulate)


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


class Ledge(CoupledModel):
    """``CoupledModel`` on a ledge: below q = -0.3, value 1 of site 0 costs
    ``level`` more (zero weight at ``level`` inf).  A chain that a leapfrog
    segment carries there gains ``level`` by flipping site 0 back."""

    def __init__(self, level):
        super().__init__(3)
        self.level = level

    def potential(self, x, q):
        u = super().potential(x, q)
        return u + self.level if x[0] == 1 and q[0] < -0.3 else u

    def site_cond_neglogp(self, j, x, q):
        # The level is common to both values of the other sites: it cancels.
        xv = x.copy()
        out = np.empty(2)
        for v in (0, 1):
            xv[j] = v
            out[v] = super().potential(xv, q)
        if j == 0 and q[0] < -0.3:
            out[1] += self.level
        return out


class FullLedge(Ledge):
    """``Ledge`` whose site conditionals keep the level where it is common
    to both values: on the ledge with site 0 at 1, both values of sites 1
    and 2 have zero weight at level inf, and a flip there costs inf - inf."""

    def site_cond_neglogp(self, j, x, q):
        out = super().site_cond_neglogp(j, x, q)
        if j != 0 and x[0] == 1 and q[0] < -0.3:
            out += self.level
        return out


class Step(ModelSpec):
    """Two binary sites and no continuous coordinates: value 1 of site 0
    costs ``cost``, so flipping it from 0 costs exactly ``cost``."""

    def __init__(self, cost):
        self.cost = cost

    n_discrete = 2
    n_continuous = 0

    def site_cardinality(self, j):
        return 2

    def potential(self, x, q):
        return self.cost if x[0] == 1 else 0.0

    def grad_q(self, x, q):
        return np.zeros(0)


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
        new_pt, new_aux, new_p, stats = loop_step(
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
        _, new_aux, _, stats = loop_step(pt, aux, np.zeros(0), 300.0, model,
                                         kin, 0.1, rng, events=events)
        assert len(events) > 500
        assert abs(kin.k(new_aux.pD).sum() - k0) < 1e-12
        assert stats.accepted
        assert abs(stats.energy_error) < 1e-10

    @pytest.mark.parametrize("nd,n_continuous,beta,T,eps", [
        (3, 2, 1.0, 25.0, 0.05), (4, 0, 2.0, 300.0, 0.1)])
    def test_shipped_path_equals_the_oracle(self, nd, n_continuous, beta, T,
                                            eps):
        """On the flat-in-x target the lockstep path, alone and in a batch
        of 3, gives the oracle's trajectories bit for bit: every event
        refracts, dozens of times per site."""
        model = FlatInX(n_discrete=nd, n_continuous=n_continuous)
        kin = KineticEnergy(beta)
        rng = ChainRng(3, 0)
        aux = [sample_auxiliary(nd, 1.0, kin, rng) for _ in range(3)]
        x = (rng.uniform((3, nd)) < 0.5).astype(np.int64)
        q, pC = rng.normal((3, n_continuous)), rng.normal((3, n_continuous))
        refs = _given_rows_equal_the_loop(
            model, GeneralParams(T=T, beta=beta, integrator_eps=eps), x, q,
            aux, pC, 3)
        for ref in refs:
            assert ref[3].n_discrete_accepts >= 60


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
        _, _, ok, _ = simulate(x, qD, pD, qC, pC, tau, T, model, kin, 0.05,
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
        _, _, ok, _ = simulate(x, qD, pD, qC, pC, tau, T, model, kin, 0.05,
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
        out = run_chain_general(model.initial_point(rng), GeneralParams(T=1.0),
                                model, 500, 30_000, rng)
        assert np.abs(out.samples.mean(axis=0) - exact).max() < 0.02

    def test_keep_positions_variant_also_exact(self):
        """Binary-HMC style: clock positions persist across iterations."""
        model = random_binary_quadratic(5, ChainRng(7, 0))
        exact, _ = binary_quadratic_enumerate(model.spec)
        rng = ChainRng(8, 0)
        params = GeneralParams(T=1.0, resample_positions=False)
        out = run_chain_general(model.initial_point(rng), params, model, 500,
                                30_000, rng)
        assert np.abs(out.samples.mean(axis=0) - exact).max() < 0.02

    @pytest.mark.parametrize("beta,T,tau,n", [(1.0, 2.5, 1.0, 4000),
                                              (2.0, 2.6, 1.2, 2500)])
    def test_kept_positions_past_tau_exact(self, beta, T, tau, n):
        """Clock positions kept and T past tau, so that clocks fire more
        than once and start where the last trajectory left them: at beta 1
        from one sort of their times, at beta 2 round by round.  Each site's
        pooled marginal of 4 chains lies within 5 standard errors of
        enumeration, its standard error ``sqrt(p (1 - p) / ESS)`` from the
        chains' own effective sample size."""
        model = random_binary_quadratic(5, ChainRng(7, 0))
        exact, _ = binary_quadratic_enumerate(model.spec)
        rngs = [ChainRng(34, c) for c in range(4)]
        params = GeneralParams(T=T, beta=beta, tau=tau,
                               resample_positions=False)
        outs = run_chain_general_batch([model.initial_point(r) for r in rngs],
                                       params, model, 200, n, rngs)
        for j, p in enumerate(exact):
            chains = [out.samples[:, j] for out in outs]
            se = math.sqrt(p * (1.0 - p) / ess(chains))
            assert abs(np.mean(chains) - p) < 5.0 * se, j


class TestLaplaceSpecialization:
    def test_marginals_match_laplace_kernel(self):
        """Laplace-momentum event kernel and the scheduled kernel target the
        same distribution; compare pooled continuous marginals with a K-S
        threshold scaled by the estimated effective sample sizes."""
        from mixedhmc import LaplaceKernelParams
        from mixedhmc.kernels_laplace import run_chain_batch

        model = gmm1d_preset()
        n_chains, n = 6, 4000
        # Each chain's samples are those of run_chain_general on its
        # stream, which the batch gives at less cost.
        rngs = [ChainRng(9, c) for c in range(n_chains)]
        outs = run_chain_general_batch([model.initial_point(r) for r in rngs],
                                       GeneralParams(T=4.0, integrator_eps=0.4),
                                       model, 200, n, rngs)
        qs_general = [o.samples[:, 1] for o in outs]
        rngs = [ChainRng(10, c) for c in range(n_chains)]
        outs = run_chain_batch([model.initial_point(r) for r in rngs],
                               LaplaceKernelParams(epsilon=0.45, T=4.0, L=20),
                               model, 200, n, rngs)
        qs_laplace = [o.samples[:, 1] for o in outs]
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

    def test_general_step_refuses_other_site_count(self):
        rng = ChainRng(11, 0)
        model = random_binary_quadratic(6, rng)
        kin = KineticEnergy(1.0)
        aux = sample_auxiliary(5, 1.0, kin, rng)
        with pytest.raises(ValueError, match="auxiliary state size"):
            general_step(model.initial_point(rng), aux, np.zeros(0), 1.0,
                         model, kin, 0.1, rng)


class TestGeneralParams:
    @pytest.mark.parametrize("field", ["T", "beta", "tau", "integrator_eps"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_setting_rejected(self, field, value):
        """An infinite travel time would never end a trajectory."""
        with pytest.raises(ValueError,
                           match=f"^{field}: must be positive and finite"):
            GeneralParams(**{"T": 1.0, field: value})


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
    @pytest.mark.parametrize("beta", [0.5, 2.0 / 3.0, 1.0, 2.0, 1.5, 3.0])
    @pytest.mark.parametrize("name", list(_LOOP_MODELS))
    def test_bit_identical_to_numpy_loop(self, name, beta):
        """Positions, momenta, clock energies, sites, events and accept
        counts equal the numpy loop's exactly; each loop reports the
        gradient calls it made.  At betas 2/3, 1.5 and 3 numpy's array
        ``pow`` differs from libm's on a few percent of values, and both
        loops take numpy's."""
        make_model, T = _LOOP_MODELS[name]
        model = make_model()
        calls = _counting_grad(model)
        kin = KineticEnergy(beta)
        tau, eps = 1.0, 0.1
        kinds = set()
        for seed in range(25):
            runs = []
            for loop in (reference_simulate, simulate):
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
            assert np.array_equal(new_counts[3], ref_counts[3])
            assert (ref_counts[1], new_counts[1]) == (ref_calls, new_calls)
            kinds.update(acc for (_, _, _, acc) in new_events)
        assert kinds == {True, False}, "needs refractions and reflections"


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
            _, n_grad, _, _ = reference_simulate(
                x.copy(), qD.copy(), pD.copy(), qC.copy(), pC.copy(), 1.0,
                3.0, model, kin, 0.1, ChainRng(seed, 1),
                lambda j, x_, q_, r: propose_and_delta(j, x_, q_, model, r),
                [])
            saved += n_grad - stats.n_grad_evals
        assert saved > 0

    def test_shipped_path_equals_the_oracle(self):
        """The lockstep path, alone and in a batch of 3, makes the oracle's
        gradient calls from the same starts, and gives its states and every
        ``StepStats`` field bit for bit, in one step and over 30."""
        model = CoupledModel(3)
        kin = KineticEnergy(1.0)
        starts = [_trajectory_start(model, kin, seed) for seed in range(3)]
        x, qD, pD, qC, pC = (np.array(a) for a in zip(*starts))
        aux = [AuxiliaryState(a, b, 1.0) for a, b in zip(qD, pD)]
        refs = _given_rows_equal_the_loop(model, GeneralParams(T=3.0), x, qC,
                                          aux, pC, 1)
        assert all(ref[3].n_grad_evals > 0 for ref in refs)
        _steps_equal_the_loop(model, GeneralParams(T=3.0), 12)


class TestNonFiniteRefraction:
    def _step(self, beta, d_e):
        model = CoupledModel(3)
        kin = KineticEnergy(beta)
        x, qD, pD, qC, pC = _trajectory_start(model, kin, 5)
        pt, aux = MixedPoint(x, qC), AuxiliaryState(qD, pD, 1.0)
        events = []
        new_pt, new_aux, new_p, stats = loop_step(
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

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("level", [np.inf, 1e300])
    def test_shipped_path_equals_the_oracle(self, beta, level):
        """Chains that leapfrog segments carry onto the ledge gain -inf or
        -1e300 by flipping site 0 back: an infinite momentum, one that
        overflows (beta 0.5) or a clock that would run into the event cap
        (beta 2, gain -1e300), each of which diverges.  The lockstep path,
        alone and in a batch of 3, gives the oracle's samples, states and
        every ``StepStats`` field bit for bit."""
        model, params = Ledge(level), GeneralParams(T=2.0, beta=beta)
        divergences = _chains_equal_the_loop(model, params, 40)
        divergences += _steps_equal_the_loop(model, params, 41)
        assert divergences > 0

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_sites_without_weight_reflect_without_warning(self, beta,
                                                          monkeypatch):
        """On the full ledge at level inf, a flip of site 1 or 2 costs
        inf - inf, which is NaN, and the clock reflects, with no warning
        from the lockstep path or the oracle.  Each row, alone and in a
        batch of 3, keeps the oracle's state and every ``StepStats`` field:
        divergent or rejected where the oracle's is."""
        costs = []
        flip_costs = core.flip_costs

        def spy(neglogp, cur):
            costs.append(flip_costs(neglogp, cur))
            return costs[-1]

        monkeypatch.setattr(core, "flip_costs", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            divergences = _steps_equal_the_loop(
                FullLedge(np.inf), GeneralParams(T=2.0, beta=beta), 41)
        assert np.isnan(np.concatenate(costs)).any()
        assert divergences > 0


class TestLoopRefraction:
    """The oracle's loop refracts by the arithmetic of :func:`refract`,
    which criterion 8 checks.  A clock made to cross its boundary once, at
    a chosen cost, leaves the loop with the momentum ``refract`` gives."""

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

        n_acc, n_grad, ok, _ = simulate(
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

    @pytest.mark.parametrize("beta", [0.5, 2.0 / 3.0, 1.0, 1.5, 2.0])
    def test_bit_identical_to_refract(self, beta):
        """The loop's momentum is ``refract``'s, bit for bit: both take the
        energy ``|p| ** beta`` and its inverse from numpy's array ``pow``.
        At betas 2/3 and 1.5 libm's ``pow`` differs from it in the last bit
        on about 5% of values, at 0.5 and 2 on fewer."""
        kin = KineticEnergy(beta)
        for p, d_e in self._cases(kin, 41):
            got, want = self._cross_once(kin, p, d_e), refract(p, d_e, kin)
            assert got == want, (p, d_e)

    @pytest.mark.parametrize("beta", [0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0])
    def test_shipped_path_equals_the_oracle(self, beta):
        """The lockstep path refracts as the oracle's loop does: clocks
        made to cross their boundary once, at a cost from the model, end
        with the oracle's momenta, bit for bit, alone and in batches of 3
        that share the cost, and those are :func:`refract`'s."""
        kin = KineticEnergy(beta)
        p = [p for p, _ in self._cases(kin, 42)[::3]]
        compared = 0
        for i in range(0, len(p) - 2, 3):
            rows = p[i:i + 3]
            for f in (0.9, 0.1, -0.5):
                d_e = f * min(float(kin.k(pi)) for pi in rows)
                aux = [AuxiliaryState([1.0 - 1e-9 if pi > 0 else 1e-9, 0.5],
                                      [pi, 1.0], 1.0) for pi in rows]
                T = 2.0 * max(initial_hit_time(a.qD[0], a.pD[0], 1.0, kin)
                              for a in aux)
                refs = _given_rows_equal_the_loop(
                    Step(d_e), GeneralParams(T=T, beta=beta),
                    np.zeros((3, 2), dtype=np.int64), np.zeros((3, 0)), aux,
                    np.zeros((3, 0)), i)
                for pi, ref in zip(rows, refs):
                    assert ref[3].n_discrete_accepts == 1
                    if not ref[3].accepted:
                        continue
                    assert -ref[1].pD[0] == refract(pi, d_e, kin), (pi, d_e)
                    compared += 1
        assert compared >= 0.9 * 9 * (len(p) // 3)


class WalledSites(ModelSpec):
    """Two 3-value sites pulling one coordinate towards half their sum.
    Above q = 1 every state with a nonzero site has zero weight, so a chain
    at x = 0 there has no finite proposal at either site: it is stuck."""

    @property
    def n_discrete(self):
        return 2

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return 3

    def potential(self, x, q):
        if q[0] > 1.0 and x.any():
            return math.inf
        return 0.5 * (q[0] - 0.5 * float(x.sum())) ** 2

    def grad_q(self, x, q):
        return np.array([q[0] - 0.5 * float(x.sum())])


class MixedWidths(ModelSpec):
    """Sites of 2, 5, 17 and 7 values pulling one coordinate.  Conditionals
    padded to the widest site would sum in another order past 8 values, and
    the costs of informed proposals would change in the last bits.  Above
    q = 1.5, value 1 of the binary site has zero weight: a chain that a
    leapfrog segment carries there gains an infinite energy by flipping the
    site back, and diverges."""

    _cards = (2, 5, 17, 7)

    def __init__(self):
        self.w = [0.7 * ChainRng(16, j).normal(card)
                  for j, card in enumerate(self._cards)]

    @property
    def n_discrete(self):
        return 4

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return self._cards[j]

    def _mean(self, x):
        return 0.3 * sum(int(v) / card for v, card in zip(x, self._cards))

    def potential(self, x, q):
        if q[0] > 1.5 and x[0] == 1:
            return math.inf
        return (sum(float(w[v]) for w, v in zip(self.w, x))
                + 0.5 * (q[0] - self._mean(x)) ** 2)

    def grad_q(self, x, q):
        return np.array([q[0] - self._mean(x)])


# Model, settings and seed of each lockstep case; every chain must give the
# float loop's samples on its own stream.
_LOCKSTEP_CASES = {
    "binary6_T_tau": (lambda: random_binary_quadratic(6, ChainRng(2026, 0)),
                      GeneralParams(T=1.0), 7),
    "binary_T_2.5_tau": (lambda: random_binary_quadratic(
        4, ChainRng(12, 0), coupling_scale=0.8),
        GeneralParams(T=2.0, tau=0.8), 8),
    "gmm1d": (gmm1d_preset, GeneralParams(T=2.5, integrator_eps=0.3), 9),
    "kept_positions": (lambda: random_binary_quadratic(6, ChainRng(2026, 0)),
                       GeneralParams(T=1.7, tau=1.3,
                                     resample_positions=False), 10),
    # Each clock fires five or six times in an iteration.
    "binary_T_5.3_tau_kept": (lambda: random_binary_quadratic(
        4, ChainRng(12, 0), coupling_scale=0.8),
        GeneralParams(T=5.3, resample_positions=False), 32),
    "stuck_3_value_sites": (WalledSites,
                            GeneralParams(T=2.0, integrator_eps=0.2), 11),
    "mixed_widths": (MixedWidths, GeneralParams(T=2.4, integrator_eps=0.2),
                     16),
    # T at most tau with positions redrawn: each clock fires at most once.
    "gmm1d_sorted": (gmm1d_preset, GeneralParams(T=0.9, integrator_eps=0.3),
                     17),
    "stuck_sorted": (WalledSites, GeneralParams(T=0.9, integrator_eps=0.2),
                     18),
    "mixed_widths_sorted": (MixedWidths,
                            GeneralParams(T=0.9, integrator_eps=0.2), 19),
    # Other kinetic energies: each clock has its own speed, which a
    # refraction changes.  Every pow is numpy's array pow, which differs
    # from libm's on a few percent of values at beta 2/3, 1.5 and 3.
    "beta0.5": (MixedWidths,
                GeneralParams(T=2.4, beta=0.5, integrator_eps=0.2), 24),
    "beta0.5_kept": (lambda: random_binary_quadratic(6, ChainRng(2026, 0)),
                     GeneralParams(T=1.7, beta=0.5, tau=1.3,
                                   resample_positions=False), 25),
    "beta1.5": (gmm1d_preset,
                GeneralParams(T=2.5, beta=1.5, integrator_eps=0.3), 26),
    "beta1.5_kept": (gmm1d_preset,
                     GeneralParams(T=2.5, beta=1.5, integrator_eps=0.3,
                                   resample_positions=False), 27),
    "beta0.667": (lambda: CoupledModel(3),
                  GeneralParams(T=3.0, beta=2.0 / 3.0), 35),
    "beta2": (lambda: CoupledModel(3), GeneralParams(T=3.0, beta=2.0), 28),
    "beta2_kept": (lambda: random_binary_quadratic(
        4, ChainRng(12, 0), coupling_scale=0.8),
        GeneralParams(T=2.6, beta=2.0, tau=1.2, resample_positions=False), 29),
    "beta3": (WalledSites, GeneralParams(T=2.0, beta=3.0, integrator_eps=0.2),
              30),
    "beta3_kept": (MixedWidths,
                   GeneralParams(T=2.4, beta=3.0, integrator_eps=0.2,
                                 resample_positions=False), 31),
}
_SORTED_CASES = [name for name, (_, params, _) in _LOCKSTEP_CASES.items()
                 if params.beta == 1.0]


def _loop_step(model, params, x, q, qD, rng, events=None):
    """One iteration of the oracle's chain from ``(x, q)`` with clock
    positions ``qD``: its draws, then its step, which appends its events to
    ``events``."""
    nd, nc = model.n_discrete, model.n_continuous
    kin = KineticEnergy(params.beta)
    if params.resample_positions:
        qD = rng.uniform(nd) * params.tau
    aux = AuxiliaryState(qD, kin.sample(rng, nd), params.tau)
    pC = rng.normal(nc) if nc else np.zeros(0)
    pt, aux, _, stats = loop_step(MixedPoint(x, q), aux, pC, params.T,
                                  model, kin, params.integrator_eps, rng,
                                  events=events)
    return pt, aux, stats


_STATS_FIELDS = ("accepted", "energy_error", "n_discrete_accepts",
                 "n_grad_evals", "divergent")


class _ScriptedRng(ChainRng):
    """The stream ``ChainRng(seed, stream)`` with its first uniform draws
    replaced by the arrays ``uniforms`` and its first gamma draws by
    ``gammas``, in order; the stream moves on as it would."""

    def __init__(self, seed, stream, uniforms, gammas):
        super().__init__(seed, stream)
        self.script = {"uniform": list(uniforms), "gamma": list(gammas)}

    def uniform(self, size=None, out=None):
        return self._replace("uniform", super().uniform(size, out))

    def gamma(self, shape, size=None, out=None):
        return self._replace("gamma", super().gamma(shape, size, out))

    def _replace(self, kind, draw):
        if self.script[kind]:
            draw[...] = self.script[kind].pop(0)
        return draw


def _spy_schedules(monkeypatch):
    """Record what each call of ``_event_schedule`` returns."""
    schedules = []
    schedule = kernels_general._event_schedule

    def spy(*args):
        schedules.append(schedule(*args))
        return schedules[-1]

    monkeypatch.setattr(kernels_general, "_event_schedule", spy)
    return schedules


def _steps_equal_the_loop(model, params, seed, n_steps=30):
    """Step 3 rows ``n_steps`` times in a batch, and each row alone, and
    assert that each keeps the state (clock positions too, when kept) of
    the oracle's step on its own stream, and every ``StepStats`` field, bit
    for bit; returns the oracle's divergences."""
    nd, nc = model.n_discrete, model.n_continuous
    kept = not params.resample_positions
    rngs = [ChainRng(seed, c) for c in range(3)]
    alone = [ChainRng(seed, c) for c in range(3)]
    loop = [ChainRng(seed, c) for c in range(3)]
    pts = [default_init(model, ChainRng(seed + 1, c)) for c in range(3)]
    x = np.array([pt.x for pt in pts])
    q = np.array([pt.q for pt in pts]).reshape(3, nc)
    qD = np.array([ChainRng(seed + 2, c).uniform(nd) for c in range(3)])
    divergences = 0
    for _ in range(n_steps):
        bx, bq, bqD, _, stats = general_step_batch(x, q, qD, params,
                                                   model, rngs)
        for c in range(3):
            ax, aq, aqD, _, solo = general_step_batch(
                x[c:c + 1], q[c:c + 1], qD[c:c + 1], params, model,
                [alone[c]])
            pt, aux, ref = _loop_step(model, params, x[c], q[c], qD[c],
                                      loop[c])
            for got, want in ((bx[c], pt.x), (ax[0], pt.x),
                              (bq[c], pt.q), (aq[0], pt.q)):
                assert np.array_equal(got, want)
            if kept:
                assert np.array_equal(bqD[c], aux.qD)
                assert np.array_equal(aqD[0], aux.qD)
            for field in _STATS_FIELDS:
                want = getattr(ref, field)
                assert np.array_equal(getattr(stats, field)[c], want,
                                      equal_nan=True), field
                assert np.array_equal(getattr(solo, field)[0], want,
                                      equal_nan=True), field
            divergences += ref.divergent
        x, q, qD = bx, bq, bqD
    return divergences


def _given_rows_equal_the_loop(model, params, x, q, aux, pC, seed):
    """Step the rows ``x``, ``q`` (``(C, ·)`` stacks) from the clocks
    ``aux`` and continuous momenta ``pC`` (one per row) once: in one
    lockstep batch, each row alone through ``general_step``, and each row
    through the oracle's step, row ``r`` on ``ChainRng(seed, r)``.  Asserts
    that every row keeps the oracle's end state, clock positions and
    momenta included, and every ``StepStats`` field, bit for bit; returns
    the oracle's results."""
    kin = KineticEnergy(params.beta)
    nc = model.n_continuous
    p = np.array([a.pD for a in aux])
    pc = np.array(pC, dtype=np.float64).reshape(len(aux), nc)
    bx, bq, bqD, pd, _, stats = kernels_general._general_step(
        x.copy(), q.copy(), np.array([a.qD for a in aux]), np.abs(p), p < 0.0,
        pc, dataclasses.replace(params, resample_positions=False),
        RowModel(model), [ChainRng(seed, r) for r in range(len(aux))], None)
    refs = []
    for r, a in enumerate(aux):
        pt = MixedPoint(x[r], q[r])
        ref = loop_step(pt, a, pC[r], params.T, model, kin,
                        params.integrator_eps, ChainRng(seed, r))
        solo = general_step(pt, a, pC[r], params.T, model, kin,
                            params.integrator_eps, ChainRng(seed, r))
        batch = (MixedPoint(bx[r], bq[r]), AuxiliaryState(bqD[r], -pd[r],
                                                          a.tau), -pc[r],
                 stats.chain(r))
        for got in (solo, batch):
            assert np.array_equal(got[0].x, ref[0].x)
            assert np.array_equal(got[0].q, ref[0].q)
            assert np.array_equal(got[1].qD, ref[1].qD)
            if ref[3].accepted:
                assert np.array_equal(got[1].pD, ref[1].pD)
                assert np.array_equal(got[2], ref[2])
            for field in _STATS_FIELDS:
                assert np.array_equal(getattr(got[3], field),
                                      getattr(ref[3], field),
                                      equal_nan=True), field
        assert solo[1] is a or ref[3].accepted
        refs.append(ref)
    return refs


def _chains_equal_the_loop(model, params, seed, n_burn=20, n_samples=250):
    """Run 3 chains in lockstep and assert that each gives the samples,
    accept trace and divergence count of the oracle's chain on its stream,
    bit for bit; returns the divergences of all chains."""
    rngs = [ChainRng(seed, c) for c in range(3)]
    inits = [default_init(model, rng) for rng in rngs]
    outs = run_chain_general_batch(inits, params, model, n_burn, n_samples,
                                   rngs)
    divergences = 0
    for c, out in enumerate(outs):
        rng = ChainRng(seed, c)
        ref = run_loop_chain(default_init(model, rng), params, model,
                             n_burn, n_samples, rng)
        assert np.array_equal(out.samples, ref.samples), c
        assert np.array_equal(out.accept_trace, ref.accept_trace), c
        assert out.divergence_count == ref.divergence_count, c
        divergences += ref.divergence_count
    return divergences


class TestLockstepMatchesLoop:
    @pytest.mark.parametrize("name", list(_LOCKSTEP_CASES))
    def test_each_chain_equals_the_loop(self, name):
        """Each chain of a 3-chain lockstep run gives the samples, accept
        trace and divergence count of ``run_chain_general`` on its stream,
        bit for bit."""
        make_model, params, seed = _LOCKSTEP_CASES[name]
        divergences = _chains_equal_the_loop(make_model(), params, seed)
        if make_model is WalledSites:
            assert divergences > 0, "no chain got stuck"

    @pytest.mark.parametrize("name", ["gmm1d", "binary6_T_tau",
                                      "binary_T_2.5_tau"])
    def test_event_cap(self, name, monkeypatch):
        """With the event cap lowered to 2, a chain diverges in lockstep
        where the loop does: past its second event, or at any refraction
        when T exceeds 2 tau."""
        monkeypatch.setattr(kernels_general, "_MAX_EVENTS", 2)
        make_model, params, seed = _LOCKSTEP_CASES[name]
        assert _chains_equal_the_loop(make_model(), params, seed, 5, 60) > 0

    @pytest.mark.parametrize("name", ["gmm1d", "binary_T_2.5_tau",
                                      "beta2_kept"])
    def test_event_cap_steps_and_stats(self, name, monkeypatch):
        """With the event cap lowered to 2, each row, alone and in a batch
        of 3, keeps the oracle's state and every ``StepStats`` field: a
        refraction that would run into the cap is not counted as an
        accept."""
        monkeypatch.setattr(kernels_general, "_MAX_EVENTS", 2)
        make_model, params, seed = _LOCKSTEP_CASES[name]
        assert _steps_equal_the_loop(make_model(), params, seed) > 0

    def test_event_cap_bounds_the_schedule(self, monkeypatch):
        """With the event cap lowered to 10, a trajectory of 10^4 tau on
        the 24-D mixture, whose one clock reflects at every event, builds a
        schedule of 11 times a row, not 10^4: the 11 events that the loop
        runs before it diverges, each drawing its uniform.  Each chain gives
        the loop's samples."""
        monkeypatch.setattr(kernels_general, "_MAX_EVENTS", 10)
        schedules = _spy_schedules(monkeypatch)
        model = gmm24_preset()
        params = GeneralParams(T=1e4, integrator_eps=0.5)
        assert _chains_equal_the_loop(model, params, 33, 2, 10) == 3 * 12
        assert {len(times) for _, times, _ in schedules} == {11}

    def test_sure_rejections_are_not_priced(self):
        """On the 24-D mixture a move of the site costs about 53 nats, far
        above a clock's energy: every proposal is skipped, with no
        informed_rows call, and each chain gives the loop's samples."""
        model = gmm24_preset()
        params = GeneralParams(T=1.0, integrator_eps=0.5)
        rngs = [ChainRng(5, c) for c in range(4)]
        inits = [default_init(model, rng) for rng in rngs]
        with mock.patch("mixedhmc.core.informed_rows",
                        wraps=informed_rows) as priced:
            outs = run_chain_general_batch(inits, params, model, 0, 20, rngs)
        assert priced.call_count == 0
        for c, out in enumerate(outs):
            rng = ChainRng(5, c)
            ref = run_loop_chain(default_init(model, rng), params, model,
                                 0, 20, rng)
            assert np.array_equal(out.samples, ref.samples), c

    @pytest.mark.parametrize("name", list(_LOCKSTEP_CASES))
    def test_steps_and_stats_equal_the_loop(self, name):
        """Stepped 30 times, each row of a batch of 3, and each row alone,
        keeps the state (clock positions too, when kept) of the loop's step
        on its own stream, and every ``StepStats`` field: energy errors,
        accepts and gradient counts, bit for bit."""
        make_model, params, seed = _LOCKSTEP_CASES[name]
        _steps_equal_the_loop(make_model(), params, seed)

    def test_clocks_tied_at_the_end_time(self):
        """Clocks kept at tau / 2 all hit their boundary at T = tau / 2,
        whichever way they move: the first event uses up the time, and the
        loop stops there, with the tied clocks at hit time 0."""
        model = random_binary_quadratic(4, ChainRng(15, 0))
        params = GeneralParams(T=0.5, tau=1.0, resample_positions=False)
        rngs = [ChainRng(15, c) for c in range(3)]
        x = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]])
        qD = np.full((3, 4), 0.5)
        new_x, _, new_qD, _, stats = general_step_batch(
            x, np.zeros((3, 0)), qD, params, model, rngs)
        for c in range(3):
            events = []
            pt, aux, ref = _loop_step(model, params, x[c], np.zeros(0),
                                      qD[c], ChainRng(15, c), events)
            assert len(events) == 1
            assert np.array_equal(new_x[c], pt.x)
            assert np.array_equal(new_qD[c], aux.qD)
            for field in _STATS_FIELDS:
                assert np.array_equal(getattr(stats, field)[c],
                                      getattr(ref, field), equal_nan=True)

    @pytest.mark.parametrize("name", _SORTED_CASES)
    def test_short_trajectories_take_one_sort(self, name, monkeypatch):
        """At beta 1, for any T and with positions redrawn or kept, every
        iteration takes its events from one sort of its clocks' times."""
        make_model, params, seed = _LOCKSTEP_CASES[name]
        model = make_model()
        schedules = _spy_schedules(monkeypatch)
        rngs = [ChainRng(seed, c) for c in range(3)]
        inits = [default_init(model, rng) for rng in rngs]
        run_chain_general_batch(inits, params, model, 0, 50, rngs)
        assert len(schedules) == 50

    @pytest.mark.parametrize("positions", [
        [0.5, 0.5, 0.9, 0.1],                       # two clocks tied
        [0.25, 0.6, 0.8, 0.1],                      # a hit time equal to T
        [np.nextafter(0.6, 0.0), 0.6, 0.8, 0.1],    # two an ulp apart
    ], ids=["tied", "at_T", "within_margin"])
    def test_close_hit_times_take_the_per_round_loop(self, positions,
                                                     monkeypatch):
        """Clocks moving up from ``positions`` hit their boundary at 1 minus
        their position, three of them before T = 0.75 or at it.  The one
        sort of the clocks' times orders such close calls as the loop does,
        ties to the lower site, and each row gives the loop's step on its
        own stream, bit for bit.  Momenta of energy 50 refract at every
        event."""
        model = random_binary_quadratic(4, ChainRng(15, 0))
        params = GeneralParams(T=0.75)
        script = ([positions, [0.9] * 4], [[50.0] * 4])
        x = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]])
        schedules = _spy_schedules(monkeypatch)
        new_x, _, _, _, stats = general_step_batch(
            x, np.zeros((3, 0)), np.zeros((3, 4)), params, model,
            [_ScriptedRng(23, c, *script) for c in range(3)])
        assert len(schedules) == 1
        for c in range(3):
            events = []
            pt, _, ref = _loop_step(model, params, x[c], np.zeros(0),
                                    np.zeros(4), _ScriptedRng(23, c, *script),
                                    events)
            assert [accepted for *_, accepted in events] == [True] * 3
            assert np.array_equal(new_x[c], pt.x)
            for field in _STATS_FIELDS:
                assert np.array_equal(getattr(stats, field)[c],
                                      getattr(ref, field), equal_nan=True)
