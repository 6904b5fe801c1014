import copy
from unittest import mock

import numpy as np
import pytest

from mixedhmc import (
    ChainRng,
    LaplaceKernelParams,
    MixedPoint,
    ModelSpec,
    get_step_sizes_n_steps,
    run_chain,
    run_chain_general,
)
from mixedhmc.core import DegenerateSiteError, informed_rows
from mixedhmc.kernels_laplace import (_noise, laplace_step,
                                      laplace_step_batch, run_chain_batch)
from mixedhmc.diagnostics import ks_two_sample
from mixedhmc.kernels_general import GeneralParams
from mixedhmc.models import (
    BlrVarsel,
    GaussianMixture,
    binary_quadratic_enumerate,
    blr_generate,
    gmm1d_preset,
    gmm24_preset,
    random_binary_quadratic,
)


def schedule_oracle(epsilon, T, L, n_sites, n_d, rng):
    """Literal transliteration of the schedule pseudocode, one line per line,
    with the 1-based cyclic index mapped to 0-based positions."""
    phi = rng.dirichlet_ones(n_sites + 1)
    phi = phi.copy()
    phi[1 - 1] = phi[1 - 1] + phi[n_sites + 1 - 1]
    eta = np.zeros(L)
    for t in range(1, L + 1):
        acc = 0.0
        for s in range(1, n_d + 1):
            acc += phi[((t - 1) * n_d + s - 1) % n_sites]
        eta[t - 1] = acc
    eta[1 - 1] = eta[1 - 1] - phi[n_sites + 1 - 1]
    eta = T * eta / eta.sum()
    m = np.ceil(eta / epsilon).astype(np.int64)
    eta = eta / m
    return eta, m


class FlatModel(ModelSpec):
    """Constant potential; optionally with binary sites."""

    def __init__(self, n_discrete=0, n_continuous=2):
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
        return 7.0

    def grad_q(self, x, q):
        return np.zeros(self._nc)


class BlowUpModel(ModelSpec):
    """Gradient degenerates outside |q| < 2; drives trajectories non-finite."""

    @property
    def n_discrete(self):
        return 1

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return 3

    def potential(self, x, q):
        if abs(q[0]) > 2.0:
            return np.inf
        return -10.0 * q[0]

    def grad_q(self, x, q):
        if abs(q[0]) > 2.0:
            return np.array([np.nan])
        return np.array([-10.0])


class ShapeBugMixture(GaussianMixture):
    """Site conditionals summed over the wrong axis, a bug in model code:
    (24,) terms meet the (4,) component constants and numpy raises."""

    def site_cond_neglogp(self, j, x, q):
        d = q - self.spec.means
        return self._const + 0.5 * (d * d * self._inv_var).sum(axis=0)


class CliffMixture(GaussianMixture):
    """The 1D mixture with zero conditional weights beyond q = 4.6, above the
    top component: chains there diverge mid-trajectory, others do not."""

    def site_cond_neglogp(self, j, x, q):
        w = super().site_cond_neglogp(j, x, q)
        return np.where(q[..., :1] > 4.6, np.inf, w)


class CliffWell(ModelSpec):
    """Harmonic well with a 3-value site, called one row at a time; its
    conditional weights vanish for |q| > 1.6."""

    @property
    def n_discrete(self):
        return 1

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return 3

    def potential(self, x, q):
        return 0.5 * q[0] ** 2 + 0.3 * x[0]

    def grad_q(self, x, q):
        return q.copy()

    def site_cond_neglogp(self, j, x, q):
        if abs(q[0]) > 1.6:
            return np.full(3, np.inf)
        return 0.5 * q[0] ** 2 + 0.3 * np.arange(3.0)


class RimWell(ModelSpec):
    """Harmonic well with a 3-value site, called one row at a time, that
    ends at |q| = 1.5: beyond it the potential and gradient are +inf, so a
    chain that gets there takes non-finite leapfrog steps."""

    @property
    def n_discrete(self):
        return 1

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return 3

    def potential(self, x, q):
        return np.inf if abs(q[0]) > 1.5 else 0.5 * q[0] ** 2 + 0.3 * x[0]

    def grad_q(self, x, q):
        return np.array([np.inf]) if abs(q[0]) > 1.5 else q.copy()


class WallModel(ModelSpec):
    """Flat in ``q`` with a 3-value site, called one row at a time; its
    conditional weights are all zero (``+inf``) for ``q > 0``, equal
    elsewhere."""

    @property
    def n_discrete(self):
        return 1

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return 3

    def potential(self, x, q):
        return 0.0

    def grad_q(self, x, q):
        return np.zeros(1)

    def site_cond_neglogp(self, j, x, q):
        return np.full(3, np.inf if q[0] > 0 else 0.0)


class MixedSites(ModelSpec):
    """Sites of 2, 3 and 4 values coupled to one coordinate, called one row
    at a time; a batch mixes flips with informed proposals."""

    levels = (np.array([0.0, 0.7]), np.array([0.0, -0.4, 0.9]),
              np.array([0.3, 0.0, -0.5, 0.8]))

    @property
    def n_discrete(self):
        return 3

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return len(self.levels[j])

    def potential(self, x, q):
        shift = sum(lv[v] for lv, v in zip(self.levels, x))
        return 0.5 * (q[0] - shift) ** 2 + 0.2 * float(x.sum())

    def grad_q(self, x, q):
        return q - sum(lv[v] for lv, v in zip(self.levels, x))


class WideSites(ModelSpec):
    """Sites of 3, 12 and 20 values coupled to one coordinate, called one
    row at a time: each proposal sums over its own site's values, and sums
    over more than 8 entries depend on how many there are."""

    levels = tuple(np.sin(1.7 * np.arange(k) + k) for k in (3, 12, 20))

    @property
    def n_discrete(self):
        return 3

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return len(self.levels[j])

    def potential(self, x, q):
        shift = sum(lv[v] for lv, v in zip(self.levels, x))
        return 0.5 * (q[0] - shift) ** 2 + 0.05 * float(x.sum())

    def grad_q(self, x, q):
        return q - sum(lv[v] for lv, v in zip(self.levels, x))


class StandardGaussian(ModelSpec):
    """A standard Gaussian in 3 coordinates, with no discrete sites."""

    row_stacked = True

    @property
    def n_discrete(self):
        return 0

    @property
    def n_continuous(self):
        return 3

    def site_cardinality(self, j):
        raise IndexError(j)

    def potential(self, x, q):
        return 0.5 * np.einsum("...d,...d->...", q, q)

    def grad_q(self, x, q):
        return q.copy()


class TestStepSchedule:
    def test_single_site_single_round(self):
        params = LaplaceKernelParams(epsilon=0.25, T=1.0, L=1, n_D=1)
        sched = get_step_sizes_n_steps(params, 1, ChainRng(0, 0))
        assert sched.n_steps.tolist() == [4]
        assert sched.eta[0] == pytest.approx(0.25, abs=1e-15)
        assert float(sched.eta @ sched.n_steps) == pytest.approx(1.0, rel=1e-12)

    def test_forced_invariants(self):
        rng = ChainRng(1, 0)
        for _ in range(500):
            n_sites = 1 + int(rng.uniform() * 6)
            n_d = 1 + int(rng.uniform() * n_sites)
            L = 1 + int(rng.uniform() * 40)
            T = 0.2 + 10.0 * float(rng.uniform())
            eps = 0.05 + float(rng.uniform())
            params = LaplaceKernelParams(epsilon=eps, T=T, L=L, n_D=n_d)
            sched = get_step_sizes_n_steps(params, n_sites, rng)
            assert float(sched.eta @ sched.n_steps) == pytest.approx(
                T, rel=1e-9)
            assert sched.eta.max() <= eps
            assert np.all(sched.n_steps >= 1)
            assert np.all(sched.eta > 0)

    def test_matches_line_by_line_oracle(self):
        for draw in range(10_000):
            a = ChainRng(2, draw)
            b = ChainRng(2, draw)
            params = LaplaceKernelParams(epsilon=0.3, T=2.5, L=3, n_D=1)
            sched = get_step_sizes_n_steps(params, 3, a)
            eta, m = schedule_oracle(0.3, 2.5, 3, 3, 1, b)
            assert np.abs(sched.eta - eta).max() < 1e-12
            assert np.array_equal(sched.n_steps, m)

    def test_matches_oracle_with_wraparound(self):
        # L * n_D exceeds the site count, exercising the cyclic fold.
        for draw in range(2_000):
            a = ChainRng(3, draw)
            b = ChainRng(3, draw)
            params = LaplaceKernelParams(epsilon=0.2, T=4.0, L=7, n_D=2)
            sched = get_step_sizes_n_steps(params, 5, a)
            eta, m = schedule_oracle(0.2, 4.0, 7, 5, 2, b)
            assert np.abs(sched.eta - eta).max() < 1e-12
            assert np.array_equal(sched.n_steps, m)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LaplaceKernelParams(epsilon=0.0, T=1.0, L=1)
        with pytest.raises(ValueError):
            LaplaceKernelParams(epsilon=0.1, T=-1.0, L=1)
        with pytest.raises(ValueError):
            LaplaceKernelParams(epsilon=0.1, T=1.0, L=0)
        params = LaplaceKernelParams(epsilon=0.1, T=1.0, L=2, n_D=4)
        with pytest.raises(ValueError):
            params.validate_for(2)

    @pytest.mark.parametrize("field,value", [("L", 2.5), ("L", 4.0),
                                             ("n_D", True), ("L", "4")])
    def test_count_must_be_an_integer(self, field, value):
        """A count that is not an int, a bool included, is refused when the
        params are made, not by numpy in the first step."""
        settings = {"epsilon": 0.5, "T": 4.5, "L": 4, "n_D": 1}
        with pytest.raises(ValueError, match=f"^{field}: must be an integer$"):
            LaplaceKernelParams(**{**settings, field: value})
        assert LaplaceKernelParams(**{**settings, field: np.int64(2)})

    def test_mass_diag_length_checked(self):
        params = LaplaceKernelParams(epsilon=0.1, T=1.0, L=2,
                                     mass_diag=[1.0, 2.0, 3.0])
        params.validate_for(1, 3)
        with pytest.raises(ValueError, match="mass_diag"):
            params.validate_for(1, 2)
        # A length-1 mass on a 24-dimensional model would broadcast silently.
        model = gmm24_preset()
        rng = ChainRng(17, 0)
        params = LaplaceKernelParams(epsilon=1.7, T=13.6, L=8, mass_diag=[2.0])
        with pytest.raises(ValueError, match="mass_diag"):
            run_chain(model.initial_point(rng), params, model, 0, 5, rng)


class TestLaplaceStep:
    def test_flat_potential_free_flight(self):
        """No discrete sites, constant potential: exact free flight q + T p
        and zero energy error."""
        model = FlatModel(n_discrete=0, n_continuous=3)
        params = LaplaceKernelParams(epsilon=0.13, T=2.0, L=5)
        pt = MixedPoint(np.zeros(0, dtype=np.int64), np.array([1.0, -2.0, 0.5]))
        rng = ChainRng(4, 0)
        clone = ChainRng(4, 0)
        p = clone.normal(3)
        new_pt, stats = laplace_step(pt, params, model, rng)
        assert stats.accepted
        assert abs(stats.energy_error) <= 1e-12
        assert np.abs(new_pt.q - (pt.q + 2.0 * p)).max() < 1e-12

    def test_flat_mass_matrix_free_flight(self):
        mass = np.array([4.0, 0.25])
        model = FlatModel(n_discrete=0, n_continuous=2)
        params = LaplaceKernelParams(epsilon=0.1, T=1.5, L=3, mass_diag=mass)
        pt = MixedPoint(np.zeros(0, dtype=np.int64), np.array([0.0, 0.0]))
        clone = ChainRng(5, 0)
        p = clone.normal(2) * np.sqrt(mass)
        new_pt, stats = laplace_step(pt, params, model, ChainRng(5, 0))
        assert stats.accepted
        assert np.abs(new_pt.q - 1.5 * p / mass).max() < 1e-12

    def test_mass_matrix_conserves_energy(self):
        """On a standard Gaussian, leapfrog steps of 0.01 under a diagonal
        mass matrix keep every energy error below 1e-3; a kinetic energy
        that multiplied the momenta by the mass, rather than dividing, would
        miss it by orders of magnitude."""
        model = StandardGaussian()
        params = LaplaceKernelParams(epsilon=0.01, T=2.0, L=4,
                                     mass_diag=np.array([0.5, 1.0, 2.0]))
        n = 4
        rngs = [ChainRng(42, c) for c in range(n)]
        x = np.zeros((n, 0), dtype=np.int64)
        q = np.array([ChainRng(43, c).normal(3) for c in range(n)])
        for _ in range(5):
            x, q, stats = laplace_step_batch(x, q, params, model, rngs)
            assert np.all(np.abs(stats.energy_error) < 1e-3)

    def test_flat_binary_sites_always_accept_discrete(self):
        """Zero move cost means the kinetic test always passes and the total
        energy is conserved exactly."""
        model = FlatModel(n_discrete=4, n_continuous=2)
        params = LaplaceKernelParams(epsilon=0.2, T=1.0, L=6, n_D=2)
        pt = MixedPoint(np.array([0, 1, 0, 1]), np.zeros(2))
        rng = ChainRng(6, 0)
        for _ in range(25):
            pt, stats = laplace_step(pt, params, model, rng)
            assert stats.n_discrete_accepts == 12  # L * n_D
            assert abs(stats.energy_error) <= 1e-12
            assert stats.accepted

    def test_grad_budget(self):
        """Gradient evaluations stay within 2 * sum(M_t) + 1 per step."""
        model = gmm1d_preset()
        params = LaplaceKernelParams(epsilon=0.2, T=2.0, L=5)
        rng = ChainRng(7, 0)
        pt = model.initial_point(rng)
        clone = ChainRng(7, 0)
        for _ in range(20):
            pt, stats = laplace_step(pt, params, model, rng)
            # reproduce this step's schedule: k, p, perm, then the schedule
            clone.exponential(1)
            clone.normal(1)
            clone.permutation(1)
            sched = get_step_sizes_n_steps(params, 1, clone)
            # remaining draws of the step: proposals + MH test
            for _ in range(params.L):
                clone.uniform()
            clone.uniform()
            assert stats.n_grad_evals <= 2 * int(sched.n_steps.sum()) + 1

    def test_binary_quadratic_marginals_vs_enumeration(self):
        """Purely discrete target: kernel marginals against full enumeration."""
        model = random_binary_quadratic(6, ChainRng(8, 0))
        exact, _ = binary_quadratic_enumerate(model.spec)
        params = LaplaceKernelParams(epsilon=1.0, T=1.0, L=6, n_D=1)
        rng = ChainRng(9, 0)
        pt = model.initial_point(rng)
        n = 100_000
        out = run_chain(pt, params, model, 500, n, rng)
        err = np.abs(out.samples.mean(axis=0) - exact).max()
        assert err < 0.01

    def test_divergence_flagged_and_state_restored(self):
        model = BlowUpModel()
        params = LaplaceKernelParams(epsilon=0.5, T=10.0, L=4)
        pt = MixedPoint(np.array([0]), np.array([1.5]))
        rng = ChainRng(10, 0)
        saw_divergence = False
        for _ in range(50):
            new_pt, stats = laplace_step(pt, params, model, rng)
            if stats.divergent:
                saw_divergence = True
                assert not stats.accepted
                assert np.array_equal(new_pt.x, pt.x)
                assert np.array_equal(new_pt.q, pt.q)
        assert saw_divergence


class TestRunChain:
    def test_empty_run(self):
        model = gmm1d_preset()
        params = LaplaceKernelParams(epsilon=0.2, T=1.0, L=2)
        rng = ChainRng(11, 0)
        out = run_chain(model.initial_point(rng), params, model, 0, 0, rng)
        assert out.samples.shape == (0, 2)
        assert out.accept_trace.shape == (0,)
        assert out.wall_time >= 0.0

    def test_deterministic_given_seed_and_stream(self):
        model = gmm1d_preset()
        params = LaplaceKernelParams(epsilon=0.2, T=1.0, L=4)
        runs = []
        for _ in range(2):
            rng = ChainRng(12, 3)
            out = run_chain(model.initial_point(rng), params, model, 50, 200,
                            rng)
            runs.append(out)
        assert np.array_equal(runs[0].samples, runs[1].samples)
        assert np.array_equal(runs[0].accept_trace, runs[1].accept_trace)
        assert runs[0].divergence_count == runs[1].divergence_count

    def test_divergences_counted_not_raised(self):
        model = BlowUpModel()
        params = LaplaceKernelParams(epsilon=0.5, T=10.0, L=4)
        rng = ChainRng(13, 0)
        out = run_chain(MixedPoint(np.array([0]), np.array([1.5])), params,
                        model, 0, 100, rng)
        assert out.divergence_count > 0
        assert out.samples.shape == (100, 2)

    def test_degenerate_site_raises(self):
        class OneValueSite(FlatModel):
            def site_cardinality(self, j):
                return 1 if j == 1 else 2

        model = OneValueSite(n_discrete=2, n_continuous=1)
        pt = MixedPoint(np.array([1, 0]), np.zeros(1))
        with pytest.raises(DegenerateSiteError):
            laplace_step(pt, LaplaceKernelParams(epsilon=0.2, T=1.0, L=2),
                         model, ChainRng(25, 0))

    def test_model_bug_raises_instead_of_diverging(self):
        """Only non-finite conditional weights count as divergences; a
        broadcasting error in model code reaches the caller from both
        kernels."""
        model = ShapeBugMixture(gmm24_preset().spec)
        rng = ChainRng(18, 0)
        init = model.initial_point(rng)
        with pytest.raises(ValueError, match="broadcast"):
            run_chain(init, LaplaceKernelParams(epsilon=1.7, T=13.6, L=8),
                      model, 0, 50, rng)
        with pytest.raises(ValueError, match="broadcast"):
            run_chain_general(init, GeneralParams(T=1.0, integrator_eps=0.5),
                              model, 0, 50, rng)


BATCH_CASES = [
    ("cliff_mixture", CliffMixture(gmm1d_preset().spec),
     LaplaceKernelParams(epsilon=0.5, T=4.5, L=18), True),
    ("cliff_well", CliffWell(),
     LaplaceKernelParams(epsilon=0.3, T=3.0, L=4), True),
    ("mixed_sites", MixedSites(),
     LaplaceKernelParams(epsilon=0.3, T=2.0, L=6, n_D=2), False),
    ("wide_sites", WideSites(),
     LaplaceKernelParams(epsilon=0.3, T=2.0, L=6, n_D=2), False),
    ("rim_well", RimWell(),
     LaplaceKernelParams(epsilon=0.3, T=3.0, L=4), True),
    ("blr", BlrVarsel(blr_generate(5, n=40, d=6).spec),
     LaplaceKernelParams(epsilon=0.2, T=2.0, L=6, n_D=2), False),
    ("binary", random_binary_quadratic(5, ChainRng(19, 0)),
     LaplaceKernelParams(epsilon=1.0, T=1.0, L=5), False),
    ("gmm24_mass", gmm24_preset(),
     LaplaceKernelParams(epsilon=1.7, T=13.6, L=8,
                         mass_diag=np.linspace(0.5, 2.0, 24)), False),
]


class TestBatchIsolation:
    @pytest.mark.parametrize("name,model,params,diverges", BATCH_CASES,
                             ids=[c[0] for c in BATCH_CASES])
    def test_batch_of_five_matches_chains_alone(self, name, model, params,
                                                diverges):
        """Each chain's states and step stats are bit-identical whether it
        steps alone or in a lockstep batch of 5, also when batch-mates
        diverge on non-finite weights mid-trajectory."""
        n, steps = 5, 40
        init_rngs = [ChainRng(20, c) for c in range(n)]
        inits = [model.initial_point(r) if hasattr(model, "initial_point")
                 else MixedPoint(np.full(model.n_discrete, c % 2),
                                 np.array([0.4 * c - 0.8]))
                 for c, r in enumerate(init_rngs)]
        alone = [init.copy() for init in inits]
        alone_rngs = [ChainRng(21, c) for c in range(n)]
        batch_rngs = [ChainRng(21, c) for c in range(n)]
        x = np.array([p.x for p in inits])
        q = np.array([p.q for p in inits]).reshape(n, model.n_continuous)
        mixed_steps = 0
        for _ in range(steps):
            x, q, stats = laplace_step_batch(x, q, params, model, batch_rngs)
            for c in range(n):
                alone[c], st = laplace_step(alone[c], params, model,
                                            alone_rngs[c])
                assert np.array_equal(x[c], alone[c].x)
                assert np.array_equal(q[c], alone[c].q)
                assert stats.accepted[c] == st.accepted
                assert stats.divergent[c] == st.divergent
                assert stats.n_discrete_accepts[c] == st.n_discrete_accepts
                assert stats.n_grad_evals[c] == st.n_grad_evals
                assert np.array_equal(stats.energy_error[c], st.energy_error,
                                      equal_nan=True)
            mixed_steps += 0 < stats.divergent.sum() < n
        if diverges:
            # Batch-mates of a stuck chain went on in the same step.
            assert mixed_steps > 0
        else:
            assert mixed_steps == 0

    def test_run_chain_batch_matches_run_chain(self):
        model, params = BATCH_CASES[0][1], BATCH_CASES[0][2]
        inits = [model.initial_point(ChainRng(22, c)) for c in range(5)]
        outs = run_chain_batch(inits, params, model, 10, 60,
                               [ChainRng(23, c) for c in range(5)])
        assert sum(o.divergence_count for o in outs) > 0
        for c, out in enumerate(outs):
            solo = run_chain(inits[c], params, model, 10, 60,
                             ChainRng(23, c))
            assert np.array_equal(out.samples, solo.samples)
            assert np.array_equal(out.accept_trace, solo.accept_trace)
            assert out.divergence_count == solo.divergence_count

    @pytest.mark.parametrize("name", ["cliff_mixture", "blr"])
    def test_run_carries_the_start_potential(self, name):
        """A run makes one potential call per iteration plus one at the
        start, and draws the samples of a loop over laplace_step_batch,
        which evaluates the start potential afresh each iteration, also
        when chains diverge."""
        case = next(c for c in BATCH_CASES if c[0] == name)
        model, params = case[1], case[2]

        class Counting(type(model)):
            def potential(self, x, q):
                self.calls += 1
                return super().potential(x, q)

        counted = copy.copy(model)
        counted.__class__ = Counting
        counted.calls = 0
        n, n_burn, n_samples = 4, 5, 25
        inits = [model.initial_point(ChainRng(28, c)) for c in range(n)]
        outs = run_chain_batch(inits, params, counted, n_burn, n_samples,
                               [ChainRng(27, c) for c in range(n)])
        assert counted.calls == 1 + n_burn + n_samples
        assert (sum(o.divergence_count for o in outs) > 0) == case[3]
        x = np.array([pt.x for pt in inits])
        q = np.array([pt.q for pt in inits])
        rngs = [ChainRng(27, c) for c in range(n)]
        for i in range(n_burn + n_samples):
            x, q, stats = laplace_step_batch(x, q, params, model, rngs)
            if i >= n_burn:
                for c, out in enumerate(outs):
                    assert np.array_equal(out.samples[i - n_burn],
                                          np.concatenate([x[c], q[c]]))
                    assert out.accept_trace[i - n_burn] == stats.accepted[c]

    def test_noise_record_replays_scalar_draws(self):
        """A step that does not diverge reads exactly the draws of the
        scalar sequence: site energies, momenta, visiting order, schedule,
        one uniform per proposal at a site with more than 2 values, then
        the Metropolis uniform."""
        model = CliffWell()
        params = LaplaceKernelParams(epsilon=0.3, T=1.0, L=4)
        rng = ChainRng(24, 0)
        clone = ChainRng(24, 0)
        pt = MixedPoint(np.array([1]), np.array([0.1]))
        _, stats = laplace_step(pt, params, model, rng)
        assert not stats.divergent
        clone.exponential(1)
        clone.normal(1)
        clone.permutation(1)
        get_step_sizes_n_steps(params, 1, clone)
        for _ in range(params.L + 1):
            clone.uniform()
        assert rng.uniform() == clone.uniform()


def _noise_reference(params, nc, rng, widths):
    """One chain's noise record from the calls README documents, in its
    order: ``exponential(N_D)``, ``normal(N_C)``, ``permutation(N_D)``,
    ``dirichlet_ones(N_D + 1)`` (through the schedule) and ``uniform(n +
    1)``."""
    nd = widths.size
    k = rng.exponential(nd)
    p = rng.normal(nc)
    perm = rng.permutation(nd)
    schedule = get_step_sizes_n_steps(params, nd, rng)
    sites = perm[np.arange(params.L * params.n_D) % nd]
    drawn = np.append(widths[sites] > 2, True)
    u = np.full(drawn.size, np.nan)
    u[drawn] = rng.uniform(drawn.sum())
    if params.mass_diag is not None:
        p = p * np.sqrt(params.mass_diag)
    return k, p, sites, widths[sites], schedule, u


class TestNoise:
    @pytest.mark.parametrize("widths,nc,params", [
        ([4], 1, LaplaceKernelParams(epsilon=0.5, T=4.5, L=18)),
        ([2] * 20, 20, LaplaceKernelParams(epsilon=0.15, T=3.0, L=20,
                                           n_D=2)),
        ([2, 3, 2, 3, 3], 2, LaplaceKernelParams(epsilon=0.3, T=2.0, L=6,
                                                 n_D=2)),
        ([3, 4], 3, LaplaceKernelParams(epsilon=0.3, T=2.0, L=5,
                                        mass_diag=[0.5, 2.0, 3.0])),
    ], ids=["four_values", "binary20", "mixed", "mass_diag"])
    def test_matches_per_chain_reference(self, widths, nc, params):
        """The lockstep draws equal, bit for bit, each chain's own record
        drawn with the documented calls one chain at a time, and leave
        each stream at the same place."""
        widths = np.array(widths, dtype=np.int64)
        n = 5
        rngs = [ChainRng(26, c) for c in range(n)]
        clones = [ChainRng(26, c) for c in range(n)]
        k, p, sites, width, (eta, n_steps), u = _noise(params, nc, rngs,
                                                       widths)
        for r, clone in enumerate(clones):
            want = _noise_reference(params, nc, clone, widths)
            assert np.array_equal(k[r], want[0])
            assert np.array_equal(p[r], want[1])
            assert np.array_equal(sites[:, r], want[2])
            assert np.array_equal(width[:, r], want[3])
            assert np.array_equal(eta[r], want[4].eta)
            assert np.array_equal(n_steps[r], want[4].n_steps)
            assert np.array_equal(u[:, r], want[5], equal_nan=True)
            assert rngs[r].uniform() == clone.uniform()


class TestStuckChain:
    def test_stats_against_replayed_schedule(self):
        """A chain with no finite proposal at its first proposal moves no
        site, even where its weights turn finite again later, is rejected
        and counted divergent, and counts the gradients of its first
        leapfrog round only; a batch-mate below the wall still moves.  The
        noise is replayed from cloned streams."""
        _check_stuck_chains(40)

    def test_stuck_chains_take_zero_length_steps(self):
        """From the round they get stuck in, stuck chains take zero-length
        steps: the batch makes only the moving chain's gradient calls, its
        refreshes and its steps.  On these draws a stuck chain's later
        rounds take more steps than the moving chain's."""
        steps = _check_stuck_chains(43)
        assert (steps[:2, 1:].max(axis=0) > steps[2, 1:]).any()


def _check_stuck_chains(seed):
    """Step chains 0 and 1 into a wall of non-finite weights at their
    first proposal, and chain 2 below it, on streams ``seed``; check their
    states, stats and the batch's gradient calls, and return the chains'
    ``(3, L)`` step counts."""
    model = _counting(WallModel())
    params = LaplaceKernelParams(epsilon=0.1, T=1.0, L=4)
    p, sched = [], []
    for c in range(3):
        clone = ChainRng(seed, c)
        clone.exponential(1)
        p.append(clone.normal(1)[0])
        clone.permutation(1)
        sched.append(get_step_sizes_n_steps(params, 1, clone))
    # Chain 0 stays above the wall.  Chain 1 moves down: it is above the
    # wall at its first proposal and below it at its last.  Chain 2 stays
    # below the wall.
    assert p[1] < 0
    first = sched[1].eta[0] * sched[1].n_steps[0]
    q0 = np.array([[50.0], [-0.5 * (first + params.T) * p[1]], [-50.0]])
    assert q0[1, 0] + first * p[1] > 0 > q0[1, 0] + params.T * p[1]
    x0 = np.zeros((3, 1), dtype=np.int64)
    x, q, stats = laplace_step_batch(x0, q0, params, model,
                                     [ChainRng(seed, c) for c in range(3)])
    for c in (0, 1):
        assert stats.divergent[c] and not stats.accepted[c]
        assert np.isnan(stats.energy_error[c])
        assert np.array_equal(x[c], x0[c])
        assert np.array_equal(q[c], q0[c])
        assert stats.n_discrete_accepts[c] == 0
        assert stats.n_grad_evals[c] == sched[c].n_steps[0] + 1
    # Equal weights make every move free, so each proposal is taken.
    assert not stats.divergent[2] and stats.accepted[2]
    assert stats.energy_error[2] == 0.0
    assert stats.n_discrete_accepts[2] == params.L
    assert stats.n_grad_evals[2] == (sched[2].n_steps + 1).sum()
    assert q[2, 0] == pytest.approx(-50.0 + params.T * p[2], abs=1e-12)
    # The model is called one row at a time, so a call on the stack counts
    # once per row: the start and first round on all three rows, then, in
    # each later round, chain 2's refresh on its row alone and its own
    # steps on the stack.
    steps = np.array([s.n_steps for s in sched])
    assert len(model.calls) == 3 * (1 + steps[:, 0].max()) + sum(
        1 + 3 * steps[2, t] for t in range(1, params.L))
    return steps


def _counting(model):
    """``model`` with its ``grad_q`` calls counted in ``model.calls``, one
    entry per call holding the number of rows."""
    class Counting(type(model)):
        def grad_q(self, x, q):
            self.calls.append(len(x) if x.ndim == 2 else 1)
            return super().grad_q(x, q)

    counted = copy.copy(model)
    counted.__class__ = Counting
    counted.calls = []
    return counted


class TestGradientReuse:
    def test_gmm24_one_call_at_the_start(self):
        """On gmm24 from exact draws z does not move, so a batch step makes
        one gradient call at the start and one per leapfrog step of its
        longest row in each round, L - 1 fewer than one more per round, and
        each chain counts one plus its own steps."""
        model = _counting(gmm24_preset())
        params = LaplaceKernelParams(epsilon=1.7, T=136.0, L=80)
        n = 4
        inits = [model.initial_point(ChainRng(30, c)) for c in range(n)]
        rngs = [ChainRng(31, c) for c in range(n)]
        x = np.array([p.x for p in inits])
        q = np.array([p.q for p in inits])
        for _ in range(3):
            steps = []
            for clone in copy.deepcopy(rngs):
                clone.exponential(1)
                clone.normal(24)
                clone.permutation(1)
                steps.append(get_step_sizes_n_steps(params, 1, clone).n_steps)
            steps = np.array(steps)
            model.calls.clear()
            x, q, stats = laplace_step_batch(x, q, params, model, rngs)
            assert stats.n_discrete_accepts.tolist() == [0] * n
            assert len(model.calls) == 1 + steps.max(axis=0).sum()
            assert np.array_equal(stats.n_grad_evals, 1 + steps.sum(axis=1))

    @pytest.mark.parametrize("name", ["mixed_sites", "blr", "cliff_well"])
    def test_count_is_calls_alone(self, name):
        """A chain stepping alone makes exactly the gradient calls its
        n_grad_evals counts: one at the start, one per leapfrog step, and one
        for each round that begins after it moved, on a row subset."""
        case = next(c for c in BATCH_CASES if c[0] == name)
        model, params = _counting(case[1]), case[2]
        rng = ChainRng(32, 0)
        pt = (model.initial_point(ChainRng(33, 0))
              if hasattr(model, "initial_point")
              else MixedPoint(np.zeros(model.n_discrete, dtype=np.int64),
                              np.array([0.3])))
        moves = 0
        for _ in range(30):
            model.calls.clear()
            pt, stats = laplace_step(pt, params, model, rng)
            assert sum(model.calls) == stats.n_grad_evals
            moves += stats.n_discrete_accepts
        assert moves > 0


class TestSureRejections:
    def test_gmm24_calls_no_informed_rows(self):
        """On gmm24 from exact draws every four-value proposal costs far more
        than its site energy, so the lockstep steps skip them all without
        drawing a proposal."""
        model = gmm24_preset()
        params = LaplaceKernelParams(epsilon=1.7, T=13.6, L=8)
        start = model.exact_sample(ChainRng(34, 0), 48)
        x, q = start[:, :1].astype(np.int64), start[:, 1:]
        rngs = [ChainRng(35, c) for c in range(48)]
        with mock.patch("mixedhmc.core.informed_rows",
                        wraps=informed_rows) as proposals:
            for _ in range(5):
                x, q, stats = laplace_step_batch(x, q, params, model, rngs)
                assert stats.accepted.any()
        assert proposals.call_count == 0


class TestStationarity:
    def test_exact_start_stays_exact(self):
        """Chains started from exact draws remain indistinguishable from the
        exact sampler after 50 steps (two-sample K-S at alpha=0.01)."""
        model = gmm1d_preset()
        params = LaplaceKernelParams(epsilon=0.45, T=4.0, L=20)
        n_points = 300
        steps = 50
        rng_init = ChainRng(14, 0)
        init_rows = model.exact_sample(rng_init, n_points)
        x = init_rows[:, :1].astype(np.int64)
        q = init_rows[:, 1:]
        rngs = [ChainRng(15, i) for i in range(n_points)]
        for _ in range(steps):
            x, q, _ = laplace_step_batch(x, q, params, model, rngs)
        finals = q[:, 0]
        ref = model.exact_sample(ChainRng(16, 0), 20_000)[:, 1]
        crit = 1.628 * np.sqrt((n_points + ref.size) / (n_points * ref.size))
        d_init = ks_two_sample(init_rows[:, 1], ref)
        d_final = ks_two_sample(finals, ref)
        assert d_init < crit
        assert d_final < crit
