import numpy as np
import pytest

from mixedhmc import ChainRng, MixedPoint, ModelSpec
from mixedhmc.baselines import (
    NaiveParams,
    gibbs_mh_sweep,
    naive_mixed_hmc_step,
    run_gibbs_chain,
    run_naive_chain,
)
from mixedhmc.diagnostics import ess, ks_two_sample
from mixedhmc.models import (
    GaussianMixture,
    GmmSpec,
    binary_quadratic_enumerate,
    gmm1d_preset,
    random_binary_quadratic,
)

NAIVE = NaiveParams(epsilon=0.45, L=10, use_k=True)


class FlatQ(ModelSpec):
    """Potential independent of the continuous coordinates."""

    @property
    def n_discrete(self):
        return 2

    @property
    def n_continuous(self):
        return 2

    def site_cardinality(self, j):
        return 2

    def potential(self, x, q):
        return 0.4 * float(x[0]) - 0.2 * float(x[1])

    def grad_q(self, x, q):
        return np.zeros(2)


class TestNaiveStep:
    def test_symmetric_two_component_always_accepts_flips(self):
        """Two identical components: every discrete move costs nothing, so
        with the kinetic bookkeeping the flip always happens.  With odd L the
        label is flipped after the step, with even L it returns."""
        spec = GmmSpec(np.array([0.5, 0.5]), np.array([[0.0], [0.0]]),
                       np.array([[1.0], [1.0]]))
        model = GaussianMixture(spec)
        rng = ChainRng(1, 0)
        z, q = 0, 0.1
        for step in range(60):
            z_prev = z
            z, q, accepted = naive_mixed_hmc_step(z, q, NaiveParams(0.3, 7, True),
                                                  model, rng)
            assert accepted  # identical components: the energy is conserved
            assert z == 1 - z_prev  # odd L flips the label every time

    def test_even_l_returns_label(self):
        spec = GmmSpec(np.array([0.5, 0.5]), np.array([[0.0], [0.0]]),
                       np.array([[1.0], [1.0]]))
        model = GaussianMixture(spec)
        rng = ChainRng(2, 0)
        z, q = 1, -0.4
        for _ in range(40):
            z, q, _ = naive_mixed_hmc_step(z, q, NaiveParams(0.3, 8, True),
                                           model, rng)
            assert z == 1

    def test_requires_one_dimensional_mixture(self):
        from mixedhmc.models import gmm24_preset
        with pytest.raises(ValueError):
            naive_mixed_hmc_step(0, 0.0, NAIVE, gmm24_preset(), ChainRng(0, 0))

    def test_tracked_energy_frequencies(self):
        """use_k=True samples the correct component frequencies."""
        model = gmm1d_preset()
        rng = ChainRng(3, 0)
        out = run_naive_chain(model.initial_point(rng), NAIVE, model,
                              200, 50_000, rng)
        freqs = np.bincount(out.samples[:, 0].astype(int), minlength=4) / 50_000
        assert np.abs(freqs - model.spec.weights).max() < 0.05

    def test_fresh_threshold_vs_tracked_energy_bias(self):
        """use_k=False is systematically biased: its distance to the exact
        sampler stays well above the correct variant's at matched budgets.

        Pooled over independent streams so the correct variant's own mixing
        noise does not mask the bias."""
        model = gmm1d_preset()
        qs = {}
        for use_k in (True, False):
            params = NaiveParams(epsilon=0.55, L=9, use_k=use_k)
            pooled = []
            for stream in range(16):
                rng = ChainRng(2026, stream)
                out = run_naive_chain(model.initial_point(rng), params, model,
                                      100, 12_500, rng)
                pooled.append(out.samples[:, 1])
            qs[use_k] = np.concatenate(pooled)
        ref = model.exact_sample(ChainRng(2026, 99), 200_000)[:, 1]
        d_true = ks_two_sample(qs[True], ref)
        d_false = ks_two_sample(qs[False], ref)
        assert d_false >= 2.0 * d_true

    def test_deterministic(self):
        model = gmm1d_preset()
        runs = []
        for _ in range(2):
            rng = ChainRng(6, 1)
            out = run_naive_chain(MixedPoint(np.array([1]), np.array([0.0])),
                                  NAIVE, model, 10, 100, rng)
            runs.append(out.samples)
        assert np.array_equal(runs[0], runs[1])


class TestNaiveLaplaceAgreement:
    def test_distributionally_equivalent_on_the_mixture(self):
        """The tracked-energy naive loop is the single-site specialization of
        the scheduled kernel; their outputs agree distributionally (K-S gated
        by effective sample sizes)."""
        from mixedhmc import LaplaceKernelParams, run_chain

        model = gmm1d_preset()
        n_chains, n = 6, 4000
        qs_naive, qs_laplace = [], []
        for c in range(n_chains):
            rng = ChainRng(7, c)
            out = run_naive_chain(model.initial_point(rng), NAIVE, model,
                                  200, n, rng)
            qs_naive.append(out.samples[:, 1])
            rng2 = ChainRng(8, c)
            out2 = run_chain(model.initial_point(rng2),
                             LaplaceKernelParams(epsilon=0.5, T=4.5, L=18),
                             model, 200, n, rng2)
            qs_laplace.append(out2.samples[:, 1])
        a = np.concatenate(qs_naive)
        b = np.concatenate(qs_laplace)
        crit = 1.628 * np.sqrt(1.0 / ess(qs_naive) + 1.0 / ess(qs_laplace))
        assert ks_two_sample(a, b) < crit


class TestGibbs:
    def test_flat_continuous_always_accepts_walk(self):
        model = FlatQ()
        rng = ChainRng(9, 0)
        pt = MixedPoint(np.array([0, 1]), np.zeros(2))
        for _ in range(50):
            new = gibbs_mh_sweep(pt, model, rw_scale=0.7, rng=rng)
            assert not np.array_equal(new.q, pt.q)  # accept probability 1
            pt = new

    def test_binary_marginals_vs_enumeration(self):
        model = random_binary_quadratic(6, ChainRng(10, 0))
        exact, _ = binary_quadratic_enumerate(model.spec)
        rng = ChainRng(11, 0)
        out = run_gibbs_chain(model.initial_point(rng), model, 1.0, 500,
                              100_000, rng)
        err = np.abs(out.samples.mean(axis=0) - exact).max()
        assert err < 0.01

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            gibbs_mh_sweep(MixedPoint(np.array([0, 0]), np.zeros(2)), FlatQ(),
                           0.0, ChainRng(0, 0))


class TestNaiveParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NaiveParams(epsilon=0.0, L=5)
        with pytest.raises(ValueError):
            NaiveParams(epsilon=0.1, L=0)
