import numpy as np
import pytest
from scipy import signal, stats

from mixedhmc import ChainRng, ChainOutput
from mixedhmc.diagnostics import (DegenerateDimensionWarning, ess,
                                  ks_two_sample, mress)


def ar1_chain(rho, n, rng):
    e = rng.normal(n) * np.sqrt(1.0 - rho * rho)
    e[0] = rng.normal()
    return signal.lfilter([1.0], [1.0, -rho], e)


def as_output(chain):
    chain = np.asarray(chain)
    return ChainOutput(samples=chain[:, None],
                       accept_trace=np.ones(chain.size, dtype=bool))


class TestEss:
    def test_iid_near_nominal(self):
        rng = ChainRng(1, 0)
        chains = [rng.normal(5000) for _ in range(4)]
        rel = ess(chains) / 20000
        assert 0.8 <= rel <= 1.2

    def test_ar1_matches_analytic(self):
        """AR(1) with coefficient rho has ESS/n -> (1-rho)/(1+rho)."""
        rho = 0.9
        rng = ChainRng(2, 0)
        chains = [ar1_chain(rho, 20000, rng) for _ in range(4)]
        rel = ess(chains) / 80000
        want = (1 - rho) / (1 + rho)
        assert abs(rel - want) / want < 0.3

    def test_constant_chains_flagged(self):
        with pytest.warns(DegenerateDimensionWarning):
            value = ess([np.ones(100), np.ones(100)])
        assert value == 200.0

    def test_affine_invariance(self):
        rng = ChainRng(3, 0)
        chains = np.array([ar1_chain(0.5, 2000, rng) for _ in range(3)])
        a = ess(chains)
        b = ess(chains * 3.7 - 11.0)
        assert abs(a - b) / a < 1e-10

    def test_monotone_degradation_with_autocorrelation(self):
        rng_a = ChainRng(4, 0)
        rng_b = ChainRng(4, 0)  # matched seeds
        mild = [ar1_chain(0.5, 10000, rng_a) for _ in range(4)]
        strong = [ar1_chain(0.9, 10000, rng_b) for _ in range(4)]
        assert ess(mild) > ess(strong)

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            ess([np.arange(4.0)])


class TestMress:
    def test_single_dimension_equals_relative_ess(self):
        rng = ChainRng(5, 0)
        chains = [rng.normal(2000) for _ in range(4)]
        outputs = [as_output(c) for c in chains]
        assert mress(outputs, [0]) == pytest.approx(ess(chains) / 8000)

    def test_iid_multivariate_near_one(self):
        rng = ChainRng(6, 0)
        outputs = []
        for _ in range(4):
            outputs.append(ChainOutput(samples=rng.normal((3000, 3)),
                                       accept_trace=np.ones(3000, dtype=bool)))
        value = mress(outputs, [0, 1, 2])
        assert 0.8 <= value <= 1.2

    def test_antithetic_chains_may_exceed_one(self):
        """Alternating-sign chains are super-efficient for the mean; the
        estimate is permitted to exceed 1 (no cap)."""
        rng = ChainRng(7, 0)
        outputs = []
        for _ in range(2):
            base = np.abs(rng.normal(4000)) + 1.0
            base[1::2] *= -1.0
            outputs.append(as_output(base))
        assert mress(outputs, [0]) > 1.0


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([0.3, -1.0, 2.0, 0.7])
        assert ks_two_sample(a, a) == 0.0

    def test_disjoint_singletons(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_null_scale(self):
        rng = ChainRng(8, 0)
        a = rng.normal(10000)
        b = rng.normal(10000)
        assert ks_two_sample(a, b) < 0.03

    def test_symmetry(self):
        rng = ChainRng(9, 0)
        a = rng.normal(500)
        b = rng.normal(700) + 0.3
        assert ks_two_sample(a, b) == ks_two_sample(b, a)

    def test_matches_scipy(self):
        rng = ChainRng(10, 0)
        for _ in range(10):
            a = rng.normal(int(200 + rng.uniform() * 300))
            b = rng.normal(int(100 + rng.uniform() * 500)) * 1.4
            want = stats.ks_2samp(a, b).statistic
            assert ks_two_sample(a, b) == pytest.approx(want, abs=1e-14)

    def test_ties_match_scipy(self):
        a = np.array([0, 0, 1, 1, 2, 2, 2], dtype=float)
        b = np.array([0, 1, 1, 2, 3], dtype=float)
        want = stats.ks_2samp(a, b).statistic
        assert ks_two_sample(a, b) == pytest.approx(want, abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestChainOutput:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChainOutput(samples=np.zeros((5, 2)),
                        accept_trace=np.ones(4, dtype=bool))
