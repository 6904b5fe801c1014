import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal, stats

from mixedhmc import ChainRng, ChainOutput
from mixedhmc.diagnostics import (DegenerateDimensionWarning, ess,
                                  ks_two_sample, mress)
from oracle import ess_reference


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

    def test_columns_rejected(self):
        """A (chains, length, columns) array is not one dimension."""
        draws = ChainRng(11, 0).normal((4, 100, 3))
        with pytest.raises(ValueError, match=r"got \(4, 100, 3\)"):
            ess(draws)


@st.composite
def _chains(draw):
    """1-9 chains of one length in 8-400, of one of six kinds."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(8, 400))
    kind = draw(st.sampled_from(["ar1", "antithetic", "random_walk", "iid",
                                 "constant", "three_values"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ar1":
        rho = draw(st.floats(-0.95, 0.99))
        e = rng.normal(size=(m, n)) * np.sqrt(1.0 - rho * rho)
        e[:, 0] = rng.normal(size=m)
        return signal.lfilter([1.0], [1.0, -rho], e, axis=1)
    if kind == "antithetic":
        x = np.abs(rng.normal(size=(m, n))) + 1.0
        x[:, 1::2] *= -1.0
        return x
    if kind == "random_walk":
        return rng.normal(size=(m, n)).cumsum(axis=1)
    if kind == "iid":
        return rng.normal(size=(m, n)) * 10.0 ** draw(st.floats(-8.0, 8.0))
    if kind == "constant":  # each chain at its own value
        return np.repeat(rng.normal(size=(m, 1)) * 100.0, n, axis=1)
    return rng.integers(0, 3, size=(m, n)).astype(float)


def _ess_and_warned(estimator, chains):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateDimensionWarning)
        value = estimator(chains)
    return value, any(issubclass(w.category, DegenerateDimensionWarning)
                      for w in caught)


class TestEssMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_chains())
    def test_same_estimate(self, chains):
        """The array form gives the loop form's ESS: the same split, the
        same truncation after the first negative pair, the same monotone
        pair sums; either both warn of a zero-variance dimension or
        neither does."""
        got, got_warned = _ess_and_warned(ess, chains)
        want, want_warned = _ess_and_warned(ess_reference, chains)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-12)
        assert got_warned == want_warned

    @pytest.mark.parametrize("m, n", [(1, 8), (3, 9), (9, 400)])
    def test_all_constant(self, m, n):
        chains = np.full((m, n), -2.5)
        for estimator in (ess, ess_reference):
            with pytest.warns(DegenerateDimensionWarning):
                assert estimator(chains) == m * n

    def test_constant_halves(self):
        """An odd chain whose only differing draw is the middle one, which
        the split drops: the second zero-variance check warns."""
        chains = np.ones((2, 9))
        chains[0, 4] = 5.0
        for estimator in (ess, ess_reference):
            with pytest.warns(DegenerateDimensionWarning):
                assert estimator(chains) == 18.0


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
