import math
from unittest import mock

import numpy as np
import pytest

from mixedhmc import (
    ChainRng,
    DegenerateSiteError,
    KineticEnergy,
    MixedPoint,
    ModelSpec,
    default_proposal_sample,
    delta_E,
)
from mixedhmc.core import (NonFiniteWeightsError, forced_delta,
                           informed_rows, propose_and_delta)
from mixedhmc.models import gmm1d_preset, random_binary_quadratic


class UniformSites(ModelSpec):
    """All states equally likely; configurable cardinalities."""

    def __init__(self, cards, n_continuous=0):
        self.cards = list(cards)
        self._nc = n_continuous

    @property
    def n_discrete(self):
        return len(self.cards)

    @property
    def n_continuous(self):
        return self._nc

    def site_cardinality(self, j):
        return self.cards[j]

    def potential(self, x, q):
        return 3.0

    def grad_q(self, x, q):
        return np.zeros(self._nc)


class ShiftingSite(ModelSpec):
    """One site whose conditional weights move with q:
    ``U(x, q) = offsets[x] + (q - centers[x])^2 / 2``."""

    def __init__(self, centers, offsets):
        self.centers = np.asarray(centers, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.float64)

    @property
    def n_discrete(self):
        return 1

    @property
    def n_continuous(self):
        return 1

    def site_cardinality(self, j):
        return self.centers.size

    def potential(self, x, q):
        return self.offsets[x[0]] + 0.5 * (q[0] - self.centers[x[0]]) ** 2

    def grad_q(self, x, q):
        return np.array([q[0] - self.centers[x[0]]])


class TestMixedPoint:
    def test_validate_accepts_valid(self):
        m = UniformSites([2, 3], n_continuous=2)
        MixedPoint(np.array([1, 2]), np.array([0.5, -1.0])).validate(m)

    def test_validate_rejects_bad_shapes_and_values(self):
        m = UniformSites([2, 3], n_continuous=2)
        with pytest.raises(ValueError):
            MixedPoint(np.array([1]), np.zeros(2)).validate(m)
        with pytest.raises(ValueError):
            MixedPoint(np.array([1, 3]), np.zeros(2)).validate(m)
        with pytest.raises(ValueError):
            MixedPoint(np.array([1, 2]), np.array([np.inf, 0.0])).validate(m)


class TestKineticEnergy:
    @pytest.mark.parametrize("beta", [2.0 / 3.0, 1.0, 2.0, 3.5])
    def test_kinv_inverts_k(self, beta):
        kin = KineticEnergy(beta)
        rng = ChainRng(1, 0)
        p = rng.normal(1000) * 3.0
        mag = kin.kinv(kin.k(p))
        assert np.all(np.abs(mag - np.abs(p)) <= 1e-12 * np.abs(p))

    def test_nonnegative_and_zero_at_origin(self):
        kin = KineticEnergy(1.0)
        assert kin.k(0.0) == 0.0
        assert np.all(kin.k(np.linspace(-5, 5, 101)) >= 0.0)

    def test_beta_one_samples_are_laplace(self):
        kin = KineticEnergy(1.0)
        rng = ChainRng(3, 0)
        p = kin.sample(rng, 200_000)
        # |p| ~ Exponential(1) under Laplace momentum
        assert abs(np.abs(p).mean() - 1.0) < 0.01
        assert abs((p > 0).mean() - 0.5) < 0.01

    def test_beta_two_samples_are_gaussian(self):
        # nu ∝ exp(-p^2) is N(0, 1/2)
        kin = KineticEnergy(2.0)
        p = kin.sample(ChainRng(4, 0), 200_000)
        assert abs(p.var() - 0.5) < 0.01
        assert abs(p.mean()) < 0.01

    def test_sampled_energy_has_gamma_moments(self):
        # k(p) = |p|^beta ~ Gamma(1/beta, 1) for any beta
        for beta, seed in ((2.0 / 3.0, 5), (1.5, 6)):
            kin = KineticEnergy(beta)
            e = kin.k(kin.sample(ChainRng(seed, 0), 200_000))
            shape = 1.0 / beta
            assert abs(e.mean() - shape) < 0.02 * shape + 0.01
            assert abs(e.var() - shape) < 0.05 * shape + 0.02

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            KineticEnergy(0.0)


class TestDefaultProposal:
    def test_binary_site_is_deterministic_flip(self):
        m = UniformSites([2])
        rng = ChainRng(0, 0)
        x = np.array([0])
        xt, lf, lb = default_proposal_sample(0, x, np.zeros(0), m, rng)
        assert xt[0] == 1 and lf == 0.0 and lb == 0.0

    def test_uniform_four_values(self):
        m = UniformSites([4])
        rng = ChainRng(0, 0)
        x = np.array([1])
        counts = np.zeros(4)
        for _ in range(30000):
            xt, lf, lb = default_proposal_sample(0, x, np.zeros(0), m, rng)
            counts[xt[0]] += 1
            assert lf == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)
            assert lb == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)
        assert counts[1] == 0
        assert np.abs(counts[[0, 2, 3]] / 30000 - 1.0 / 3.0).max() < 0.02

    def test_degenerate_site_raises(self):
        m = UniformSites([1])
        with pytest.raises(DegenerateSiteError):
            default_proposal_sample(0, np.array([0]), np.zeros(0), m,
                                    ChainRng(0, 0))

    def test_gmm_proposal_matches_direct_normalization(self):
        """Sampled frequencies vs probabilities computed straight from the
        potential by explicit normalization over the alternatives."""
        model = gmm1d_preset()
        q = np.array([-2.0])
        x = np.array([1])
        # oracle: normalize exp(-U(z, q)) over z != 1 using potential() only
        pots = np.array([model.potential(np.array([z]), q) for z in range(4)])
        w = np.exp(-(pots - pots.min()))
        w[1] = 0.0
        oracle = w / w.sum()

        rng = ChainRng(42, 0)
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            xt, _, _ = default_proposal_sample(0, x, q, model, rng)
            counts[xt[0]] += 1
        assert np.abs(counts / n - oracle).max() < 0.01

    def test_never_proposes_current_value(self):
        models = [gmm1d_preset(), UniformSites([3, 5, 2]),
                  random_binary_quadratic(4, ChainRng(7, 0))]
        rng = ChainRng(8, 0)
        for _ in range(10_000):
            m = models[int(rng.uniform() * len(models))]
            j = int(rng.uniform() * m.n_discrete)
            x = np.array([int(rng.uniform() * m.site_cardinality(i))
                          for i in range(m.n_discrete)])
            q = rng.normal(m.n_continuous) if m.n_continuous else np.zeros(0)
            q = np.atleast_1d(q) if m.n_continuous else np.zeros(0)
            xt, _, _ = default_proposal_sample(j, x, q, m, rng)
            assert xt[j] != x[j]
            assert np.all(np.delete(xt, j) == np.delete(x, j))

    def test_reverse_proposal_consistency(self):
        """exp(log_bwd) equals the probability the proposal at (j, x_tilde, q)
        assigns to returning to x, computed by direct normalization."""
        model = gmm1d_preset()
        rng = ChainRng(11, 0)
        for _ in range(200):
            x = np.array([int(rng.uniform() * 4)])
            q = np.atleast_1d(rng.normal()) * 3.0
            xt, lf, lb = default_proposal_sample(0, x, q, model, rng)
            pots = np.array([model.potential(np.array([z]), q)
                             for z in range(4)])
            w = np.exp(-(pots - pots.min()))
            w[xt[0]] = 0.0
            back_prob = w[x[0]] / w.sum()
            assert math.exp(lb) == pytest.approx(back_prob, abs=1e-10)


class TestDeltaE:
    def test_symmetric_flip_is_zero(self):
        m = UniformSites([2, 2])
        x = np.array([0, 1])
        xt = np.array([1, 1])
        assert delta_E(x, xt, np.zeros(0), 0.0, 0.0, m) == 0.0

    def test_brute_force_three_site_binary(self):
        """Both sides of the move-cost formula agree when Q probabilities are
        enumerated explicitly from the potential over all 2^3 states."""
        model = random_binary_quadratic(3, ChainRng(13, 0))
        rng = ChainRng(14, 0)
        for xi in range(8):
            x = np.array([(xi >> b) & 1 for b in range(3)])
            for j in range(3):
                xt, lf, lb = default_proposal_sample(j, x, np.zeros(0), model,
                                                     rng)
                got = delta_E(x, xt, np.zeros(0), lf, lb, model)
                # independent evaluation: binary Q's are deterministic flips,
                # so Q(xt|x) = Q(x|xt) = 1.
                want = (model.potential(xt, np.zeros(0))
                        - model.potential(x, np.zeros(0)))
                assert got == pytest.approx(want, abs=1e-12)

    def test_gmm_closed_form(self):
        """Move between the means-0 and means-2 components at q=2."""
        model = gmm1d_preset()
        phi = model.spec.weights
        mu = model.spec.means[:, 0]
        var = 0.1
        q = np.array([2.0])
        x = np.array([1])
        xt = np.array([2])
        lf, lb = -0.3, -0.7  # arbitrary proposal corrections
        got = delta_E(x, xt, q, lf, lb, model)
        want = (math.log(phi[1]) - math.log(phi[2])
                + 0.5 * (q[0] - mu[2]) ** 2 / var
                - 0.5 * (q[0] - mu[1]) ** 2 / var
                + (lf - lb))
        assert got == pytest.approx(want, abs=1e-12)

    def test_antisymmetry(self):
        model = gmm1d_preset()
        rng = ChainRng(17, 0)
        for _ in range(500):
            x = np.array([int(rng.uniform() * 4)])
            q = np.atleast_1d(rng.normal()) * 2.0
            xt, lf, lb = default_proposal_sample(0, x, q, model, rng)
            fwd = delta_E(x, xt, q, lf, lb, model)
            bwd = delta_E(xt, x, q, lb, lf, model)
            assert fwd == pytest.approx(-bwd, abs=1e-12)


class TestFastPaths:
    def test_propose_and_delta_matches_public_ops(self):
        """The kernel fast path draws the same value and produces the same
        energy cost as default_proposal_sample followed by delta_E."""
        models = [gmm1d_preset()] + [
            ShiftingSite(np.linspace(-3.0, 3.0, card), np.cos(np.arange(card)))
            for card in (3, 5, 20)]
        for model in models:
            card = model.site_cardinality(0)
            for seed in range(40):
                x = np.array([seed % card])
                q = np.atleast_1d(ChainRng(seed, 3).normal()) * 2.5
                a = ChainRng(seed, 1)
                b = ChainRng(seed, 1)
                new, d_fast = propose_and_delta(0, x, q, model, a)
                xt, lf, lb = default_proposal_sample(0, x, q, model, b)
                assert xt[0] == new
                d_ref = delta_E(x, xt, q, lf, lb, model)
                assert d_fast == pytest.approx(d_ref, abs=1e-10)

        # The current value outweighs both alternatives by e^800, beyond the
        # float range, so the backward normalizer overflows and the cost
        # comes from forced_delta.
        model = ShiftingSite([0.0, 40.0, 41.0], [0.0, 0.0, 0.0])
        x, q = np.array([0]), np.array([0.0])
        with mock.patch("mixedhmc.core.forced_delta",
                        wraps=forced_delta) as fallback:
            new, d_fast = propose_and_delta(0, x, q, model, ChainRng(0, 1))
        assert fallback.call_count == 1
        xt, lf, lb = default_proposal_sample(0, x, q, model, ChainRng(0, 1))
        assert xt[0] == new
        d_ref = delta_E(x, xt, q, lf, lb, model)
        assert d_ref == pytest.approx(800.0, rel=1e-12)
        assert d_fast == pytest.approx(d_ref, abs=1e-10)

    def test_propose_and_delta_raises_on_no_finite_alternative(self):
        """Zero or NaN weight on every other value is a NonFiniteWeightsError
        (counted as a divergence by the kernels); the rows of a batch call
        report it row by row."""
        for offsets in ([0.0, np.inf, np.inf], [0.0, np.nan, np.inf]):
            model = ShiftingSite([0.0, 1.0, 2.0], offsets)
            with pytest.raises(NonFiniteWeightsError):
                propose_and_delta(0, np.array([0]), np.array([0.3]), model,
                                  ChainRng(0, 2))
        model = ShiftingSite([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        x = np.array([[0], [0]])
        q = np.array([[0.3], [0.3]])
        neglogp = np.array([[0.0, np.inf, np.inf], [0.0, 0.5, 1.0]])
        new, delta, ok = informed_rows(np.zeros(2, dtype=np.int64), x, q,
                                       model, neglogp, np.array([0.5, 0.5]))
        assert ok.tolist() == [False, True]
        assert new[1] in (1, 2) and np.isfinite(delta[1])

    def test_forced_delta_matches(self):
        model = gmm1d_preset()
        rng = ChainRng(23, 0)
        for _ in range(100):
            x = np.array([int(rng.uniform() * 4)])
            q = np.atleast_1d(rng.normal()) * 2.0
            xt, lf, lb = default_proposal_sample(0, x, q, model, rng)
            want = delta_E(x, xt, q, lf, lb, model)
            got = forced_delta(0, x, q, model, int(xt[0]))
            assert got == pytest.approx(want, abs=1e-10)

    def test_forced_delta_rejects_noop(self):
        model = gmm1d_preset()
        with pytest.raises(ValueError):
            forced_delta(0, np.array([1]), np.array([0.0]), model, 1)


class TestModelContract:
    def test_default_site_cond_adapter(self):
        """A model without a site_cond override still satisfies the
        consistency identity through repeated potential evaluation."""

        class Plain(ModelSpec):
            @property
            def n_discrete(self):
                return 2

            @property
            def n_continuous(self):
                return 1

            def site_cardinality(self, j):
                return 3

            def potential(self, x, q):
                return float(x[0]) * 0.7 - float(x[1]) * 1.3 + 0.5 * q[0] ** 2

            def grad_q(self, x, q):
                return q.copy()

        m = Plain()
        x = np.array([1, 2])
        q = np.array([0.4])
        for j in range(2):
            w = m.site_cond_neglogp(j, x, q)
            for v in range(3):
                xv = x.copy()
                xv[j] = v
                lhs = w[x[j]] - w[v]
                rhs = m.potential(x, q) - m.potential(xv, q)
                assert lhs == pytest.approx(rhs, abs=1e-10)
