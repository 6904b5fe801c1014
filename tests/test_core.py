import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedhmc import ChainRng, KineticEnergy, MixedPoint, ModelSpec
from mixedhmc.core import (DegenerateSiteError, NonFiniteWeightsError,
                           RowModel, _log_space_delta, _sure_rejections,
                           informed_rows, leapfrog, propose_and_delta,
                           site_proposals, site_widths)
from mixedhmc.models import (GaussianMixture, GmmSpec, gmm1d_preset,
                             random_binary_quadratic)
from mixedhmc.runner import run_chains
from oracle import default_proposal_sample, delta_E, forced_delta


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
        # comes from the log-space fallback, priced from the one
        # conditional evaluation.
        model = ShiftingSite([0.0, 40.0, 41.0], [0.0, 0.0, 0.0])
        x, q = np.array([0]), np.array([0.0])
        with mock.patch("mixedhmc.core._log_space_delta",
                        wraps=_log_space_delta) as fallback, \
                mock.patch.object(model, "site_cond_neglogp",
                                  wraps=model.site_cond_neglogp) as cond:
            new, d_fast = propose_and_delta(0, x, q, model, ChainRng(0, 1))
        assert fallback.call_count == 1
        assert cond.call_count == 1
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
        neglogp = np.array([[0.0, np.inf, np.inf], [0.0, 0.5, 1.0]])
        new, delta, ok = informed_rows(neglogp, np.zeros(2, dtype=int),
                                       np.array([0.5, 0.5]))
        assert ok.tolist() == [False, True]
        assert new[1] in (1, 2) and np.isfinite(delta[1])

    def test_propose_and_delta_refuses_a_one_value_site(self):
        with pytest.raises(DegenerateSiteError, match="cardinality 1"):
            propose_and_delta(0, np.array([0]), np.zeros(0), UniformSites([1]),
                              ChainRng(0, 0))

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


class RimBowl(ModelSpec):
    """Harmonic well on row stacks whose gradient is ``+inf`` wherever some
    coordinate passes 2."""

    row_stacked = True
    n_discrete = 0
    n_continuous = 3

    def site_cardinality(self, j):
        return 2

    def potential(self, x, q):
        return 0.5 * np.einsum("...d,...d->...", q, q)

    def grad_q(self, x, q):
        return np.where(np.abs(q).max(axis=-1, keepdims=True) > 2.0, np.inf,
                        q * np.array([1.0, 2.0, 0.5]))


class TestLeapfrogRows:
    @pytest.mark.parametrize("mass", [None, np.array([0.5, 2.0, 1.3])],
                             ids=["unit", "mass"])
    @pytest.mark.parametrize("pass_g", [False, True], ids=["eval_g", "pass_g"])
    def test_row_counts_match_int_calls(self, mass, pass_g):
        """Each row of a call with a (C,) step count gets the bits of its own
        one-row int-count call; rows done early take zero-length steps."""
        model = GaussianMixture(GmmSpec(
            weights=[0.3, 0.7], means=[[0.0, 1.0, -1.0], [2.0, -0.5, 0.3]],
            variances=[[1.0, 0.5, 2.0], [0.3, 1.5, 0.8]]))
        rng = np.random.default_rng(3)
        n = np.array([1, 6, 3, 6, 1])
        x = np.array([[0], [1], [1], [0], [1]])
        q = rng.normal(size=(5, 3))
        p = rng.normal(size=(5, 3))
        h = rng.uniform(0.05, 0.3, size=(5, 1))
        g = model.grad_q(x, q) if pass_g else None
        qb, pb = q.copy(), p.copy()
        gb = leapfrog(x, qb, pb, h, n, model.grad_q, mass,
                      None if g is None else g.copy())
        for r in range(5):
            qr, pr = q[r:r + 1].copy(), p[r:r + 1].copy()
            gr = leapfrog(x[r:r + 1], qr, pr, h[r:r + 1], int(n[r]),
                          model.grad_q, mass,
                          None if g is None else g[r:r + 1].copy())
            assert np.array_equal(qb[r], qr[0])
            assert np.array_equal(pb[r], pr[0])
            assert np.array_equal(gb[r], gr[0])

    def test_non_finite_row_leaves_batch_mates(self):
        """A short row whose gradient turns infinite changes no bit of its
        batch-mates and ends with a non-finite momentum, so its step is
        divergent, as when it steps alone."""
        model = RimBowl()
        x = np.zeros((3, 0), dtype=np.int64)
        q = np.array([[0.1, 0.2, -0.3], [1.9, 0.0, 0.0], [-0.4, 0.5, 0.2]])
        p = np.array([[0.3, -0.2, 0.1], [2.0, 0.0, 0.0], [0.1, 0.1, -0.6]])
        h = np.full((3, 1), 0.1)
        n = np.array([6, 2, 6])
        qb, pb = q.copy(), p.copy()
        gb = leapfrog(x, qb, pb, h, n, model.grad_q)
        for r in range(3):
            qr, pr = q[r:r + 1].copy(), p[r:r + 1].copy()
            gr = leapfrog(x[r:r + 1], qr, pr, h[r:r + 1], int(n[r]),
                          model.grad_q)
            if r == 1:
                assert not np.isfinite(pr).all()
                assert not np.isfinite(pb[r]).all()
                assert not np.isfinite(gb[r]).all()
            else:
                assert np.isfinite(pr).all()
                assert np.array_equal(qb[r], qr[0])
                assert np.array_equal(pb[r], pr[0])
                assert np.array_equal(gb[r], gr[0])


class TableSite(ModelSpec):
    """One site whose weights are a fixed table, ``U(x) = w[x]``; with
    ``rows``, a table per row, picked by ``q[0]``, for row-stacked calls."""

    n_discrete = 1
    n_continuous = 1

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)

    def site_cardinality(self, j):
        return self.w.shape[-1]

    def potential(self, x, q):
        w = self.w if self.w.ndim == 1 else self.w[int(q[0])]
        return float(w[x[0]])

    def grad_q(self, x, q):
        return np.zeros(1)

    def site_cond_neglogp(self, j, x, q):
        return (self.w if self.w.ndim == 1 else self.w[int(q[0])]).copy()


# One site's weights: moderate, or spread past the float range of exp, or
# +inf (zero weight).
_WEIGHT = st.one_of(st.floats(-30.0, 30.0), st.floats(-2000.0, 2000.0),
                    st.just(np.inf))


@st.composite
def _site_rows(draw, min_card=3):
    """Rows of a stacked call: sites of ``min_card``-20 values, weights
    padded with +inf to the widest, current values and uniforms."""
    n_rows = draw(st.integers(1, 5))
    cards = [draw(st.integers(min_card, 20)) for _ in range(n_rows)]
    width = max(cards)
    table = np.full((n_rows, width), np.inf)
    cur = np.zeros(n_rows, dtype=np.int64)
    for r, card in enumerate(cards):
        table[r, :card] = draw(st.lists(_WEIGHT, min_size=card,
                                        max_size=card))
        cur[r] = draw(st.integers(0, card - 1))
        # The chain is in the support: its current value has finite weight.
        table[r, cur[r]] = draw(st.floats(-30.0, 30.0))
        # Past the float range of exp, the backward normalizer overflows
        # when the current value outweighs the rest, and can underflow when
        # the rest outweigh it.
        spread = draw(st.sampled_from(["none", "over", "under"]))
        others = np.delete(table[r, :card], cur[r])
        gap = draw(st.floats(710.0, 2000.0))
        if spread == "over":
            table[r, cur[r]] = others.min() - gap
        elif spread == "under" and np.isfinite(others).any():
            table[r, cur[r]] = others[np.isfinite(others)].max() + gap
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=n_rows,
                          max_size=n_rows))
    return cards, table, cur, seeds


def _mixed_width_stack():
    """A stack of sites of 2, 12 and 20 values.  The 12-value row's cost
    differs in its last bits when priced on all 20 columns, and so do the
    wide rows' costs when their backward normalizers are summed across the
    rows of the transposed layout."""
    cards = [2, 12, 20]
    table = np.full((3, 20), np.inf)
    for r, card in enumerate(cards):
        table[r, :card] = np.sin(1.1 * np.arange(card) + 2)
    return cards, table, np.array([1, 2, 7]), [0, 2, 5]


class TestInformedRowsProperty:
    @settings(max_examples=300, deadline=None)
    @given(_site_rows())
    @example(_mixed_width_stack())
    def test_matches_public_ops(self, rows_drawn):
        """Each row draws the value default_proposal_sample draws from the
        same uniform, with the energy cost delta_E gives, including rows
        that need the log-space fallback; a row with no finite alternative
        is not ok, and only that row.  Each row's result is bit-identical
        alone and in the stack."""
        cards, table, cur, seeds = rows_drawn
        n_rows = len(cards)
        u = np.array([ChainRng(s, 0).uniform() for s in seeds])
        new, delta, ok = informed_rows(table, cur, u)
        for r in range(n_rows):
            one = TableSite(table[r, :cards[r]])
            xr, qr = cur[r:r + 1].copy(), np.zeros(1)
            try:
                xt, lf, lb = default_proposal_sample(0, xr, qr, one,
                                                     ChainRng(seeds[r], 0))
            except NonFiniteWeightsError:
                assert not ok[r]
            else:
                assert ok[r]
                assert new[r] == xt[0]
                want = delta_E(xr, xt, qr, lf, lb, one)
                assert delta[r] == pytest.approx(want, rel=1e-12, abs=1e-9)
            n1, d1, ok1 = informed_rows(table[r:r + 1], cur[r:r + 1],
                                        u[r:r + 1])
            assert ok1[0] == ok[r]
            if ok[r]:
                assert n1[0] == new[r]
                assert np.array_equal(d1[0], delta[r])

    def test_fallback_and_stuck_rows(self):
        """Fixed cases: the forced fallback on overflow and on underflow of
        the backward normalizer, and a row with no finite alternative in
        the middle of a stack."""
        table = np.array([[0.0, 800.0, 801.0, np.inf],
                          [1000.0, 0.0, 800.0, np.inf],
                          [0.0, np.inf, np.inf, np.inf],
                          [0.3, 0.1, -0.2, 0.5]])
        cur = np.array([0, 0, 0, 3])
        n_rows = len(table)
        model = TableSite(table)
        x = cur[:, None].copy()
        q = np.arange(n_rows, dtype=np.float64)[:, None]
        with mock.patch("mixedhmc.core._log_space_delta",
                        wraps=_log_space_delta) as fallback:
            new, delta, ok = informed_rows(table, cur, np.full(n_rows, 0.5))
        assert ok.tolist() == [True, True, False, True]
        assert fallback.call_count == 2
        # The fallback's cost is, bit for bit, that of the oracle, which
        # evaluates the site's conditionals afresh.
        for r in (0, 1):
            assert delta[r] == forced_delta(0, x[r], q[r], model, int(new[r]))
        # 0 -> 1 costs U(1) - U(0) + log Q(1 | 0) - log Q(0 | 1).
        assert new[0] == 1 and delta[0] == pytest.approx(
            800.0 - np.log1p(np.exp(-1.0)), abs=1e-9)
        assert new[1] == 1 and delta[1] == pytest.approx(-800.0, abs=1e-9)
        assert np.isfinite(delta[3])


    def test_largest_uniform_below_one(self):
        """At u = nextafter(1, 0), u * Z_fwd still rounds below Z_fwd (Z_fwd
        >= 1, the largest weight being exp(0)), so each row moves to its
        last value of positive weight: never to its current value, last
        here, to a value of zero weight or into the +inf padding.  The cost
        is the oracle's."""
        cards = [3, 5, 12, 20]
        table = np.full((4, 22), np.inf)
        for r, card in enumerate(cards):
            table[r, :card] = np.cos(0.9 * np.arange(card) + r)
        table[2, 10] = np.inf          # zero weight below the current value
        cur = np.array(cards) - 1
        new, delta, ok = informed_rows(table, cur,
                                       np.full(4, np.nextafter(1.0, 0.0)))
        assert ok.all()
        assert new.tolist() == [1, 3, 9, 18]
        for r, card in enumerate(cards):
            want = forced_delta(0, cur[r:r + 1], np.zeros(1),
                                TableSite(table[r, :card]), int(new[r]))
            assert delta[r] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSiteProposalsProperty:
    @settings(max_examples=300, deadline=None)
    @given(_site_rows(min_card=2))
    @example(_mixed_width_stack())
    def test_rows_match_their_own_calls(self, rows_drawn):
        """Each row of a stack of sites of 2-20 values gives, bit for bit,
        its own one-row call: a binary site flips at the exact difference of
        its two conditionals, and a wider site makes the move of
        informed_rows on its own values alone.  ok is False exactly on the
        wider rows with no finite alternative; a flip is always proposed."""
        cards, table, cur, seeds = rows_drawn
        u = np.array([ChainRng(s, 0).uniform() for s in seeds])
        new, delta, ok = site_proposals(table, cur,
                                        np.array(cards, dtype=np.int64), u)
        for r, card in enumerate(cards):
            row = table[r, :card]
            if card == 2:
                assert ok[r] and new[r] == 1 - cur[r]
                # Both weights are +inf where "over" pushed the current one.
                with np.errstate(invalid="ignore"):
                    flip = row[1 - cur[r]] - row[cur[r]]
                assert np.array_equal(delta[r], flip, equal_nan=True)
                continue
            assert ok[r] == np.isfinite(np.delete(row, cur[r])).any()
            n1, d1, ok1 = informed_rows(row[None], cur[r:r + 1], u[r:r + 1])
            assert ok1[0] == ok[r]
            if ok[r]:
                assert n1[0] == new[r]
                assert np.array_equal(d1[0], delta[r])


class TestSureRejections:
    @settings(max_examples=300, deadline=None)
    @given(_site_rows(), st.data())
    def test_sure_rows_are_rejected(self, rows_drawn, data):
        """Where the Laplace kernel's skip test says a proposal is sure to
        be rejected, informed_rows returns ok and a cost of at least the
        site energy, also on rows that need the log-space fallback; the
        test never holds for a row with no finite alternative."""
        cards, table, cur, seeds = rows_drawn
        n_rows = len(cards)
        rows = np.arange(n_rows)
        table = table.copy()
        k = []
        for r in rows:
            alt = float(np.delete(table[r], cur[r]).min())
            if data.draw(st.booleans()):
                # Equal alternatives at every value: on a site of the full
                # width the bound is then tight.
                table[r, :cards[r]] = np.where(
                    np.arange(cards[r]) == cur[r], table[r, cur[r]], alt)
            bound = alt - float(table[r, cur[r]]) - math.log(table.shape[1] - 1)
            if math.isfinite(bound) and data.draw(st.booleans()):
                # Near the bound, where the margin and log(K - 1) decide.
                k.append(max(bound + data.draw(st.floats(-1.0, 0.1)), 0.0))
            else:
                k.append(data.draw(st.floats(0.0, 4000.0)))
        k = np.array(k)
        sure = _sure_rejections(table, cur, k)
        u = np.array([ChainRng(s, 0).uniform() for s in seeds])
        _, delta, ok = informed_rows(table, cur, u)
        for r in np.flatnonzero(sure):
            assert ok[r]
            assert delta[r] >= k[r]
        for r in rows:
            if np.isinf(np.delete(table[r], cur[r])).all():
                assert not sure[r]


def _screen_reference(row, cur, k):
    """The documented screen on one row of Python floats: the least
    alternative (NaN if any alternative is NaN), less the current value's
    conditional, is finite and exceeds ``k`` by the margin."""
    alts = [w for v, w in enumerate(row) if v != cur]
    alt = math.nan if any(math.isnan(w) for w in alts) else min(alts)
    if not math.isfinite(alt):
        return False
    bound = alt - row[cur]
    return math.isfinite(bound) and bound > (
        k * (1 + 1e-6) + (1e-6 + math.log(len(row) - 1)))


_EDGE = st.one_of(st.floats(-50.0, 50.0),
                  st.sampled_from([math.inf, -math.inf, math.nan]))


class TestSureRejectionEdges:
    def test_non_finite_rows_are_not_sure(self):
        """Rows whose current value is +inf or -inf, whose alternatives are
        all +inf or all -inf, or that hold NaN are never sure to be
        rejected, and the screen raises no RuntimeWarning on them; a finite
        row in the same stack is still screened."""
        inf, nan = math.inf, math.nan
        table = np.array([[inf, 0.0, 1.0, 2.0],
                          [-inf, 0.0, 1.0, 2.0],
                          [0.0, inf, inf, inf],
                          [inf, inf, inf, inf],
                          [-inf, -inf, -inf, -inf],
                          [0.0, -inf, -inf, -inf],
                          [nan, 90.0, 95.0, 99.0],
                          [0.0, nan, 90.0, 95.0],
                          [0.0, 90.0, 95.0, 99.0]])
        cur = np.zeros(len(table), dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sure = _sure_rejections(table, cur, np.full(len(table), 1.0))
        assert sure.tolist() == [False] * 8 + [True]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda width: st.lists(
            st.tuples(st.lists(_EDGE, min_size=width, max_size=width),
                      st.integers(0, width - 1), st.floats(0.0, 60.0)),
            min_size=1, max_size=6)))
    def test_matches_per_row_bound(self, rows):
        """Each row of a stack is screened as the documented bound says,
        evaluated row by row in Python floats, with no RuntimeWarning."""
        table = np.array([r[0] for r in rows])
        cur = np.array([r[1] for r in rows], dtype=np.int64)
        k = np.array([r[2] for r in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sure = _sure_rejections(table, cur, k)
        assert sure.tolist() == [_screen_reference(row, c, e)
                                 for row, c, e in rows]


class TestRowModel:
    @pytest.mark.parametrize("kind,settings", [
        ("laplace", {"epsilon": 0.5, "T": 4.5, "L": 18}),
        ("general", {"T": 2.5, "integrator_eps": 0.3})])
    def test_sites_are_read_once_per_run(self, kind, settings):
        """A run of either lockstep kernel reads the sites' widths at most
        twice, where the runner checks the model and for the run's
        RowModel, not on every iteration."""
        with mock.patch("mixedhmc.core.site_widths",
                        wraps=site_widths) as in_core, \
                mock.patch("mixedhmc.runner.site_widths",
                           wraps=site_widths) as in_runner:
            run_chains(kind, gmm1d_preset(), settings, 4, 10, 40, 3,
                       threads=1)
        assert in_core.call_count + in_runner.call_count <= 2

    def test_sure_rejection_is_skipped(self):
        """A move whose cost bound exceeds every live row's site energy is
        not priced: move returns None and leaves x and k as they were.  A
        row outside ``live`` does not keep the proposal from being
        skipped."""
        model = TableSite(np.array([[0.0, 60.0, 70.0], [0.0, 0.1, 0.2]]))
        rows = RowModel(model)
        x = np.zeros((2, 1), dtype=np.int64)
        q = np.array([[0.0], [1.0]])
        k = np.array([[5.0], [5.0]])
        args = (np.zeros(2, dtype=np.int64), np.arange(2), x, q, k)
        rest = (np.full(2, 3), np.full(2, 0.5))
        with mock.patch("mixedhmc.core.site_proposals") as priced:
            assert rows.move(*args, np.array([True, False]), *rest) is None
        assert priced.call_count == 0
        assert x.tolist() == [[0], [0]] and k.tolist() == [[5.0], [5.0]]
        moved, stuck, left = rows.move(*args, np.ones(2, dtype=bool), *rest)
        assert moved.tolist() == [False, True] and stuck is None
        assert x[1, 0] != 0 and k[1, 0] == left[1] < 5.0
