import math
import os

import numpy as np
import pytest

from mixedhmc import ChainRng
from mixedhmc.checks import fd_gradient
from mixedhmc.models import (
    BinaryQuadratic,
    BinaryQuadraticSpec,
    BlrVarsel,
    BlrVarselSpec,
    GaussianMixture,
    GmmSpec,
    binary_quadratic_enumerate,
    blr_dataset_from_csv,
    blr_dataset_to_csv,
    blr_generate,
    gmm1d_preset,
    gmm24_preset,
    random_binary_quadratic,
)

ALL_MODELS = [
    ("gmm1d", gmm1d_preset()),
    ("gmm24", gmm24_preset()),
    ("blr", BlrVarsel(blr_generate(3).spec)),
    ("binary6", random_binary_quadratic(6, ChainRng(3, 0))),
]


def random_state(model, rng):
    x = np.array([int(rng.uniform() * model.site_cardinality(j))
                  for j in range(model.n_discrete)], dtype=np.int64)
    q = np.atleast_1d(rng.normal(model.n_continuous)) if model.n_continuous \
        else np.zeros(0)
    return x, q


class TestGmm:
    def test_single_standard_normal_at_mode(self):
        m = GaussianMixture(GmmSpec(np.array([1.0]), np.array([[0.0]]),
                                    np.array([[1.0]])))
        u = m.potential(np.array([0]), np.array([0.0]))
        assert u == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_preset_potential_value(self):
        m = gmm1d_preset()
        u = m.potential(np.array([2]), np.array([2.0]))
        want = -math.log(0.3) + 0.5 * math.log(2 * math.pi * 0.1)
        assert u == pytest.approx(want, abs=1e-14)

    def test_gmm24_preset_layout(self):
        m = gmm24_preset()
        means = m.spec.means
        assert means.shape == (4, 24)
        assert np.array_equal(means[:, 0], [-2.0, 0.0, 2.0, 4.0])
        for d in range(24):
            assert np.array_equal(np.sort(means[:, d]), [-2.0, 0.0, 2.0, 4.0])
        assert np.all(m.spec.variances == 3.0)
        # columns enumerate all 24 permutations without repetition
        cols = {tuple(means[:, d]) for d in range(24)}
        assert len(cols) == 24

    def test_exact_sampler_matches_potential(self):
        """Importance weight exp(-U) / (mixture density) is constant 1."""
        for m in (gmm1d_preset(), gmm24_preset()):
            rng = ChainRng(5, 0)
            rows = m.exact_sample(rng, 200)
            for row in rows[:50]:
                z = int(row[0])
                q = row[1:]
                dens = m.spec.weights[z] * np.prod(
                    np.exp(-0.5 * (q - m.spec.means[z]) ** 2
                           / m.spec.variances[z])
                    / np.sqrt(2 * np.pi * m.spec.variances[z]))
                ratio = math.exp(-m.potential(np.array([z]), q)) / dens
                assert ratio == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("field", ["means", "variances"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_spec_rejected(self, field, value):
        parts = {"weights": [0.5, 0.5], "means": [[0.0], [1.0]],
                 "variances": [[1.0], [1.0]]}
        parts[field][0] = [value]
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            GmmSpec(**parts)

    def test_exact_sampler_component_frequencies(self):
        m = gmm1d_preset()
        rows = m.exact_sample(ChainRng(6, 0), 100_000)
        freqs = np.bincount(rows[:, 0].astype(int), minlength=4) / rows.shape[0]
        assert np.abs(freqs - m.spec.weights).max() < 0.01


class TestGradients:
    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_grad_matches_finite_differences(self, name, model):
        if model.n_continuous == 0:
            pytest.skip("no continuous coordinates")
        rng = ChainRng(31, 0)
        for _ in range(20):
            x, q = random_state(model, rng)
            ga = model.grad_q(x, q)
            gf = fd_gradient(model, x, q)
            rel = np.abs(ga - gf) / np.maximum(np.abs(ga), 1.0)
            assert rel.max() < 1e-5


class TestSiteConditionals:
    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_consistency_identity(self, name, model):
        rng = ChainRng(37, 0)
        for _ in range(25):
            x, q = random_state(model, rng)
            j = int(rng.uniform() * model.n_discrete)
            w = model.site_cond_neglogp(j, x, q)
            u_x = model.potential(x, q)
            for v in range(model.site_cardinality(j)):
                xv = x.copy()
                xv[j] = v
                lhs = w[x[j]] - w[v]
                rhs = u_x - model.potential(xv, q)
                assert abs(lhs - rhs) < 1e-10


class TestRowStacks:
    """Row-stacked calls give, bit for bit, the rows of single-state calls,
    whatever the batch size."""

    @pytest.mark.parametrize("name,model", ALL_MODELS)
    def test_rows_bit_identical_across_batch_sizes(self, name, model):
        assert model.row_stacked
        rng = ChainRng(47, 0)
        states = [random_state(model, rng) for _ in range(48)]
        x = np.array([s[0] for s in states]).reshape(48, model.n_discrete)
        q = np.array([s[1] for s in states]).reshape(48, model.n_continuous)
        j = np.array([int(rng.uniform() * model.n_discrete)
                      for _ in range(48)])
        single = {
            "potential": np.array([model.potential(x[r], q[r])
                                   for r in range(48)]),
            "grad_q": np.array([model.grad_q(x[r], q[r])
                                for r in range(48)]).reshape(48, -1),
            "site_cond_neglogp": np.array([
                model.site_cond_neglogp(int(j[r]), x[r], q[r])
                for r in range(48)]),
        }
        for c in (1, 3, 48):
            for start in range(0, 48, c):
                rows = slice(start, start + c)
                got = {
                    "potential": model.potential(x[rows], q[rows]),
                    "grad_q": model.grad_q(x[rows], q[rows]),
                    "site_cond_neglogp": model.site_cond_neglogp(
                        j[rows], x[rows], q[rows]),
                }
                for method, want in single.items():
                    assert got[method].shape == want[rows].shape, method
                    assert np.array_equal(got[method], want[rows]), \
                        (method, c, start)


class TestLayout:
    """The layout rule of ``ModelSpec``: parameter arrays are C-contiguous.
    gmm24's mean matrix was once a Fortran-ordered transpose, which made
    each broadcast against it in the site conditionals about 2.6x dearer."""

    PRESETS = [
        ("gmm1d", gmm1d_preset()),
        ("gmm24", gmm24_preset()),
        ("blr", BlrVarsel(blr_generate(0).spec)),
        ("binary6", random_binary_quadratic(6, ChainRng(2026, 0))),
    ]

    @pytest.mark.parametrize("name,model", PRESETS)
    def test_preset_arrays_c_contiguous(self, name, model):
        arrays = {f"spec.{key}": v for key, v in vars(model.spec).items()
                  if isinstance(v, np.ndarray)}
        arrays.update((key, v) for key, v in vars(model).items()
                      if isinstance(v, np.ndarray))
        assert len(arrays) >= 2
        for key, a in arrays.items():
            assert a.flags.c_contiguous, (name, key)

    def test_specs_copy_fortran_input_to_c_order(self):
        a = np.asfortranarray(np.arange(12.0).reshape(3, 4) / 100 + 1)
        gmm = GmmSpec(weights=np.full(3, 1 / 3), means=a, variances=a)
        blr = blr_generate(0).spec
        blr = BlrVarselSpec(X=np.asfortranarray(blr.X), y=blr.y)
        w = np.asfortranarray([[0.0, 0.5], [0.5, 0.0]])
        binary = BinaryQuadraticSpec(W=w, b=np.zeros(2))
        for arr in (gmm.means, gmm.variances, blr.X, binary.W):
            assert arr.flags.c_contiguous
        assert np.array_equal(gmm.means, a)


class TestBlr:
    def test_generated_design_covariance(self):
        data = blr_generate(17, n=10_000, d=20)
        col_var = data.spec.X.var(axis=0, ddof=1)
        assert np.all(np.abs(col_var - 3.0) / 3.0 < 0.05)
        # off-diagonal covariance targets 0.3
        c = np.cov(data.spec.X.T)
        off = c[~np.eye(20, dtype=bool)]
        assert abs(off.mean() - 0.3) < 0.03

    def test_zero_coefficients_give_balanced_labels(self):
        data = blr_generate(19, n=10_000, d=20, beta_true=np.zeros(20))
        assert abs(data.spec.y.mean() - 0.5) < 0.02

    def test_true_support_size(self):
        data = blr_generate(23)
        assert data.support.size == 5
        assert np.all(data.beta_true[data.support] == 0.5)
        assert np.count_nonzero(data.beta_true) == 5

    def test_potential_at_origin(self):
        data = blr_generate(29)
        model = BlrVarsel(data.spec)
        n, d = data.spec.X.shape
        u = model.potential(np.zeros(d, dtype=np.int64), np.zeros(d))
        want = n * math.log(2.0) + 0.5 * d * math.log(2 * math.pi * 25.0)
        assert u == pytest.approx(want, rel=1e-12)

    def test_zero_column_flip_leaves_potential_unchanged(self):
        data = blr_generate(31)
        X = data.spec.X.copy()
        X[:, 4] = 0.0
        model = BlrVarsel(type(data.spec)(X=X, y=data.spec.y))
        rng = ChainRng(33, 0)
        gamma, beta = random_state(model, rng)
        g2 = gamma.copy()
        g2[4] = 1 - g2[4]
        assert model.potential(gamma, beta) == pytest.approx(
            model.potential(g2, beta), rel=1e-14)

    def test_csv_round_trip(self, tmp_path):
        data = blr_generate(41, n=50, d=8)
        path = os.path.join(tmp_path, "blr.csv")
        blr_dataset_to_csv(data.spec, path)
        back = blr_dataset_from_csv(path)
        assert np.array_equal(back.y, data.spec.y)
        assert np.array_equal(back.X, data.spec.X)


class TestBinaryQuadratic:
    def test_uniform_when_flat(self):
        spec = BinaryQuadraticSpec(W=np.zeros((4, 4)), b=np.zeros(4))
        marg, _ = binary_quadratic_enumerate(spec)
        assert np.allclose(marg, 0.5, atol=1e-14)

    def test_single_site_closed_form(self):
        spec = BinaryQuadraticSpec(W=np.zeros((1, 1)), b=np.array([1.0]))
        marg, log_z = binary_quadratic_enumerate(spec)
        e = math.e
        assert marg[0] == pytest.approx(e / (e + 1 / e), rel=1e-12)
        assert log_z == pytest.approx(math.log(e + 1 / e), rel=1e-12)

    def test_enumeration_guard(self):
        spec = BinaryQuadraticSpec(W=np.zeros((21, 21)), b=np.zeros(21))
        with pytest.raises(ValueError):
            binary_quadratic_enumerate(spec)

    def test_rejects_asymmetric_couplings(self):
        W = np.zeros((3, 3))
        W[0, 1] = 1.0
        with pytest.raises(ValueError):
            BinaryQuadraticSpec(W=W, b=np.zeros(3))

    def test_potential_matches_enumeration_weights(self):
        model = random_binary_quadratic(5, ChainRng(43, 0))
        marg, log_z = binary_quadratic_enumerate(model.spec)
        # Recompute one marginal by direct summation over potentials.
        total = p1 = 0.0
        for code in range(32):
            x = np.array([(code >> b) & 1 for b in range(5)])
            w = math.exp(-model.potential(x, np.zeros(0)))
            total += w
            if x[2] == 1:
                p1 += w
        assert p1 / total == pytest.approx(marg[2], rel=1e-10)
        assert math.log(total) == pytest.approx(log_z, rel=1e-10)
