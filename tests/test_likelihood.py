"""Log-likelihood against dense oracles; analytic derivatives against
finite differences; per-observation score decomposition."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pstarann as pa
from pstarann import likelihood
from conftest import (
    MODEL1_COLUMNS,
    fd_gradient,
    fd_jacobian,
    model1_spec,
    model1_theta,
    oracle_log_likelihood,
    oracle_per_observation_scores,
    oracle_per_observation_terms,
    random_causal_theta,
    random_panel,
    skew_every_gram,
)


class TestLogLikelihoodValues:
    def test_all_zero_case(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.0, [], [], [], [])
        data = pa.PanelData(Y=np.zeros((1, 4)), X=np.zeros((1, 4, 0)), p=0)
        ll = pa.log_likelihood(spec, theta, data)
        assert_allclose(ll, 4 * (-0.5 * math.log(2 * math.pi)), atol=1e-12)
        assert_allclose(ll, -3.675754, atol=5e-7)

    def test_hand_value_with_spatial_lag(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.5, [], [], [], [])
        data = pa.PanelData(Y=np.ones((1, 4)), X=np.zeros((1, 4, 0)), p=0)
        expected = (math.log(0.5) + 3 * math.log(7 / 6)
                    + 4 * (-0.5 * math.log(2 * math.pi) - 0.125))
        ll = pa.log_likelihood(spec, theta, data)
        assert_allclose(ll, expected, atol=1e-12)
        assert_allclose(ll, -4.406450, atol=5e-7)

    @pytest.mark.parametrize("density", [pa.normal(), pa.scaled_t(4), pa.laplace()],
                             ids=lambda d: d.label)
    def test_matches_dense_oracle(self, density, w33):
        rng = np.random.default_rng(17)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=2, density=density)
        theta = random_causal_theta(spec, rng)
        data = random_panel(spec, 3, rng)
        ll = pa.log_likelihood(spec, theta, data)
        assert abs(ll - oracle_log_likelihood(spec, theta, data)) < 1e-10

    def test_domain_sentinel_recorded(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        data = pa.PanelData(Y=np.ones((1, 4)), X=np.zeros((1, 4, 0)), p=0)
        ws = pa.LikelihoodWorkspace(spec, data)
        assert ws.log_likelihood(pa.ParameterVector(1.5, [], [], [], [])) == -np.inf
        assert ws.n_domain_rejections == 1
        with pytest.raises(ValueError, match="admissible"):
            ws.gradient(pa.ParameterVector(1.5, [], [], [], []))


class TestGradient:
    def test_matches_finite_differences(self, w33):
        rng = np.random.default_rng(23)
        for density in (pa.normal(), pa.scaled_t(4)):
            spec = pa.ModelSpec(W=w33, p=1, q=2, h=2, density=density)
            theta = random_causal_theta(spec, rng)
            data = random_panel(spec, 3, rng)
            ws = pa.LikelihoodWorkspace(spec, data)
            g = ws.gradient(theta)

            def f(x):
                return ws.log_likelihood(pa.ParameterVector.from_array(x, spec))

            fd = fd_gradient(f, theta.to_array())
            assert np.max(np.abs(g - fd) / (1.0 + np.abs(g))) < 1e-6

    def test_gaussian_beta_block_is_x_transpose_eps(self, w33):
        # h=0, p=0, Normal: V = -eps, so the beta block reduces to X'eps
        rng = np.random.default_rng(29)
        spec = pa.ModelSpec(W=w33, p=0, q=3, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.3, [], rng.standard_normal(3), [], [])
        data = random_panel(spec, 4, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        E, g = ws.residuals(theta), ws.gradient(theta)
        expected = np.einsum("tnq,tn->q", data.X, E)
        assert_allclose(g[1:], expected, atol=1e-10)

    def test_small_at_truth_on_large_panel(self):
        # at theta0 the scaled gradient is a mean-zero average
        spec = model1_spec(pa.build_queen_lattice(30, 30))
        theta0 = model1_theta()
        data = pa.simulate(spec, theta0, seed=13, T=30,
                           covariate_columns=MODEL1_COLUMNS)
        g = pa.LikelihoodWorkspace(spec, data).gradient(theta0) / (data.n * data.T)
        assert np.max(np.abs(g)) < 5.0 / math.sqrt(data.n * data.T)

    def test_phi0_entry_contains_trace(self, w22):
        # at Y = 0 the data part vanishes and only the trace term remains
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.4, [], [], [], [])
        data = pa.PanelData(Y=np.zeros((3, 4)), X=np.zeros((3, 4, 0)), p=0)
        g = pa.LikelihoodWorkspace(spec, data).gradient(theta)
        assert_allclose(g[0], -3 * w22.trace_w_a0inv(0.4, 1), atol=1e-12)


class TestHessian:
    def test_matches_finite_differences_of_gradient(self, w33):
        rng = np.random.default_rng(31)
        for density in (pa.normal(), pa.scaled_t(4)):
            spec = pa.ModelSpec(W=w33, p=1, q=2, h=2, density=density)
            theta = random_causal_theta(spec, rng)
            data = random_panel(spec, 3, rng)
            ws = pa.LikelihoodWorkspace(spec, data)
            H = ws.hessian(theta)

            def vf(x):
                return ws.gradient(pa.ParameterVector.from_array(x, spec))

            fd = fd_jacobian(vf, theta.to_array())
            fd = 0.5 * (fd + fd.T)
            assert np.max(np.abs(H - fd) / (1.0 + np.abs(H))) < 1e-4

    def test_gaussian_linear_beta_block(self, w33):
        # h=0, p=0, Normal: the beta block is -sum_t X_t' X_t exactly
        rng = np.random.default_rng(37)
        spec = pa.ModelSpec(W=w33, p=0, q=2, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.2, [], [0.5, -1.0], [], [])
        data = random_panel(spec, 3, rng)
        H = pa.LikelihoodWorkspace(spec, data).hessian(theta)
        expected = -np.einsum("tnq,tnr->qr", data.X, data.X)
        assert_allclose(H[1:, 1:], expected, atol=1e-10)

    def test_phi0_phi0_pure_trace_at_zero_data(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.4, [], [], [], [])
        data = pa.PanelData(Y=np.zeros((5, 4)), X=np.zeros((5, 4, 0)), p=0)
        H = pa.LikelihoodWorkspace(spec, data).hessian(theta)
        assert_allclose(H[0, 0], -5 * w22.trace_w_a0inv(0.4, 2), atol=1e-12)

    def test_laplace_unavailable(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.laplace())
        theta = pa.ParameterVector(0.1, [], [], [], [])
        data = pa.PanelData(Y=np.ones((1, 4)), X=np.zeros((1, 4, 0)), p=0)
        with pytest.raises(ValueError, match="Laplace"):
            pa.LikelihoodWorkspace(spec, data).hessian(theta)

    def test_symmetric(self, w33):
        rng = np.random.default_rng(41)
        spec = pa.ModelSpec(W=w33, p=2, q=2, h=1, density=pa.scaled_t(5))
        theta = random_causal_theta(spec, rng)
        data = random_panel(spec, 4, rng)
        H = pa.LikelihoodWorkspace(spec, data).hessian(theta)
        assert_allclose(H, H.T, atol=0)

    def test_non_finite_entry_named(self, w33):
        # covariates of 1e200 overflow the beta block's Gram to inf, and
        # H - H.T to NaN there, which the asymmetry test alone would pass;
        # the phi0 and phi1 rows stay finite, so beta1's diagonal is named
        rng = np.random.default_rng(43)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal(), linear_term=True)
        theta = random_causal_theta(spec, rng)
        data = random_panel(spec, 4, rng)
        data.X[...] *= 1e200
        ws = pa.LikelihoodWorkspace(spec, data)
        with np.errstate(all="ignore"), \
                pytest.raises(pa.NumericalError,
                              match=r"^Hessian entry \(beta1, beta1\) is not finite$"):
            ws.hessian(theta)

    def test_asymmetry_named(self, w33, monkeypatch):
        rng = np.random.default_rng(47)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal(), linear_term=True)
        theta = random_causal_theta(spec, rng)
        ws = pa.LikelihoodWorkspace(spec, random_panel(spec, 4, rng))
        skew_every_gram(monkeypatch)
        with pytest.raises(pa.NumericalError, match=r"^Hessian asymmetry \S+ exceeds tolerance$"):
            ws.hessian(theta)


class TestScoreOuterProduct:
    @pytest.mark.parametrize("density", [pa.normal(), pa.scaled_t(4)], ids=lambda d: d.label)
    def test_oracle_scores_match_finite_differences(self, w33, density):
        # the score oracle reads D; finite differences of the per-observation
        # terms (dense log-det, loop residuals, scipy log pdfs) do not
        rng = np.random.default_rng(89)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=2, density=density)
        theta = random_causal_theta(spec, rng)
        data = random_panel(spec, 3, rng)
        G = oracle_per_observation_scores(pa.LikelihoodWorkspace(spec, data), theta)

        def terms(x):
            return oracle_per_observation_terms(
                spec, pa.ParameterVector.from_array(x, spec), data).ravel()

        fd = fd_jacobian(terms, theta.to_array()).T.reshape(G.shape)
        assert np.max(np.abs(G - fd) / (1.0 + np.abs(G))) < 1e-6

    def test_per_observation_scores_sum_to_gradient(self, w33):
        rng = np.random.default_rng(43)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.scaled_t(4))
        theta = random_causal_theta(spec, rng)
        data = random_panel(spec, 3, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        S = oracle_per_observation_scores(ws, theta)
        g = ws.gradient(theta)
        assert np.max(np.abs(S.sum(axis=(0, 1)) - g)) < 1e-10 * (1 + np.max(np.abs(g)))

    @pytest.mark.parametrize("density", [pa.normal(), pa.scaled_t(4)], ids=lambda d: d.label)
    @pytest.mark.parametrize("h", [0, 2])
    def test_matches_oracle_outer_product_near_unit_root(self, w33, density, h):
        # at phi0 = 0.99 the eigenvalue term c = tr(W A0^{-1}) / n is largest,
        # and so is the rank-2 correction that B takes from it
        rng = np.random.default_rng(97)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=h, density=density)
        theta = random_causal_theta(spec, rng)
        theta.phi0 = 0.99
        data = random_panel(spec, 4, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        G = oracle_per_observation_scores(ws, theta).reshape(-1, spec.dim)
        expected = G.T @ G / G.shape[0]
        B = ws.score_outer_product(theta)
        assert np.max(np.abs(B - expected)) <= 1e-13 * np.max(np.abs(B))

    def test_single_observation_rank_one(self):
        W = pa.from_adjacency([(0, 1)], 2)
        spec = pa.ModelSpec(W=W, p=0, q=1, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.2, [], [0.5], [], [])
        rng = np.random.default_rng(47)
        data = pa.PanelData(Y=rng.standard_normal((1, 2)),
                            X=rng.standard_normal((1, 2, 1)), p=0)
        # smallest valid panel has n = 2 locations in one slice; each
        # location contributes a rank-1 outer product
        ws = pa.LikelihoodWorkspace(spec, data)
        S = oracle_per_observation_scores(ws, theta)
        one = np.outer(S[0, 0], S[0, 0])
        assert np.linalg.matrix_rank(one) == 1
        B = ws.score_outer_product(theta)
        manual = sum(np.outer(S[0, s], S[0, s]) for s in range(2)) / 2.0
        assert_allclose(B, manual, atol=1e-14)

    def test_score_outer_product_rejects_phi0_outside_domain(self, w33):
        rng = np.random.default_rng(61)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal())
        data = random_panel(spec, 3, rng)
        theta = random_causal_theta(spec, rng)
        theta.phi0 = 1.5  # W's spectrum reaches 1, so |phi0| < 1 is admissible
        ws = pa.LikelihoodWorkspace(spec, data)
        with pytest.raises(ValueError, match="admissible interval"):
            ws.score_outer_product(theta)

    def test_column_blocks_match_one_block(self, w33, monkeypatch):
        # the benchmark's panels fit in one block of _weighted_gram; a block
        # of 97 columns splits these 270 observations into three
        rng = np.random.default_rng(101)
        spec = pa.ModelSpec(W=w33, p=1, q=3, h=2, density=pa.scaled_t(6))
        theta = random_causal_theta(spec, rng)
        data = random_panel(spec, 30, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        H, B = ws.hessian(theta), ws.score_outer_product(theta)
        monkeypatch.setattr(likelihood, "_GRAM_BLOCK", 97)
        for one, blocked in ((H, ws.hessian(theta)), (B, ws.score_outer_product(theta))):
            assert not np.array_equal(one, blocked)
            assert np.max(np.abs(blocked - one)) <= 1e-13 * np.max(np.abs(one))

    @pytest.mark.parametrize("entry", ["log_likelihood", "gradient", "score_outer_product"])
    def test_one_shot_entries_check_data_against_spec(self, w33, entry):
        # the kernel skips per-evaluation checks, so the workspace must
        # reject data that contradict the spec when it is built
        rng = np.random.default_rng(71)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal(),
                            include_intercept=True)
        data = random_panel(spec, 3, rng)
        theta = random_causal_theta(spec, rng)
        with pytest.raises(ValueError, match="intercept"):
            getattr(pa.LikelihoodWorkspace(spec, data), entry)(theta)

    def test_workspace_cache_consistency(self, w33):
        # same theta evaluated twice reuses the cache; a new theta refreshes it
        rng = np.random.default_rng(53)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal())
        data = random_panel(spec, 3, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        t1 = random_causal_theta(spec, rng)
        t2 = random_causal_theta(spec, rng)
        ll1 = ws.log_likelihood(t1)
        ws.log_likelihood(t2)
        assert ws.log_likelihood(t1) == ll1
        assert_allclose(pa.log_likelihood(spec, t1, data), ll1)


class TestDerivativeMatrix:
    @pytest.mark.parametrize("h", [0, 2])
    def test_revisited_theta_gives_identical_results(self, w33, h):
        rng = np.random.default_rng(73)
        spec = pa.ModelSpec(W=w33, p=2, q=3, h=h, density=pa.scaled_t(8))
        data = random_panel(spec, 4, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        ta, tb = random_causal_theta(spec, rng), random_causal_theta(spec, rng)

        def derivatives(theta, ws=ws):
            return (ws.hessian(theta), ws.gradient(theta),
                    ws.score_outer_product(theta),
                    oracle_per_observation_scores(ws, theta))

        first = derivatives(ta)
        kept = [a.copy() for a in first]
        other = derivatives(tb)
        again = derivatives(ta)
        for a, b, k in zip(first, again, kept):
            np.testing.assert_array_equal(a, b)
            # an array handed out at ta must not alias the shared buffer
            np.testing.assert_array_equal(a, k)
        # tb saw the rows of tb, not those left over from ta
        for a, b in zip(other, derivatives(tb, pa.LikelihoodWorkspace(spec, data))):
            np.testing.assert_array_equal(a, b)

    def test_log_likelihood_alone_leaves_network_rows(self, w33):
        # the network rows are written with the residuals, so a
        # log-likelihood call at a new theta leaves them at that theta
        rng = np.random.default_rng(79)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal())
        data = random_panel(spec, 3, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        ta, tb = random_causal_theta(spec, rng), random_causal_theta(spec, rng)
        g = ws.gradient(ta)
        ws.log_likelihood(tb)
        fresh = pa.LikelihoodWorkspace(spec, data)
        fresh.gradient(tb)
        net = slice(spec.layout.lam.start, spec.dim)
        np.testing.assert_array_equal(ws.D[net], fresh.D[net])
        np.testing.assert_array_equal(ws.gradient(ta), g)
        assert not np.array_equal(ws.gradient(tb), g)


class TestResiduals:
    @pytest.mark.parametrize("h, linear", [(0, True), (2, True), (1, False)])
    def test_residuals_read_off_derivative_matrix(self, w33, h, linear):
        # eps = y + D_lin' theta_lin - F' lambda against a formula-level loop;
        # every theta after the first is evaluated while D holds the network
        # rows that the gradient wrote at the previous one
        rng = np.random.default_rng(83)
        spec = pa.ModelSpec(W=w33, p=2, q=3, h=h, density=pa.scaled_t(8),
                            linear_term=linear)
        data = random_panel(spec, 4, rng)
        Wd = spec.W.W.toarray()
        ws = pa.LikelihoodWorkspace(spec, data)
        for theta in (random_causal_theta(spec, rng) for _ in range(3)):
            expected = np.empty((data.T, data.n))
            for t in range(data.T):
                e = data.Y[spec.p + t].copy()
                for i in range(spec.p + 1):
                    phi = theta.phi0 if i == 0 else theta.phi[i - 1]
                    e -= phi * (Wd @ data.Y[spec.p + t - i])
                X_t = data.X[t]
                if linear:
                    e -= X_t @ theta.beta
                for i in range(h):
                    e -= theta.lam[i] / (1.0 + np.exp(-X_t @ theta.gamma[i]))
                expected[t] = e
            assert_allclose(ws.residuals(theta), expected, rtol=0, atol=1e-13)
            ws.gradient(theta)
            np.testing.assert_array_equal(pa.LikelihoodWorkspace(spec, data).residuals(theta),
                                          ws.residuals(theta))


class TestActivationCount:
    def test_one_sigmoid_call_per_evaluation(self, w33, monkeypatch):
        import pstarann.model

        calls = {"n": 0}
        real = pstarann.model.sigmoid

        def counting(z):
            calls["n"] += 1
            return real(z)

        # count through every name that binds the sigmoid, not just the
        # model module's own
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "pstarann" and getattr(module, "sigmoid", None) is real:
                monkeypatch.setattr(module, "sigmoid", counting)
        rng = np.random.default_rng(67)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=2, density=pa.scaled_t(8))
        data = random_panel(spec, 3, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        thetas = [random_causal_theta(spec, rng) for _ in range(4)]
        for k, theta in enumerate(thetas, start=1):
            ll, g = ws.loglik_and_gradient(theta)
            assert np.isfinite(ll) and g is not None
            assert calls["n"] == k
        # the Hessian and scores at the last theta reuse its activations
        ws.hessian(thetas[-1])
        ws.score_outer_product(thetas[-1])
        assert calls["n"] == len(thetas)


class TestInvariances:
    def test_permutation_and_flip_leave_likelihood(self, w33):
        rng = np.random.default_rng(59)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=3, density=pa.scaled_t(4),
                            include_intercept=True)
        for _ in range(5):
            theta = random_causal_theta(spec, rng)
            theta.gamma[1] = -theta.gamma[1]
            data = random_panel(spec, 3, rng)
            data.X[:, :, 0] = 1.0
            ll = pa.log_likelihood(spec, theta, data)

            perm = rng.permutation(3)
            theta_p = theta.copy()
            theta_p.lam, theta_p.gamma = theta.lam[perm], theta.gamma[perm]
            assert abs(pa.log_likelihood(spec, theta_p, data) - ll) < 1e-10

            theta_c = pa.canonicalize(theta, include_intercept=True)
            assert abs(pa.log_likelihood(spec, theta_c, data) - ll) < 1e-10


@pytest.mark.parametrize("module", ["pstarann", "pstarann.likelihood", "pstarann.estimate",
                                    "pstarann.diagnostics"])
def test_exported_names_resolve(module):
    # a name left in __all__ after its definition went breaks star imports
    mod = sys.modules[module]
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
