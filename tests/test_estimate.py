"""Fitting, covariance, and model comparison."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

import pstarann as pa
from pstarann import estimate, likelihood, weights
from pstarann.densities import SmoothedLaplace
from conftest import MODEL1_COLUMNS, is_canonical, model1_spec, model1_theta, random_panel


def small_model1_data(W, seed=11, T=10, density=None):
    spec = model1_spec(W, density=density)
    data = pa.simulate(spec, model1_theta(), seed=seed, T=T,
                       covariate_columns=MODEL1_COLUMNS)
    return spec, data


class TestFit:
    def test_noiseless_limit_recovers_truth(self, w1010):
        # exact-interpolation oracle: with eps = 0 injected, residuals at
        # theta0 vanish identically and the density part of the likelihood
        # is globally maximized there. The log-determinant term still pulls
        # phi0 off truth (its score at theta0 is exactly -T tr(W A0^{-1})
        # once the data term vanishes), so the interpolation property is
        # checked with phi0 held at its true value.
        spec = model1_spec(w1010)
        theta0 = model1_theta()
        steps = 200 + spec.p + 8
        X = pa.generate_covariates(MODEL1_COLUMNS, spec.n, steps, seed=3)
        data = pa.simulate(spec, theta0, X=X, burn_in=200,
                           errors=np.zeros((steps, spec.n)))
        ws = pa.LikelihoodWorkspace(spec, data)
        assert np.max(np.abs(ws.residuals(theta0))) < 1e-12
        g0 = ws.gradient(theta0)
        assert_allclose(g0[0], -data.T * spec.W.trace_w_a0inv(0.6, 1), atol=1e-8)
        assert np.max(np.abs(g0[1:])) < 1e-8

        bounds = pa.default_bounds(spec)
        bounds[0] = [0.6, 0.6]
        start = pa.ParameterVector.from_array(1.1 * theta0.to_array(), spec)
        start.phi0 = 0.6
        with warnings.catch_warnings():  # the pin is recorded, not warned of
            warnings.simplefilter("error", RuntimeWarning)
            res = pa.fit(spec, data, starts=[start], bounds=bounds,
                         covariance=False)
        assert res.boundary_warning
        assert np.max(np.abs(res.theta.to_array() - theta0.to_array())) < 1e-4

    def test_gaussian_linear_case_matches_profile_oracle(self, w1010):
        # h=0, p=0 Gaussian: independent oracle profiles phi0 on a fine
        # grid with closed-form beta from the normal equations
        spec = pa.ModelSpec(W=w1010, p=0, q=2, h=0, density=pa.normal())
        theta0 = pa.ParameterVector(0.5, [], [1.0, -0.7], [], [])
        data = pa.simulate(spec, theta0, seed=21, T=8, covariate_columns=[
            {"kind": "normal", "sd": 1.0}, {"kind": "normal", "sd": 2.0}])
        res = pa.fit(spec, data, n_starts=2, seed=0)

        X = data.X.reshape(-1, 2)
        y = data.Y_sample
        wy = (spec.W.W.dot(y.T)).T
        XtX = X.T @ X

        def profile(phi0):
            target = (y - phi0 * wy).ravel()
            beta = np.linalg.solve(XtX, X.T @ target)
            r = target - X @ beta
            return data.T * spec.W.log_det_a0(phi0) - 0.5 * float(r @ r), beta

        grid = np.linspace(-0.99, 0.99, 3001)
        vals = [profile(p)[0] for p in grid]
        phi0_star = grid[int(np.argmax(vals))]
        # golden-section refinement around the best grid point
        from scipy.optimize import minimize_scalar
        opt = minimize_scalar(lambda p: -profile(p)[0],
                              bounds=(phi0_star - 1e-3, phi0_star + 1e-3),
                              method="bounded",
                              options={"xatol": 1e-10})
        phi0_star = float(opt.x)
        beta_star = profile(phi0_star)[1]

        assert abs(res.theta.phi0 - phi0_star) < 1e-4
        assert np.max(np.abs(res.theta.beta - beta_star)) < 1e-4
        # normal equations at the optimizer's phi0 hold to high precision
        target = (y - res.theta.phi0 * wy).ravel()
        gap = X.T @ target - XtX @ res.theta.beta
        assert np.max(np.abs(gap)) < 1e-6 * (1 + np.max(np.abs(X.T @ target)))

    def test_deterministic(self, w33):
        spec, data = small_model1_data(pa.build_queen_lattice(5, 5), T=6)
        r1 = pa.fit(spec, data, n_starts=3, seed=5)
        r2 = pa.fit(spec, data, n_starts=3, seed=5)
        assert np.array_equal(r1.theta.to_array(), r2.theta.to_array())
        assert r1.loglik == r2.loglik

    def test_aic_identity(self, w33):
        spec, data = small_model1_data(w33, T=4)
        res = pa.fit(spec, data, n_starts=2, seed=1, covariance=False)
        assert_allclose(res.aic, 2 * spec.dim - 2 * res.loglik, atol=1e-12)

    def test_canonical_result(self, w1010):
        spec, data = small_model1_data(w1010, seed=2, T=8)
        res = pa.fit(spec, data, n_starts=4, seed=2, covariance=False)
        assert res.canonical
        assert is_canonical(res.theta)

    def test_canonicalization_guard_raises_numerical_error(self, w33, monkeypatch):
        import pstarann.estimate as est

        def shifted(theta, include_intercept):
            out = theta.copy()
            out.lam = out.lam + 0.5  # no longer the same residuals
            return out

        monkeypatch.setattr(est, "canonicalize", shifted)
        spec, data = small_model1_data(w33, T=4)
        with pytest.raises(pa.NumericalError, match="canonicalization changed"):
            pa.fit(spec, data, n_starts=1, seed=1, covariance=False)

    def test_boundary_warning_on_narrow_box(self, w33):
        spec, data = small_model1_data(w33, seed=7, T=8)
        bounds = pa.default_bounds(spec)
        bounds[0] = [-0.3, 0.3]  # true phi0 = 0.6 slams the upper bound
        with warnings.catch_warnings():  # the pin is recorded, not warned of
            warnings.simplefilter("error", RuntimeWarning)
            res = pa.fit(spec, data, n_starts=2, seed=0, bounds=bounds,
                         covariance=False)
        assert res.boundary_warning
        assert_allclose(res.theta.phi0, 0.3, atol=1e-8)

    def test_every_start_outside_phi0_domain_raises_fit_error(self, w44):
        # a phi0 box beyond the admissible interval (-1, 1) turns every
        # objective call into the -inf sentinel, so no start reaches a
        # finite optimum
        spec, data = small_model1_data(w44, T=6)
        bounds = pa.default_bounds(spec)
        bounds[0] = [1.2, 1.5]
        with pytest.raises(pa.FitError, match="all 2 starts failed to produce a finite optimum"):
            pa.fit(spec, data, n_starts=2, seed=0, bounds=bounds, covariance=False)

    def test_multistart_reaches_global_basin(self, w1010):
        # 5 default starts land within 0.5 loglik of the best over 25 starts
        spec, data = small_model1_data(w1010, seed=31, T=10)
        res5 = pa.fit(spec, data, n_starts=5, seed=0, covariance=False)
        res25 = pa.fit(spec, data, n_starts=25, seed=0, covariance=False)
        assert res25.loglik - res5.loglik < 0.5

    @pytest.mark.parametrize("case, match", [
        ("inverted", r"bounds for lambda1 are \(5\.0, -5\.0\): lower exceeds upper"),
        ("nan", r"bounds for gamma12 are \(-25\.0, nan\): a bound is NaN"),
        ("shape", r"bounds must have shape \(5, 2\).*got shape \(4, 2\)"),
    ], ids=["inverted", "nan", "shape"])
    def test_bad_bounds_rejected(self, w44, case, match):
        # the box is checked once, before any start: an inverted box used to
        # fit with lambda1 at -5 and report converged
        spec, data = small_model1_data(w44, T=6)
        bounds = pa.default_bounds(spec)
        if case == "inverted":
            bounds[2] = (5.0, -5.0)
        elif case == "nan":
            bounds[4, 1] = np.nan
        else:
            bounds = bounds[:4]
        with pytest.raises(ValueError, match=match):
            pa.fit(spec, data, n_starts=2, seed=0, bounds=bounds, covariance=False)

    def test_start_override_used(self, w33):
        spec, data = small_model1_data(w33, T=4)
        start = model1_theta()
        res = pa.fit(spec, data, starts=[start], covariance=False)
        assert res.n_starts == 1

    def test_pure_spatial_model(self, w1010):
        # q = 0, h = 0, p = 0: a single-parameter fit with full inference
        spec = pa.ModelSpec(W=w1010, p=0, q=0, h=0, density=pa.normal())
        truth = pa.ParameterVector(0.6, [], [], [], [])
        data = pa.simulate(spec, truth, seed=2, T=40)
        res = pa.fit(spec, data, n_starts=2, seed=0)
        assert spec.dim == 1
        assert abs(res.theta.phi0 - 0.6) <= 4.0 * res.std_errors[0]
        assert res.converged

    def test_two_lag_model_round_trip(self, w1010):
        spec = pa.ModelSpec(W=w1010, p=2, q=2, h=1, density=pa.normal())
        truth = pa.ParameterVector(0.45, [0.2, -0.25], [0.5, -0.4], [1.0],
                                   [[0.9, -0.6]])
        assert pa.check_causal(spec, truth).causal
        data = pa.simulate(spec, truth, seed=41, T=15,
                           covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=4, seed=0)
        gap = np.abs(res.theta.to_array() - truth.to_array())
        assert np.all(gap <= 4.0 * res.std_errors)
        assert res.converged

    def test_step_within_rounding_converges(self, w2020):
        # a design where a step that takes the gradient norm from 1.8e-4 to
        # 1e-12 can lower the log-likelihood (about -17515.6) by one ulp;
        # rejecting such a step leaves the fit just above the threshold
        # tol * (1 + |ll|) = 1.75e-4
        spec = model1_spec(w2020)
        data = pa.simulate(spec, model1_theta(), seed=1622779217, burn_in=200, T=30,
                           covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=5, seed=1622779217)
        assert res.converged


class TestLogDetBeforeWorkspace:
    """A fit that picks its own starts builds W's log-det backend before its
    LikelihoodWorkspace, so that the build's transient and the workspace do
    not add up in its peak memory; a fit given its starts builds nothing
    early."""

    @staticmethod
    def seen_at_workspace(monkeypatch, W):
        """W's log-det record and whether it holds its spectrum, read as each
        LikelihoodWorkspace is made."""
        seen, init = [], likelihood.LikelihoodWorkspace.__init__

        def spy(ws, spec, data):
            seen.append((W.log_det_record, "eigenvalues" in W.__dict__))
            init(ws, spec, data)

        monkeypatch.setattr(likelihood.LikelihoodWorkspace, "__init__", spy)
        return seen

    @pytest.mark.parametrize("backend", ["series", "spectrum"])
    @pytest.mark.parametrize("own_starts", [True, False], ids=["own-starts", "given-starts"])
    def test_backend_built_first(self, monkeypatch, backend, own_starts):
        if backend == "series":
            monkeypatch.setattr(weights, "N_SERIES", 20)
        spec = model1_spec(pa.build_queen_lattice(6, 6))
        data = pa.simulate(spec, model1_theta(), seed=3, T=8, burn_in=100,
                           covariate_columns=MODEL1_COLUMNS)
        seen = self.seen_at_workspace(monkeypatch, spec.W)
        starts = None if own_starts else [model1_theta()]
        pa.fit(spec, data, n_starts=2, seed=0, starts=starts, covariance=False)
        [(record, spectrum)] = seen
        assert record["backend"] == backend
        if backend == "series":
            # the ordering node and the inner positive piece, which the
            # starts' grid reads first
            built = (["positive-inner"], weights.SERIES_NODES) if own_starts else ([], 0)
            assert (record["pieces"], record["factorizations"]) == built
            assert not spectrum
        else:
            assert spectrum == own_starts


class TestFormatTable:
    """fit.txt's bytes, in both layouts, pinned as literal strings."""

    NAMES = ["phi0", "phi1", "lambda1", "gamma11", "gamma12"]
    THETA = pa.ParameterVector(0.6, [-0.274], [], [1.5], [[0.75, -0.35]])

    def test_with_standard_errors(self):
        res = pa.FitResult(
            theta=self.THETA, loglik=-123.456789, gradient_norm=3.2e-9, converged=True,
            n_starts=3, n_iterations=17, aic=256.9, covariance=np.eye(5),
            std_errors=np.array([0.05, 0.2, 0.4, 0.1, 0.3]),
            ci95=np.array([[0.502, 0.698], [-0.666, 0.118], [0.716, 2.284],
                           [0.554, 0.946], [-0.938, 0.238]]),
            cov_note="Hessian nearly singular", causality=pa.CausalityCheck(True, 0.4321),
            names=self.NAMES)
        assert res.format_table() == (
            "Parameter    Estimate      Std.                95% C.I.\n"
            "phi0           0.6000    0.0500  (   0.5020,    0.6980)\n"
            "phi1          -0.2740    0.2000  (  -0.6660,    0.1180)*\n"
            "lambda1        1.5000    0.4000  (   0.7160,    2.2840)\n"
            "gamma11        0.7500    0.1000  (   0.5540,    0.9460)\n"
            "gamma12       -0.3500    0.3000  (  -0.9380,    0.2380)*\n"
            "\n"
            "log-likelihood  -123.4568\n"
            "AIC             256.9000\n"
            "converged       True  (grad norm 3.200e-09)\n"
            "causal          True  (max root modulus 0.4321)\n"
            "note: Hessian nearly singular")

    def test_without_standard_errors(self):
        # the Laplace layout: estimates only, and the covariance note
        res = pa.FitResult(
            theta=self.THETA, loglik=-98.7654321, gradient_norm=1.5e-4, converged=False,
            n_starts=3, n_iterations=500, aic=207.5,
            cov_note="sandwich covariance unavailable for the Laplace family: the "
                     "log-density has no second derivative at 0; point estimates only",
            names=self.NAMES)
        assert res.format_table() == (
            "Parameter    Estimate\n"
            "phi0           0.6000\n"
            "phi1          -0.2740\n"
            "lambda1        1.5000\n"
            "gamma11        0.7500\n"
            "gamma12       -0.3500\n"
            "\n"
            "log-likelihood  -98.7654\n"
            "AIC             207.5000\n"
            "converged       False  (grad norm 1.500e-04)\n"
            "note: sandwich covariance unavailable for the Laplace family: the log-density "
            "has no second derivative at 0; point estimates only")

    def test_warning_lines(self):
        # phi0 pinned at its bound and an estimate left in non-canonical
        # form: one warning line each, after the fit summary
        res = pa.FitResult(
            theta=self.THETA, loglik=-50.0, gradient_norm=2.0e-9, converged=True,
            n_starts=1, n_iterations=9, aic=110.0, canonical=False, boundary_warning=True,
            names=self.NAMES)
        assert res.format_table().endswith(
            "converged       True  (grad norm 2.000e-09)\n"
            "warning: phi0 pinned at its search bound\n"
            "warning: estimate reported in non-canonical form "
            "(gamma_i1 < 0 without an intercept column)")


class TestFitResiduals:
    """``FitResult.residuals`` is the workspace's cache at the reported theta."""

    def test_residuals_at_the_canonical_theta(self, w1010, monkeypatch):
        # an intercept design fitted from the mirror image of the truth in
        # the first neuron (gamma_11 < 0), so canonicalize flips the optimum
        # before the residuals are taken
        spec = pa.ModelSpec(W=w1010, p=1, q=3, h=2, density=pa.normal(),
                            include_intercept=True)
        truth = pa.ParameterVector(0.5, [-0.2], [0.3, 0.4, -0.5], [1.5, -1.0],
                                   [[0.5, 0.75, -0.35], [0.4, -0.3, 0.6]])
        columns = [{"kind": "constant", "value": 1.0}] + MODEL1_COLUMNS
        data = pa.simulate(spec, truth, seed=12, T=8, covariate_columns=columns)
        mirror = truth.copy()
        mirror.beta[0] += mirror.lam[0]
        mirror.lam[0] = -mirror.lam[0]
        mirror.gamma[0] = -mirror.gamma[0]
        flips = []

        def recording(theta, include_intercept):
            out = pa.canonicalize(theta, include_intercept)
            flips.append(not np.array_equal(out.x, theta.x))
            return out

        monkeypatch.setattr(estimate, "canonicalize", recording)
        res = pa.fit(spec, data, starts=[mirror], covariance=False)
        assert flips == [True] and res.canonical
        fresh = pa.LikelihoodWorkspace(spec, data).residuals(res.theta)
        assert np.array_equal(res.residuals, fresh)

    def test_residuals_of_a_linear_fit(self, w1010):
        spec = pa.ModelSpec(W=w1010, p=1, q=2, h=0, density=pa.normal())
        data = pa.simulate(spec, pa.ParameterVector(0.5, [-0.2], [1.0, -0.7], [], []),
                           seed=23, T=10, covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=2, seed=0)
        assert res.residuals.shape == (data.T, data.n)
        fresh = pa.LikelihoodWorkspace(spec, data).residuals(res.theta)
        assert np.array_equal(res.residuals, fresh)
        assert "residuals" not in res.to_json_dict()


# the fit-adj3107 model (q = 4 with an intercept, h = 2, scaled t(8), T = 2)
ADJ_THETA = pa.ParameterVector(0.4, [0.3], [-1.2, 0.15, -1.2, -0.15], [3.2, 1.8],
                               [[0.5, 1.6, -2.5, 2.3], [0.4, -1.8, 1.3, -0.9]])
ADJ_COLUMNS = [{"kind": "constant", "value": 1.0}] + [{"kind": "normal", "sd": 1.0}] * 3


def adj_model_data(n1, seed, series=False):
    """The fit-adj3107 model simulated on an n1 x n1 lattice; with ``series``,
    W's log-det is the series (N_SERIES lowered for its build)."""
    with pytest.MonkeyPatch.context() as mp:
        if series:
            mp.setattr(weights, "N_SERIES", 20)
        W = pa.build_queen_lattice(n1, n1)
    spec = pa.ModelSpec(W=W, p=1, q=4, h=2, density=pa.scaled_t(8), linear_term=True,
                        include_intercept=True)
    return spec, pa.simulate(spec, ADJ_THETA, seed=seed, T=2, covariate_columns=ADJ_COLUMNS)


@pytest.fixture(scope="module")
def adj_workspaces():
    return {backend: pa.LikelihoodWorkspace(*adj_model_data(8, 8, backend == "series"))
            for backend in ("spectrum", "series")}


class TestBoundRejection:
    """A trial whose density sum alone already fails the ratio test is
    rejected without its log-det (ln|A0| <= 0 bounds L by that sum)."""

    def test_stray_trial_builds_no_negative_piece(self, monkeypatch):
        # on this design one trial of the fit steps below phi0 = 0 though
        # every start and the optimum lie above it; the exact fit builds the
        # negative series piece for that trial alone
        results = {}
        for bound in (True, False):
            spec, data = adj_model_data(8, 8, series=True)
            with monkeypatch.context() as mp:
                if not bound:
                    mp.setattr(likelihood, "_LOG_DET_SLACK", np.inf)
                results[bound] = pa.fit(spec, data, seed=8), spec.W.log_det_record
        (res, record), (exact, exact_record) = results[True], results[False]
        for f in dataclasses.fields(pa.FitResult):
            a, b = getattr(res, f.name), getattr(exact, f.name)
            if f.name == "trace":
                a, b = ([{k: v for k, v in t.items() if k != "seconds"} for t in tr]
                        for tr in (a, b))
            elif f.name == "theta":
                a, b = a.x, b.x
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
        assert exact_record["pieces"] == ["negative-inner", "positive-inner"]
        assert record["pieces"] == ["positive-inner"]
        assert record["factorizations"] < exact_record["factorizations"]

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(backend=st.sampled_from(["spectrum", "series"]),
           phi0=st.one_of(st.floats(-1e-4, 1e-4), st.floats(-0.995, 0.995)),
           delta=st.floats(0.0, 1e3), jitter=st.floats(-1e-9, 1e-9))
    def test_never_rejects_what_the_ratio_accepts(self, adj_workspaces, backend, phi0, delta,
                                                  jitter):
        # f_new is the exact objective of a trial; f, the current one, and
        # pred are chosen so that the trust region's threshold
        # f + noise - 0.15 (pred + noise) falls within about jitter of f_new
        ws = adj_workspaces[backend]
        theta = ADJ_THETA.copy()
        theta.phi0 = phi0
        f_new = -ws.log_likelihood(theta)
        f = f_new + delta
        noise = 10.0 * np.finfo(float).eps * max(1.0, abs(f))
        pred = ((f - f_new + noise) / 0.15 - noise) * (1.0 + jitter)
        threshold = f + noise - 0.15 * (pred + noise)
        ll, g = ws.loglik_and_gradient(theta, -threshold)
        if ll == -np.inf:  # a bound rejection
            assert g is None
            assert not (pred > 0 and (f - f_new + noise) / (pred + noise) > 0.15)
        else:
            assert ll == -f_new


class TestTrustRegionNewton:
    # reference optima from an independent optimizer (L-BFGS-B followed by
    # damped Newton steps) on model 1 at 10x10, T = 10, 4 starts
    QUASI_NEWTON = {
        ("normal", 3): -1473.428523232486,
        ("normal", 17): -1466.410097250302,
        ("normal", 31): -1460.3717516665217,
        ("t:8", 3): -1424.9293018484395,
        ("t:8", 17): -1451.6689221325219,
        ("t:8", 31): -1422.5711684650023,
    }

    @pytest.mark.parametrize("density, seed", list(QUASI_NEWTON))
    def test_matches_quasi_newton_optimum(self, w1010, density, seed):
        spec, data = small_model1_data(w1010, seed=seed, T=10,
                                       density=pa.density_from_config(density))
        res = pa.fit(spec, data, n_starts=4, seed=seed, covariance=False)
        assert res.converged
        assert_allclose(res.loglik, self.QUASI_NEWTON[density, seed], rtol=1e-9, atol=0)

    def test_gains_below_rounding_reach_a_tight_tolerance(self, w1010):
        # with tol = 1e-12 the last steps predict gains far below one ulp of
        # the log-likelihood; the ratio test must judge them by the model,
        # not by the rounding of the objective
        spec, data = small_model1_data(w1010, seed=2, T=10)
        res = pa.fit(spec, data, n_starts=2, seed=2, tol=1e-12, covariance=False)
        assert res.converged
        assert {t["message"] for t in res.trace} == {"projected gradient below tolerance"}

    @pytest.mark.parametrize("density, stages", [
        (pa.normal(), 1), (pa.laplace(), len(estimate._LAPLACE_SMOOTHING))],
        ids=["normal", "laplace"])
    def test_iteration_cap_reported_as_not_converged(self, w1010, density, stages):
        # max_iter bounds each smoothing stage, and nit sums over them
        spec, data = small_model1_data(w1010, seed=3, T=10, density=density)
        res = pa.fit(spec, data, n_starts=2, seed=3, max_iter=1, covariance=False)
        assert not res.converged
        assert res.gradient_norm > 1e-8 * (1 + abs(res.loglik))
        assert [t["nit"] for t in res.trace] == [stages, stages]
        assert {t["message"] for t in res.trace} == {"maximum number of iterations reached"}

    @pytest.mark.parametrize("density", [pa.normal(), pa.laplace()], ids=["normal", "laplace"])
    def test_reported_stopping_test_is_the_winners(self, w1010, density):
        # fit reads converged, gradient_norm and loglik off the winning
        # start; with h = 0 nothing is canonicalized, so a fresh workspace
        # at the reported theta must give them again bit for bit, under the
        # objective of the last stage
        spec = pa.ModelSpec(W=w1010, p=1, q=2, h=0, density=density)
        truth = pa.ParameterVector(0.5, [-0.2], [1.0, -0.7], [], [])
        data = pa.simulate(spec, truth, seed=23, T=10, covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=2, seed=0, covariance=False)
        ws = pa.LikelihoodWorkspace(spec, data)
        assert res.loglik == ws.log_likelihood(res.theta)
        if not density.differentiable:
            ws.density = SmoothedLaplace(estimate._LAPLACE_SMOOTHING[-1])
        ll, g = ws.loglik_and_gradient(res.theta)
        lb, ub = pa.default_bounds(spec).T
        norm, done, _ = estimate._first_order(res.theta.x, -g, -ll, lb, ub, 1e-8)
        assert res.gradient_norm == norm
        assert res.converged is done

    # Laplace optima from L-BFGS-B, the optimizer Laplace fits ran before the
    # smoothing homotopy, on the designs of QUASI_NEWTON
    LBFGSB_LAPLACE = {3: -1383.818634788414, 17: -1405.2923087756355,
                      31: -1340.9208256680015}

    @pytest.mark.parametrize("seed", list(LBFGSB_LAPLACE))
    def test_laplace_homotopy_reaches_the_quasi_newton_optimum(self, w1010, seed):
        spec, data = small_model1_data(w1010, seed=seed, T=10, density=pa.laplace())
        res = pa.fit(spec, data, n_starts=4, seed=seed, covariance=False)
        assert res.converged
        pinned = self.LBFGSB_LAPLACE[seed]
        assert res.loglik >= pinned - 1e-8 * (1 + abs(pinned))
        # every start is scored by the exact log-likelihood, and the starts
        # that reach the winner's optimum agree on it
        near = [t["loglik"] for t in res.trace if res.loglik - t["loglik"] < 1e-2]
        assert len(near) >= 2 and max(near) == res.loglik
        assert res.loglik - min(near) <= 1e-8 * (1 + abs(res.loglik))

    def test_objective_flat_to_rounding_ends_the_start(self):
        # f is constant and its gradient is not: once the radius is below the
        # rounding, steps are accepted on the model alone and lower nothing,
        # which without the flat test cycles until max_iter
        res = estimate._trust_region_newton(
            lambda x, threshold=np.inf: (1.0, np.full(2, 1e-3)), np.zeros(2),
            hess=lambda x: np.zeros((2, 2)), bounds=[(-1.0, 1.0)] * 2, maxiter=500)
        assert not res.success
        assert res.nit == estimate._FLAT_TRIALS < 500
        assert res.message == (f"no progress: {estimate._FLAT_TRIALS} trials gained less than "
                               "the rounding of f")

    @pytest.mark.parametrize("index, bound", [(2, (-50.0, 1.0)), (4, (-0.2, 25.0))])
    def test_binding_box_converges_on_the_bound(self, w1010, index, bound):
        # index 2 is lambda_1 (1.5 at truth), index 4 gamma_12 (-0.35)
        spec, data = small_model1_data(w1010, seed=3, T=10)
        free = pa.fit(spec, data, n_starts=2, seed=3, covariance=False)
        assert not bound[0] <= free.theta.x[index] <= bound[1]
        bounds = pa.default_bounds(spec)
        bounds[index] = bound
        res = pa.fit(spec, data, n_starts=2, seed=3, bounds=bounds, covariance=False)
        assert res.converged
        assert res.gradient_norm <= 1e-8 * (1 + abs(res.loglik))
        assert res.theta.x[index] in bound
        assert res.loglik < free.loglik

    def test_each_trial_evaluates_the_objective_once(self, w44, monkeypatch):
        # an accepted trial's gradient is kept, not asked for again, so the
        # objective's evaluations are exactly the trace's nfev
        spec, data = small_model1_data(w44, seed=5, T=8)
        calls = []
        original = pa.LikelihoodWorkspace.loglik_and_gradient

        def counted(ws, theta, *floor):
            calls.append(1)
            return original(ws, theta, *floor)

        monkeypatch.setattr(pa.LikelihoodWorkspace, "loglik_and_gradient", counted)
        truth = model1_theta().to_array()
        starts = [truth, 1.2 * truth, 0.7 * truth]
        res = pa.fit(spec, data, starts=starts, covariance=False)
        assert sum(t["nit"] for t in res.trace) > len(starts)
        assert len(calls) == sum(t["nfev"] for t in res.trace)

    def test_non_finite_hessian_fails_the_start(self):
        # as a non-finite objective at the start does: fun = inf, so the
        # start is no candidate, and the message names the cause
        def hess(x):
            raise pa.NumericalError("Hessian entry (beta1, beta1) is not finite")

        res = estimate._trust_region_newton(
            lambda x, threshold=np.inf: (float(x @ x), 2.0 * x), np.full(2, 0.5),
            hess=hess, bounds=[(-1.0, 1.0)] * 2)
        assert (res.fun, res.pg_norm, res.success, res.nit, res.nfev) == (np.inf, np.inf,
                                                                          False, 0, 1)
        assert res.message == "Hessian failed: Hessian entry (beta1, beta1) is not finite"

    def test_asymmetric_hessian_fails_the_start(self):
        # every NumericalError of the Hessian fails the start, not the fit
        def hess(x):
            raise pa.NumericalError("Hessian asymmetry 1.000e-03 exceeds tolerance")

        res = estimate._trust_region_newton(
            lambda x, threshold=np.inf: (float(x @ x), 2.0 * x), np.full(2, 0.5),
            hess=hess, bounds=[(-1.0, 1.0)] * 2)
        assert (res.fun, res.pg_norm, res.success) == (np.inf, np.inf, False)
        assert res.message == "Hessian failed: Hessian asymmetry 1.000e-03 exceeds tolerance"

    def test_every_start_meeting_a_non_finite_hessian_raises_fit_error(self, w33, monkeypatch):
        def failing(ws, theta):
            raise pa.NumericalError("Hessian entry (beta1, beta1) is not finite")

        monkeypatch.setattr(pa.LikelihoodWorkspace, "hessian", failing)
        spec, data = small_model1_data(w33, T=6)
        with pytest.raises(pa.FitError, match=r"all 2 starts failed .*\(last start: Hessian "
                                              r"failed: Hessian entry \(beta1, beta1\)") as err:
            pa.fit(spec, data, n_starts=2, seed=0)
        # the error carries each start's record, as a fit's trace would
        assert [(r["loglik"], r["message"]) for r in err.value.trace] == [
            (None, "Hessian failed: Hessian entry (beta1, beta1) is not finite")] * 2

    def test_covariance_numerical_error_leaves_the_estimate(self, w33, monkeypatch):
        spec, data = small_model1_data(w33, T=6)
        want = pa.fit(spec, data, n_starts=2, seed=0, covariance=False)

        def failing(ws, theta):
            raise pa.NumericalError("Hessian entry (phi0, phi0) is not finite")

        monkeypatch.setattr(estimate, "sandwich_covariance", failing)
        res = pa.fit(spec, data, n_starts=2, seed=0)
        assert res.loglik == want.loglik and np.array_equal(res.theta.x, want.theta.x)
        assert res.std_errors is None
        assert res.to_json_dict()["covariance_note"] == "Hessian entry (phi0, phi0) is not finite"

    def test_trace_has_one_record_per_start(self, w1010):
        spec, data = small_model1_data(w1010, seed=17, T=10)
        res = pa.fit(spec, data, n_starts=3, seed=1, covariance=False)
        assert len(res.trace) == res.n_starts == 3
        assert sum(t["nfev"] for t in res.trace) > 0
        assert max(t["loglik"] for t in res.trace) == res.loglik
        for t in res.trace:
            assert t["loglik"] >= t["start_loglik"]
            assert t["nit"] >= 1 and t["seconds"] > 0
        assert res.to_json_dict()["trace"] == res.trace


class TestSandwichCovariance:
    def test_spd_and_positive_ci_widths(self, w1010):
        spec, data = small_model1_data(w1010, seed=3, T=10)
        res = pa.fit(spec, data, n_starts=3, seed=3)
        cov = pa.sandwich_covariance(pa.LikelihoodWorkspace(spec, data), res.theta)
        eigs = np.linalg.eigvalsh(cov["omega"])
        assert eigs[0] > 0
        assert_allclose(cov["omega"], cov["omega"].T)
        widths = cov["ci95"][:, 1] - cov["ci95"][:, 0]
        assert np.all(widths > 0)
        assert_allclose(widths, 2 * 1.96 * cov["se"], atol=1e-12)

    def test_information_equality_at_truth(self, w2020):
        # Gaussian design with a strong linear signal: A and B agree
        # entrywise within 10% of the largest entry of A
        spec = pa.ModelSpec(W=w2020, p=1, q=2, h=2, density=pa.normal())
        theta0 = pa.ParameterVector(0.6, [-0.274], [0.24, -0.7], [2.0, 0.8],
                                    [[0.75, 0.7], [0.35, -1.0]])
        data = pa.simulate(spec, theta0, seed=5, T=25,
                           covariate_columns=MODEL1_COLUMNS)
        ws = pa.LikelihoodWorkspace(spec, data)
        A = -ws.hessian(theta0) / (data.n * data.T)
        B = ws.score_outer_product(theta0)
        assert np.max(np.abs(A - B)) <= 0.10 * np.max(np.abs(A))

    def test_laplace_unavailable(self, w33):
        spec, data = small_model1_data(w33, T=4, density=pa.laplace())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = pa.fit(spec, data, n_starts=2, seed=0)
        assert res.covariance is None
        assert res.std_errors is None
        assert "Laplace" in res.cov_note
        # fit writes the note from the family; the sandwich meets the
        # Hessian's own refusal
        with pytest.raises(ValueError, match="analytic Hessian is unavailable for the Laplace"):
            pa.sandwich_covariance(pa.LikelihoodWorkspace(spec, data), res.theta)

    def test_singular_information_reported(self, w33):
        # duplicated neurons make the score components collinear
        spec = pa.ModelSpec(W=w33, p=0, q=2, h=2, density=pa.normal())
        theta = pa.ParameterVector(0.2, [], [0.1, -0.2], [0.7, 0.7],
                                   [[0.5, 0.3], [0.5, 0.3]])
        data = random_panel(spec, 3, np.random.default_rng(3))
        with pytest.raises(pa.NumericalError, match="positive definite|condition"):
            pa.sandwich_covariance(pa.LikelihoodWorkspace(spec, data), theta)

    def test_indefinite_information_reports_positive_condition_number(self, w33):
        # far from the optimum, t(4) residuals of scale 20 sit where the
        # log-density is convex, so -H has eigenvalues of both signs; the
        # condition number is max |eig| / min |eig|, not their signed ratio
        rng = np.random.default_rng(7)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.scaled_t(4))
        data = random_panel(spec, 4, rng, y_scale=20.0)
        theta = pa.ParameterVector(0.2, [0.1], [0.3, -0.2], [1.0], [[0.5, 0.4]])
        ws = pa.LikelihoodWorkspace(spec, data)
        eigs = np.linalg.eigvalsh(-ws.hessian(theta) / (data.n * data.T))
        assert eigs[0] < 0 < eigs[-1]
        with pytest.raises(pa.NumericalError, match="not positive definite") as info:
            pa.sandwich_covariance(ws, theta)
        cond = float(re.search(r"condition number ([^)]+)\)", str(info.value)).group(1))
        mags = np.abs(eigs)
        assert_allclose(cond, mags.max() / mags.min(), rtol=1e-3)

    def test_non_finite_sandwich_named(self, w33):
        # beta of 1e160 makes every residual about 1e160: the normal score
        # products V^2 overflow B, while A, which does not depend on the
        # residuals, stays finite and positive definite. The sandwich is
        # named before eigvalsh, which would raise LinAlgError (a
        # ValueError) on its NaN
        rng = np.random.default_rng(11)
        spec = pa.ModelSpec(W=w33, p=0, q=2, h=0, density=pa.normal(), linear_term=True)
        data = random_panel(spec, 3, rng)
        theta = pa.ParameterVector(0.2, [], [1e160, -1e160], [], [])
        with np.errstate(all="ignore"), \
                pytest.raises(pa.NumericalError, match="^sandwich covariance is not finite$"):
            pa.sandwich_covariance(pa.LikelihoodWorkspace(spec, data), theta)

    def test_full_scale_standard_errors(self):
        # one-neuron design at full scale: the fit lands within 4 reference
        # SDs of truth and the sandwich SEs match the reference asymptotic
        # magnitudes within 50%
        W = pa.build_queen_lattice(30, 30)
        spec = model1_spec(W)
        data = pa.simulate(spec, model1_theta(), seed=8, T=30,
                           covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=3, seed=0)
        truth = model1_theta().to_array()
        empirical_sd = np.array([0.0065, 0.0079, 0.0274, 0.0269, 0.0134])
        assert np.all(np.abs(res.theta.to_array() - truth) <= 4.0 * empirical_sd)
        reference_se = np.array([0.0079, 0.0085, 0.0308, 0.0310, 0.0147])
        assert np.all(res.std_errors > 0.5 * reference_se)
        assert np.all(res.std_errors < 1.5 * reference_se)


class TestLikelihoodRatio:
    def test_identical_models(self, w33):
        spec, data = small_model1_data(w33, T=4)
        res = pa.fit(spec, data, n_starts=2, seed=0, covariance=False)
        out = pa.likelihood_ratio_test(res, res, df=2)
        assert out["stat"] == 0.0
        assert out["pvalue"] == 1.0

    def test_reported_statistic_tail(self):
        full = pa.FitResult(theta=pa.ParameterVector(0, [], [], [], []),
                            loglik=-1734.5, gradient_norm=0, converged=True,
                            n_starts=1, n_iterations=0, aic=0)
        nested = pa.FitResult(theta=pa.ParameterVector(0, [], [], [], []),
                              loglik=-1734.5 - 287.17 / 2, gradient_norm=0,
                              converged=True, n_starts=1, n_iterations=0, aic=0)
        out = pa.likelihood_ratio_test(full, nested, df=6)
        assert_allclose(out["stat"], 287.17, atol=1e-9)
        assert out["pvalue"] < 1e-10

    @pytest.mark.parametrize("stat,df", [(0.0, 1), (0.7, 1), (3.84, 1), (11.3, 4),
                                         (287.17, 6), (2000.0, 3)])
    def test_pvalue_equals_scipy_stats(self, stat, df):
        theta = pa.ParameterVector(0, [], [], [], [])
        full = pa.FitResult(theta=theta, loglik=-100.0 + stat / 2, gradient_norm=0,
                            converged=True, n_starts=1, n_iterations=0, aic=0)
        nested = pa.FitResult(theta=theta, loglik=-100.0, gradient_norm=0,
                              converged=True, n_starts=1, n_iterations=0, aic=0)
        out = pa.likelihood_ratio_test(full, nested, df=df)
        assert out["pvalue"] == float(stats.chi2.sf(out["stat"], df))

    def test_non_nested_rejected(self, w33):
        spec, data = small_model1_data(w33, T=4)
        res = pa.fit(spec, data, n_starts=2, seed=0, covariance=False)
        better = pa.FitResult(theta=res.theta, loglik=res.loglik + 5.0,
                              gradient_norm=0, converged=True, n_starts=1,
                              n_iterations=0, aic=0)
        with pytest.raises(ValueError, match="nest"):
            pa.likelihood_ratio_test(res, better, df=1)

    def test_nested_fit_comparison(self, w1010):
        # h=1 truth: the h=1 fit beats the h=0 fit and the LRT rejects
        spec1, data = small_model1_data(w1010, seed=17, T=10)
        res1 = pa.fit(spec1, data, n_starts=4, seed=1, covariance=False)
        spec0 = pa.ModelSpec(W=data and spec1.W, p=1, q=2, h=0,
                             density=pa.normal(), linear_term=True)
        res0 = pa.fit(spec0, data, n_starts=2, seed=1, covariance=False)
        out = pa.likelihood_ratio_test(res1, res0, df=spec1.dim - spec0.dim + 2)
        assert out["stat"] > 0
        assert out["pvalue"] < 0.05

    def test_null_calibration_with_unidentified_neuron(self, w1010):
        # true h=1, fit h=1 vs h=2 over 100 replicates. The chi-square(3)
        # reference is only approximate here: the extra neuron's gamma row
        # is unidentified under the null, which inflates the statistic
        # (a sup-type rather than chi-square limit). The frozen Monte-Carlo
        # band reflects the measured inflation (rate ~0.14-0.15, stable in
        # n and T); the chi-square 5% rate would be 0.05.
        spec1 = model1_spec(w1010)
        spec2 = pa.ModelSpec(W=w1010, p=1, q=2, h=2, density=pa.normal(),
                             linear_term=False)
        theta0 = model1_theta()
        rejections = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in range(100):
                data = pa.simulate(spec1, theta0,
                                   seed=np.random.SeedSequence(55, spawn_key=(r,)),
                                   T=10, covariate_columns=MODEL1_COLUMNS)
                r1 = pa.fit(spec1, data, n_starts=5, seed=r, covariance=False)
                r2 = pa.fit(spec2, data, n_starts=5, seed=r, covariance=False)
                out = pa.likelihood_ratio_test(r2, r1, df=3)
                rejections += out["pvalue"] < 0.05
        assert 3 <= rejections <= 25


class TestInitialPoints:
    def test_deterministic_and_bounded(self, w33):
        spec, data = small_model1_data(w33, T=4)
        s1 = pa.initial_points(pa.LikelihoodWorkspace(spec, data), n_starts=4, seed=9)
        s2 = pa.initial_points(pa.LikelihoodWorkspace(spec, data), n_starts=4, seed=9)
        bounds = pa.default_bounds(spec)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.to_array(), b.to_array())
            x = a.to_array()
            assert np.all(x >= bounds[:, 0]) and np.all(x <= bounds[:, 1])
            assert np.all(a.gamma[:, 0] > 0)

    def test_phi0_box_is_the_series_box(self, w33, monkeypatch):
        # read at call time, so a fit never steps past the series' box
        spec = model1_spec(w33)
        cap = weights.SERIES_PHI0_MAX
        assert pa.default_bounds(spec)[0].tolist() == [-cap, cap]
        monkeypatch.setattr(weights, "SERIES_PHI0_MAX", 0.9)
        assert pa.default_bounds(spec)[0].tolist() == [-0.9, 0.9]

    @pytest.mark.parametrize("p, q, h, linear_term", [(1, 2, 1, False), (3, 3, 2, True)])
    def test_default_box_is_the_documented_one(self, w33, p, q, h, linear_term):
        # the box of the estimate module's docstring: |phi0| <= SERIES_PHI0_MAX,
        # phi_i in [-3, 3], beta and lambda in [-50, 50], gamma in [-25, 25]
        spec = pa.ModelSpec(W=w33, p=p, q=q, h=h, density=pa.normal(),
                            linear_term=linear_term)
        cap = weights.SERIES_PHI0_MAX
        box = {"phi0": [-cap, cap], "phi": [-3.0, 3.0], "beta": [-50.0, 50.0],
               "lambda": [-50.0, 50.0], "gamma": [-25.0, 25.0]}
        bounds = pa.default_bounds(spec)
        assert bounds.shape == (spec.dim, 2)
        for name, row in zip(pa.param_names(spec), bounds.tolist()):
            assert row == box[re.match(r"[a-z]+0?", name).group()], name

    def test_single_start(self, w33):
        spec, data = small_model1_data(w33, T=4)
        starts = pa.initial_points(pa.LikelihoodWorkspace(spec, data), n_starts=1, seed=0)
        assert len(starts) == 1

    def test_linear_profile_start_near_truth(self, w1010):
        # with h=0 the profile start already sits close to the optimum
        spec = pa.ModelSpec(W=w1010, p=1, q=2, h=0, density=pa.normal())
        theta0 = pa.ParameterVector(0.5, [-0.2], [1.0, -0.7], [], [])
        data = pa.simulate(spec, theta0, seed=23, T=10, covariate_columns=[
            {"kind": "normal", "sd": 1.0}, {"kind": "normal", "sd": 2.0}])
        start = pa.initial_points(pa.LikelihoodWorkspace(spec, data), n_starts=1, seed=0)[0]
        assert abs(start.phi0 - 0.5) < 0.1
        assert np.max(np.abs(start.beta - theta0.beta)) < 0.15

    @pytest.mark.parametrize("p, q, h, linear", [(2, 3, 2, True), (1, 2, 1, False),
                                                 (0, 1, 1, False)])
    def test_profile_start_matches_per_point_least_squares(self, w1010, p, q, h, linear):
        # reference: one least-squares fit of y - phi0 W Y_t on the lags and
        # X per grid point, keeping the best Gaussian profile likelihood
        spec = pa.ModelSpec(W=w1010, p=p, q=q, h=h, density=pa.normal(),
                            linear_term=linear)
        rng = np.random.default_rng(37)
        data = random_panel(spec, 6, rng)
        T = data.T
        wy = spec.W.W.dot(data.Y.T).T
        y = data.Y_sample.ravel()
        L0 = wy[p:].ravel()
        cols = [wy[p - i: p - i + T].ravel() for i in range(1, p + 1)]
        if linear:
            cols += [data.X[:, :, j].ravel() for j in range(q)]
        Z = np.column_stack(cols) if cols else np.zeros((y.size, 0))
        best = None
        for phi0 in np.linspace(-0.9, 0.9, 37):
            target = y - phi0 * L0
            coef = np.linalg.lstsq(Z, target, rcond=None)[0]
            r = target - Z @ coef
            ll = T * spec.W.log_det_a0(phi0) - 0.5 * float(r @ r)
            if best is None or ll > best[0]:
                best = (ll, phi0, coef)
        _, phi0, coef = best

        start = pa.initial_points(pa.LikelihoodWorkspace(spec, data), n_starts=3, seed=2)[0]
        expected = np.concatenate(([phi0], coef))
        got = np.concatenate(([start.phi0], start.phi, start.beta))
        assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("call, message", [
    (lambda spec, data: pa.fit(spec, data, n_starts=0), "n_starts must be >= 1"),
    (lambda spec, data: pa.initial_points(pa.LikelihoodWorkspace(spec, data), n_starts=-1),
     "n_starts must be >= 1"),
    (lambda spec, data: pa.likelihood_ratio_test(*[pa.fit(spec, data, n_starts=1,
                                                          covariance=False)] * 2, 0),
     "df must be >= 1"),
], ids=["fit-no-start", "initial-points-negative", "lr-test-df"])
def test_input_checks_name_the_fault(w33, call, message):
    spec, data = small_model1_data(w33, T=4)
    with pytest.raises(ValueError) as err:
        call(spec, data)
    assert str(err.value) == message
