"""Error-family log densities, score ratios, curvature, and sampling."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

import pstarann as pa
from pstarann.densities import SmoothedLaplace
from conftest import oracle_log_pdf


ALL_FAMILIES = [pa.normal(), pa.scaled_t(4.0), pa.laplace()]


class TestLogPdf:
    def test_normal_at_zero(self):
        assert_allclose(pa.normal().log_pdf(0.0), -0.5 * math.log(2 * math.pi), atol=1e-12)

    def test_laplace_at_zero(self):
        assert_allclose(pa.laplace().log_pdf(0.0), math.log(1 / math.sqrt(2)), atol=1e-12)

    def test_scaled_t_matches_scipy(self):
        d = pa.scaled_t(4)
        s = np.array([-3.0, -0.5, 0.0, 0.7, 2.5])
        assert_allclose(d.log_pdf(s), oracle_log_pdf(d, s), atol=1e-12)

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label)
    def test_integrates_to_one(self, d):
        val, err = integrate.quad(lambda s: math.exp(d.log_pdf(s)), -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label)
    def test_unit_variance(self, d):
        val, err = integrate.quad(lambda s: s * s * math.exp(d.log_pdf(s)), -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-6

    def test_finite_everywhere(self):
        s = np.array([-40.0, -5.0, 0.0, 5.0, 40.0])
        for d in ALL_FAMILIES:
            assert np.all(np.isfinite(d.log_pdf(s)))


class TestScore:
    def test_normal_is_minus_s(self):
        d = pa.normal()
        for s in (-2.0, 0.0, 3.5):
            assert_allclose(d.score(s), -s, atol=1e-14)

    def test_scaled_t_matches_finite_difference(self):
        d = pa.scaled_t(4)
        h = 1e-6
        for s in (-2.0, -0.3, 1.0, 4.0):
            fd = (d.log_pdf(s + h) - d.log_pdf(s - h)) / (2 * h)
            assert abs(d.score(s) - fd) < 1e-8 * (1 + abs(fd))

    def test_laplace_constant_magnitude(self):
        d = pa.laplace()
        assert_allclose(d.score(2.0), -math.sqrt(2.0), atol=1e-14)
        assert_allclose(d.score(-0.5), math.sqrt(2.0), atol=1e-14)
        assert d.score(0.0) == 0.0


class TestCurvature:
    def test_normal_is_minus_one(self):
        d = pa.normal()
        assert_allclose(d.curvature(np.array([-2.0, 0.0, 5.0])), -1.0)

    def test_scaled_t_matches_second_difference(self):
        d = pa.scaled_t(4)
        h = 1e-4
        for s in (0.7, -1.3, 2.2):
            fd = (d.log_pdf(s + h) - 2 * d.log_pdf(s) + d.log_pdf(s - h)) / (h * h)
            assert abs(d.curvature(s) - fd) < 1e-6 * (1 + abs(fd))

    def test_laplace_zero(self):
        d = pa.laplace()
        assert d.curvature(1.0) == 0.0
        assert d.curvature(0.0) == 0.0

    @pytest.mark.parametrize("d", [pa.normal(), pa.scaled_t(4), pa.scaled_t(8)],
                             ids=lambda d: d.label)
    def test_score_and_curvature_consistent(self, d):
        # d/ds log f = score and d/ds score = curvature, away from kinks
        rng = np.random.default_rng(3)
        for s in rng.uniform(-4, 4, 12):
            h = 1e-6 * (1 + abs(s))
            fd1 = (d.log_pdf(s + h) - d.log_pdf(s - h)) / (2 * h)
            fd2 = (d.score(s + h) - d.score(s - h)) / (2 * h)
            assert abs(d.score(s) - fd1) < 1e-6 * (1 + abs(fd1))
            assert abs(d.curvature(s) - fd2) < 1e-6 * (1 + abs(fd2))


class TestAssumptionIdentities:
    """Integral identities of the score/curvature used by the asymptotics.

    f' = V f and f'' = (U + V^2) f turn them into quadrature over the
    library's V and U; the density itself comes from the scipy oracle.
    """

    @pytest.mark.parametrize("d", [pa.normal(), pa.scaled_t(6), pa.scaled_t(8)],
                             ids=lambda d: d.label)
    def test_integral_identities(self, d):
        def f(s):
            return math.exp(oracle_log_pdf(d, s))

        sf_prime, _ = integrate.quad(lambda s: s * d.score(s) * f(s), -np.inf, np.inf)
        assert abs(sf_prime - (-1.0)) < 1e-6

        fpp, _ = integrate.quad(
            lambda s: (d.curvature(s) + d.score(s) ** 2) * f(s), -np.inf, np.inf
        )
        assert abs(fpp) < 1e-6

        s2fpp, _ = integrate.quad(
            lambda s: s * s * (d.curvature(s) + d.score(s) ** 2) * f(s), -np.inf, np.inf
        )
        assert abs(s2fpp - 2.0) < 1e-6


class TestSampling:
    def test_normal_variance(self):
        x = pa.normal().sample(0, 10**6)
        assert abs(x.var() - 1.0) < 0.01

    def test_scaled_t_variance(self):
        x = pa.scaled_t(4).sample(1, 10**6)
        assert abs(x.var() - 1.0) < 0.02

    def test_laplace_mean_and_variance(self):
        x = pa.laplace().sample(2, 10**6)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.01

    def test_deterministic_for_fixed_seed(self):
        for d in ALL_FAMILIES:
            assert_allclose(d.sample(42, 1000), d.sample(42, 1000))

    @pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label)
    def test_draws_in_pieces_equal_one_draw(self, d):
        # the simulator draws its innovations block by block from one Generator
        whole = d.sample(np.random.default_rng(5), 1000)
        rng = np.random.default_rng(5)
        pieces = np.concatenate([d.sample(rng, k) for k in (1, 31, 32, 400, 536)])
        assert np.array_equal(pieces, whole)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            pa.normal().sample(0, 0)


class TestPpf:
    def test_median_is_zero(self):
        for d in ALL_FAMILIES:
            assert_allclose(d.ppf(0.5), 0.0, atol=1e-12)

    def test_monotone(self):
        u = np.linspace(0.01, 0.99, 25)
        for d in ALL_FAMILIES:
            assert np.all(np.diff(d.ppf(u)) > 0)

    def test_matches_sample_quantiles(self):
        d = pa.scaled_t(8)
        x = d.sample(7, 200000)
        assert abs(np.quantile(x, 0.9) - d.ppf(0.9)) < 0.01

    @pytest.mark.parametrize("d", [pa.normal(), pa.scaled_t(4), pa.scaled_t(8.5),
                                   pa.laplace()], ids=lambda d: d.label)
    def test_equals_scipy_stats(self, d):
        # the special-function kernels are the ones scipy.stats calls
        u = np.concatenate(([-0.1, 0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 1.1],
                            (np.arange(1, 2001) - 0.5) / 2000))
        if d.family == "normal":
            expected = stats.norm.ppf(u)
        elif d.family == "scaled_t":
            expected = d.t_scale * stats.t.ppf(u, d.nu)
        else:
            expected = stats.laplace.ppf(u, scale=np.sqrt(2.0) / 2.0)
        np.testing.assert_array_equal(d.ppf(u), expected)


class TestConfigParsing:
    def test_families(self):
        assert pa.density_from_config("normal").family == "normal"
        assert pa.density_from_config("laplace").family == "laplace"
        d = pa.density_from_config("t:4")
        assert d.family == "scaled_t" and d.nu == 4.0
        assert pa.density_from_config("t:8.5").nu == 8.5
        assert pa.density_from_config(" T:8 ").nu == 8.0

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown density"):
            pa.density_from_config("cauchy")
        with pytest.raises(ValueError, match="degrees of freedom"):
            pa.density_from_config("t:abc")
        with pytest.raises(ValueError, match="nu > 2"):
            pa.density_from_config("t:2")

    @pytest.mark.parametrize("text", ["t:nan", "t:inf", "t:1e400"])
    def test_non_finite_nu_rejected(self, text):
        # a non-finite nu would make every log-density, score and draw NaN
        with pytest.raises(ValueError, match=r"finite nu > 2 .*got nu=(nan|inf)"):
            pa.density_from_config(text)
        with pytest.raises(ValueError, match="finite nu"):
            pa.ErrorDensity("scaled_t", float(text[2:]))


class TestSmoothedLaplace:
    """The pseudo-Huber objective of a Laplace fit's smoothing stages."""

    @pytest.mark.parametrize("mu", [1e-1, 1e-3, 1e-6])
    def test_derivatives_match_finite_differences(self, mu):
        d = SmoothedLaplace(mu)
        s = mu * np.array([-30.0, -2.0, -0.3, 0.0, 0.4, 1.0, 25.0])
        h = 1e-4 * mu
        fd1 = (d.log_pdf(s + h) - d.log_pdf(s - h)) / (2 * h)
        fd2 = (d.score(s + h) - d.score(s - h)) / (2 * h)
        assert_allclose(d.score(s), fd1, rtol=0, atol=1e-5)
        assert_allclose(d.curvature(s), fd2, rtol=0, atol=1e-5 / mu)

    @pytest.mark.parametrize("mu", [1e-1, 1e-6])
    def test_lies_within_mu_over_b_below_laplace(self, mu):
        s = np.concatenate((np.linspace(-3.0, 3.0, 61), mu * np.linspace(-5.0, 5.0, 41)))
        exact = pa.laplace().log_pdf(s)
        smooth = SmoothedLaplace(mu).log_pdf(s)
        assert np.all(smooth <= exact)
        assert np.all(smooth >= exact - mu * math.sqrt(2.0) - 1e-15)

    def test_no_config_string_names_it(self):
        for text in ("smoothed_laplace", "pseudo-huber", "laplace:1e-3"):
            with pytest.raises(ValueError, match="unknown density spec"):
                pa.density_from_config(text)
