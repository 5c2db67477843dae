"""Moran's I, residual diagnostics, heatmap grids."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import pstarann as pa
from conftest import MODEL1_COLUMNS, model1_spec, model1_theta


class TestMoransI:
    def test_row_standardized_simplification(self, w44):
        # S0 = n for row-standardized weights, so I = (e'We)/(e'e)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16)
        e = v - v.mean()
        expected = float(e @ w44.W.dot(e)) / float(e @ e)
        out = pa.morans_i(w44, v)
        assert_allclose(out["I"], expected, atol=1e-14)

    def test_scale_and_shift_invariance(self, w44):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(16)
        base = pa.morans_i(w44, v)
        for a, b in [(2.5, 0.0), (1.0, -7.0), (-3.0, 4.0)]:
            out = pa.morans_i(w44, a * v + b)
            assert_allclose(out["I"], base["I"], atol=1e-12)
            assert_allclose(out["z"], base["z"], atol=1e-12)

    def test_null_z_moderate(self, w2020):
        # i.i.d. data: |z| < 4 in at least 99 of 100 seeds
        count = 0
        for seed in range(100):
            v = np.random.default_rng(seed).standard_normal(400)
            if abs(pa.morans_i(w2020, v)["z"]) < 4.0:
                count += 1
        assert count >= 99

    def test_strong_autocorrelation_flagged(self, w2020):
        # v = A0^{-1} eps with phi0 = 0.8 is strongly positively correlated
        rng = np.random.default_rng(7)
        v = w2020.a0_factor(0.8).solve(rng.standard_normal(400))
        out = pa.morans_i(w2020, v)
        assert out["z"] > 10.0
        assert out["pvalue"] < 1e-20

    def test_pvalue_equals_scipy_stats(self, w44):
        rng = np.random.default_rng(29)
        for _ in range(20):
            out = pa.morans_i(w44, rng.standard_normal(16) + 0.3 * np.arange(16))
            assert out["pvalue"] == 2.0 * stats.norm.sf(abs(out["z"]))

    def test_constant_vector_rejected(self, w22):
        with pytest.raises(ValueError, match="constant"):
            pa.morans_i(w22, np.full(4, 2.0))

    def test_expected_value_formula(self, w44):
        out = pa.morans_i(w44, np.arange(16.0))
        assert_allclose(out["expected"], -1.0 / 15.0, atol=1e-15)

    def test_variance_against_permutation_free_formula(self, w33):
        # independent recomputation of S0, S1, S2 from the dense matrix
        Wd = w33.W.toarray()
        n = 9
        s0 = Wd.sum()
        s1 = 0.5 * ((Wd + Wd.T) ** 2).sum()
        s2 = ((Wd.sum(axis=1) + Wd.sum(axis=0)) ** 2).sum()
        ei = -1.0 / (n - 1)
        var = (n * n * s1 - n * s2 + 3 * s0 * s0) / ((n * n - 1) * s0 * s0) - ei * ei
        out = pa.morans_i(w33, np.arange(9.0) ** 2)
        assert_allclose(out["variance"], var, atol=1e-14)

    def test_weight_sums_cached_and_slices_unchanged(self, w44):
        # S0, S1, S2 live on the weights; I and z per slice still follow the
        # dense formulas
        Wd = w44.W.toarray()
        n = 16
        s0 = Wd.sum()
        s1 = 0.5 * ((Wd + Wd.T) ** 2).sum()
        s2 = ((Wd.sum(axis=1) + Wd.sum(axis=0)) ** 2).sum()
        assert_allclose([w44.s0, w44.s1, w44.s2], [s0, s1, s2], rtol=1e-14)
        ei = -1.0 / (n - 1)
        var = (n * n * s1 - n * s2 + 3 * s0 * s0) / ((n * n - 1) * s0 * s0) - ei * ei
        E = np.random.default_rng(31).standard_normal((5, n))
        for v in E:
            e = v - v.mean()
            I = (n / s0) * (e @ Wd @ e) / (e @ e)
            out = pa.morans_i(w44, v)
            assert_allclose(out["I"], I, rtol=1e-13)
            assert_allclose(out["z"], (I - ei) / np.sqrt(var), rtol=1e-13)

    def test_wrong_length(self, w22):
        with pytest.raises(ValueError, match="length"):
            pa.morans_i(w22, np.ones(5))


@pytest.fixture(scope="module")
def fitted(w1010):
    spec = model1_spec(w1010)
    data = pa.simulate(spec, model1_theta(), seed=19, T=10,
                       covariate_columns=MODEL1_COLUMNS)
    res = pa.fit(spec, data, n_starts=3, seed=0, covariance=False)
    return spec, data, res


class TestResidualDiagnostics:
    def test_correctly_specified_residuals_pass_moran(self, fitted):
        spec, data, res = fitted
        diag = pa.residual_diagnostics(spec, res.residuals)
        pvals = [d["pvalue"] for d in diag["moran_per_t"]]
        assert len(pvals) == data.T
        assert np.median(pvals) > 0.1

    def test_qq_pairs_monotone(self, fitted):
        spec, data, res = fitted
        diag = pa.residual_diagnostics(spec, res.residuals)
        qq = diag["qq"]
        assert qq.shape == (data.n * data.T, 2)
        assert np.all(np.diff(qq[:, 0]) >= 0)
        assert np.all(np.diff(qq[:, 1]) >= 0)

    def test_misspecified_fit_reported(self, w1010):
        # data from a one-neuron model, fitted without the network term;
        # the diagnostics are reported (no threshold asserted): the fit's
        # residuals are simply checked to be finite and the Moran column
        # present for every slice
        spec1 = model1_spec(w1010)
        data = pa.simulate(spec1, model1_theta(), seed=29, T=8,
                           covariate_columns=MODEL1_COLUMNS)
        spec0 = pa.ModelSpec(W=w1010, p=1, q=2, h=0, density=pa.normal())
        res0 = pa.fit(spec0, data, n_starts=2, seed=0, covariance=False)
        diag = pa.residual_diagnostics(spec0, res0.residuals)
        assert np.all(np.isfinite(res0.residuals))
        assert sorted(diag) == ["moran_per_t", "qq"]
        assert len(diag["moran_per_t"]) == 8


    def test_constant_slice_recorded_as_null(self, fitted):
        # an exact fit of a constant panel leaves constant residuals: that
        # slice's Moran entry is null with its reason, the others as before
        spec, data, res = fitted
        residuals = res.residuals.copy()
        residuals[2] = 0.125
        diag = pa.residual_diagnostics(spec, residuals)
        want = pa.residual_diagnostics(spec, res.residuals)["moran_per_t"]
        got = diag["moran_per_t"]
        assert got[2] == {"t": 3, "I": None, "z": None, "pvalue": None,
                          "reason": "residuals constant in this slice: Moran's I is undefined"}
        assert got[:2] + got[3:] == want[:2] + want[3:]
        assert diag["qq"].shape == (data.n * data.T, 2)
        with pytest.raises(ValueError, match="constant vector"):
            pa.morans_i(spec.W, residuals[2])


class TestHeatmapGrid:
    def test_2x2_row_major(self):
        grid = pa.heatmap_grid(np.array([1.0, 2.0, 3.0, 4.0]), (2, 2))
        assert_allclose(grid, [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(12)
        path = tmp_path / "grid.csv"
        grid = pa.heatmap_grid(v, (3, 4), path=path)
        assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), grid)

    def test_simulation_slice_grid_dims(self, w1010):
        spec = pa.ModelSpec(W=w1010, p=1, q=2, h=1, density=pa.normal())
        theta = pa.ParameterVector(0.6, [-0.274], [0.24, -0.7], [1.5],
                                   [[0.75, -0.35]])
        data = pa.simulate(spec, theta, seed=30, T=30,
                           covariate_columns=MODEL1_COLUMNS)
        grid = pa.heatmap_grid(data.Y[spec.p + 29], w1010.lattice_dims)
        assert grid.shape == (10, 10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="lattice"):
            pa.heatmap_grid(np.ones(5), (2, 2))

    def test_non_lattice_rejected(self):
        with pytest.raises(ValueError, match="lattice"):
            pa.heatmap_grid(np.ones(4), None)
