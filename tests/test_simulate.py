"""Simulator determinism, distributional checks, and the panel CSV format."""

import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pstarann as pa
from conftest import (MODEL1_COLUMNS, assert_spectral_agrees, delaunay_weights, model1_spec,
                      model1_theta, oracle_simulate, random_causal_theta,
                      reference_write_panel_csv)
from pstarann import _csv
from pstarann.model import CAUSAL_MARGIN
from pstarann.simulate import BLOCK_STEPS, SKIP_BOUND, _skipped_steps

# the module, which the package's ``simulate`` function shadows
simulate_module = importlib.import_module("pstarann.simulate")

# an intercept column, so the drive's linear and network parts see a constant
INTERCEPT_COLUMNS = [{"kind": "constant", "value": 1.0}, {"kind": "normal", "sd": 1.5},
                     {"kind": "normal", "mean": -0.5, "sd": 0.8}]


class TestSimulate:
    def test_deterministic(self, w33):
        spec = model1_spec(w33)
        theta = model1_theta()
        a = pa.simulate(spec, theta, seed=9, T=5, covariate_columns=MODEL1_COLUMNS)
        b = pa.simulate(spec, theta, seed=9, T=5, covariate_columns=MODEL1_COLUMNS)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.eps, b.eps)

    def test_degenerate_model_reproduces_noise(self, w1010):
        # all parameters zero: Y_t = eps_t
        spec = pa.ModelSpec(W=w1010, p=0, q=1, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.0, [], [0.0], [], [])
        data = pa.simulate(spec, theta, seed=0, T=120,
                           covariate_columns=[{"kind": "normal", "sd": 1.0}])
        assert_allclose(data.Y_sample, data.eps, atol=1e-14)
        assert abs(data.Y.var() - 1.0) < 0.02  # nT = 12000

    def test_pure_spatial_variance_matches_dense_oracle(self, w44):
        # p=0, h=0, q=0, phi0=0.6: Var(pooled Y) = (1/n) tr(A0^{-1} A0^{-T})
        spec = pa.ModelSpec(W=w44, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.6, [], [], [], [])
        T = 4000
        data = pa.simulate(spec, theta, seed=1, T=T, burn_in=0,
                           X=np.zeros((T, 16, 0)))
        A0inv = np.linalg.inv(np.eye(16) - 0.6 * w44.W.toarray())
        target = np.trace(A0inv @ A0inv.T) / 16.0
        assert abs(data.Y.var() / target - 1.0) < 0.03

    def test_heatmap_design_runs_and_flips(self, w1010):
        # two-covariate design with a negative temporal lag
        spec = pa.ModelSpec(W=w1010, p=1, q=2, h=1, density=pa.normal())
        theta = pa.ParameterVector(0.6, [-0.274], [0.24, -0.7], [1.5],
                                   [[0.75, -0.35]])
        data = pa.simulate(spec, theta, seed=30, T=30, covariate_columns=MODEL1_COLUMNS)
        assert np.all(np.isfinite(data.Y))
        y = data.Y_sample
        yc = y - y.mean()
        lag1 = np.sum(yc[1:] * yc[:-1]) / np.sum(yc * yc)
        assert lag1 < 0.0  # phi1 < 0 flips consecutive slices

    def test_residual_round_trip(self, w33):
        spec = model1_spec(w33, density=pa.scaled_t(4))
        theta = model1_theta()
        data = pa.simulate(spec, theta, seed=3, T=10, covariate_columns=MODEL1_COLUMNS)
        E = pa.LikelihoodWorkspace(spec, data).residuals(theta)
        assert np.max(np.abs(E - data.eps)) < 1e-9

    def test_stationarity_halves(self, w33):
        spec = model1_spec(w33)
        data = pa.simulate(spec, model1_theta(), seed=6, T=400,
                           covariate_columns=MODEL1_COLUMNS)
        # batch means over 20-slice blocks absorb the serial and spatial
        # dependence when sizing the Monte-Carlo error of each half
        blocks = data.Y_sample.reshape(20, 20, -1)
        bmean = blocks.mean(axis=(1, 2))
        bvar = blocks.var(axis=(1, 2))
        for stat in (bmean, bvar):
            a, b = stat[:10], stat[10:]
            se = np.sqrt(a.var(ddof=1) / 10.0 + b.var(ddof=1) / 10.0)
            assert abs(a.mean() - b.mean()) < 3.0 * se

    def test_p2_matches_manual_recursion(self, w33):
        # independent oracle: iterate the defining recursion by hand with
        # dense algebra and the same inputs
        spec = pa.ModelSpec(W=w33, p=2, q=1, h=1, density=pa.normal())
        theta = pa.ParameterVector(0.4, [0.25, -0.15], [0.6], [0.9], [[1.1]])
        steps = 2 + 3
        rng = np.random.default_rng(12)
        X = rng.standard_normal((steps, 9, 1))
        eps = rng.standard_normal((steps, 9))
        data = pa.simulate(spec, theta, X=X, burn_in=0, errors=eps)

        Wd = w33.W.toarray()
        A0inv = np.linalg.inv(np.eye(9) - 0.4 * Wd)
        y1 = y2 = np.zeros(9)  # W Y_{t-1}, W Y_{t-2}
        Y = []
        for m in range(steps):
            rhs = (eps[m] + X[m] @ theta.beta
                   + 0.9 / (1.0 + np.exp(-1.1 * X[m, :, 0]))
                   + 0.25 * y1 - 0.15 * y2)
            y = A0inv @ rhs
            Y.append(y)
            y1, y2 = Wd @ y, y1
        assert_allclose(data.Y, np.array(Y), atol=1e-12)

    def test_noncausal_rejected(self, w22):
        spec = pa.ModelSpec(W=w22, p=1, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.0, [1.5], [], [], [])
        with pytest.raises(ValueError, match="non-causal"):
            pa.simulate(spec, theta, seed=0, T=3, X=np.zeros((204, 4, 0)))

    def test_noise_injection_hook(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.5, [], [], [], [])
        errors = np.zeros((3, 4))
        data = pa.simulate(spec, theta, T=3, burn_in=0, X=np.zeros((3, 4, 0)),
                           errors=errors)
        assert_allclose(data.Y, 0.0, atol=1e-14)

    def test_drawn_covariates_need_positive_t(self, w33):
        spec = model1_spec(w33)
        for T in (0, -1):
            with pytest.raises(ValueError, match="T >= 1"):
                pa.simulate(spec, model1_theta(), T=T, covariate_columns=MODEL1_COLUMNS)

    def test_covariate_column_count_checked(self, w33):
        spec = model1_spec(w33)  # q = 2
        for columns in (MODEL1_COLUMNS[:1], MODEL1_COLUMNS + MODEL1_COLUMNS[:1]):
            with pytest.raises(ValueError, match=f"{len(columns)} covariate column specs "
                                                 "for a model with q = 2"):
                pa.simulate(spec, model1_theta(), T=3, covariate_columns=columns)

    def test_explicit_x_shape_checked(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=1, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.1, [], [0.5], [], [])
        with pytest.raises(ValueError, match="shape"):
            pa.simulate(spec, theta, T=3, burn_in=0, X=np.zeros((3, 4, 2)))
        with pytest.raises(ValueError, match="steps"):
            pa.simulate(spec, theta, T=5, burn_in=0, X=np.zeros((3, 4, 1)))


class TestGenerateCovariates:
    def test_normal_column_sd(self):
        X = pa.generate_covariates([{"kind": "normal", "sd": 1.5}], n=100, T=1000, seed=0)
        assert abs(X.std() - 1.5) < 0.02

    def test_intercept_column(self):
        X = pa.generate_covariates(
            [{"kind": "constant", "value": 1.0}, {"kind": "normal", "sd": 2.0}],
            n=10, T=5, seed=1)
        assert_allclose(X[:, :, 0], 1.0)

    def test_columns_uncorrelated(self):
        X = pa.generate_covariates(
            [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}],
            n=200, T=500, seed=2)
        a, b = X[:, :, 0].ravel(), X[:, :, 1].ravel()
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.02

    def test_mean_shift(self):
        X = pa.generate_covariates([{"kind": "normal", "mean": 3.0, "sd": 0.5}],
                                   n=100, T=100, seed=3)
        assert abs(X.mean() - 3.0) < 0.02

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown covariate"):
            pa.generate_covariates([{"kind": "poisson"}], n=2, T=2, seed=0)

    def test_no_columns_give_an_empty_array(self):
        # q = 0 is the general draw with zero columns
        assert pa.generate_covariates([], 5, 7, 1).shape == (7, 5, 0)

    @pytest.mark.parametrize("columns", [INTERCEPT_COLUMNS, []], ids=["q3", "q0"])
    @pytest.mark.parametrize("first", [0, 1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1,
                                       2 * BLOCK_STEPS + 4, 2 * BLOCK_STEPS + 5])
    def test_first_keeps_the_tail_of_the_full_draw(self, columns, first):
        # every step is drawn, so the kept rows are the full draw's bits and
        # the generator ends where the full draw leaves it
        T = 2 * BLOCK_STEPS + 5
        full_rng, part_rng = np.random.default_rng(4), np.random.default_rng(4)
        full = pa.generate_covariates(columns, 6, T, full_rng)
        part = pa.generate_covariates(columns, 6, T, part_rng, first=first)
        assert part.shape == (T - first, 6, len(columns))
        assert np.array_equal(part, full[first:])
        assert np.array_equal(part_rng.random(3), full_rng.random(3))

    @pytest.mark.parametrize("first", [-1, 8])
    def test_first_outside_the_draw_rejected(self, first):
        with pytest.raises(ValueError, match=f"need 0 <= first <= T, got first = {first}"):
            pa.generate_covariates(INTERCEPT_COLUMNS, 2, 7, 0, first=first)


class TestPanelCSV:
    def test_round_trip_exact(self, w33, tmp_path):
        spec = model1_spec(w33)
        data = pa.simulate(spec, model1_theta(), seed=5, T=4,
                           covariate_columns=MODEL1_COLUMNS)
        path = tmp_path / "panel.csv"
        pa.write_panel_csv(path, data)
        back = pa.read_panel_csv(path, p=1, q=2)
        assert np.array_equal(back.Y, data.Y)
        assert np.array_equal(back.X, data.X)
        assert back.p == 1 and back.T == 4

    def test_presample_rows_carry_nonpositive_t(self, w22, tmp_path):
        spec = pa.ModelSpec(W=w22, p=2, q=1, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.2, [0.1, 0.05], [0.5], [], [])
        data = pa.simulate(spec, theta, seed=1, T=3,
                           covariate_columns=[{"kind": "normal", "sd": 1.0}])
        path = tmp_path / "panel.csv"
        pa.write_panel_csv(path, data)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,s,y,x1"
        ts = {int(line.split(",")[0]) for line in lines[1:]}
        assert ts == set(range(-1, 4))

    def test_malformed_row_named(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t,s,y,x1\n1,0,1.0,0.5\n1,1,oops,0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            pa.read_panel_csv(path, p=0, q=1)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("time,loc,y,x1\n")
        with pytest.raises(ValueError, match="header"):
            pa.read_panel_csv(path, p=0, q=1)

    def test_missing_cell_detected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t,s,y\n1,0,1.0\n1,1,2.0\n2,0,3.0\n")
        with pytest.raises(ValueError, match="missing"):
            pa.read_panel_csv(path, p=0, q=0)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t,s,y,x1\n1,0,1.0\n")
        with pytest.raises(ValueError, match="fields"):
            pa.read_panel_csv(path, p=0, q=1)

    # presample row t=0 for s=0,1, then sample rows t=1 (header is line 1)
    GOOD_ROWS = ["0,0,0.5,", "0,1,-0.5,", "1,0,1.0,0.3", "1,1,2.0,-0.2"]

    def _write(self, tmp_path, rows):
        path = tmp_path / "panel.csv"
        path.write_text("t,s,y,x1\n" + "\n".join(rows) + "\n")
        return path

    def test_duplicate_cell_named(self, tmp_path):
        rows = self.GOOD_ROWS + ["1,0,9.0,0.1"]
        with pytest.raises(ValueError, match=r"line 6 repeats \(t, s\) = \(1, 0\) of line 4"):
            pa.read_panel_csv(self._write(tmp_path, rows), p=1, q=1)

    @pytest.mark.parametrize("k, row", [(3, "1,1,nan,-0.2"), (3, "1,1,inf,-0.2"),
                                        (3, "1,1,-inf,-0.2"), (2, "1,0,1.0,nan"),
                                        (2, "1,0,1.0,inf")])
    def test_nonfinite_value_named(self, tmp_path, k, row):
        rows = list(self.GOOD_ROWS)
        rows[k] = row
        with pytest.raises(ValueError, match=f"non-finite value at line {k + 2}"):
            pa.read_panel_csv(self._write(tmp_path, rows), p=1, q=1)

    def test_presample_covariate_named(self, tmp_path):
        rows = list(self.GOOD_ROWS)
        rows[1] = "0,1,-0.5,0.7"
        with pytest.raises(ValueError, match="covariate value on presample line 3"):
            pa.read_panel_csv(self._write(tmp_path, rows), p=1, q=1)

    def test_empty_sample_covariate_named(self, tmp_path):
        rows = list(self.GOOD_ROWS)
        rows[3] = "1,1,2.0, "
        with pytest.raises(ValueError, match="empty covariate field at line 5"):
            pa.read_panel_csv(self._write(tmp_path, rows), p=1, q=1)

    # line 5 repeats line 4's (t, s) and line 7 holds a non-finite y
    SEVERAL_FAULTS = GOOD_ROWS[:3] + ["1,0,9.0,0.1", "1,1,2.0,-0.2", "2,0,nan,0.1"]

    @pytest.mark.parametrize("last, message", [
        ("2,1,1.0,0.2", "non-finite value at line 7"),
        ("2,1,oops,0.2", "malformed value at line 8"),
        ("2,1,1.0", "line 8 has 3 fields, expected 4"),
    ], ids=["non-finite-before-repeat", "malformed-first", "field-count-first"])
    def test_several_faults_name_first_check_that_fails(self, tmp_path, last, message):
        # the checks run over the whole file one after another (field count,
        # parse, non-finite, empty covariate, presample covariate, repeated
        # cell), and the first that fails names its first line, even when a
        # later check would fail on an earlier line
        rows = self.SEVERAL_FAULTS + [last]
        with pytest.raises(ValueError, match=f"panel.csv: {message}"):
            pa.read_panel_csv(self._write(tmp_path, rows), p=1, q=1)

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            pa.read_panel_csv(self._write(tmp_path, []), p=1, q=1)

    def test_presample_only_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows with t >= 1"):
            pa.read_panel_csv(self._write(tmp_path, self.GOOD_ROWS[:2]), p=1, q=1)

    # The file is read _csv.BLOCK_ROWS lines at a time; the cases below place
    # their faults and blank lines by that size, so that TestPanelCSVInBlocks
    # puts them in other blocks than the lines they are checked against.

    @staticmethod
    def _many_rows(count):
        """At least ``count`` lines of a valid p = 1, q = 1 panel on 10
        locations: indices 0-9 are the presample, index i is on line i + 2."""
        rows = [f"0,{s},0.5," for s in range(10)]
        return rows + [f"{t},{s},1.5,0.25" for t in range(1, -(-count // 10) + 1)
                       for s in range(10)]

    def _message(self, tmp_path, rows):
        path = self._write(tmp_path, rows)
        with pytest.raises(ValueError) as err:
            pa.read_panel_csv(path, p=1, q=1)
        prefix = f"{path}: "
        assert str(err.value).startswith(prefix)
        return str(err.value)[len(prefix):]

    def test_repeated_cell_names_line_of_earlier_block(self, tmp_path):
        far = 2 * _csv.BLOCK_ROWS + 13  # more than a block after index 12, cell (1, 2)
        rows = self._many_rows(far + 10)
        rows[far] = "1,2,9.0,0.25"
        assert self._message(tmp_path, rows) == f"line {far + 2} repeats (t, s) = (1, 2) of line 14"

    def test_repeated_cell_with_ids_near_int64_limit(self, tmp_path):
        # ids far beyond any lattice, at both signs: the sort compares them
        # as they are, with no key built from their range
        big = 2**62 + 7
        rows = [f"{-big},{big},0.5,", f"1,{-big},1.5,0.25", f"{-big},{big - 1},0.5,",
                f"1,{big},1.5,0.25", f"{-big},{big},0.7,"]
        assert self._message(tmp_path, rows) == f"line 6 repeats (t, s) = ({-big}, {big}) of line 2"

    # a fault at index 3 (a presample line, line 5) and one at index `far`,
    # two blocks on (a sample line): (index, field, value) edits, a value of
    # None dropping the field, and the message
    @pytest.mark.parametrize("edits, message", [
        ([("near", 2, "nan"), ("far", 3, "oops")], "malformed value at line {far}"),
        ([("near", 3, "oops"), ("far", 0, "oops")], "malformed value at line {far}"),
        ([("near", 1, "oops"), ("far", 1, "oops")], "malformed value at line {near}"),
        ([("near", 2, "oops"), ("far", 3, None)], "line {far} has 3 fields, expected 4"),
        ([("near", 3, "0.7"), ("far", 3, "")], "empty covariate field at line {far}"),
        ([("near", 2, "inf"), ("far", 3, "")], "non-finite value at line {near}"),
    ], ids=["parse-before-non-finite", "columns-in-header-order", "first-line-of-a-column",
            "field-count-first", "empty-before-presample", "non-finite-before-empty"])
    def test_faults_in_two_blocks_keep_whole_file_order(self, tmp_path, edits, message):
        index = {"near": 3, "far": 2 * _csv.BLOCK_ROWS + 14}
        rows = self._many_rows(index["far"] + 10)
        for where, field, value in edits:
            fields = rows[index[where]].split(",")
            fields[field:field + 1] = [] if value is None else [value]
            rows[index[where]] = ",".join(fields)
        lines = {where: k + 2 for where, k in index.items()}
        assert self._message(tmp_path, rows) == message.format(**lines)

    @pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "spaces"])
    def test_blank_lines_at_block_edge_skipped(self, tmp_path, blank):
        B = _csv.BLOCK_ROWS
        rows = self._many_rows(2 * B + 30)
        want = pa.read_panel_csv(self._write(tmp_path, rows), p=1, q=1)
        # the last line of the first block and the first line of the second
        rows[B - 1:B - 1] = [blank, blank]
        got = pa.read_panel_csv(self._write(tmp_path, rows), p=1, q=1)
        assert np.array_equal(got.Y, want.Y) and np.array_equal(got.X, want.X)
        # the blank lines count: index i is still on line i + 2
        rows[2 * B + 15] = rows[2 * B + 15].replace(",1.5,", ",oops,")
        assert self._message(tmp_path, rows) == f"malformed value at line {2 * B + 17}"

    def test_shuffled_multi_block_panel_round_trips(self, w1010, tmp_path):
        # 100 locations, p = 1 and T = 25: 2,600 lines, three default blocks,
        # with the presample ending inside one
        spec = model1_spec(w1010)
        data = pa.simulate(spec, model1_theta(), seed=8, T=25, covariate_columns=MODEL1_COLUMNS)
        path, reference = tmp_path / "panel.csv", tmp_path / "reference.csv"
        pa.write_panel_csv(path, data)
        reference_write_panel_csv(reference, data)
        assert path.read_bytes() == reference.read_bytes()
        header, *rows = path.read_text().splitlines()
        np.random.default_rng(0).shuffle(rows)
        path.write_text("\n".join([header] + rows) + "\n")
        back = pa.read_panel_csv(path, p=1, q=2)
        assert np.array_equal(back.Y, data.Y) and np.array_equal(back.X, data.X)


class TestPanelCSVInBlocks(TestPanelCSV):
    """Every TestPanelCSV case with 1- and 2-line blocks: each fault, each
    repeated cell's first line and each blank line falls in another block
    than the lines it is checked against, and every message is the one a
    whole-file read gives."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["block1", "block2"])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(_csv, "BLOCK_ROWS", request.param)


class TestBlockedIOMemory:
    """The model-1 panel of the replicate study, 20x20 with T = 30 (12,400
    lines), is read and written one block of lines at a time. Whole-file
    reads and writes peaked at 6.5 and 1.6 MB under tracemalloc; blocked,
    1.66 and 0.16 MB. With the repeated-cell check a sort of (t, s), not
    np.unique over their stacked rows, the read peaks at 1.63 MB."""

    @pytest.fixture(scope="class")
    def panel(self, w2020):
        return pa.simulate(model1_spec(w2020), model1_theta(), seed=3, T=30,
                           covariate_columns=MODEL1_COLUMNS)

    @staticmethod
    def _peak_mb(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_read_peak(self, panel, tmp_path):
        path = tmp_path / "panel.csv"
        pa.write_panel_csv(path, panel)
        assert self._peak_mb(lambda: pa.read_panel_csv(path, p=1, q=2)) < 1.8

    def test_write_peak(self, panel, tmp_path):
        assert self._peak_mb(lambda: pa.write_panel_csv(tmp_path / "panel.csv", panel)) < 0.5


class TestExogenousDrive:
    def test_matches_per_step_recursion(self, w33):
        # the drive eps + X beta + F(X gamma') lambda is built for a block of
        # steps at once; the panel must equal a loop that adds the linear
        # term step by step and the network term from one (h, steps n)
        # activation array, the simulator's layout
        spec = pa.ModelSpec(W=w33, p=2, q=3, h=2, density=pa.scaled_t(8))
        theta = pa.ParameterVector(0.3, [0.2, -0.1], [0.5, -0.3, 0.2], [1.2, 0.4],
                                   [[0.7, -0.3, 0.2], [0.4, 0.5, -0.6]])
        steps, burn_in = 40, 25
        rng = np.random.default_rng(17)
        X = 1.5 * rng.standard_normal((steps, spec.n, spec.q))
        eps = rng.standard_normal((steps, spec.n))
        data = pa.simulate(spec, theta, X=X, errors=eps, burn_in=burn_in)

        # the network term of every step in one (h, steps n) activation array
        net = theta.lam @ pa.sigmoid(theta.gamma @ X.reshape(-1, spec.q).T)
        net = net.reshape(steps, spec.n)
        lu = spec.W.a0_factor(theta.phi0)
        lags = [np.zeros(spec.n) for _ in range(spec.p)]
        Y = np.empty((steps, spec.n))
        for t in range(steps):
            rhs = eps[t].copy()
            rhs += X[t] @ theta.beta
            rhs += net[t]
            for i in range(spec.p):
                rhs += theta.phi[i] * lags[i]
            Y[t] = lu.solve(rhs)
            lags = [spec.W.W.dot(Y[t])] + lags[:-1]
        assert np.array_equal(data.Y, Y[burn_in:])


B = BLOCK_STEPS


class TestStreamedSimulation:
    """The simulator runs its time loop in blocks of BLOCK_STEPS steps and
    keeps only the retained window; its panels must equal the whole-array
    oracle's bit for bit, wherever the burn-in ends inside a block."""

    @pytest.mark.parametrize("burn_in", [0, 1, B - 1, B, B + 1, 200])
    @pytest.mark.parametrize("density", [pa.normal(), pa.scaled_t(8), pa.laplace()],
                             ids=lambda d: d.label)
    @pytest.mark.parametrize("p, h", [(0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2)])
    def test_matches_whole_array_oracle(self, w33, p, h, density, burn_in):
        spec = pa.ModelSpec(W=w33, p=p, q=3, h=h, density=density, include_intercept=True)
        theta = random_causal_theta(spec, np.random.default_rng(100 * p + h))
        T = B + 3  # the sample window spans a block boundary
        steps = burn_in + p + T
        rng = np.random.default_rng(burn_in)
        X = rng.standard_normal((steps, spec.n, spec.q))
        X[:, :, 0] = 1.0
        errors = density.sample(rng, steps * spec.n).reshape(steps, spec.n)
        for kwargs in ({"T": T, "covariate_columns": INTERCEPT_COLUMNS},
                       {"T": T, "covariate_columns": INTERCEPT_COLUMNS, "errors": errors},
                       {"X": X},
                       {"X": X, "errors": errors}):
            got = pa.simulate(spec, theta, seed=burn_in + 7, burn_in=burn_in, **kwargs)
            want = oracle_simulate(spec, theta, seed=burn_in + 7, burn_in=burn_in, **kwargs)
            assert np.array_equal(got.Y, want.Y)
            assert np.array_equal(got.X, want.X)
            assert np.array_equal(got.eps, want.eps)

    @pytest.mark.parametrize("drawn", [True, False], ids=["drawn-X", "injected-X"])
    def test_panel_owns_its_sample_covariates(self, w33, drawn):
        # the panel holds the T sample slices of X, not a view that keeps
        # all burn_in + p + T steps alive
        spec = pa.ModelSpec(W=w33, p=1, q=3, h=1, density=pa.normal(), include_intercept=True)
        theta = random_causal_theta(spec, np.random.default_rng(5))
        T, burn_in = 4, 50
        X = pa.generate_covariates(INTERCEPT_COLUMNS, spec.n, burn_in + spec.p + T, seed=2)
        kwargs = {"T": T, "covariate_columns": INTERCEPT_COLUMNS} if drawn else {"X": X}
        data = pa.simulate(spec, theta, seed=1, burn_in=burn_in, **kwargs)
        assert data.X.flags.owndata and data.X.base is None
        assert data.X.size == T * spec.n * spec.q
        if not drawn:
            assert np.array_equal(data.X, X[burn_in + spec.p:])
            assert not np.shares_memory(data.X, X)

    def test_peak_memory_bounded_by_covariates(self):
        # the fit-adj3107 model on a 40x40 lattice: q = 4 with an intercept,
        # h = 2, t(8) errors, 200 burn-in steps and T = 2, so that X is almost
        # all of what a simulation must hold. Whole-array drives and
        # activations peak at about 2.5 bytes(X).
        spec = pa.ModelSpec(W=pa.build_queen_lattice(40, 40), p=1, q=4, h=2,
                            density=pa.scaled_t(8), include_intercept=True)
        theta = pa.ParameterVector(0.4, [0.3], [-1.2, 0.15, -1.2, -0.15], [3.2, 1.8],
                                   [[0.5, 1.6, -2.5, 2.3], [0.4, -1.8, 1.3, -0.9]])
        columns = [{"kind": "constant", "value": 1.0}] + [{"kind": "normal", "sd": 1.0}] * 3
        tracemalloc.start()
        try:
            pa.simulate(spec, theta, seed=3, burn_in=200, T=2, covariate_columns=columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x_bytes = (200 + 1 + 2) * spec.n * spec.q * 8
        assert peak < 1.3 * x_bytes


class TestSpectralSimulation:
    """simulate(..., spectral=True) runs the recursion as n scalar AR(p)
    filters in W's eigenbasis. Its panels agree with the whole-array oracle,
    which solves with A0's sparse LU, to SPECTRAL_TOL; its covariates and
    innovations are the LU path's bits."""

    @pytest.mark.parametrize("burn_in", [0, 1, B - 1, B, 200])
    @pytest.mark.parametrize("density", [pa.normal(), pa.scaled_t(8), pa.laplace()],
                             ids=lambda d: d.label)
    @pytest.mark.parametrize("h", [0, 2])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_matches_whole_array_oracle(self, w1010, p, h, density, burn_in):
        spec = pa.ModelSpec(W=w1010, p=p, q=3, h=h, density=density, include_intercept=True)
        theta = random_causal_theta(spec, np.random.default_rng(100 * p + h))
        T = B + 3  # the sample window spans a block boundary
        steps = burn_in + p + T
        rng = np.random.default_rng(burn_in)
        X = rng.standard_normal((steps, spec.n, spec.q))
        X[:, :, 0] = 1.0
        errors = density.sample(rng, steps * spec.n).reshape(steps, spec.n)
        for kwargs in ({"T": T, "covariate_columns": INTERCEPT_COLUMNS},
                       {"T": T, "covariate_columns": INTERCEPT_COLUMNS, "errors": errors},
                       {"X": X},
                       {"X": X, "errors": errors}):
            got = pa.simulate(spec, theta, seed=burn_in + 7, burn_in=burn_in, spectral=True,
                              **kwargs)
            want = oracle_simulate(spec, theta, seed=burn_in + 7, burn_in=burn_in, **kwargs)
            assert_spectral_agrees(got, want)

    @pytest.mark.parametrize("density", [pa.normal(), pa.scaled_t(8), pa.laplace()],
                             ids=lambda d: d.label)
    def test_draws_equal_lu_path(self, w2020, density):
        # the replicate study's design: model 1 on 20x20, T = 30, burn-in 200
        spec = model1_spec(w2020, density)
        lu = pa.simulate(spec, model1_theta(), seed=11, T=30, covariate_columns=MODEL1_COLUMNS)
        got = pa.simulate(spec, model1_theta(), seed=11, T=30, covariate_columns=MODEL1_COLUMNS,
                          spectral=True)
        assert_spectral_agrees(got, lu)

    def test_peak_memory_bounded_by_covariates(self):
        # as TestStreamedSimulation's bound, on a 20x20 lattice with the
        # eigenbasis built beforehand: a block is mapped into the basis and
        # back only for the retained rows, so X is still almost all of it
        spec = pa.ModelSpec(W=pa.build_queen_lattice(20, 20), p=1, q=4, h=2,
                            density=pa.scaled_t(8), include_intercept=True)
        theta = pa.ParameterVector(0.4, [0.3], [-1.2, 0.15, -1.2, -0.15], [3.2, 1.8],
                                   [[0.5, 1.6, -2.5, 2.3], [0.4, -1.8, 1.3, -0.9]])
        columns = [{"kind": "constant", "value": 1.0}] + [{"kind": "normal", "sd": 1.0}] * 3
        _ = spec.W.eigenbasis
        tracemalloc.start()
        try:
            pa.simulate(spec, theta, seed=3, burn_in=200, T=2, covariate_columns=columns,
                        spectral=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x_bytes = (200 + 1 + 2) * spec.n * spec.q * 8
        assert peak < 1.3 * x_bytes


def reference_skip(n, p, rho, burn_in):
    """simulate's skip by its rule, from a loop over K with exact binomials."""
    K = 0
    if p and rho:
        while K < burn_in and (n + 1) * math.comb(K + p - 1, p - 1) * rho ** K > SKIP_BOUND:
            K += 1
    skip = max(burn_in - K, 0)
    return skip - skip % BLOCK_STEPS


# (design, p, h, density, phi0, phi): every family, p = 1..3, h = 0..2 and
# rho = 0 to 0.66, each with a burn-in cut of 32 to 192 steps
CUT_DESIGNS = [
    ("10x10", 1, 0, pa.normal(), 0.4, [0.3]),
    ("10x10", 1, 2, pa.scaled_t(8), -0.3, [0.25]),
    ("10x10", 2, 1, pa.laplace(), 0.2, [0.3, -0.2]),
    ("10x10", 3, 0, pa.normal(), 0.3, [0.2, 0.1, -0.1]),
    ("10x10", 3, 2, pa.scaled_t(8), -0.2, [0.3, -0.2, 0.1]),
    ("10x10", 1, 1, pa.normal(), 0.5, [0.0]),
    ("13x17", 1, 1, pa.normal(), 0.6, [-0.25]),
    ("13x17", 2, 2, pa.laplace(), 0.3, [0.2, 0.15]),
    ("13x17", 3, 1, pa.scaled_t(8), 0.1, [-0.2, 0.2, 0.1]),
    ("delaunay200", 1, 2, pa.laplace(), -0.4, [-0.45]),
    ("delaunay200", 2, 0, pa.scaled_t(8), 0.5, [0.1, 0.15]),
    ("delaunay200", 3, 1, pa.normal(), 0.2, [0.15, -0.1, 0.2]),
]


class TestBurnInCut:
    """simulate draws every burn-in step but simulates only the last K, those
    whose reach into the retained window exceeds SKIP_BOUND (n + 1); the
    panels must keep the full burn-in's bits."""

    WEIGHTS = {"10x10": lambda: pa.build_queen_lattice(10, 10),
               "13x17": lambda: pa.build_queen_lattice(13, 17),
               "delaunay200": lambda: delaunay_weights(200, 5)}

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 7])
    def test_skip_follows_the_rule(self, p):
        for n, rho, burn_in in itertools.product([9, 400, 3107, 10**5],
                                                 [0.0, 1e-3, 0.25, 0.5, 0.69, 0.8],
                                                 [0, B - 1, B, 200, 1000]):
            assert _skipped_steps(n, p, rho, burn_in) == reference_skip(n, p, rho, burn_in)

    @pytest.mark.parametrize("rho, burn_in", [(0.95, 200), (1.0 - CAUSAL_MARGIN, 10**6)])
    @pytest.mark.parametrize("p", [1, 3])
    def test_no_skip_near_the_causal_margin(self, p, rho, burn_in):
        assert _skipped_steps(400, p, rho, burn_in) == 0

    @pytest.mark.parametrize("p, rho", [(0, 0.0), (1, 0.0), (2, 0.3)])
    def test_no_skip_below_one_block(self, p, rho):
        assert _skipped_steps(400, p, rho, B - 1) == 0

    @pytest.mark.parametrize("burn_in", [B, B + 1, 200])
    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_memoryless_recursion_skips_whole_blocks(self, p, burn_in):
        # rho = 0 (or p = 0): no step reaches the next, so K = 0
        assert _skipped_steps(400, p, 0.0, burn_in) == burn_in - burn_in % B

    def test_fit_adj3107_skip(self):
        # rho = 0.5 at n = 3107: K = 92, so 108 steps, rounded down to 96
        assert _skipped_steps(3107, 1, 0.5, 200) == 96

    @pytest.mark.parametrize("spectral", [False, True], ids=["lu", "spectral"])
    @pytest.mark.parametrize("design, p, h, density, phi0, phi", CUT_DESIGNS,
                             ids=[f"{d[0]}-p{d[1]}-h{d[2]}-{d[3].label}" for d in CUT_DESIGNS])
    def test_cut_keeps_the_full_burn_in_bits(self, monkeypatch, design, p, h, density, phi0,
                                             phi, spectral):
        spec = pa.ModelSpec(W=self.WEIGHTS[design](), p=p, q=3, h=h, density=density,
                            include_intercept=True)
        rng = np.random.default_rng(len(design) + 10 * p + h)
        theta = pa.ParameterVector(phi0, phi, rng.uniform(-1.0, 1.0, spec.n_beta),
                                   np.sort(rng.uniform(0.3, 1.5, h))[::-1],
                                   rng.standard_normal((h, 3)))
        rho = pa.check_causal(spec, theta).max_root_modulus
        assert 32 <= _skipped_steps(spec.n, p, rho, 200) <= 192
        kwargs = {"seed": p + h, "T": 5, "covariate_columns": INTERCEPT_COLUMNS}
        got = pa.simulate(spec, theta, spectral=spectral, **kwargs)
        if spectral:
            monkeypatch.setattr(simulate_module, "_skipped_steps", lambda *args: 0)
            want = pa.simulate(spec, theta, spectral=True, **kwargs)
        else:
            want = oracle_simulate(spec, theta, **kwargs)
        assert np.array_equal(got.Y, want.Y)
        assert np.array_equal(got.X, want.X)
        assert np.array_equal(got.eps, want.eps)

    @pytest.mark.parametrize("p, h", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("name", ["X", "errors"])
    def test_nonfinite_input_named(self, w33, name, p, h):
        # a non-finite entry of a skipped burn-in step is still refused, by
        # array, step and location
        spec = pa.ModelSpec(W=w33, p=p, q=2, h=h, density=pa.normal())
        theta = pa.ParameterVector(0.2, [0.1] * p, [0.5, -0.3], [0.8] * h, [[0.6, -0.4]] * h)
        burn_in, T = 2 * B, 3
        steps = burn_in + p + T
        assert _skipped_steps(spec.n, p, pa.check_causal(spec, theta).max_root_modulus,
                              burn_in) > 4
        inputs = {"X": np.zeros((steps, spec.n, 2)), "errors": np.zeros((steps, spec.n))}
        inputs[name][4, 7] = np.nan if p else np.inf
        column = ", covariate 0" if name == "X" else ""
        with pytest.raises(ValueError, match=f"^{name} is not finite at step 4, location 7"
                                             f"{column}$"):
            pa.simulate(spec, theta, burn_in=burn_in, **inputs)

    def test_peak_memory_falls_by_the_skipped_covariates(self):
        # the fit-adj3107 model on a 55x55 lattice (n = 3025): phi1 = 0.3
        # gives rho = 0.5 and a cut of 96 steps, phi1 = 0.45 gives rho = 0.75
        # and none. The cut's peak is lower by its covariates, 9.3 MB, less
        # the few KB of interpreter objects by which tracemalloc's peaks of
        # two equal calls differ (64 KiB allowed)
        spec = pa.ModelSpec(W=pa.build_queen_lattice(55, 55), p=1, q=4, h=2,
                            density=pa.scaled_t(8), include_intercept=True)
        columns = [{"kind": "constant", "value": 1.0}] + [{"kind": "normal", "sd": 1.0}] * 3
        peaks = {}
        for phi in (0.3, 0.45):
            theta = pa.ParameterVector(0.4, [phi], [-1.2, 0.15, -1.2, -0.15], [3.2, 1.8],
                                       [[0.5, 1.6, -2.5, 2.3], [0.4, -1.8, 1.3, -0.9]])
            rho = pa.check_causal(spec, theta).max_root_modulus
            tracemalloc.start()
            try:
                pa.simulate(spec, theta, seed=3, burn_in=200, T=2, covariate_columns=columns)
                peaks[phi] = tracemalloc.get_traced_memory()[1], rho
            finally:
                tracemalloc.stop()
        (cut_peak, cut_rho), (full_peak, full_rho) = peaks[0.3], peaks[0.45]
        assert _skipped_steps(spec.n, 1, cut_rho, 200) == 96
        assert _skipped_steps(spec.n, 1, full_rho, 200) == 0
        assert full_peak - cut_peak >= 96 * spec.n * spec.q * 8 - 2**16
