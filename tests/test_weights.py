"""Weight-matrix construction, spectrum, log-det series, and A0 algebra."""

import io
import math
import pickle
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial.chebyshev import chebpts1
from numpy.testing import assert_allclose

import pstarann as pa
from conftest import (MODEL1_COLUMNS, delaunay_weights, model1_spec, model1_theta,
                      oracle_series_node_values)
from pstarann import _csv, weights
from pstarann.weights import LogDetSeries, read_adjacency_csv


def dense_similarity_spectrum(W):
    """Ascending eigvalsh spectrum of D^{-1/2} A D^{-1/2}, rebuilt from W alone."""
    A = (W.W.toarray() > 0).astype(float)  # the designs here are binary
    d = 1.0 / np.sqrt(A.sum(axis=1))
    return np.linalg.eigvalsh(d[:, None] * A * d[None, :])


SPECTRUM_DESIGNS = {
    "lattice2x1": lambda: pa.build_queen_lattice(2, 1),
    "lattice3x3": lambda: pa.build_queen_lattice(3, 3),
    "lattice20x20": lambda: pa.build_queen_lattice(20, 20),
    "delaunay60": lambda: delaunay_weights(60, 4),
}


class TestQueenLattice:
    def test_3x3_neighbor_counts(self, w33):
        W = w33.W.toarray()
        center = W[4]
        assert np.count_nonzero(center) == 8
        assert_allclose(center[center > 0], 1.0 / 8.0)
        for corner in (0, 2, 6, 8):
            row = W[corner]
            assert np.count_nonzero(row) == 3
            assert_allclose(row[row > 0], 1.0 / 3.0)

    def test_edge_cells_have_five_neighbors(self, w33):
        W = w33.W.toarray()
        for edge in (1, 3, 5, 7):
            row = W[edge]
            assert np.count_nonzero(row) == 5
            assert_allclose(row[row > 0], 1.0 / 5.0)

    def test_1x1_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            pa.build_queen_lattice(1, 1)

    def test_2x2_all_mutually_adjacent(self, w22):
        W = w22.W.toarray()
        for s in range(4):
            row = W[s]
            assert np.count_nonzero(row) == 3
            assert_allclose(row[row > 0], 1.0 / 3.0)

    def test_row_sums_exactly_one(self):
        for dims in [(2, 3), (4, 4), (7, 5), (1, 2)]:
            W = pa.build_queen_lattice(*dims)
            assert_allclose(np.asarray(W.W.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_weights_in_unit_interval(self, w44):
        assert w44.W.data.min() >= 0.0
        assert w44.W.data.max() <= 1.0
        assert_allclose(w44.W.diagonal(), 0.0)


def queen_adjacency_by_loops(n1, n2):
    """Reference: queen neighbors by walking the eight offsets of every cell."""
    rows, cols = [], []
    for i in range(n1):
        for j in range(n2):
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if (di or dj) and 0 <= ii < n1 and 0 <= jj < n2:
                        rows.append(i * n2 + j)
                        cols.append(ii * n2 + jj)
    return sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n1 * n2, n1 * n2))


class TestQueenLatticeReference:
    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (3, 4), (5, 9), (7, 1), (20, 20)])
    def test_matches_loop_reference(self, dims):
        W = pa.build_queen_lattice(*dims)
        ref = pa.WeightMatrix(queen_adjacency_by_loops(*dims), lattice_dims=dims)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(W.W, attr), getattr(ref.W, attr))
        assert W.tau_min == ref.tau_min
        assert W.lattice_dims == dims


class TestFromAdjacency:
    def test_single_pair(self):
        W = pa.from_adjacency([(0, 1)], 2)
        assert_allclose(W.W.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_path_graph_standardization(self):
        W = pa.from_adjacency([(0, 1), (1, 2)], 3)
        assert_allclose(W.W.toarray()[1], [0.5, 0.0, 0.5])

    def test_isolated_nodes_named(self):
        with pytest.raises(ValueError, match=r"0, 1"):
            pa.from_adjacency([], 2)
        with pytest.raises(ValueError, match=r"2"):
            pa.from_adjacency([(0, 1)], 3)

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="self-pair"):
            pa.from_adjacency([(1, 1)], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            pa.from_adjacency([(0, 5)], 3)

    def test_non_integer_vertex_id_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\.7\) has a non-integer vertex id"):
            pa.from_adjacency([(0, 1.7), (1, 2)], 3)
        for bad in (float("nan"), float("inf"), None):
            with pytest.raises(ValueError, match="non-integer vertex id"):
                pa.from_adjacency([(0, 1), (1, bad)], 3)

    @pytest.mark.parametrize("pairs", [[(0, 1, 2, 3), (1, 2, 3, 4)], [(0, 1, 2)], [0, 1, 1, 2],
                                       [[(0, 1)], [(1, 2)]]])
    def test_pairs_must_form_m_by_2(self, pairs):
        # a row of 4 ids is not two edges
        with pytest.raises(ValueError, match=r"edge pairs must form an \(m, 2\) array"):
            pa.from_adjacency(pairs, 5)

    def test_integer_valued_float_ids_accepted(self):
        W = pa.from_adjacency(np.array([[0.0, 1.0], [1.0, 2.0]]), 3)
        assert_allclose(W.W.toarray()[1], [0.5, 0.0, 0.5])

    def test_duplicate_edges_collapse(self):
        W = pa.from_adjacency([(0, 1), (1, 0), (0, 1)], 2)
        assert_allclose(W.W.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n0,1\n1,2\n")
        W = read_adjacency_csv(path, 3)
        assert_allclose(W.W.toarray()[1], [0.5, 0.0, 0.5])

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_adjacency_csv(path, 2)

    def test_csv_malformed_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n0,1\nfoo,2\n")
        with pytest.raises(ValueError, match="line 3"):
            read_adjacency_csv(path, 3)

    def test_csv_weighted_header_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j,w\n0,1,0.5\n1,2,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_adjacency_csv(path, 3)

    def test_csv_extra_field_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n0,1\n0,1,9\n")
        with pytest.raises(ValueError, match="line 3 has 3 fields, expected 2"):
            read_adjacency_csv(path, 3)

    def test_csv_out_of_range_edge_names_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n0,1\n1,2\n2,5\n")
        with pytest.raises(ValueError, match=r"line 4: .*out of range"):
            read_adjacency_csv(path, 3)

    def test_csv_self_pair_names_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n1,1\n0,1\n")
        with pytest.raises(ValueError, match=r"line 2: .*self-pair"):
            read_adjacency_csv(path, 3)

    # a ring on n nodes, one edge per line, read 1, 2 and the default number
    # of lines at a time: a fault two blocks on from a fault in the first
    # block is named by a whole-file read's rule (parse before range before
    # self-pair)
    @pytest.mark.parametrize("block_rows", [1, 2, None], ids=["block1", "block2", "default"])
    @pytest.mark.parametrize("near, far, message", [
        ("1,oops", "0,x", "malformed value at line {near}"),
        ("1,1", "0,x", "malformed value at line {far}"),
        ("1,1", "0,{n}", "malformed edge at line {far}: edge (0, {n}) out of range for n={n}"),
        ("1,1", "2,2", "malformed edge at line {near}: self-pair (1, 1) not allowed"),
    ], ids=["first-malformed", "malformed-later", "range-later", "self-pair-first"])
    def test_csv_fault_in_later_block(self, tmp_path, monkeypatch, block_rows, near, far,
                                      message):
        if block_rows:
            monkeypatch.setattr(_csv, "BLOCK_ROWS", block_rows)
        B = _csv.BLOCK_ROWS
        n = 2 * B + 20
        rows = [f"{i},{(i + 1) % n}" for i in range(n)]
        index = {"near": 3, "far": 2 * B + 14}  # index k is on line k + 2
        rows[index["near"]], rows[index["far"]] = near, far.format(n=n)
        path = tmp_path / "edges.csv"
        path.write_text("i,j\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as err:
            read_adjacency_csv(path, n)
        lines = {where: k + 2 for where, k in index.items()}
        assert str(err.value) == f"{path}: " + message.format(n=n, **lines)


class TestEigenvalues:
    def test_2x2_lattice_spectrum(self, w22):
        # dense oracle on the 4x4: (J - I)/3 has spectrum {1, -1/3 x3}
        oracle = np.sort(np.linalg.eigvals(w22.W.toarray()).real)[::-1]
        assert_allclose(w22.eigenvalues, oracle, atol=1e-12)
        assert_allclose(w22.eigenvalues, [1.0, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)

    def test_path_graph_spectrum(self):
        W = pa.from_adjacency([(0, 1)], 2)
        assert_allclose(W.eigenvalues, [1.0, -1.0], atol=1e-14)

    def test_3x3_max_eigenvalue_is_one(self, w33):
        assert abs(w33.eigenvalues[0] - 1.0) < 1e-10

    def test_sorted_descending_and_real(self, w44):
        assert np.all(np.diff(w44.eigenvalues) <= 1e-14)
        assert w44.eigenvalues.dtype.kind == "f"

    def test_matches_dense_eigensolve(self, w33):
        oracle = np.sort(np.linalg.eigvals(w33.W.toarray()).real)[::-1]
        assert_allclose(w33.eigenvalues, oracle, atol=1e-10)

    def test_eigenbasis_reconstructs_w(self, w1010):
        # W = diag(1 / root) Q diag(tau) Q^T diag(root)
        tau, Q, root = w1010.eigenbasis
        W = (Q * tau) @ Q.T * root / root[:, None]
        assert_allclose(W, w1010.W.toarray(), rtol=0, atol=1e-14)
        assert_allclose(Q.T @ Q, np.eye(w1010.n), rtol=0, atol=1e-13)
        assert_allclose(np.sort(tau)[::-1], w1010.eigenvalues, rtol=0, atol=1e-14)
        assert not (tau.flags.writeable or Q.flags.writeable or root.flags.writeable)


@pytest.fixture
def eigh_calls(monkeypatch):
    """A list that grows by one on every scipy.linalg.eigh call."""
    calls = []
    real = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    return calls


@pytest.fixture
def spectrum_builds(monkeypatch):
    """A list that grows by one on every spectrum build (``WeightMatrix._spectrum``),
    which makes one ``scipy.linalg.eigh`` call per reflection block of a lattice."""
    calls = []
    real = weights.WeightMatrix._spectrum

    def counting(W, vectors):
        calls.append(vectors)
        return real(W, vectors)

    monkeypatch.setattr(weights.WeightMatrix, "_spectrum", counting)
    return calls


@pytest.fixture
def eigsh_calls(monkeypatch):
    """A list that grows by one on every scipy.sparse.linalg.eigsh call."""
    calls = []
    real = spla.eigsh

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting)
    return calls


def parent_eigenvalues(W):
    """The values-only dense solve of S as the spectrum was built before the
    reflection blocks: descending."""
    return scipy.linalg.eigh(W._similarity.toarray().T, eigvals_only=True, overwrite_a=True,
                             check_finite=False, driver="evd")[::-1]


class TestReflectionBlocks:
    """A queen lattice's S is unchanged by reversing either axis, so it is
    solved as up to four parity blocks; any other W takes one dense solve."""

    @pytest.mark.parametrize("dims", [(20, 20), (21, 19), (4, 3), (2, 2), (1, 7)],
                             ids=lambda d: f"{d[0]}x{d[1]}")
    def test_block_spectrum_matches_dense_oracle(self, dims, spectrum_builds):
        W = pa.build_queen_lattice(*dims)
        blocks = W._reflection_blocks()
        assert len(blocks) == (1 + (dims[0] > 1)) * (1 + (dims[1] > 1))
        assert sum(size for size, _, _ in blocks) == W.n
        oracle = dense_similarity_spectrum(W)
        assert np.max(np.abs(W.eigenvalues - oracle[::-1])) <= 1e-14
        tau, Q, _ = W.eigenbasis
        assert np.all(np.diff(tau) >= 0.0)
        assert np.max(np.abs(tau - oracle)) <= 1e-14
        assert np.max(np.abs(Q.T @ Q - np.eye(W.n))) <= 1e-13
        assert Q.flags.f_contiguous
        assert np.max(np.abs((Q * tau) @ Q.T - W._similarity.toarray())) <= 1e-14
        assert spectrum_builds == [False, True]

    def test_eigenvalues_read_the_basis_once_it_is_built(self, spectrum_builds):
        W = pa.build_queen_lattice(21, 19)
        tau = W.eigenbasis[0]
        assert np.array_equal(W.eigenvalues, tau[::-1]) and not W.eigenvalues.flags.writeable
        W.log_det_a0(0.3)
        assert spectrum_builds == [True]
        assert W.log_det_record["build_s"] > 0.0

    @pytest.mark.parametrize("case", ["one-extra-edge", "weighted", "dims-not-n", "no-dims"])
    def test_other_matrices_take_the_dense_solve(self, case):
        A = pa.build_queen_lattice(5, 4).W.copy()
        A.data[:] = 1.0
        dims = (5, 4)
        if case == "one-extra-edge":  # no reversal keeps the edge 0 -- 6
            A = A.tolil()
            A[0, 6] = A[6, 0] = 1.0
        elif case == "weighted":  # the weight breaks the left-right reflection
            A = A.tolil()
            A[0, 1] = A[1, 0] = 2.0
        elif case == "dims-not-n":
            dims = (4, 4)
        else:
            dims = None
        W = weights.WeightMatrix(A, lattice_dims=dims)
        (size, column, weight), = W._reflection_blocks()  # the identity basis
        assert size == W.n
        assert np.array_equal(column, np.arange(W.n)) and np.array_equal(weight, np.ones(W.n))
        assert np.array_equal(W.eigenvalues, parent_eigenvalues(W))

    @pytest.mark.parametrize("design", ["delaunay80", "path"])
    def test_adjacency_eigenvalues_are_the_dense_solve(self, design):
        W = (delaunay_weights(80, 2) if design == "delaunay80"
             else pa.from_adjacency([(k, k + 1) for k in range(9)], 10))
        assert np.array_equal(W.eigenvalues, parent_eigenvalues(W))

    @pytest.mark.parametrize("design", ["delaunay80", "path"])
    def test_adjacency_basis_is_the_dense_solve(self, design):
        # the one-block eigenbasis is the single solve of S with vectors
        W = (delaunay_weights(80, 2) if design == "delaunay80"
             else pa.from_adjacency([(k, k + 1) for k in range(9)], 10))
        tau, Q, root = W.eigenbasis
        parent_tau, parent_Q = scipy.linalg.eigh(W._similarity.toarray().T, overwrite_a=True,
                                                 check_finite=False, driver="evd")
        assert np.array_equal(tau, parent_tau) and np.array_equal(Q, parent_Q)
        assert Q.flags.f_contiguous  # as eigh gives it: BLAS rounds products by layout
        rebuilt = ((Q * tau) @ Q.T) * root[None, :] / root[:, None]
        assert np.max(np.abs(rebuilt - W.W.toarray())) <= 1e-14


class TestLazySpectrum:
    @pytest.mark.parametrize("design", sorted(SPECTRUM_DESIGNS))
    def test_extremes_match_dense_eigvalsh(self, design):
        W = SPECTRUM_DESIGNS[design]()
        oracle = dense_similarity_spectrum(W)
        assert abs(W.tau_min - oracle[0]) <= 1e-12
        # the largest modulus is the Perron root 1 of a row-stochastic matrix
        assert abs(np.max(np.abs(oracle)) - 1.0) <= 1e-12
        assert "eigenvalues" not in W.__dict__  # the extremes need no spectrum

    def test_tau_min_bit_identical_across_builds(self):
        first = pa.build_queen_lattice(12, 9).tau_min
        # ARPACK calls in between move its internal start-vector state
        spla.eigsh(pa.build_queen_lattice(7, 7).W, k=2, which="LM")
        second = pa.build_queen_lattice(12, 9).tau_min
        assert first == second

    def test_spectrum_built_on_first_use_sorted_read_only(self):
        W = delaunay_weights(80, 2)
        assert "eigenvalues" not in W.__dict__
        tau = W.eigenvalues
        assert W.eigenvalues is tau  # cached
        assert np.all(np.diff(tau) <= 0.0)
        assert not tau.flags.writeable
        with pytest.raises(ValueError):
            tau[0] = 0.5
        assert_allclose(tau, dense_similarity_spectrum(W)[::-1], rtol=0, atol=1e-13)

    def test_log_det_builds_the_spectrum_once(self, spectrum_builds):
        W = pa.build_queen_lattice(4, 3)
        assert not spectrum_builds
        W.log_det_a0(0.3)
        W.trace_w_a0inv(0.3, 2)
        W.log_det_a0(-0.4)
        assert len(spectrum_builds) == 1

    def test_arpack_failure_reads_extremes_off_the_spectrum(self, monkeypatch):
        def failing(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spla, "eigsh", failing)
        W = pa.build_queen_lattice(4, 5)
        assert W.tau_min == W.eigenvalues[-1]
        assert abs(W.eigenvalues[0] - 1.0) <= 1e-12  # the Perron root

    def test_spectrum_beyond_unit_modulus_rejected(self, monkeypatch):
        real = scipy.linalg.eigh
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda *args, **kwargs: 1.5 * real(*args, **kwargs))
        W = pa.build_queen_lattice(3, 3)
        with pytest.raises(ValueError, match="exceeds 1 in modulus"):
            W.log_det_a0(0.2)

    def test_tau_min_below_minus_one_rejected(self, monkeypatch):
        monkeypatch.setattr(spla, "eigsh", lambda *args, **kwargs: np.array([-1.5]))
        W = pa.build_queen_lattice(3, 3)
        with pytest.raises(ValueError, match="exceeds 1 in modulus"):
            W.tau_min

    def test_simulate_needs_no_spectrum_fit_builds_it_once(self, spectrum_builds):
        spec = model1_spec(pa.build_queen_lattice(4, 4))
        data = pa.simulate(spec, model1_theta(), seed=3, T=6, covariate_columns=MODEL1_COLUMNS)
        assert "eigenvalues" not in spec.W.__dict__ and not spectrum_builds
        pa.fit(spec, data, n_starts=2, seed=1)
        assert len(spectrum_builds) == 1

    def test_positive_dependence_never_reads_tau_min(self, eigsh_calls):
        # phi0 >= 0 with p = 1: the bound tau_min >= -1 settles check_causal,
        # so neither simulate nor fit runs the Lanczos solve
        spec = model1_spec(pa.build_queen_lattice(4, 4))
        data = pa.simulate(spec, model1_theta(), seed=3, T=6, covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=2, seed=1)
        assert res.theta.phi0 >= 0.0 and res.causality is not None
        assert "tau_min" not in spec.W.__dict__ and not eigsh_calls

    def test_negative_dependence_reads_tau_min_once(self, eigsh_calls):
        W = pa.build_queen_lattice(4, 4)
        spec = pa.ModelSpec(W=W, p=1, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(-0.5, [0.3], [], [], [])
        assert pa.check_causal(spec, theta) == pa.check_causal(spec, theta)
        assert len(eigsh_calls) == 1 and "tau_min" in W.__dict__


class TestLogDetA0:
    def test_phi0_zero_gives_zero(self, w44):
        assert w44.log_det_a0(0.0) == 0.0

    def test_2x2_hand_value(self, w22):
        expected = np.log(0.5) + 3.0 * np.log(7.0 / 6.0)
        assert_allclose(w22.log_det_a0(0.5), expected, atol=1e-12)
        # dense determinant oracle
        dense = np.linalg.slogdet(np.eye(4) - 0.5 * w22.W.toarray())[1]
        assert_allclose(w22.log_det_a0(0.5), dense, atol=1e-12)

    def test_3x3_matches_dense_lu(self, w33):
        dense = np.linalg.slogdet(np.eye(9) - 0.6 * w33.W.toarray())[1]
        assert abs(w33.log_det_a0(0.6) - dense) < 1e-10

    def test_dense_lu_oracle_over_grid(self):
        # includes an irregular graph; the acceptance suite scales this to n=400
        Ws = [pa.build_queen_lattice(5, 4),
              pa.from_adjacency([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)]
        for W in Ws:
            dense_W = W.W.toarray()
            for phi0 in np.linspace(-0.95, 0.95, 20):
                dense = np.linalg.slogdet(np.eye(W.n) - phi0 * dense_W)[1]
                assert abs(W.log_det_a0(phi0) - dense) < 1e-10

    def test_domain_error(self, w22):
        for phi0 in (1.0, -1.0, 1.7):
            with pytest.raises(ValueError, match="admissible"):
                w22.log_det_a0(phi0)


class TestTraces:
    def test_phi0_zero_gives_trace_w(self, w33):
        assert_allclose(w33.trace_w_a0inv(0.0, 1), 0.0, atol=1e-12)

    def test_2x2_hand_values(self, w22):
        assert_allclose(w22.trace_w_a0inv(0.5, 1), 2.0 - 6.0 / 7.0, atol=1e-12)
        assert_allclose(w22.trace_w_a0inv(0.5, 2), 4.0 + 12.0 / 49.0, atol=1e-12)

    def test_dense_trace_oracle(self, w22):
        dense_W = w22.W.toarray()
        M = dense_W @ np.linalg.inv(np.eye(4) - 0.5 * dense_W)
        assert_allclose(w22.trace_w_a0inv(0.5, 1), np.trace(M), atol=1e-12)
        assert_allclose(w22.trace_w_a0inv(0.5, 2), np.trace(M @ M), atol=1e-12)

    def test_logdet_derivative_identity(self, w44):
        # d/dphi0 ln|A0| = -tr(W A0^{-1}), checked by central differences
        for phi0 in (-0.7, -0.2, 0.3, 0.8):
            h = 1e-6
            fd = (w44.log_det_a0(phi0 + h) - w44.log_det_a0(phi0 - h)) / (2 * h)
            tr = -w44.trace_w_a0inv(phi0, 1)
            assert abs(fd - tr) < 1e-6 * (1.0 + abs(tr))

    def test_power_validated(self, w22):
        with pytest.raises(ValueError, match="power"):
            w22.trace_w_a0inv(0.5, 3)


def spectrum_log_det(W, phi0):
    """(f, f', f'') of f = ln|I - phi0 W| from the cached eigenvalues."""
    tau = W.eigenvalues
    r = tau / (1.0 - phi0 * tau)
    return float(np.sum(np.log1p(-phi0 * tau))), -float(np.sum(r)), -float(np.sum(r * r))


def series_lattice():
    """The smallest queen lattice on the series side of N_SERIES, p = 1 model."""
    k = int(np.ceil(np.sqrt(weights.N_SERIES)))
    return pa.build_queen_lattice(k, k)


SERIES_DESIGNS = {
    "lattice3x40": lambda: pa.build_queen_lattice(3, 40),
    "lattice20x20": lambda: pa.build_queen_lattice(20, 20),
    "delaunay1000": lambda: delaunay_weights(1000, 5),
}


class TestLogDetSeries:
    @pytest.mark.parametrize("design", sorted(SERIES_DESIGNS))
    def test_matches_spectrum_oracle(self, design):
        # built directly: these n are below N_SERIES, where the log-det reads the spectrum
        W = SERIES_DESIGNS[design]()
        series = LogDetSeries(W._similarity)
        worst = np.zeros(3)
        for phi0 in np.linspace(-0.995, 0.995, 399):
            exact = spectrum_log_det(W, phi0)
            got = [series(phi0, order) for order in range(3)]
            worst = np.maximum(worst, [abs(g - e) / (1.0 + abs(e)) for g, e in zip(got, exact)])
        # f, f' and f'' relative to 1 + |value|, over every piece
        assert np.all(worst <= [1e-13, 5e-13, 2e-10]), worst

    def test_derivatives_match_central_differences(self, w2020):
        series = LogDetSeries(w2020._similarity)
        h = 1e-5
        for phi0 in (-0.99, -0.6, -0.1, 0.05, 0.5, 0.98):
            for order in (1, 2):
                fd = (series(phi0 + h, order - 1) - series(phi0 - h, order - 1)) / (2 * h)
                exact = series(phi0, order)
                assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))

    def test_continuous_at_the_seam(self, w2020):
        outer = math.tanh(math.atanh(weights.SERIES_PHI0_MAX) / 2)  # 0.905
        # -5e-324 is the last float left of phi0 = 0; nine floats around each
        # outer seam span it, since atanh rounds within a few ulps
        ulps = np.arange(-4, 5)
        for phi0s, pieces in (([-5e-324, 0.0], ["negative-inner", "positive-inner"]),
                              (-outer + np.spacing(outer) * ulps,
                               ["negative-outer", "negative-inner"]),
                              (outer + np.spacing(outer) * ulps,
                               ["positive-inner", "positive-outer"])):
            series = LogDetSeries(w2020._similarity)
            for order in range(3):
                values = np.array([series(phi0, order) for phi0 in phi0s])
                spread = values.max() - values.min()
                assert spread <= 1e-10 * (1.0 + np.abs(values).max()), (phi0s[0], order)
            assert series.pieces == pieces  # the floats tried lie on both sides

    def test_backend_chosen_from_n(self, monkeypatch):
        path = lambda n: pa.from_adjacency([(i, i + 1) for i in range(n - 1)], n)  # noqa: E731
        assert path(weights.N_SERIES - 1).log_det_record["backend"] == "spectrum"
        assert path(weights.N_SERIES).log_det_record["backend"] == "series"

        monkeypatch.setattr(weights, "N_SERIES", 20)
        below, above = pa.build_queen_lattice(4, 4), pa.build_queen_lattice(4, 5)
        for W in (below, above):
            W.log_det_a0(0.3)
            W.trace_w_a0inv(-0.995, 2)
        assert "eigenvalues" in below.__dict__ and "log_det_series" not in below.__dict__
        assert "log_det_series" in above.__dict__ and "eigenvalues" not in above.__dict__
        record = above.log_det_record
        assert record["backend"] == "series" and record["build_s"] > 0.0
        assert_allclose(above.log_det_a0(0.3), spectrum_log_det(above, 0.3)[0], rtol=1e-12)
        # beyond the series' box the spectrum answers, on either side of N_SERIES
        assert above.log_det_a0(0.999) == spectrum_log_det(above, 0.999)[0]
        assert "log_det_series" in above.__dict__ and "eigenvalues" in above.__dict__
        assert above.log_det_record == record  # the record names the series only

    def test_fit_above_threshold_makes_no_eigh_call(self, eigh_calls):
        spec = model1_spec(series_lattice())
        assert spec.W.log_det_record["backend"] == "series"
        data = pa.simulate(spec, model1_theta(), seed=5, T=2, burn_in=20,
                           covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=2, seed=1)
        assert np.isfinite(res.loglik) and res.std_errors is not None
        assert not eigh_calls and "eigenvalues" not in spec.W.__dict__

    def test_pickled_copy_carries_the_series(self, monkeypatch):
        W = series_lattice()
        # as replicate --threads builds it before the workers start
        for phi0 in (-0.95, -0.5, 0.5, 0.95):
            W.log_det_a0(phi0)
        assert W.log_det_record["pieces"] == list(LogDetSeries.PIECES)
        pickled, seen = io.BytesIO(), set()

        class Recorder(pickle.Pickler):
            def persistent_id(self, obj):
                seen.add(type(obj))

        Recorder(pickled).dump(W)
        assert LogDetSeries in seen and spla.SuperLU not in seen
        copy = pickle.loads(pickled.getvalue())

        def forbidden(*args, **kwargs):
            raise AssertionError("the copy rebuilt its log-det")

        monkeypatch.setattr(spla, "splu", forbidden)
        monkeypatch.setattr(scipy.linalg, "eigh", forbidden)
        for phi0 in (-0.99, -0.7, 0.0, 0.4, 0.91, 0.995):
            assert copy.log_det_a0(phi0) == W.log_det_a0(phi0)
            assert copy.trace_w_a0inv(phi0, 2) == W.trace_w_a0inv(phi0, 2)

    def test_copy_builds_the_other_piece_bit_equal(self):
        W = series_lattice()
        W.log_det_a0(0.5)
        copy = pickle.loads(pickle.dumps(W))  # the pattern travels, no factor
        for phi0 in (-0.95, -0.9, -0.3, 0.3, 0.95):
            assert copy.trace_w_a0inv(phi0, 2) == W.trace_w_a0inv(phi0, 2)
        assert copy.log_det_record["pieces"] == W.log_det_record["pieces"] \
            == list(LogDetSeries.PIECES)

    def test_log_det_nonpositive_on_the_start_grid(self, w2020):
        # f <= 0 is the bound that lets initial_points skip phi0 < 0
        series = LogDetSeries(w2020._similarity)
        for phi0 in np.linspace(-0.9, 0.9, 37):
            assert w2020.log_det_a0(phi0) <= 0.0 and series(phi0) <= 0.0

    def test_positive_dependence_fit_builds_one_piece(self, monkeypatch):
        monkeypatch.setattr(weights, "N_SERIES", 20)
        spec = model1_spec(pa.build_queen_lattice(6, 6))
        data = pa.simulate(spec, model1_theta(), seed=3, T=8, burn_in=100,
                           covariate_columns=MODEL1_COLUMNS)
        real, calls = spla.splu, []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        res = pa.fit(spec, data, n_starts=3, seed=0)
        assert res.theta.phi0 > 0.0 and spec.W.log_det_record["pieces"] == ["positive-inner"]
        # the ordering node is the piece's first node
        assert calls == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (weights.SERIES_NODES - 1)
        assert len(calls) == spec.W.log_det_record["factorizations"] == 24

    def test_negative_dependence_fit_matches_an_eager_build(self, monkeypatch):
        monkeypatch.setattr(weights, "N_SERIES", 20)
        spec = model1_spec(pa.build_queen_lattice(6, 6))
        theta = model1_theta()
        theta.phi0 = -0.5
        data = pa.simulate(spec, theta, seed=3, T=8, burn_in=100,
                           covariate_columns=MODEL1_COLUMNS)
        res = pa.fit(spec, data, n_starts=3, seed=0)
        assert res.theta.phi0 < 0.0
        lazy = spec.W.log_det_series
        assert lazy.pieces == ["negative-inner", "positive-inner"]
        assert lazy.factorizations == 48
        eager = LogDetSeries(spec.W._similarity)
        for phi0 in (-0.95, -0.5, 0.5, 0.95):  # every piece, in phi0 order
            eager(phi0)
        for got, want in zip(lazy._pieces, eager._pieces):
            if got is not None:
                assert all(np.array_equal(a.coef, b.coef) for a, b in zip(got, want))

    def test_outer_piece_builds_its_inner_neighbour(self):
        S = pa.build_queen_lattice(6, 7)._similarity
        m = weights.SERIES_NODES
        lazy = LogDetSeries(S)
        for phi0, pieces in ((0.95, ["positive-inner", "positive-outer"]),
                             (-0.95, list(LogDetSeries.PIECES))):
            lazy(phi0)
            assert lazy.pieces == pieces and lazy.factorizations == m * len(pieces)
        eager = LogDetSeries(S)
        for phi0 in (-0.5, 0.5, -0.95, 0.95):  # inner pieces first
            eager(phi0)
        for got, want in zip(lazy._pieces, eager._pieces):
            assert all(np.array_equal(a.coef, b.coef) for a, b in zip(got, want))

    def test_one_ordering_serves_every_node(self, monkeypatch):
        real, orderings, fills = spla.splu, [], set()

        def counting(*args, **kwargs):
            orderings.append(kwargs["permc_spec"])
            lu = real(*args, **kwargs)
            fills.add(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(spla, "splu", counting)
        m = weights.SERIES_NODES
        series = LogDetSeries(pa.build_queen_lattice(6, 7)._similarity)
        assert orderings == ["MMD_AT_PLUS_A"] and series.pieces == []
        # each piece on its first evaluation, every node in NATURAL order; the
        # inner positive piece reuses the ordering node's value
        inner = ["negative-inner", "positive-inner"]
        for phi0, pieces in ((0.3, ["positive-inner"]), (0.7, ["positive-inner"]),
                             (-0.3, inner), (0.95, inner + ["positive-outer"]),
                             (-0.99, list(LogDetSeries.PIECES))):
            series(phi0, 2)
            assert series.pieces == pieces
            assert len(orderings) == series.factorizations == m * len(pieces)
        assert orderings[1:] == ["NATURAL"] * (4 * m - 1)
        assert len(fills) == 1  # the renumbered pattern fills in as the ordered one

    def test_ordering_owns_its_data(self):
        # perm_c is a view whose base is the SuperLU object: an ordering that
        # kept it would keep the whole factor alive
        S = sp.csc_matrix(pa.build_queen_lattice(6, 7)._similarity)
        A = sp.identity(S.shape[0], format="csc") - (0.3 + 1j * weights.COMPLEX_STEP) * S
        _, perm = weights._complex_step_derivative(A, "MMD_AT_PLUS_A")
        assert perm.base is None
        assert np.array_equal(np.sort(perm), np.arange(S.shape[0]))

    def test_construction_outlives_no_factor(self):
        # The constructor holds at once the ordering matrix, S's CSC copy, the
        # ordering node's factor and, after it, the renumbered pattern. With the
        # factor freed before the pattern is made, its traced peak stays within
        # one NATURAL node's peak plus those arrays and 128 KiB. At n = 1500:
        # 1.13 MiB against a bound of 1.45 (one node 0.81); 1.68 MiB when the
        # ordering held a view of the factor.
        S = delaunay_weights(1500, 5)._similarity
        n = S.shape[0]
        LogDetSeries(S)  # imports and first-call caches outside the trace
        tracemalloc.start()
        try:
            series = LogDetSeries(S)
            peak = tracemalloc.get_traced_memory()[1]
            eye, s, indices, indptr = series._pattern
            A = sp.csc_matrix((eye - (0.3 + 1j * weights.COMPLEX_STEP) * s, indices, indptr),
                              shape=(n, n))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            weights._complex_step_derivative(A, "NATURAL")
            node = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

        def nbytes(*arrays):
            return sum(a.nbytes for a in arrays)

        ordering_matrix = nbytes(A.data, A.indices, A.indptr)
        csc = sp.csc_matrix(S)
        slack = 2**17
        bound = (node + ordering_matrix + nbytes(csc.data, csc.indices, csc.indptr)
                 + nbytes(*series._pattern) + slack)
        assert peak <= bound, (peak / 2**20, bound / 2**20, node / 2**20)

    @pytest.mark.parametrize("design", ["delaunay1000", "lattice20x20"])
    def test_node_values_match_fresh_orderings(self, design):
        S = SERIES_DESIGNS[design]()._similarity
        series = LogDetSeries(S)
        for phi0 in (0.5, -0.5, 0.95, -0.95):  # build every piece
            series(phi0)
        assert series.pieces == list(LogDetSeries.PIECES)
        for _, u, _ in series._pieces:
            xs = np.polynomial.polyutils.mapdomain(chebpts1(weights.SERIES_NODES), u.window, u.domain)
            assert_allclose(u(xs), oracle_series_node_values(S, xs), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fault", ["row permutation", "pivot sign"])
    def test_lu_guard_raises_numerical_error(self, monkeypatch, fault):
        real = spla.splu

        def faulty(lu):
            if fault == "row permutation":
                return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U)
            return SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c, U=-lu.U)

        # call 1 orders the pattern as the series is made; call 10 factors a
        # node of the inner positive piece, which reuses it
        for bad_call, ordering in ((1, "MMD_AT_PLUS_A"), (10, "NATURAL")):
            calls = []

            def tampered(*args, **kwargs):
                lu = real(*args, **kwargs)
                calls.append(kwargs["permc_spec"])
                return lu if len(calls) < bad_call else faulty(lu)

            monkeypatch.setattr(spla, "splu", tampered)
            with pytest.raises(pa.NumericalError, match="symmetric ordering"):
                LogDetSeries(pa.build_queen_lattice(4, 4)._similarity)(0.4)
            assert (len(calls), calls[-1]) == (bad_call, ordering)


class TestLogDetRecord:
    EMPTY = {"build_s": None, "pieces": [], "factorizations": 0}

    @pytest.mark.parametrize("backend, built", [
        ("spectrum", {"pieces": [], "factorizations": 0}),
        ("series", {"pieces": ["positive-inner"], "factorizations": weights.SERIES_NODES}),
    ])
    def test_empty_before_the_first_log_det_filled_after(self, monkeypatch, backend, built):
        if backend == "series":
            monkeypatch.setattr(weights, "N_SERIES", 20)
        W = pa.build_queen_lattice(4, 5)
        assert W.log_det_record == {"backend": backend, **self.EMPTY}
        W.log_det_a0(0.3)
        record = W.log_det_record
        assert record.pop("build_s") > 0.0
        assert record == {"backend": backend, **built}

    def test_returns_a_fresh_dict(self, monkeypatch):
        monkeypatch.setattr(weights, "N_SERIES", 20)
        W = pa.build_queen_lattice(4, 5)
        W.log_det_a0(0.3)
        before = W.log_det_record
        record = W.log_det_record
        record["backend"] = "spectrum"
        record["pieces"].append("negative-inner")
        record["factorizations"] = 0
        assert W.log_det_record == before
        assert W.log_det_series.pieces == ["positive-inner"]

    def test_backend_fixed_when_w_is_made(self, monkeypatch):
        # each W's first log-det runs under a threshold that would flip it
        spectrum = pa.build_queen_lattice(4, 5)
        monkeypatch.setattr(weights, "N_SERIES", 20)
        spectrum.log_det_a0(0.3)
        series = pa.build_queen_lattice(4, 5)
        monkeypatch.setattr(weights, "N_SERIES", 10**6)
        series.log_det_a0(0.3)
        assert spectrum.log_det_record["backend"] == "spectrum"
        assert "eigenvalues" in spectrum.__dict__ and "log_det_series" not in spectrum.__dict__
        assert series.log_det_record["backend"] == "series"
        assert "log_det_series" in series.__dict__ and "eigenvalues" not in series.__dict__

    def test_series_record_ignores_a_beyond_box_spectrum(self, monkeypatch):
        monkeypatch.setattr(weights, "N_SERIES", 20)
        W = pa.build_queen_lattice(4, 5)
        W.trace_w_a0inv(0.999, 2)  # beyond SERIES_PHI0_MAX: the eigenvalues answer
        assert "eigenvalues" in W.__dict__ and "log_det_series" not in W.__dict__
        assert W.log_det_record == {"backend": "series", **self.EMPTY}


def _log_uniform_weights(W, seed=7):
    """A weighted W on W's pattern: symmetric weights log-uniform in [1e-3, 1e3]."""
    upper = sp.triu(W.W, k=1).tocoo()
    w = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, upper.nnz)
    A = sp.coo_matrix((w, (upper.row, upper.col)), shape=W.W.shape)
    return pa.WeightMatrix((A + A.T).tocsr())


class TestSolveA0:
    def test_identity_at_phi0_zero(self, w33):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(9)
        assert_allclose(w33.a0_factor(0.0).solve(b), b, atol=1e-14)

    def test_zero_rhs(self, w33):
        assert_allclose(w33.a0_factor(0.5).solve(np.zeros(9)), 0.0)

    def test_2x2_ones_vector(self, w22):
        # A0 row sums are 1 - phi0, so A0 (2*ones) = ones at phi0 = 0.5
        assert_allclose(w22.a0_factor(0.5).solve(np.ones(4)), 2.0, atol=1e-12)

    def test_multiply_back(self, w44):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(16)
        x = w44.a0_factor(0.7).solve(b)
        back = x - 0.7 * w44.W.dot(x)
        assert np.max(np.abs(back - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))

    def test_dense_solve_oracle(self, w22):
        b = np.array([1.0, -2.0, 0.5, 3.0])
        dense = np.linalg.solve(np.eye(4) - 0.5 * w22.W.toarray(), b)
        assert_allclose(w22.a0_factor(0.5).solve(b), dense, atol=1e-12)

    def test_wrong_length(self, w22):
        with pytest.raises(ValueError, match="incompatible size"):  # SuperLU's own check
            w22.a0_factor(0.5).solve(np.ones(5))

    @pytest.mark.parametrize("design", ["lattice4x4", "lattice6x7", "delaunay60"])
    @pytest.mark.parametrize("phi0", [-0.995, -0.5, 0.0, 0.4, 0.995])
    def test_solves_match_dense_solve(self, design, phi0):
        # A0's condition number is at most about 320 on these designs (at
        # phi0 = 0.995); the worst error seen is 1.2e-14 of max |x|
        W = {"lattice4x4": lambda: pa.build_queen_lattice(4, 4),
             "lattice6x7": lambda: pa.build_queen_lattice(6, 7),
             "delaunay60": lambda: delaunay_weights(60, 4)}[design]()
        A0 = np.eye(W.n) - phi0 * W.W.toarray()
        lu = W.a0_factor(phi0)
        rng = np.random.default_rng(2)
        for b in (rng.standard_normal(W.n), rng.standard_normal((W.n, 3))):
            x, dense = lu.solve(b), np.linalg.solve(A0, b)
            assert x.shape == b.shape
            assert np.max(np.abs(x - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_one_symmetric_factor(self, monkeypatch):
        # A0 is factored once, as the series' nodes are: diagonal pivots in
        # symmetric mode, here in A0's own minimum-degree ordering. The
        # factor is returned unchecked; its pivots are read here
        real, seen = spla.splu, []

        def recording(*args, **kwargs):
            lu = real(*args, **kwargs)
            seen.append((kwargs, lu))
            return lu

        monkeypatch.setattr(spla, "splu", recording)
        held = pa.build_queen_lattice(6, 7).a0_factor(-0.5)
        [(kwargs, lu)] = seen
        assert kwargs == {
            "permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
            "panel_size": 1, "options": {"SymmetricMode": True}}
        assert lu is held
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert np.all(lu.U.diagonal() > 0.0)

    # A0 = I - phi0 W is strictly row diagonally dominant for |phi0| < 1, so
    # elimination in any symmetric order meets only positive pivots, and
    # SuperLU keeps each on the diagonal: the reason ``a0_factor`` does not
    # check its factor. The weighted design's weights span 1e-3 to 1e3
    @pytest.mark.parametrize("design", [
        "lattice4x4", "lattice13x17", "lattice40x40",
        "delaunay60", "delaunay1000", "delaunay3107", "weighted200"])
    def test_a0_pivots_positive_in_a_symmetric_order(self, design):
        W = {"lattice4x4": lambda: pa.build_queen_lattice(4, 4),
             "lattice13x17": lambda: pa.build_queen_lattice(13, 17),
             "lattice40x40": lambda: pa.build_queen_lattice(40, 40),
             "delaunay60": lambda: delaunay_weights(60, 4),
             "delaunay1000": lambda: delaunay_weights(1000, 5),
             "delaunay3107": lambda: delaunay_weights(3107, 1),
             "weighted200": lambda: _log_uniform_weights(delaunay_weights(200, 6))}[design]()
        eye, Wc = sp.identity(W.n, format="csc"), W.W.tocsc()
        edge = 1.0 - 1e-12
        for phi0 in [*np.linspace(-0.999999, 0.999999, 41), 0.0, -edge, edge]:
            lu = weights._splu(eye - phi0 * Wc, "MMD_AT_PLUS_A")
            assert np.array_equal(lu.perm_r, lu.perm_c), phi0
            assert np.all(lu.U.diagonal() > 0.0), phi0

    def test_held_factor_carries_no_copies(self):
        # reading the pivots through .U makes SuperLU cache CSC copies of L
        # and U, which tracemalloc sees (the native factor it does not): a
        # factor whose pivots were read holds about 2.2 MiB on this lattice
        W = pa.build_queen_lattice(60, 60)
        W.a0_factor(0.4)  # first-call caches outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lu = W.a0_factor(0.4)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 2**16, held / 2**20
        assert lu.solve(np.ones(W.n)).shape == (W.n,)

    @pytest.mark.parametrize("design", ["lattice60x60", "delaunay60"])
    def test_solves_equal_a_direct_splu(self, design):
        W = {"lattice60x60": lambda: pa.build_queen_lattice(60, 60),
             "delaunay60": lambda: delaunay_weights(60, 4)}[design]()
        rng = np.random.default_rng(3)
        for phi0 in (-0.5, 0.4, 0.95):
            A0 = sp.identity(W.n, format="csc") - phi0 * W.W.tocsc()
            direct = spla.splu(A0, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                               panel_size=1, options={"SymmetricMode": True})
            lu = W.a0_factor(phi0)
            assert np.array_equal(lu.perm_c, direct.perm_c)
            for b in (rng.standard_normal(W.n), rng.standard_normal((W.n, 3))):
                assert np.array_equal(lu.solve(b), direct.solve(b))


class TestValidation:
    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            pa.WeightMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            pa.WeightMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pa.WeightMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))



@pytest.mark.parametrize("call, message", [
    (lambda: pa.WeightMatrix(np.ones((2, 3))), "adjacency must be square, got (2, 3)"),
    (lambda: pa.build_queen_lattice(0, 3), "lattice dimensions must be positive"),
    (lambda: pa.build_queen_lattice(4, -1), "lattice dimensions must be positive"),
], ids=["not-square", "lattice-zero", "lattice-negative"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _path_adjacency(weights):
    """The adjacency of the path 0-1-2-3 with unit weights, each (i, j) and
    (j, i) of the dict ``weights`` set to its value."""
    A = np.zeros((4, 4))
    A[[0, 1, 2], [1, 2, 3]] = A[[1, 2, 3], [0, 1, 2]] = 1.0
    for (i, j), value in weights.items():
        A[i, j] = A[j, i] = value
    return A


@pytest.mark.parametrize("adjacency, message", [
    (_path_adjacency({(1, 2): np.inf}), "adjacency weight at (1, 2) is not finite"),
    (_path_adjacency({(2, 3): np.nan}), "adjacency weight at (2, 3) is not finite"),
    # location 0's degree 1e-320 is subnormal and its reciprocal overflows
    (_path_adjacency({(0, 1): 1e-320}),
     "location(s) whose degree or its reciprocal is not finite: 0; "
     "row standardization is undefined for them"),
    # location 0's degree 2e308 overflows
    (_path_adjacency({(0, 1): 1e308, (0, 2): 1e308}),
     "location(s) whose degree or its reciprocal is not finite: 0; "
     "row standardization is undefined for them"),
], ids=["inf", "nan", "subnormal-degree", "overflowing-degree"])
def test_unscalable_weights_named(adjacency, message):
    # named before the symmetry test (NaN != NaN) and the row-sum guard
    # (inf / inf) would mislabel them, and without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            pa.WeightMatrix(adjacency)
    assert str(err.value) == message
