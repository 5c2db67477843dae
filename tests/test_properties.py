"""Property tests: the flat parameter layout, the panel CSV round trip,
canonicalization, the p <= 2 causality check, the trust-region step, the
pruned start grid and the blocked weighted Gram.

Derandomized (the same examples on every run) with capped example counts,
so the module stays deterministic and fast.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pstarann as pa
import test_model
from pstarann import estimate, likelihood
from conftest import is_canonical, reference_write_panel_csv

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                             database=None)

W22 = pa.build_queen_lattice(2, 2)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def spec_and_array(draw):
    """A spec with random (p, n_beta, h, q) and a flat theta array for it."""
    h = draw(st.integers(0, 3))
    q = draw(st.integers(1 if h else 0, 3))
    spec = pa.ModelSpec(W=W22, p=draw(st.integers(0, 3)), q=q, h=h,
                        density=pa.normal(), linear_term=draw(st.booleans()))
    return spec, draw(arrays(np.float64, spec.dim, elements=finite))


class TestParameterLayout:
    @PROPERTY_SETTINGS
    @given(spec_and_array())
    def test_array_round_trip_is_bit_exact_and_copies(self, case):
        spec, x = case
        theta = pa.ParameterVector.from_array(x, spec)
        assert same_bits(theta.to_array(), x)
        assert not np.shares_memory(theta.x, x)
        assert not np.shares_memory(theta.to_array(), theta.x)
        assert theta.layout == spec.layout and theta.dim == spec.dim

    @PROPERTY_SETTINGS
    @given(spec_and_array())
    def test_named_construction_equals_from_array(self, case):
        spec, x = case
        lay = spec.layout
        named = pa.ParameterVector(x[0], x[lay.phi], x[lay.beta], x[lay.lam],
                                   x[lay.gamma].reshape(spec.h, spec.q))
        flat = pa.ParameterVector.from_array(x, spec)
        assert same_bits(named.x, flat.x)
        assert named.layout == flat.layout or not spec.h  # q is moot without neurons
        named.validate(spec)
        assert named.phi0 == flat.phi0
        for block in ("phi", "beta", "lam", "gamma"):
            assert same_bits(getattr(named, block).ravel(), getattr(flat, block).ravel())

    @PROPERTY_SETTINGS
    @given(spec_and_array(), finite)
    def test_writes_through_views_reach_x(self, case, value):
        spec, x = case
        lay = spec.layout
        theta = pa.ParameterVector.from_array(x, spec)
        theta.phi0 = value
        assert theta.x[0] == value
        for block, sl in (("phi", lay.phi), ("beta", lay.beta), ("lam", lay.lam),
                          ("gamma", lay.gamma)):
            view = getattr(theta, block)
            assert np.shares_memory(view, theta.x) or view.size == 0
            new = np.full(view.shape, value) - np.arange(view.size).reshape(view.shape)
            setattr(theta, block, new)
            assert same_bits(theta.x[sl], new.ravel())
            view[...] = 0.0  # in-place writes reach x too
            assert not np.any(theta.x[sl])
            # a flat value is a shape error for gamma, a size error elsewhere
            message = "one row per neuron" if block == "gamma" else "cannot assign"
            with pytest.raises(ValueError, match=message):
                setattr(theta, block, np.zeros(view.size + 1))
            if block == "gamma" and view.size:
                with pytest.raises(ValueError, match="cannot assign"):
                    setattr(theta, block, np.zeros((view.shape[0], view.shape[1] + 1)))

    @PROPERTY_SETTINGS
    @given(spec_and_array())
    def test_json_round_trip_is_exact(self, case):
        spec, x = case
        theta = pa.ParameterVector.from_array(x, spec)
        back = pa.ParameterVector.from_json_dict(json.loads(json.dumps(theta.to_json_dict())))
        assert same_bits(back.x, theta.x)
        back.validate(spec)


@st.composite
def panels(draw):
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    n, T = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    Y = draw(arrays(np.float64, (p + T, n), elements=finite))
    X = draw(arrays(np.float64, (T, n, q), elements=finite))
    return pa.PanelData(Y=Y, X=X, p=p)


class TestPanelCsvRoundTrip:
    @PROPERTY_SETTINGS
    @given(panels(), st.randoms(use_true_random=False))
    def test_write_then_read_is_bit_identical(self, data, random):
        # the data rows may come in any order
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            pa.write_panel_csv(path, data)
            back = pa.read_panel_csv(path, data.p, data.q)
            header, *rows = path.read_text().splitlines()
            random.shuffle(rows)
            path.write_text("\n".join([header] + rows) + "\n")
            shuffled = pa.read_panel_csv(path, data.p, data.q)
        for panel in (back, shuffled):
            assert panel.p == data.p
            assert same_bits(panel.Y, data.Y)
            assert same_bits(panel.X, data.X)

    @PROPERTY_SETTINGS
    @given(panels())
    def test_write_matches_csv_writer_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "panel.csv", Path(tmp) / "reference.csv"
            pa.write_panel_csv(path, data)
            reference_write_panel_csv(reference, data)
            assert path.read_bytes() == reference.read_bytes()


nonzero = st.tuples(st.floats(0.1, 3.0), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])


@st.composite
def canonicalization_cases(draw):
    """An intercept design with random neuron signs and order, and its panel.

    lambda_i and gamma_i1 stay away from 0, where a neuron is degenerate.
    """
    h, q = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    spec = pa.ModelSpec(W=W22, p=1, q=q, h=h, density=pa.normal(), include_intercept=True)
    gamma = np.array([[draw(nonzero)] + [draw(st.floats(-3.0, 3.0)) for _ in range(q - 1)]
                      for _ in range(h)])
    theta = pa.ParameterVector(draw(st.floats(-0.9, 0.9)), [draw(st.floats(-0.9, 0.9))],
                               [draw(st.floats(-2.0, 2.0)) for _ in range(q)],
                               [draw(nonzero) for _ in range(h)], gamma)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((3, spec.n, q))
    X[:, :, 0] = 1.0
    return spec, theta, pa.PanelData(Y=rng.standard_normal((4, spec.n)), X=X, p=1)


class TestCanonicalize:
    @PROPERTY_SETTINGS
    @given(canonicalization_cases())
    def test_keeps_residuals_is_canonical_and_idempotent(self, case):
        spec, theta, data = case
        theta_c = pa.canonicalize(theta, include_intercept=True)
        ws = pa.LikelihoodWorkspace(spec, data)
        eps = ws.residuals(theta)
        assert np.max(np.abs(ws.residuals(theta_c) - eps)) \
            <= 1e-12 * (1.0 + np.max(np.abs(eps)))
        assert is_canonical(theta_c)
        assert same_bits(pa.canonicalize(theta_c, include_intercept=True).x, theta_c.x)


@st.composite
def causality_cases(draw):
    """A queen lattice with n >= 2, p in {1, 2} and a theta inside the phi0 domain."""
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(2 if n1 == 1 else 1, 6))
    p = draw(st.integers(1, 2))
    spec = pa.ModelSpec(W=pa.build_queen_lattice(n1, n2), p=p, q=0, h=0, density=pa.normal())
    theta = pa.ParameterVector(draw(st.floats(-0.95, 0.95)),
                               [draw(st.floats(-1.6, 1.6)) for _ in range(p)], [], [], [])
    return spec, theta


class TestCausalityFastPath:
    @PROPERTY_SETTINGS
    @given(causality_cases())
    def test_extremes_match_every_eigenvalue_oracle(self, case):
        spec, theta = case
        chk = pa.check_causal(spec, theta)
        assert abs(chk.max_root_modulus - test_model.TestCheckCausal.roots_oracle(spec.W, theta)) \
            <= 1e-12 * (1.0 + chk.max_root_modulus)


# 0, or a magnitude in [1e-6, 1] of either sign
unit = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))


@st.composite
def trust_region_subproblems(draw):
    """(g, lam, Q, delta, hard) with B = Q diag(lam) Q' symmetric, often
    indefinite.

    The eigenvalues span up to 1e7, the curvature a narrow Laplace smoothing
    stage puts on the residuals it nearly interpolates. In the hard case g
    has no component along the lowest eigenvector, whose eigenvalue is
    simple and negative.
    """
    n = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-2, 7))
    lam = np.sort(draw(arrays(np.float64, n, elements=unit))) * scale
    a = draw(arrays(np.float64, n, elements=unit))
    a *= 10.0 ** draw(st.integers(-3, 3))
    hard = n > 1 and draw(st.booleans())
    if hard:
        lam[0] = min(lam[1], 0.0) - draw(st.floats(0.01, 1.0)) * scale
        a[0] = 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    delta = 10.0 ** draw(st.floats(-4.0, 2.0))
    return Q @ a, lam, Q, delta, hard


class TestTrustRegionStep:
    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(trust_region_subproblems())
    def test_more_sorensen_conditions(self, case):
        # s is a global minimizer of g's + s'Bs/2 over ||s|| <= delta iff
        # some sigma >= 0 gives (B + sigma I) s = -g with B + sigma I
        # positive semidefinite and sigma (delta - ||s||) = 0 (Moré &
        # Sorensen 1983). sigma is recovered from s by least squares. The
        # tolerance is 1e-8 relative, widened by the rounding of the shifted
        # eigenvalues lam_i + sigma that the step divides by: a shift that
        # cancels a large negative eigenvalue leaves few correct digits.
        g, lam, Q, delta, hard = case
        s = estimate._trust_region_step(g, lam, Q, delta)
        B = (Q * lam) @ Q.T
        norm = np.linalg.norm(s)
        r = B @ s + g
        sigma = -float(s @ r) / norm ** 2 if norm > 0 else 0.0
        big = max(np.max(np.abs(lam)), abs(sigma))
        shifted = lam[0] + sigma
        tol = 1e-8
        assert np.linalg.norm(r + sigma * s) <= tol * (big * norm + np.linalg.norm(g))
        assert sigma >= -tol * big
        assert shifted >= -tol * big
        wide = tol + 64 * np.finfo(float).eps * big / shifted if shifted > 0 else np.inf
        assert norm <= delta * (1.0 + min(wide, 1.0))
        if wide < np.inf:
            assert sigma * (delta - norm) <= wide * (big * delta + np.linalg.norm(g))
        if hard:  # lam_1 < 0, so the step lies on the boundary
            assert abs(norm - delta) <= tol * delta


@st.composite
def profile_grids(draw):
    """(W, T, r_y, r_l): the Gaussian profile T ln|I - phi0 W| - r'r / 2,
    r = r_y - phi0 r_l, of ``initial_points``' phi0 grid, over a path graph
    with random chords. r_l = 0 gives every point the same bound, and with
    T = 0 every point the same value."""
    n = draw(st.integers(2, 12))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    W = pa.from_adjacency([(i, i + 1) for i in range(n - 1)] + chords, n)
    m = draw(st.integers(1, 20))
    scale = 10.0 ** draw(st.integers(-2, 2))
    r_y = scale * draw(arrays(np.float64, m, elements=st.floats(-10.0, 10.0)))
    r_l = np.zeros(m) if draw(st.booleans()) else \
        scale * draw(arrays(np.float64, m, elements=st.floats(-10.0, 10.0)))
    return W, draw(st.sampled_from([0, 1, 5, 50])), r_y, r_l


class TestStartGrid:
    @PROPERTY_SETTINGS
    @given(profile_grids())
    def test_pruned_argmax_is_the_full_grids(self, case):
        W, T, r_y, r_l = case
        grid = np.linspace(-0.9, 0.9, 37)

        def residual_term(phi0):
            r = r_y - phi0 * r_l
            return -0.5 * float(r @ r)

        def profile(phi0):  # as a full scan of the grid evaluates it
            r = r_y - phi0 * r_l
            return T * W.log_det_a0(phi0) - 0.5 * float(r @ r)

        pruned = estimate._grid_argmax(grid, residual_term, lambda phi0: T * W.log_det_a0(phi0))
        assert pruned == max(grid, key=profile)
        if T == 0 and not r_l.any():  # every value ties: the first point wins
            assert pruned == grid[0]


@st.composite
def weighted_grams(draw):
    """(M, w, block): a (rows, columns) matrix, weights of either sign, and a
    block width from one column to past the last."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 300))
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    M = draw(arrays(np.float64, (rows, cols), elements=entries))
    w = draw(arrays(np.float64, cols, elements=entries))
    return M, w, draw(st.integers(1, cols + 20))


class TestWeightedGram:
    @PROPERTY_SETTINGS
    @given(weighted_grams())
    def test_blocks_match_one_product(self, case):
        # each entry within 1e-13 of the sum of its terms' magnitudes (its
        # rounding scale); one block reproduces the one product bit for bit
        M, w, block = case
        expected = (M * w) @ M.T
        with mock.patch.object(likelihood, "_GRAM_BLOCK", block):
            G = likelihood._weighted_gram(M, w)
        scale = (np.abs(M) * np.abs(w)) @ np.abs(M).T
        assert np.all(np.abs(G - expected) <= 1e-13 * scale + 1e-300)
        if block >= M.shape[1]:
            assert same_bits(G, expected)
