"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's computational paths:
log-densities come from scipy.stats, log-determinants from dense LU
(slogdet), the log-det series' node values from one freshly ordered sparse
LU per node, residuals from direct formula-level loops, derivatives
from central finite differences, and simulated panels from whole-array
covariates, innovations and responses over every step. The one exception
is ``oracle_per_observation_scores``, the columns of the workspace's
derivative matrix scaled by the score ratio; a test checks it against
finite differences of the per-observation terms.
"""

import copy
import csv
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import stats
from scipy.spatial import Delaunay

import pstarann as pa
from pstarann import _csv
from pstarann.simulate import BLOCK_STEPS


# ----------------------------------------------------------------------
# Independent oracles
# ----------------------------------------------------------------------

def oracle_log_pdf(density, s):
    """Unit-variance log densities straight from scipy.stats."""
    s = np.asarray(s, dtype=float)
    if density.family == "normal":
        return stats.norm.logpdf(s)
    if density.family == "laplace":
        return stats.laplace.logpdf(s, scale=np.sqrt(2.0) / 2.0)
    c = np.sqrt((density.nu - 2.0) / density.nu)
    return stats.t.logpdf(s / c, density.nu) - np.log(c)


def oracle_residuals(spec, theta, data):
    """(T, n) residuals from the model equation, one slice at a time."""
    W = spec.W.W.toarray()
    E = np.empty((data.T, spec.n))
    for t in range(1, data.T + 1):
        e = data.Y[data.p + t - 1].copy()
        for i in range(spec.p + 1):
            phi = theta.phi0 if i == 0 else theta.phi[i - 1]
            e -= phi * (W @ data.Y[data.p + t - 1 - i])
        X_t = data.X[t - 1]
        if spec.n_beta:
            e -= X_t @ theta.beta
        with np.errstate(over="ignore"):
            for i in range(spec.h):
                e -= theta.lam[i] / (1.0 + np.exp(-X_t @ theta.gamma[i]))
        E[t - 1] = e
    return E


def oracle_log_det_a0(spec, phi0):
    """ln|I - phi0 W| from a dense LU."""
    sign, logdet = np.linalg.slogdet(np.eye(spec.n) - phi0 * spec.W.W.toarray())
    assert sign > 0
    return logdet


def oracle_log_likelihood(spec, theta, data):
    """Dense formula-level log-likelihood: LU log-det plus summed log pdfs."""
    total = data.T * oracle_log_det_a0(spec, theta.phi0)
    for e in oracle_residuals(spec, theta, data):
        total += float(np.sum(oracle_log_pdf(spec.density, e)))
    return total


def oracle_per_observation_terms(spec, theta, data):
    """(T, n) terms l_{s,t} = (1/n) ln|A0| + ln f(eps_{s,t}), which sum to
    the log-likelihood."""
    E = oracle_residuals(spec, theta, data)
    return oracle_log_det_a0(spec, theta.phi0) / spec.n + oracle_log_pdf(spec.density, E)


def oracle_per_observation_scores(ws, theta):
    """(T, n, dim) scores dl_{s,t}/dtheta: the columns of D diag(V), with the
    eigenvalue term -(1/n) tr(W A0^{-1}) added to the phi0 score.

    It reads the workspace's D and density but forms every score, so the
    tests check it against finite differences of
    ``oracle_per_observation_terms`` and then use it to check B."""
    T, n, dim = ws.data.T, ws.data.n, ws.spec.dim
    tr = ws.spec.W.trace_w_a0inv(theta.phi0, 1)
    # the residuals call leaves D's network rows at theta
    V = ws.density.score(ws.residuals(theta).ravel())
    G = (ws.D * V).T.reshape(T, n, dim)
    G[:, :, 0] -= tr / n
    return G


def fd_gradient(f, x0, rel=1e-6):
    """Central finite differences with per-coordinate step rel*(1+|x_i|)."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        h = rel * (1.0 + abs(x0[i]))
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_jacobian(vf, x0, rel=1e-6):
    """Central differences of a vector function (rows index x coordinates)."""
    x0 = np.asarray(x0, dtype=float)
    rows = []
    for i in range(x0.size):
        h = rel * (1.0 + abs(x0[i]))
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        rows.append((vf(xp) - vf(xm)) / (2.0 * h))
    return np.array(rows)


def oracle_series_node_values(S, xs):
    """u = (1 - phi0^2) d ln|I - phi0 S| / d phi0 at x = atanh(phi0) for each
    x in xs, each from its own complex-step sparse LU ordered afresh by
    MMD_AT_PLUS_A (the per-node routine of the first log-det series)."""
    S = sp.csc_matrix(S)
    eye = sp.identity(S.shape[0], format="csc")
    h = 1e-30
    values = []
    for phi0 in np.tanh(xs):
        lu = spla.splu(eye - (phi0 + 1j * h) * S, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert np.array_equal(lu.perm_r, lu.perm_c)
        values.append((1.0 - phi0 * phi0) * np.sum(np.log(lu.U.diagonal())).imag / h)
    return np.array(values)


def reference_write_panel_csv(path, data):
    """The panel CSV bytes, written row by row through ``csv.writer``."""
    q = data.q
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "y"] + [f"x{j}" for j in range(1, q + 1)])
        for r in range(data.p):
            t = r - data.p + 1  # 1-p .. 0
            for s in range(data.n):
                writer.writerow([t, s, repr(float(data.Y[r, s]))] + [""] * q)
        for t in range(1, data.T + 1):
            for s in range(data.n):
                writer.writerow(
                    [t, s, repr(float(data.Y[data.p + t - 1, s]))]
                    + [repr(float(data.X[t - 1, s, j])) for j in range(q)]
                )


def assert_reads_agree(path, header, dtypes, blank=0):
    """``_csv.read_columns`` returns the arrays of the same read with every
    block through the checked parser, bit for bit, or raises its ValueError.
    Returns the message, or None."""
    try:
        got = _csv.read_columns(path, header, dtypes, blank)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            checked_read_columns(path, header, dtypes, blank)
        assert str(err.value) == str(exc)
        return str(exc)
    want = checked_read_columns(path, header, dtypes, blank)
    for a, b in zip([got[0], *got[1], got[2]], [want[0], *want[1], want[2]]):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    return None


def checked_read_columns(path, header, dtypes, blank=0):
    """``_csv.read_columns`` with numpy deferring on every block, so that the
    checked parser reads the whole file: the reference reader."""
    with mock.patch.object(_csv, "_loadtxt_block", lambda *args: None):
        return _csv.read_columns(path, header, dtypes, blank)


def _streams(seed):
    """The covariate and the error generator that ``pa.simulate`` spawns from
    ``seed``. A SeedSequence is copied, so the caller's is not spawned from."""
    ss = copy.deepcopy(seed) if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(2)]


def _innovations(density, rng, steps, n):
    """(steps, n) innovations of ``density`` in one draw from ``rng``."""
    if density.family == "normal":
        return rng.standard_normal(steps * n).reshape(steps, n)
    if density.family == "scaled_t":
        return (density.t_scale * rng.standard_t(density.nu, size=steps * n)).reshape(steps, n)
    return rng.laplace(0.0, np.sqrt(2.0) / 2.0, size=steps * n).reshape(steps, n)


def oracle_innovations(spec, seed, steps):
    """Every step's innovations as ``oracle_simulate`` draws them from
    ``seed``: a panel does not carry them, so a test injects these through
    ``pa.simulate(..., errors=...)`` to pin a simulator's draws."""
    return _innovations(spec.density, _streams(seed)[1], steps, spec.n)


def oracle_covariates(columns, n, steps, rng):
    """The (steps, n, q) covariates drawn from the Generator ``rng`` one whole
    column at a time: each normal column's (steps, n) draw in one call."""
    X = np.empty((steps, n, len(columns)))
    for j, col in enumerate(columns):
        if col.get("kind", "normal") == "constant":
            X[:, :, j] = float(col.get("value", 1.0))
        else:
            X[:, :, j] = (float(col.get("mean", 0.0))
                          + float(col.get("sd", 1.0)) * rng.standard_normal((steps, n)))
    return X


def oracle_simulate(spec, theta, X=None, seed=0, burn_in=200, T=None,
                    covariate_columns=None, errors=None):
    """The simulator over whole arrays: every step's covariates, innovations,
    drive and response are built before the retained window is cut out.
    The drive is formed per ``simulate.BLOCK_STEPS`` steps, as the
    simulator forms it, because BLAS may round a row of the lambda
    contraction by its place in the call (with two OpenBLAS threads, a
    whole-array drive at n = 3107 and h >= 3 differs in the last bits).

    Same seeding as ``pa.simulate`` (one SeedSequence spawns the covariate
    and the error stream; each covariate column is drawn over all steps,
    the innovations in one draw), so a streamed simulator must match it
    bit for bit: a panel whose Y has the oracle's bits has its draws.
    """
    rng_x, rng_e = _streams(seed)
    n = spec.n
    if X is None:
        X = oracle_covariates(covariate_columns or [], n, burn_in + spec.p + T, rng_x)
    steps = X.shape[0]
    if errors is None:
        drive = _innovations(spec.density, rng_e, steps, n)
    else:
        drive = np.array(errors, dtype=float)
    for t0 in range(0, steps, BLOCK_STEPS):
        block = slice(t0, t0 + BLOCK_STEPS)
        if spec.n_beta:
            drive[block] += X[block] @ theta.beta
        if spec.h:
            # the block's activations as one (h, block n) array
            F = pa.sigmoid(theta.gamma @ X[block].reshape(-1, spec.q).T)
            drive[block] += (theta.lam @ F).reshape(-1, n)
    lu = spec.W.a0_factor(theta.phi0)
    lags = [np.zeros(n) for _ in range(spec.p)]
    Y = np.empty((steps, n))
    for t in range(steps):
        rhs = drive[t].copy()
        for i in range(spec.p):
            rhs += theta.phi[i] * lags[i]
        Y[t] = lu.solve(rhs)
        if spec.p:
            lags = [spec.W.W.dot(Y[t])] + lags[:-1]
    return pa.PanelData(Y=Y[burn_in:], X=X[burn_in + spec.p:], p=spec.p)


# simulate(..., spectral=True) against the LU path, relative to 1 + |y|: the
# worst measured over test_simulate's spectral grid (a 10x10 lattice) and the
# 20x20 model-1 design is 1.8e-14.
SPECTRAL_TOL = 5e-14


def assert_spectral_agrees(got, want):
    """``got``, a spectral panel, agrees with ``want`` from the LU path or
    ``oracle_simulate`` on the same draws: Y to SPECTRAL_TOL, X bit for bit.
    ``assert_spectral_draws`` pins the innovations."""
    assert np.max(np.abs(got.Y - want.Y) / (1.0 + np.abs(want.Y))) < SPECTRAL_TOL
    assert np.array_equal(got.X, want.X)


def assert_spectral_draws(got, spec, theta, seed, steps, **kwargs):
    """``got``, the panel of ``pa.simulate(spec, theta, seed=seed,
    spectral=True, **kwargs)`` over ``steps`` steps, drew the oracle's
    innovations bit for bit: the same call with ``oracle_innovations``
    injected gives the same bits. A SeedSequence ``seed`` must not have
    spawned yet, as a fresh one that made ``got``; it is copied for each use."""
    injected = pa.simulate(spec, theta, seed=copy.deepcopy(seed), spectral=True,
                           **kwargs, errors=oracle_innovations(spec, seed, steps))
    assert np.array_equal(injected.Y, got.Y)
    assert np.array_equal(injected.X, got.X)


def delaunay_weights(n, seed):
    """Weights over the Delaunay triangulation of n seeded random points."""
    tri = Delaunay(np.random.default_rng(seed).random((n, 2)))
    s = tri.simplices
    return pa.from_adjacency(np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [2, 0]]]), n)


def is_canonical(theta):
    """Whether theta keeps the identification conventions of ``canonicalize``:
    lambda non-increasing and every gamma_i1 > 0 (always, when h = 0)."""
    return theta.h == 0 or bool(np.all(np.diff(theta.lam) <= 0)
                                and np.all(theta.gamma[:, 0] > 0))


def random_causal_theta(spec, rng, phi0_range=0.5):
    """A generic parameter draw that stays well inside the causal region."""
    theta = pa.ParameterVector(
        phi0=rng.uniform(-phi0_range, phi0_range),
        phi=rng.uniform(-0.25, 0.25, spec.p),
        beta=rng.uniform(-1.0, 1.0, spec.n_beta),
        lam=np.sort(rng.uniform(0.3, 1.5, spec.h))[::-1],
        gamma=rng.standard_normal((spec.h, spec.q)),
    )
    if spec.h:
        theta.gamma[:, 0] = np.abs(theta.gamma[:, 0]) + 0.1
    return theta


def random_panel(spec, T, rng, y_scale=1.5, x_scale=1.0):
    """Arbitrary finite panel (residual algebra needs no model structure)."""
    Y = y_scale * rng.standard_normal((spec.p + T, spec.n))
    X = x_scale * rng.standard_normal((T, spec.n, spec.q))
    return pa.PanelData(Y=Y, X=X, p=spec.p)



def skew_every_gram(monkeypatch):
    """Patch ``likelihood._weighted_gram`` to move one off-diagonal entry of
    every Gram by 1e-3 of its largest entry: far past ``hessian``'s 1e-9
    relative asymmetry tolerance, with every entry finite."""
    real = pa.likelihood._weighted_gram

    def skewed(M, w):
        G = real(M, w)
        G[0, -1] += 1e-3 * (1.0 + np.abs(G).max())
        return G

    monkeypatch.setattr(pa.likelihood, "_weighted_gram", skewed)

MODEL1_THETA = dict(phi0=0.6, phi=[-0.274], beta=[], lam=[1.5], gamma=[[0.75, -0.35]])
MODEL1_COLUMNS = [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}]


def model1_spec(W, density=None):
    return pa.ModelSpec(W=W, p=1, q=2, h=1, density=density or pa.normal(),
                        linear_term=False)


def model1_theta():
    return pa.ParameterVector(**MODEL1_THETA)


# ----------------------------------------------------------------------
# Session-scoped weight matrices (eigendecompositions are reused a lot)
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def w22():
    return pa.build_queen_lattice(2, 2)


@pytest.fixture(scope="session")
def w33():
    return pa.build_queen_lattice(3, 3)


@pytest.fixture(scope="session")
def w44():
    return pa.build_queen_lattice(4, 4)


@pytest.fixture(scope="session")
def w1010():
    return pa.build_queen_lattice(10, 10)


@pytest.fixture(scope="session")
def w2020():
    return pa.build_queen_lattice(20, 20)
