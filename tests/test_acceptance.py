"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The full-scale
replication study (30x30 lattice, T=30, R=200) is opt-in:
``PSTARANN_RUN_LONG=1 pytest tests/test_acceptance.py -m long -s``.
"""

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.spatial import Delaunay

import pstarann as pa
from conftest import (
    MODEL1_COLUMNS,
    fd_gradient,
    fd_jacobian,
    is_canonical,
    model1_spec,
    model1_theta,
    oracle_log_likelihood,
    random_causal_theta,
    random_panel,
)


def criterion(index, ok, detail):
    print(f"ACCEPTANCE {index:>2} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {index}: {detail}"


# ----------------------------------------------------------------------
# 1. eigenvalue log-det equals dense LU on n <= 400, 20 phi0 values
# ----------------------------------------------------------------------

def test_criterion_1_logdet_oracle():
    t0 = time.time()
    worst = 0.0
    for dims in [(2, 2), (5, 4), (9, 8), (12, 12), (20, 20)]:
        W = pa.build_queen_lattice(*dims)
        dense_W = W.W.toarray()
        eye = np.eye(W.n)
        for phi0 in np.linspace(-0.95, 0.95, 20):
            sign, dense = np.linalg.slogdet(eye - phi0 * dense_W)
            assert sign > 0
            worst = max(worst, abs(W.log_det_a0(phi0) - dense))
    elapsed = time.time() - t0
    criterion(1, worst <= 1e-10 and elapsed < 10.0,
              f"max |eig - LU| = {worst:.2e} over lattices up to n=400, "
              f"{elapsed:.1f} s")


# ----------------------------------------------------------------------
# 2. analytic gradient/Hessian vs finite differences on 20 random instances
# ----------------------------------------------------------------------

def test_criterion_2_derivatives():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    lattices = {3: pa.build_queen_lattice(3, 3), 4: pa.build_queen_lattice(4, 4)}
    worst_g, worst_h = 0.0, 0.0
    for k in range(20):
        W = lattices[3 if k % 2 == 0 else 4]
        density = pa.normal() if k % 4 < 2 else pa.scaled_t(4)
        spec = pa.ModelSpec(
            W=W, p=1 + k % 2, q=2, h=k % 3, density=density,
            linear_term=(k % 5 != 0) or k % 3 == 0,
        )
        theta = random_causal_theta(spec, rng)
        data = random_panel(spec, 2 + k % 4, rng)
        ws = pa.LikelihoodWorkspace(spec, data)

        g = ws.gradient(theta)
        fd_g = fd_gradient(
            lambda x: ws.log_likelihood(pa.ParameterVector.from_array(x, spec)),
            theta.to_array(),
        )
        worst_g = max(worst_g, float(np.max(np.abs(g - fd_g) / (1.0 + np.abs(g)))))

        H = ws.hessian(theta)
        fd_h = fd_jacobian(
            lambda x: ws.gradient(pa.ParameterVector.from_array(x, spec)),
            theta.to_array(),
        )
        fd_h = 0.5 * (fd_h + fd_h.T)
        worst_h = max(worst_h, float(np.max(np.abs(H - fd_h) / (1.0 + np.abs(H)))))
    elapsed = time.time() - t0
    criterion(2, worst_g < 1e-6 and worst_h < 1e-4 and elapsed < 60.0,
              f"gradient rel err {worst_g:.2e} (<1e-6), Hessian rel err "
              f"{worst_h:.2e} (<1e-4) on 20 instances, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 3. log-likelihood equals the dense brute-force oracle to 1e-10, n <= 100
# ----------------------------------------------------------------------

def test_criterion_3_likelihood_oracle():
    rng = np.random.default_rng(3)
    densities = [pa.normal(), pa.scaled_t(4), pa.laplace()]
    Ws = [pa.build_queen_lattice(2, 2), pa.build_queen_lattice(3, 3),
          pa.build_queen_lattice(5, 5), pa.build_queen_lattice(10, 10),
          pa.from_adjacency([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3),
                             (2, 6), (5, 6), (5, 0)], 7)]
    worst = 0.0
    k = 0
    for W in Ws:
        for density in densities:
            spec = pa.ModelSpec(W=W, p=k % 3, q=2, h=k % 3, density=density,
                                linear_term=k % 2 == 0 or k % 3 == 0)
            theta = random_causal_theta(spec, rng)
            data = random_panel(spec, 1 + k % 4, rng)
            ll = pa.log_likelihood(spec, theta, data)
            worst = max(worst, abs(ll - oracle_log_likelihood(spec, theta, data)))
            k += 1
    criterion(3, worst <= 1e-10,
              f"max |lib - dense oracle| = {worst:.2e} over {k} instances")


# ----------------------------------------------------------------------
# 4 & 10. scaled replication study, Normal and Laplace error families
# ----------------------------------------------------------------------

MODEL1_TRUTH = np.array([0.6, -0.274, 1.5, 0.75, -0.35])
MODEL1_BANDS = np.array([0.01, 0.01, 0.05, 0.05, 0.03])


def _replication_study(density, base_seed, R=50, dims=(20, 20), T=20):
    W = pa.build_queen_lattice(*dims)
    spec = model1_spec(W, density=density)
    theta0 = model1_theta()
    estimates, ses, notes = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(R):
            data = pa.simulate(spec, theta0,
                               seed=np.random.SeedSequence(base_seed, spawn_key=(r,)),
                               T=T, covariate_columns=MODEL1_COLUMNS)
            res = pa.fit(spec, data, n_starts=5, seed=base_seed + r)
            estimates.append(res.theta.to_array())
            if res.std_errors is not None:
                ses.append(res.std_errors)
            notes.append(res.cov_note)
    return np.array(estimates), (np.array(ses) if ses else None), notes


def test_criterion_4_scaled_replication():
    t0 = time.time()
    est, ses, _ = _replication_study(pa.normal(), base_seed=20)
    mean_gap = np.abs(est.mean(axis=0) - MODEL1_TRUTH)
    emp_sd = est.std(axis=0, ddof=1)
    asy_sd = ses.mean(axis=0)
    ratio = emp_sd / asy_sd
    elapsed = time.time() - t0
    ok = (np.all(mean_gap <= MODEL1_BANDS)
          and np.all(ratio < 2.0) and np.all(ratio > 0.5)
          and elapsed < 1800.0)
    criterion(4, ok,
              "mean gaps " + np.array2string(mean_gap, precision=4)
              + " within " + np.array2string(MODEL1_BANDS)
              + "; emp/asy SD ratios " + np.array2string(ratio, precision=2)
              + f" in (0.5, 2); {elapsed:.0f} s")


def test_criterion_10_laplace_path():
    est, ses, notes = _replication_study(pa.laplace(), base_seed=77)
    mean_gap = np.abs(est.mean(axis=0) - MODEL1_TRUTH)
    cov_unavailable = ses is None and all(n and "Laplace" in n for n in notes)
    ok = np.all(np.isfinite(est)) and np.all(mean_gap <= MODEL1_BANDS) and cov_unavailable
    criterion(10, ok,
              "Laplace mean gaps " + np.array2string(mean_gap, precision=4)
              + " within bands; covariance reported unavailable on all "
              f"{est.shape[0]} replicates")


# ----------------------------------------------------------------------
# 5. information equality at theta0 (Gaussian, strong-signal design)
# ----------------------------------------------------------------------

def test_criterion_5_information_equality():
    W = pa.build_queen_lattice(20, 20)
    spec = pa.ModelSpec(W=W, p=1, q=2, h=2, density=pa.normal())
    theta0 = pa.ParameterVector(0.6, [-0.274], [0.24, -0.7], [2.0, 0.8],
                                [[0.75, 0.7], [0.35, -1.0]])
    data = pa.simulate(spec, theta0, seed=5, T=50, covariate_columns=MODEL1_COLUMNS)
    ws = pa.LikelihoodWorkspace(spec, data)
    nT = data.n * data.T
    A = -ws.hessian(theta0) / nT
    B = ws.score_outer_product(theta0)
    gap = float(np.max(np.abs(A - B)))
    bound = 0.10 * float(np.max(np.abs(A)))
    criterion(5, gap <= bound,
              f"entrywise |A-B| = {gap:.4f} <= 0.10*max|A| = {bound:.4f} "
              f"(n=400, T=50)")


# ----------------------------------------------------------------------
# 6. causality root modulus and moving-average reconstruction
# ----------------------------------------------------------------------

def test_criterion_6_causality_and_psi_decay():
    # 0.685 = |phi1| / (1 - phi0) at tau = 1, exactly, for any connected
    # row-standardized graph
    worst_mod_err = 0.0
    for W in (pa.build_queen_lattice(3, 3), pa.build_queen_lattice(20, 20),
              pa.from_adjacency([(0, 1), (1, 2)], 3)):
        spec = model1_spec(W)
        chk = pa.check_causal(spec, model1_theta())
        assert chk.causal
        worst_mod_err = max(worst_mod_err, abs(chk.max_root_modulus - 0.685))

    # simulate a 3x3 panel from zero presample with explicit inputs so the
    # truncated causal sum can be rebuilt for every step
    W = pa.build_queen_lattice(3, 3)
    spec = pa.ModelSpec(W=W, p=1, q=2, h=1, density=pa.normal())
    theta = pa.ParameterVector(0.6, [-0.274], [0.24, -0.7], [1.5], [[0.75, -0.35]])
    T = 40
    steps = spec.p + T
    rng = np.random.default_rng(6)
    X = pa.generate_covariates(MODEL1_COLUMNS, spec.n, steps, rng)
    eps = rng.standard_normal((steps, spec.n))
    data = pa.simulate(spec, theta, X=X, burn_in=0, errors=eps)

    u = np.array([X[m] @ theta.beta + theta.lam @ pa.sigmoid(theta.gamma @ X[m].T)
                  + eps[m] for m in range(steps)])
    target = data.Y[-1]  # absolute step p + T = 41: exactly 41 causal terms

    psis = pa.psi_expansion(spec, theta, 40)
    a0inv_u = W.a0_factor(theta.phi0).solve(u.T).T
    errs = {}
    for J in (10, 20, 30, 40):
        acc = np.zeros(spec.n)
        for j in range(J + 1):
            acc += psis[j] @ a0inv_u[steps - 1 - j]
        errs[J] = float(np.max(np.abs(target - acc)))
    decays = errs[10] > errs[20] > errs[30] > errs[40]
    ok = worst_mod_err <= 1e-9 and errs[40] < 1e-6 and decays
    criterion(6, ok,
              f"max root modulus error {worst_mod_err:.1e} (<=1e-9); "
              f"reconstruction error at J=40: {errs[40]:.2e} (<1e-6), "
              f"decaying through J=10..40: {[f'{errs[J]:.1e}' for J in (10, 20, 30, 40)]}")


# ----------------------------------------------------------------------
# 7. canonicalization leaves the log-likelihood unchanged (100 instances)
# ----------------------------------------------------------------------

def test_criterion_7_canonicalization_identity():
    rng = np.random.default_rng(7)
    W = pa.build_queen_lattice(2, 2)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in range(100):
            h = 1 + k % 3
            q = 2 + k % 2
            spec = pa.ModelSpec(W=W, p=k % 2, q=q, h=h,
                                density=(pa.normal(), pa.scaled_t(4), pa.laplace())[k % 3],
                                include_intercept=True)
            theta = random_causal_theta(spec, rng)
            theta.gamma[:, 0] *= rng.choice([-1.0, 1.0], size=h)  # random flips
            data = random_panel(spec, 2, rng)
            data.X[:, :, 0] = 1.0
            ll = pa.log_likelihood(spec, theta, data)

            theta_c = pa.canonicalize(theta, include_intercept=True)
            assert is_canonical(theta_c)
            worst = max(worst, abs(pa.log_likelihood(spec, theta_c, data) - ll))

            perm = rng.permutation(h)
            theta_p = theta.copy()
            theta_p.lam, theta_p.gamma = theta.lam[perm], theta.gamma[perm]
            worst = max(worst, abs(pa.log_likelihood(spec, theta_p, data) - ll))
    criterion(7, worst < 1e-10,
              f"max |loglik change| = {worst:.2e} over 100 sign-flip + "
              "permutation instances")


# ----------------------------------------------------------------------
# 8. Moran z-statistic calibration under the i.i.d. null
# ----------------------------------------------------------------------

def test_criterion_8_moran_calibration():
    W = pa.build_queen_lattice(15, 15)
    zs = np.array([pa.morans_i(W, np.random.default_rng(seed).standard_normal(225))["z"]
                   for seed in range(500)])
    ok = -0.15 <= zs.mean() <= 0.15 and 0.8 <= zs.var() <= 1.25
    criterion(8, ok,
              f"null z mean {zs.mean():.4f} in [-0.15, 0.15], "
              f"variance {zs.var():.4f} in [0.8, 1.25] (500 draws, 15x15)")


# ----------------------------------------------------------------------
# 9. real-data-scale smoke test: n = 3107 planar-like adjacency
# ----------------------------------------------------------------------

def test_criterion_9_real_data_scale():
    t0 = time.time()
    rng = np.random.default_rng(314)
    pts = rng.random((3107, 2))
    tri = Delaunay(pts)
    edges = set()
    for simplex in tri.simplices:
        for a in range(3):
            i, j = int(simplex[a]), int(simplex[(a + 1) % 3])
            edges.add((min(i, j), max(i, j)))
    W = pa.from_adjacency(sorted(edges), 3107)

    columns = [{"kind": "constant", "value": 1.0},
               {"kind": "normal", "sd": 1.0},
               {"kind": "normal", "sd": 1.0},
               {"kind": "normal", "sd": 1.0}]
    truth = pa.ParameterVector(0.4, [0.3], [-1.2, 0.15, -1.2, -0.15],
                               [3.2, 1.8],
                               [[0.5, 1.6, -2.5, 2.3], [0.4, -1.8, 1.3, -0.9]])
    gen_spec = pa.ModelSpec(W=W, p=1, q=4, h=2, density=pa.scaled_t(8),
                            include_intercept=True)
    data = pa.simulate(gen_spec, truth, seed=9, T=2, covariate_columns=columns)

    tables = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in (1, 2):
            spec = pa.ModelSpec(W=W, p=1, q=4, h=h, density=pa.scaled_t(8),
                                include_intercept=True)
            res = pa.fit(spec, data, n_starts=5, seed=0)
            tables.append(res.format_table())
    elapsed = time.time() - t0
    ok = elapsed < 600.0 and all("95% C.I." in t and "AIC" in t for t in tables)
    criterion(9, ok,
              f"n=3107, T=2, q=4, h in (1, 2), scaled t(8): fitted and "
              f"emitted estimate/Std./CI tables in {elapsed:.0f} s (< 600 s)")
    print(tables[1])


# ----------------------------------------------------------------------
# opt-in full-scale replication (Table-1 protocol)
# ----------------------------------------------------------------------

def _full_scale_replicate(args):
    base_seed, r = args
    W = pa.build_queen_lattice(30, 30)
    spec = model1_spec(W)
    data = pa.simulate(spec, model1_theta(),
                       seed=np.random.SeedSequence(base_seed, spawn_key=(r,)),
                       T=30, covariate_columns=MODEL1_COLUMNS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = pa.fit(spec, data, n_starts=5, seed=base_seed + r, covariance=False)
    return res.theta.to_array()


@pytest.mark.long
@pytest.mark.skipif(os.environ.get("PSTARANN_RUN_LONG") != "1",
                    reason="set PSTARANN_RUN_LONG=1 to run the full-scale study")
def test_long_covariance_reference_scale():
    # the documented covariance-estimation scale: one n=10000, T=100 panel
    # evaluated at the generating parameters
    t0 = time.time()
    W = pa.build_queen_lattice(100, 100)
    spec = model1_spec(W)
    theta0 = model1_theta()
    data = pa.simulate(spec, theta0, seed=1, T=100, covariate_columns=MODEL1_COLUMNS)
    ws = pa.LikelihoodWorkspace(spec, data)
    nT = data.n * data.T
    A = -ws.hessian(theta0) / nT
    B = ws.score_outer_product(theta0)
    se = np.sqrt(np.diag(np.linalg.inv(A) @ B @ np.linalg.inv(A)) / (900 * 30))
    elapsed = time.time() - t0
    # asymptotic SEs at the 30x30/T=30 sampling scale, estimated from the
    # reference panel; magnitudes match the scaled-down studies
    reference = np.array([0.0079, 0.0085, 0.0308, 0.0310, 0.0147])
    ok = np.all(se > 0.5 * reference) and np.all(se < 1.5 * reference)
    criterion("long-cov", ok,
              "n=10000/T=100 reference panel evaluated in "
              f"{elapsed:.0f} s; implied 30x30/T=30 SEs "
              + np.array2string(se, precision=4))


@pytest.mark.long
@pytest.mark.skipif(os.environ.get("PSTARANN_RUN_LONG") != "1",
                    reason="set PSTARANN_RUN_LONG=1 to run the full-scale study")
def test_long_full_scale_replication():
    R = 200
    with ProcessPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        est = np.array(list(pool.map(_full_scale_replicate,
                                     [(1000, r) for r in range(R)])))
    mean = est.mean(axis=0)
    se_mean = est.std(axis=0, ddof=1) / np.sqrt(R)
    gap = np.abs(mean - MODEL1_TRUTH)
    ok = np.all(gap <= 2.0 * se_mean)
    criterion("long", ok,
              "full-scale means " + np.array2string(mean, precision=4)
              + " vs truth within 2 empirical SEs "
              + np.array2string(2 * se_mean, precision=4))
