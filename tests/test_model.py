"""Parameter vector, network component, residuals, causality, canonical form."""

import json
import pickle
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

import pstarann as pa
from pstarann.model import CAUSAL_MARGIN, LEAD_TOL, _largest_root_moduli
from pstarann.simulate import BLOCK_STEPS
from conftest import is_canonical, model1_spec, model1_theta, random_causal_theta, random_panel


class TestNNComponent:
    @pytest.mark.parametrize("h, q", [(0, 2), (1, 1), (1, 3), (3, 2), (4, 3)])
    def test_simulated_drive_matches_formula(self, w33, h, q):
        # p = 0, phi0 = 0, zero innovations and no burn-in: A0 = I, so Y is
        # the drive X beta + sum_i lambda_i F(x' gamma_i) of every step, over
        # more than one block of steps
        spec = pa.ModelSpec(W=w33, p=0, q=q, h=h, density=pa.normal(),
                            include_intercept=True)
        rng = np.random.default_rng(10 * h + q)
        theta = pa.ParameterVector(0.0, [], rng.normal(0.0, 1.0, q), rng.normal(0.0, 2.0, h),
                                   rng.normal(0.0, 1.5, (h, q)))
        steps = BLOCK_STEPS + 5
        X = rng.normal(0.0, 1.5, (steps, spec.n, q))
        X[:, :, 0] = 1.0
        X[:, :2, 1:] = 0.0  # two locations see the intercept alone
        data = pa.simulate(spec, theta, X=X, burn_in=0, errors=np.zeros((steps, spec.n)))

        linear = X @ theta.beta
        terms = [lam / (1.0 + np.exp(-(X @ g))) for lam, g in zip(theta.lam, theta.gamma)]
        want = linear + sum(terms)
        # relative to the sum of the terms' magnitudes, which bounds rounding
        scale = np.abs(linear) + sum(np.abs(u) for u in terms)
        assert np.all(np.abs(data.Y - want) <= 1e-13 * scale)

    def test_no_neurons_gives_zero(self, w33):
        # h = 0: no network term, so with beta = 0 and no innovations the
        # drive, and with A0 = I the simulated Y, is exactly zero
        spec = pa.ModelSpec(W=w33, p=0, q=2, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.0, [], [0.0, 0.0], [], np.zeros((0, 2)))
        X = np.ones((4, spec.n, 2))
        data = pa.simulate(spec, theta, X=X, burn_in=0, errors=np.zeros((4, spec.n)))
        assert not data.Y.any()

    def test_no_neurons_give_zeros_of_slice_shape(self, w33):
        # the h = 0 drive over more than one block of steps keeps the
        # (steps, n) shape of the panel and is zero throughout
        spec = pa.ModelSpec(W=w33, p=0, q=3, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.0, [], np.zeros(3), [], np.zeros((0, 3)))
        steps = BLOCK_STEPS + 5
        X = np.ones((steps, spec.n, 3))
        data = pa.simulate(spec, theta, X=X, burn_in=0, errors=np.zeros((steps, spec.n)))
        assert data.Y.shape == (steps, spec.n) and not data.Y.any()

    def test_sigmoid_stable_for_extreme_arguments(self):
        z = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        F = pa.sigmoid(z)
        assert np.all(np.isfinite(F))
        assert F[0] == 0.0 and F[-1] == 1.0
        assert_allclose(F[2], 0.5)

    def test_sigmoid_matches_two_branch_formula(self):
        # expit against the overflow-free two-branch form it replaced; the
        # two round differently by at most one machine epsilon
        z = np.concatenate((np.linspace(-40.0, 40.0, 8001),
                            [-800.0, -30.0, 30.0, 800.0]))
        ez = np.exp(np.minimum(z, 0.0))
        ref = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.maximum(z, 0.0))), ez / (1.0 + ez))
        assert_allclose(pa.sigmoid(z), ref, rtol=0, atol=np.finfo(float).eps)
        assert pa.sigmoid(-800.0) == 0.0 and pa.sigmoid(800.0) == 1.0

    def test_sigmoid_within_four_ulp_of_expit(self):
        z = np.concatenate((np.linspace(-745.0, 745.0, 300001), [-np.inf, np.inf]))
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            F = pa.sigmoid(z)
        ref = expit(z)
        assert np.all(np.abs(F - ref) <= 4 * np.spacing(ref))
        assert F[-2] == 0.0 and F[-1] == 1.0


class TestResiduals:
    def test_zero_theta_returns_y(self, w33):
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal())
        theta = pa.ParameterVector(0.0, [0.0], [0.0, 0.0], [0.0], [[0.0, 0.0]])
        rng = np.random.default_rng(0)
        data = random_panel(spec, 3, rng)
        E = pa.LikelihoodWorkspace(spec, data).residuals(theta)
        assert_allclose(E, data.Y_sample, atol=1e-14)

    def test_simulator_round_trip(self, w33):
        # the residuals at the generating theta are the injected innovations
        spec = model1_spec(w33)
        theta = model1_theta()
        eps = np.random.default_rng(4).standard_normal((200 + 1 + 6, 9))
        data = pa.simulate(spec, theta, seed=4, T=6, errors=eps, covariate_columns=[
            {"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}])
        E = pa.LikelihoodWorkspace(spec, data).residuals(theta)
        assert np.max(np.abs(E - eps[-6:])) < 1e-9

    def test_hand_computed_spatial_lag(self, w22):
        # p=0, h=0, q=0: eps_1 = Y_1 - 0.5 W Y_1 = 0.5 * ones for Y_1 = ones
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.5, [], [], [], [])
        data = pa.PanelData(Y=np.ones((1, 4)), X=np.zeros((1, 4, 0)), p=0)
        E = pa.LikelihoodWorkspace(spec, data).residuals(theta)
        assert_allclose(E, 0.5, atol=1e-14)

    def test_neuron_permutation_invariance(self, w33):
        rng = np.random.default_rng(5)
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=3, density=pa.normal())
        data = random_panel(spec, 4, rng)
        theta = random_causal_theta(spec, rng)
        ws = pa.LikelihoodWorkspace(spec, data)
        E0 = ws.residuals(theta)
        for _ in range(5):
            perm = rng.permutation(3)
            theta_p = theta.copy()
            theta_p.lam = theta.lam[perm]
            theta_p.gamma = theta.gamma[perm]
            assert_allclose(ws.residuals(theta_p), E0, atol=1e-14)

    def test_shape_mismatch_raises(self, w33):
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=0, density=pa.normal())
        data = random_panel(spec, 3, np.random.default_rng(1))
        theta = pa.ParameterVector(0.1, [0.1, 0.2], [0.0, 0.0], [], [])
        with pytest.raises(ValueError, match="phi"):
            pa.LikelihoodWorkspace(spec, data).residuals(theta)


class TestCheckCausal:
    def test_benchmark_design_modulus(self, w33):
        spec = model1_spec(w33)
        chk = pa.check_causal(spec, model1_theta())
        assert chk.causal
        assert abs(chk.max_root_modulus - 0.685) < 1e-9

    def test_zero_phis_trivially_causal(self, w33):
        spec = pa.ModelSpec(W=w33, p=1, q=0, h=0, density=pa.normal())
        chk = pa.check_causal(spec, pa.ParameterVector(0.0, [0.0], [], [], []))
        assert chk.causal and chk.max_root_modulus == 0.0

    def test_explosive_lag_not_causal(self):
        W = pa.from_adjacency([(0, 1)], 2)  # largest eigenvalue 1
        spec = pa.ModelSpec(W=W, p=1, q=0, h=0, density=pa.normal())
        chk = pa.check_causal(spec, pa.ParameterVector(0.0, [1.2], [], [], []))
        assert not chk.causal
        assert_allclose(chk.max_root_modulus, 1.2, atol=1e-12)

    def test_p0_trivial(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        chk = pa.check_causal(spec, pa.ParameterVector(0.5, [], [], [], []))
        assert chk == (True, 0.0)

    def test_vanishing_leading_coefficient(self):
        # admissible, yet 1 - phi0 tau = 1.1e-15 at tau = 1 is below LEAD_TOL
        W = pa.from_adjacency([(0, 1)], 2)  # spectrum {1, -1}
        spec = pa.ModelSpec(W=W, p=1, q=0, h=0, density=pa.normal())
        with pytest.raises(ValueError, match="leading coefficient"):
            pa.check_causal(spec, pa.ParameterVector(1.0 - 1e-15, [0.3], [], [], []))

    def test_p2_roots_against_numpy(self, w22):
        spec = pa.ModelSpec(W=w22, p=2, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.4, [0.3, -0.2], [], [], [])
        chk = pa.check_causal(spec, theta)
        worst = 0.0
        for tau in w22.eigenvalues:
            roots = np.roots([1.0 - 0.4 * tau, -0.3 * tau, 0.2 * tau])
            worst = max(worst, np.abs(roots).max())
        assert_allclose(chk.max_root_modulus, worst, atol=1e-12)


    @staticmethod
    def roots_oracle(W, theta):
        """Largest root modulus from one np.roots call per eigenvalue."""
        worst = 0.0
        for tau in W.eigenvalues:
            roots = np.roots(np.concatenate(([1.0 - theta.phi0 * tau], -theta.phi * tau)))
            if roots.size:
                worst = max(worst, float(np.max(np.abs(roots))))
        return worst

    @pytest.mark.parametrize("phi0, phi", [
        (0.6, [-0.274]),            # benchmark design, p = 1
        (-0.3, [0.8]),              # p = 1, negative spatial lag
        (0.0, [1.2]),               # explosive lag
        (0.2, [0.1, -0.6]),         # p = 2, complex-conjugate roots
        (0.4, [0.3, -0.2]),
        (0.3, [0.0, 0.0]),          # zero phis
        (0.5, [0.2, 0.0]),          # trailing zero phi
        (-0.2, [0.3, -0.25, 0.15]),  # p = 3
        (0.1, [0.0, 0.0, 0.0]),
        (0.0, [0.5, 0.9, 0.6]),     # explosive p = 3
    ])
    def test_batched_roots_match_per_eigenvalue_oracle(self, w44, phi0, phi):
        spec = pa.ModelSpec(W=w44, p=len(phi), q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(phi0, phi, [], [], [])
        chk = pa.check_causal(spec, theta)
        worst = self.roots_oracle(w44, theta)
        assert_allclose(chk.max_root_modulus, worst, rtol=0, atol=1e-12)
        assert chk.causal == (worst <= 1.0 - 1e-6)
        if not any(phi):
            assert chk.max_root_modulus == 0.0

    def test_p_le_2_extremes_match_oracle_on_random_draws(self, w44):
        # for p <= 2 check_causal reads no eigenvalue but the Perron root 1
        # and, when the bound tau_min >= -1 leaves the check open, tau_min
        rng = np.random.default_rng(2024)
        designs = [w44, pa.build_queen_lattice(2, 1), pa.build_queen_lattice(3, 4)]
        seen = {"complex": 0, "explosive": 0, "phi0<0": 0, "phi0>0": 0}
        for W in designs:
            for p in (1, 2):
                spec = pa.ModelSpec(W=W, p=p, q=0, h=0, density=pa.normal())
                for _ in range(40):
                    theta = pa.ParameterVector(rng.uniform(-0.95, 0.95),
                                               rng.uniform(-1.6, 1.6, p), [], [], [])
                    chk = pa.check_causal(spec, theta)
                    worst = self.roots_oracle(W, theta)
                    assert_allclose(chk.max_root_modulus, worst, rtol=1e-12, atol=1e-12)
                    if abs(worst - (1.0 - 1e-6)) > 1e-9:
                        assert chk.causal == (worst <= 1.0 - 1e-6)
                    lead = 1.0 - theta.phi0  # at the Perron root tau = 1
                    seen["complex"] += p == 2 and (theta.phi[0] / lead) ** 2 \
                        + 4 * theta.phi[1] / lead < 0
                    seen["explosive"] += worst > 1.0
                    seen["phi0<0" if theta.phi0 < 0 else "phi0>0"] += 1
        assert sum(seen[k] for k in ("phi0<0", "phi0>0")) >= 200
        assert min(seen.values()) >= 10, seen

    def test_bound_is_bit_equal_to_the_two_ends(self, w44):
        # the factor at tau = -1 bounds the one at tau_min; where it settles
        # the check, the answer is the [1, tau_min] computation's,
        # bit for bit, on designs whose tau_min is -1 exactly (bipartite:
        # the 2-node lattice and the 8-cycle) and above it. Half the draws
        # have |phi0| < 0.03, where the rows at 1 and -1 nearly tie
        rng = np.random.default_rng(2026)
        cycle8 = pa.from_adjacency([(i, (i + 1) % 8) for i in range(8)], 8)
        designs = [w44, pa.build_queen_lattice(2, 1), cycle8, pa.build_queen_lattice(3, 4)]
        seen = dict.fromkeys(("settled", "open", "complex", "explosive", "phi0<0", "phi0>0"), 0)
        for W in designs:
            ends = np.array([1.0, W.tau_min])  # the Perron root and tau_min
            for p in (1, 2):
                spec = pa.ModelSpec(W=W, p=p, q=0, h=0, density=pa.normal())
                for _ in range(60):
                    phi0 = rng.uniform(-0.95, 0.95) * rng.choice([1.0, 1.0, 0.03, 1e-4])
                    theta = pa.ParameterVector(phi0, rng.uniform(-1.6, 1.6, p), [], [], [])
                    chk = pa.check_causal(spec, theta)
                    worst = float(_largest_root_moduli(ends, theta.phi0, theta.phi).max())
                    assert chk.max_root_modulus == worst
                    assert chk.causal == (worst <= 1.0 - CAUSAL_MARGIN)
                    top, bound = _largest_root_moduli(np.array([1.0, -1.0]), theta.phi0,
                                                      theta.phi)
                    seen["settled" if bound <= top else "open"] += 1
                    g = ends / (1.0 - theta.phi0 * ends)
                    seen["complex"] += p == 2 and bool(np.any(
                        (theta.phi[0] * g) ** 2 + 4 * theta.phi[1] * g < 0))
                    seen["explosive"] += worst > 1.0
                    seen["phi0<0" if theta.phi0 < 0 else "phi0>0"] += 1
        assert min(seen.values()) >= 40, seen

    def test_bound_settles_a_tie_without_tau_min(self):
        # phi0 = 0, p = 1: the factors at 1 and -1 tie at |phi_1|,
        # the exact answer on the bipartite 2-node lattice (tau_min = -1)
        W = pa.build_queen_lattice(2, 1)
        spec = pa.ModelSpec(W=W, p=1, q=0, h=0, density=pa.normal())
        chk = pa.check_causal(spec, pa.ParameterVector(0.0, [1.2], [], [], []))
        assert chk == (False, 1.2)
        assert "tau_min" not in W.__dict__

    @pytest.mark.parametrize("p", [1, 2])
    def test_near_pole_bound_row_defers_to_the_ends(self, w44, p):
        # phi0 = -1 + 1e-15 puts the factor at tau = -1 below LEAD_TOL, but
        # -1 is no eigenvalue here (tau_min = -0.46): the check is the
        # [1, tau_min] one and raises nothing
        spec = pa.ModelSpec(W=w44, p=p, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(-1.0 + 1e-15, [0.3] * p, [], [], [])
        assert 1.0 + theta.phi0 < LEAD_TOL and w44.tau_min > -0.5
        chk = pa.check_causal(spec, theta)
        worst = float(_largest_root_moduli(np.array([1.0, w44.tau_min]),
                                           theta.phi0, theta.phi).max())
        assert chk == (worst <= 1.0 - CAUSAL_MARGIN, worst)

    def test_p3_counterexample_checks_every_eigenvalue(self, w1010):
        # for phi = c (2.47, -2.93, 1.18) the largest root modulus falls as g
        # grows from 1.25 to 1.4: with g(1) = 1.4 the worst eigenvalue
        # is an interior one (tau = 0.957 on the 10x10 lattice)
        phi0 = 0.6
        phi = 1.4 * (1.0 - phi0) * np.array([2.47, -2.93, 1.18])
        spec = pa.ModelSpec(W=w1010, p=3, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(phi0, phi, [], [], [])
        chk = pa.check_causal(spec, theta)
        worst = self.roots_oracle(w1010, theta)
        assert_allclose(chk.max_root_modulus, worst, rtol=1e-12)
        ends = max(np.abs(np.roots(np.concatenate(([1.0 - phi0 * tau], -phi * tau)))).max()
                   for tau in (w1010.tau_min, 1.0))
        assert worst > ends + 0.05

    def test_pole_inside_interval_checks_every_eigenvalue(self):
        # phi0 = 2 puts the pole 1 - phi0 tau = 0 inside [tau_min, 1]:
        # the domain check rejects it first, for every p, before the dense
        # spectrum is built
        for p in (0, 1, 2, 3):
            W = pa.build_queen_lattice(4, 4)
            spec = pa.ModelSpec(W=W, p=p, q=0, h=0, density=pa.normal())
            with pytest.raises(ValueError, match="admissible interval"):
                pa.check_causal(spec, pa.ParameterVector(2.0, [0.3] * p, [], [], []))
            assert "eigenvalues" not in W.__dict__
        # next to the pole, but admissible: p <= 2 still reads only the extremes
        for p in (1, 2):
            W = pa.build_queen_lattice(4, 4)
            spec = pa.ModelSpec(W=W, p=p, q=0, h=0, density=pa.normal())
            theta = pa.ParameterVector(1.0 - 1e-13, [0.3] * p, [], [], [])
            assert not pa.check_causal(spec, theta).causal
            assert "eigenvalues" not in W.__dict__

    def test_complex_roots_present(self, w44):
        # the p = 2 case above really exercises complex-conjugate pairs
        tau = w44.eigenvalues[0]
        roots = np.roots([1.0 - 0.2 * tau, -0.1 * tau, 0.6 * tau])
        assert np.all(np.abs(roots.imag) > 0)


class TestPsiExpansion:
    def test_zero_lags_give_zero_matrices(self, w22):
        spec = pa.ModelSpec(W=w22, p=1, q=0, h=0, density=pa.normal())
        psis = pa.psi_expansion(spec, pa.ParameterVector(0.3, [0.0], [], [], []), 4)
        assert_allclose(psis[0], np.eye(4))
        for P in psis[1:]:
            assert_allclose(P, 0.0)

    def test_no_lags_give_the_identity_then_zeros(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.3, [], [], [], [])
        psis = pa.psi_expansion(spec, theta, 3)
        assert len(psis) == 4
        assert np.array_equal(psis[0], np.eye(4))
        for P in psis[1:]:
            assert np.array_equal(P, np.zeros((4, 4)))

    @pytest.mark.parametrize("p", [0, 1])
    def test_zero_horizon_gives_the_identity(self, w22, p):
        spec = pa.ModelSpec(W=w22, p=p, q=0, h=0, density=pa.normal())
        psis = pa.psi_expansion(spec, pa.ParameterVector(0.3, [-0.2] * p, [], [], []), 0)
        assert len(psis) == 1
        assert np.array_equal(psis[0], np.eye(4))

    def test_p1_powers(self, w22):
        spec = pa.ModelSpec(W=w22, p=1, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.4, [-0.3], [], [], [])
        psis = pa.psi_expansion(spec, theta, 3)
        A0 = np.eye(4) - 0.4 * w22.W.toarray()
        B = np.linalg.solve(A0, -0.3 * w22.W.toarray())
        assert_allclose(psis[1], B, atol=1e-12)
        assert_allclose(psis[2], B @ B, atol=1e-12)
        assert_allclose(psis[3], B @ B @ B, atol=1e-12)

    def test_geometric_decay_benchmark_design(self, w33):
        spec = model1_spec(w33)
        psis = pa.psi_expansion(spec, model1_theta(), 20)
        norms = [np.max(np.abs(P).sum(axis=1)) for P in psis]
        assert norms[20] < 1e-3
        assert norms[20] < norms[10] < norms[5]

    def test_noncausal_rejected(self):
        W = pa.from_adjacency([(0, 1)], 2)
        spec = pa.ModelSpec(W=W, p=1, q=0, h=0, density=pa.normal())
        with pytest.raises(ValueError, match="non-causal"):
            pa.psi_expansion(spec, pa.ParameterVector(0.0, [1.5], [], [], []), 5)

    def test_inadmissible_phi0_rejected_without_lags(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=0, h=0, density=pa.normal())
        with pytest.raises(ValueError, match="admissible interval"):
            pa.psi_expansion(spec, pa.ParameterVector(1.5, [], [], [], []), 3)

    def test_p2_recursion_matches_manual(self, w22):
        spec = pa.ModelSpec(W=w22, p=2, q=0, h=0, density=pa.normal())
        theta = pa.ParameterVector(0.3, [0.25, -0.15], [], [], [])
        psis = pa.psi_expansion(spec, theta, 2)
        Wd = w22.W.toarray()
        A0 = np.eye(4) - 0.3 * Wd
        B1 = np.linalg.solve(A0, 0.25 * Wd)
        B2 = np.linalg.solve(A0, -0.15 * Wd)
        assert_allclose(psis[2], B1 @ B1 + B2, atol=1e-12)


class TestCanonicalize:
    def test_idempotent_on_canonical(self):
        theta = pa.ParameterVector(0.2, [0.1], [1.0, 0.5], [2.0, 0.8],
                                   [[0.75, 0.7], [0.35, -1.0]])
        out = pa.canonicalize(theta, include_intercept=True)
        assert_allclose(out.to_array(), theta.to_array(), atol=1e-15)

    def test_sorts_by_lambda_descending(self):
        theta = pa.ParameterVector(0.0, [0.0], [0.0, 0.0], [0.8, 2.0],
                                   [[0.3, 0.1], [0.7, -0.2]])
        out = pa.canonicalize(theta, include_intercept=True)
        assert_allclose(out.lam, [2.0, 0.8])
        assert_allclose(out.gamma, [[0.7, -0.2], [0.3, 0.1]])

    def test_sign_flip_with_intercept_shift(self):
        theta = pa.ParameterVector(0.0, [], [0.2, 0.0], [1.5], [[-0.75, 0.35]])
        out = pa.canonicalize(theta, include_intercept=True)
        assert_allclose(out.lam, [-1.5])
        assert_allclose(out.gamma, [[0.75, -0.35]])
        assert_allclose(out.beta, [1.7, 0.0])

    def test_flip_preserves_residuals(self, w33):
        rng = np.random.default_rng(8)
        spec = pa.ModelSpec(W=w33, p=1, q=3, h=2, density=pa.normal(),
                            include_intercept=True)
        for _ in range(10):
            theta = random_causal_theta(spec, rng)
            theta.gamma[0] = -theta.gamma[0]  # force one flip
            data = random_panel(spec, 3, rng)
            data.X[:, :, 0] = 1.0
            out = pa.canonicalize(theta, include_intercept=True)
            assert not is_canonical(theta) and is_canonical(out)
            ws = pa.LikelihoodWorkspace(spec, data)
            E0, E1 = ws.residuals(theta), ws.residuals(out)
            assert np.max(np.abs(E0 - E1)) < 1e-12

    def test_error_without_intercept(self):
        theta = pa.ParameterVector(0.0, [], [], [1.5], [[-0.75, 0.35]])
        with pytest.raises(ValueError, match="intercept"):
            pa.canonicalize(theta, include_intercept=False)

    def test_degenerate_neuron_warns(self):
        theta = pa.ParameterVector(0.0, [], [0.1], [0.0], [[0.5]])
        with pytest.warns(RuntimeWarning, match="degenerate"):
            pa.canonicalize(theta, include_intercept=True)

    def test_h0_passthrough(self):
        theta = pa.ParameterVector(0.3, [0.1], [1.0], [], [])
        out = pa.canonicalize(theta, include_intercept=False)
        assert_allclose(out.to_array(), theta.to_array())


class TestParameterVector:
    def test_array_round_trip(self, w33):
        spec = pa.ModelSpec(W=w33, p=2, q=3, h=2, density=pa.normal())
        rng = np.random.default_rng(2)
        theta = random_causal_theta(spec, rng)
        back = pa.ParameterVector.from_array(theta.to_array(), spec)
        assert_allclose(back.to_array(), theta.to_array())
        assert back.gamma.shape == (2, 3)

    def test_layout_order(self, w33):
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=2, density=pa.normal())
        theta = pa.ParameterVector(0.1, [0.2], [0.3, 0.4], [0.5, 0.6],
                                   [[0.7, 0.8], [0.9, 1.0]])
        assert_allclose(theta.to_array(),
                        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        assert spec.dim == theta.dim == 10

    def test_json_round_trip(self, tmp_path):
        theta = pa.ParameterVector(0.6, [-0.274], [], [1.5], [[0.75, -0.35]])
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(theta.to_json_dict(), indent=2))
        back = pa.ParameterVector.from_json_dict(json.loads(path.read_text()))
        assert_allclose(back.to_array(), theta.to_array())
        assert back.gamma.shape == (1, 2)

    def test_wrong_length_rejected(self, w33):
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal())
        with pytest.raises(ValueError, match="length"):
            pa.ParameterVector.from_array(np.zeros(3), spec)

    def test_pickle_keeps_views_on_x(self):
        theta = pa.ParameterVector(0.4, [0.3], [0.1, -0.2], [1.5, 0.5], [[0.75, -0.35], [0.2, 0.1]])
        back = pickle.loads(pickle.dumps(theta))
        assert np.array_equal(back.x, theta.x) and back.layout == theta.layout
        back.gamma[1, 0] = 9.0
        back.lam = [2.0, 1.0]
        assert back.x[-2] == 9.0 and list(back.x[4:6]) == [2.0, 1.0]
        assert theta.x[-2] == 0.2  # the copy is independent

    def test_block_size_change_rejected(self):
        theta = pa.ParameterVector(0.4, [0.3], [], [1.5], [[0.75, -0.35]])
        with pytest.raises(ValueError, match="lambda has 1 entries"):
            theta.lam = [1.5, 0.5]
        with pytest.raises(ValueError, match="one row per neuron"):
            pa.ParameterVector(0.4, [0.3], [], [1.5, 0.5], [[0.75, -0.35, 1.0]])

    @pytest.mark.parametrize("blocks, message", [
        (([[0.1]], [], [], []), r"phi must be a 1-D array, got shape \(1, 1\)"),
        ((0.1, [], [], []), r"phi must be a 1-D array, got shape \(\)"),
        (([], [[0.2, 0.1]], [], []), r"beta must be a 1-D array, got shape \(1, 2\)"),
        (([], [], [[1.5, 0.5]], [[0.75, 0.7], [0.35, -1.0]]),
         r"lambda must be a 1-D array, got shape \(1, 2\)"),
        # model 2's gamma written as one row of h * q entries, and flat
        (([], [], [1.5, 0.5], [[0.75, 0.7, 0.35, -1.0]]),
         r"gamma must be a 2-D array with one row per neuron \(h=2\), got shape \(1, 4\)"),
        (([], [], [1.5, 0.5], [0.75, 0.7, 0.35, -1.0]), r"\(h=2\), got shape \(4,\)"),
        (([], [], [1.5], [[[0.75, -0.35]]]), r"\(h=1\), got shape \(1, 1, 2\)"),
        (([], [], [], [[0.75, -0.35]]), r"\(h=0\), got shape \(1, 2\)"),
    ])
    def test_block_shapes_enforced(self, blocks, message):
        # a block of the wrong shape is an error, never flattened into x
        with pytest.raises(ValueError, match=message):
            pa.ParameterVector(0.4, *blocks)
        # and the same for assignment into a theta of the blocks' sizes
        p, n_beta, h, size = (np.size(b) for b in blocks)
        theta = pa.ParameterVector(0.4, np.zeros(p), np.zeros(n_beta), np.zeros(h),
                                   np.zeros((h, size // h if h else 0)))
        with pytest.raises(ValueError, match=message):
            for name, block in zip(("phi", "beta", "lam", "gamma"), blocks):
                setattr(theta, name, block)

    @pytest.mark.parametrize("gamma", [[], [[]], np.zeros((0, 3))])
    def test_empty_gamma_without_neurons(self, gamma):
        theta = pa.ParameterVector(0.4, [0.3], [0.1], [], gamma)
        assert theta.h == 0 and theta.layout.q == 0 and theta.gamma.shape == (0, 0)
        assert theta.x.tolist() == [0.4, 0.3, 0.1]

    def test_param_names(self, w33):
        spec = pa.ModelSpec(W=w33, p=1, q=2, h=2, density=pa.normal())
        assert pa.param_names(spec) == [
            "phi0", "phi1", "beta1", "beta2", "lambda1", "lambda2",
            "gamma11", "gamma12", "gamma21", "gamma22",
        ]
        spec_nolin = pa.ModelSpec(W=w33, p=1, q=2, h=1, density=pa.normal(),
                                  linear_term=False)
        assert pa.param_names(spec_nolin) == [
            "phi0", "phi1", "lambda1", "gamma11", "gamma12",
        ]


class TestPanelData:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="slices"):
            pa.PanelData(Y=np.zeros((3, 4)), X=np.zeros((3, 4, 1)), p=1)
        with pytest.raises(ValueError, match="locations"):
            pa.PanelData(Y=np.zeros((3, 4)), X=np.zeros((2, 5, 1)), p=1)

    def test_nonfinite_rejected(self):
        Y = np.zeros((2, 4))
        Y[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pa.PanelData(Y=Y, X=np.zeros((2, 4, 0)), p=0)

    def test_intercept_declared_but_missing(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=2, h=1, density=pa.normal(),
                            include_intercept=True)
        data = random_panel(spec, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="intercept"):
            data.check_against(spec)

    @pytest.mark.parametrize("noise", [1e-6, 1e-8, 2.0 ** -52])
    def test_intercept_must_be_exactly_one(self, w22, noise):
        # a column only close to 1 is not an intercept: the sign flips of
        # canonicalize would change the log-likelihood
        spec = pa.ModelSpec(W=w22, p=1, q=2, h=1, density=pa.normal(),
                            include_intercept=True)
        data = random_panel(spec, 3, np.random.default_rng(0))
        data.X[:, :, 0] = 1.0
        data.check_against(spec)
        data.X[1, 2, 0] += noise
        data.X[2, 0, 0] -= noise
        with pytest.raises(ValueError, match=r"^spec declares an intercept but X\[:, :, 0\] is "
                                             rf"not exactly 1: {1.0 + noise!r} at t=2, s=2$"):
            data.check_against(spec)

    def test_rank_deficiency_detected(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=2, h=1, density=pa.normal())
        X = np.zeros((1, 4, 2))
        X[:, :, 0] = 1.0
        X[:, :, 1] = 2.0  # collinear with column 0
        data = pa.PanelData(Y=np.zeros((1, 4)), X=X, p=0)
        with pytest.raises(ValueError, match="rank"):
            data.check_against(spec)

    def test_first_rank_deficient_slice_named(self, w22):
        spec = pa.ModelSpec(W=w22, p=0, q=2, h=1, density=pa.normal())
        X = np.random.default_rng(4).standard_normal((5, 4, 2))
        for t in (2, 4):  # slices t = 3 and t = 5 lose a column
            X[t, :, 1] = 3.0 * X[t, :, 0]
        data = pa.PanelData(Y=np.zeros((5, 4)), X=X, p=0)
        with pytest.raises(ValueError, match="rank deficient at t=3$"):
            data.check_against(spec)

    def test_model_spec_dim_formula(self, w22):
        spec = pa.ModelSpec(W=w22, p=2, q=3, h=2, density=pa.normal())
        assert spec.dim == (2 + 1) + 3 + 2 + 2 * 3
        spec2 = pa.ModelSpec(W=w22, p=1, q=2, h=1, density=pa.normal(),
                             linear_term=False)
        assert spec2.dim == 2 + 0 + 1 + 2


def _spec(W, **kwargs):
    """A p = 1, q = 2, h = 1 spec with a linear term, changed by ``kwargs``."""
    return pa.ModelSpec(**{"W": W, "p": 1, "q": 2, "h": 1, "density": pa.normal(), **kwargs})


def _theta(**kwargs):
    """A theta that fits ``_spec``, changed by ``kwargs``."""
    return pa.ParameterVector(**{"phi0": 0.3, "phi": [0.1], "beta": [0.2, -0.1], "lam": [1.0],
                                 "gamma": [[0.5, -0.2]], **kwargs})


@pytest.mark.parametrize("call, message", [
    (lambda W: _spec(W, p=-1), "orders p, q, h must be nonnegative"),
    (lambda W: _theta(beta=[0.2]).validate(_spec(W)), "beta has 1 entries, expected 2"),
    (lambda W: _theta(lam=[1.0, 0.5], gamma=[[0.5, -0.2]] * 2).validate(_spec(W)),
     "lambda has 2 entries, spec.h=1"),
    (lambda W: _theta(gamma=[[0.5, -0.2, 0.1]]).validate(_spec(W)),
     "gamma has shape (1, 3), expected (1, 2)"),
    (lambda W: pa.ParameterVector.from_json_dict({"phi": [0.1]}), "missing required key 'phi0'"),
    (lambda W: pa.PanelData(Y=np.zeros(9), X=np.zeros((1, 9, 2)), p=0),
     "Y must be a (p + T, n) array"),
    (lambda W: pa.PanelData(Y=np.zeros((2, 9)), X=np.zeros((1, 9)), p=1),
     "X must be a (T, n, q) array"),
    (lambda W: pa.PanelData(Y=np.zeros((2, 9)), X=np.ones((1, 9, 1)), p=1).check_against(
        _spec(W)), "panel has q=1, spec.q=2"),
    (lambda W: pa.PanelData(Y=np.zeros((1, 9)), X=np.ones((1, 9, 2)), p=0).check_against(
        _spec(W)), "panel has p=0 presample slices, spec.p=1"),
    (lambda W: pa.canonicalize(_theta(beta=[], gamma=[[-0.5, 0.2]]), include_intercept=True),
     "intercept shift needs a beta block (linear term)"),
], ids=["negative-order", "beta-count", "lambda-count", "gamma-shape",
        "json-without-phi0", "Y-1d", "X-2d", "panel-q", "panel-p", "flip-without-beta"])
def test_input_checks_name_the_fault(w33, call, message):
    with pytest.raises(ValueError) as err:
        call(w33)
    assert str(err.value) == message
