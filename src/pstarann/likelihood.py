"""
Exact conditional log-likelihood of the PSTAR-ANN(p) model with analytic
first and second derivatives.

Conditioning on the p presample slices, the log-likelihood is

    L(theta) = T ln|A0| + sum_{t=1..T} sum_{s=1..n} ln f(eps_{s,t}(theta)).

Let V_{s,t} = f'(eps)/f(eps) and U_{s,t} = d^2/deps^2 ln f(eps) denote the
entrywise score ratio and log-density curvature of the residuals. Writing
d_{s,t} = d eps_{s,t} / d theta (a vector per observation), the chain rule
gives

    dL/dtheta     = sum_{s,t} V_{s,t} d_{s,t}  -  T tr(W A0^{-1}) e_phi0
    d2L/dtheta^2  = sum_{s,t} [ U_{s,t} d_{s,t} d_{s,t}'
                                + V_{s,t} d^2 eps_{s,t}/dtheta^2 ]
                    -  T tr((W A0^{-1})^2) e_phi0 e_phi0'

with the residual derivatives

    d eps / d phi0    = -(W Y_t)_s          d eps / d phi_i = -(W Y_{t-i})_s
    d eps / d beta    = -x_{s,t}            d eps / d lambda_i = -F(x'g_i)
    d eps / d gamma_i = -lambda_i F'(x'g_i) x_{s,t},

and the only nonzero second derivatives of eps are the (lambda_i, gamma_i)
and (gamma_i, gamma_i) blocks (F' = F(1-F), F'' = F'(1-2F)). Both traces
come from the cached eigenvalues of W, so evaluations cost O(nT) after the
one-time spectral decomposition.

The activations F(x'g_i) are computed once per theta: the residuals, F'
and every derivative at that theta are built from the same cached array,
so a fit pays one sigmoid evaluation per objective call.

The averaged outer product of per-observation scores

    l_{s,t}(theta) = (1/n) ln|A0| + ln f(eps_{s,t}(theta))

estimates the information matrix B; together with the averaged negated
Hessian A it feeds the sandwich covariance in the estimator module.
"""

from __future__ import annotations

import logging

import numpy as np

from . import model
from .model import ModelSpec, PanelData, ParameterVector, residual_matrix

__all__ = [
    "NumericalError",
    "LikelihoodWorkspace",
    "log_likelihood",
    "gradient",
    "hessian",
    "score_outer_product",
]

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """Raised when a numerical self-check fails (e.g. an asymmetric Hessian)."""


class LikelihoodWorkspace:
    """Caches everything reusable across evaluations at different theta.

    The W Y_t stack depends only on the data and is computed once. Per-theta
    intermediates (residuals, score ratio, sigmoid activations) are cached
    under a version stamp of the parameter array so that a likelihood call
    followed by a gradient or Hessian call at the same theta does no
    redundant work.

    The data are checked against the spec once, here; ``validate=False``
    skips only the per-slice rank check of X, for callers that made it.
    """

    def __init__(self, spec: ModelSpec, data: PanelData, validate=True):
        data.check_against(spec, rank_check=validate)
        self.spec = spec
        self.data = data
        self.wy = spec.W.W.dot(data.Y.T).T  # (p + T, n)
        p, T = spec.p, data.T
        # lag stacks: L[0] = W Y_t, L[i] = W Y_{t-i}, each (T, n)
        self.wy_lags = [self.wy[p - i: p - i + T] for i in range(p + 1)]
        self.n_domain_rejections = 0
        self._key = None
        self._c = None

    # ------------------------------------------------------------------

    def _phi0_ok(self, phi0):
        return abs(phi0) * self.spec.W.tau_max < 1.0

    def _eval(self, theta: ParameterVector):
        """Activations, residuals and score ratio at theta (cached).

        The one per-theta kernel: F = sigmoid(X gamma') is evaluated once
        and both F' = F(1-F) and the residuals are built from it. The data
        were checked at construction and theta is checked by the public
        methods, so the residuals skip their own validation.
        """
        key = theta.to_array().tobytes()
        if key == self._key:
            return self._c
        spec, data = self.spec, self.data
        if spec.h:
            # looked up on the module at call time, so a wrapper installed
            # on model.sigmoid sees every activation
            F = model.sigmoid(data.X @ theta.gamma.T)
            Fp = F * (1.0 - F)
        else:
            F = Fp = np.zeros((data.T, data.n, 0))
        E = residual_matrix(spec, theta, data, wy=self.wy, F=F, validate=False)
        c = {"E": E, "V": spec.density.score(E), "F": F, "Fp": Fp}
        self._key, self._c = key, c
        return c

    def _checked_eval(self, theta: ParameterVector):
        """``_eval`` after the shape and phi0-domain checks of the derivatives."""
        theta.validate(self.spec)
        if not self._phi0_ok(theta.phi0):
            raise ValueError(f"phi0={theta.phi0} outside the admissible interval")
        return self._eval(theta)

    def _design_derivs(self, theta, c):
        """d eps / d theta stacked as a (T, n, dim) tensor."""
        spec, data = self.spec, self.data
        T, n = data.T, data.n
        D = np.empty((T, n, spec.dim))
        j = 0
        for i in range(spec.p + 1):
            D[:, :, j] = -self.wy_lags[i]
            j += 1
        if spec.n_beta:
            D[:, :, j: j + spec.q] = -data.X
            j += spec.q
        if spec.h:
            D[:, :, j: j + spec.h] = -c["F"]
            j += spec.h
            for i in range(spec.h):
                D[:, :, j: j + spec.q] = -theta.lam[i] * c["Fp"][:, :, i, None] * data.X
                j += spec.q
        return D

    # ------------------------------------------------------------------

    def log_likelihood(self, theta: ParameterVector):
        """T ln|A0| + sum ln f(eps); -inf sentinel outside the phi0 domain."""
        theta.validate(self.spec)
        if not self._phi0_ok(theta.phi0):
            self.n_domain_rejections += 1
            logger.debug("phi0=%g outside the admissible interval; returning -inf", theta.phi0)
            return -np.inf
        c = self._eval(theta)
        logdet = self.spec.W.log_det_a0(theta.phi0)
        return float(self.data.T * logdet + np.sum(self.spec.density.log_pdf(c["E"])))

    def gradient(self, theta: ParameterVector):
        """Analytic dL/dtheta in canonical layout."""
        spec, data = self.spec, self.data
        c = self._checked_eval(theta)
        V = c["V"]
        g = np.empty(spec.dim)
        g[0] = -np.sum(self.wy_lags[0] * V) - data.T * spec.W.trace_w_a0inv(theta.phi0, 1)
        for i in range(1, spec.p + 1):
            g[i] = -np.sum(self.wy_lags[i] * V)
        j = 1 + spec.p
        if spec.n_beta:
            g[j: j + spec.q] = -np.einsum("tnq,tn->q", data.X, V)
            j += spec.q
        if spec.h:
            g[j: j + spec.h] = -np.einsum("tnh,tn->h", c["F"], V)
            j += spec.h
            for i in range(spec.h):
                g[j: j + spec.q] = -theta.lam[i] * np.einsum(
                    "tnq,tn->q", data.X, c["Fp"][:, :, i] * V
                )
                j += spec.q
        return g

    def hessian(self, theta: ParameterVector):
        """Analytic d2L/dtheta dtheta', symmetric.

        Unavailable for the Laplace family, whose log-density has no second
        derivative at 0; use the outer-product-only covariance instead.
        """
        spec, data = self.spec, self.data
        if not spec.density.differentiable:
            raise ValueError(
                "analytic Hessian is unavailable for the Laplace family "
                "(curvature undefined at 0); use the score outer product"
            )
        c = self._checked_eval(theta)
        U = spec.density.curvature(c["E"])
        D = self._design_derivs(theta, c)
        H = np.einsum("tns,tn,tnk->sk", D, U, D)
        H[0, 0] -= data.T * spec.W.trace_w_a0inv(theta.phi0, 2)
        if spec.h:
            V = c["V"]
            lam_off = 1 + spec.p + spec.n_beta
            gam_off = lam_off + spec.h
            X = data.X
            for i in range(spec.h):
                gi = slice(gam_off + i * spec.q, gam_off + (i + 1) * spec.q)
                # d2 eps / d lambda_i d gamma_i = -F'_i x
                cross = -np.einsum("tnq,tn->q", X, c["Fp"][:, :, i] * V)
                H[lam_off + i, gi] += cross
                H[gi, lam_off + i] += cross
                # d2 eps / d gamma_i d gamma_i' = -lambda_i F''_i x x'
                Fpp = c["Fp"][:, :, i] * (1.0 - 2.0 * c["F"][:, :, i])
                blk = -theta.lam[i] * np.einsum("tn,tnq,tnr->qr", Fpp * V, X, X)
                H[gi, gi] += blk
        asym = np.max(np.abs(H - H.T)) if H.size else 0.0
        if asym > 1e-9 * max(1.0, np.max(np.abs(H))):
            raise NumericalError(f"Hessian asymmetry {asym:.3e} exceeds tolerance")
        return 0.5 * (H + H.T)

    def score_outer_product(self, theta: ParameterVector):
        """(1/nT) sum_{s,t} (dl_{s,t}/dtheta)(dl_{s,t}/dtheta)' = G'G / nT."""
        G = self.per_observation_scores(theta).reshape(-1, self.spec.dim)
        B = G.T @ G / G.shape[0]
        return 0.5 * (B + B.T)

    def per_observation_scores(self, theta: ParameterVector):
        """(T, n, dim) array of dl_{s,t}/dtheta (sums to the gradient).

        The per-observation phi0 score is the eigenvalue term
        -(1/n) tr(W A0^{-1}) plus the data term -V_{s,t} (W Y_t)_s.
        """
        c = self._checked_eval(theta)
        G = c["V"][:, :, None] * self._design_derivs(theta, c)
        G[:, :, 0] -= self.spec.W.trace_w_a0inv(theta.phi0, 1) / self.data.n
        return G

    def loglik_and_gradient(self, theta: ParameterVector):
        ll = self.log_likelihood(theta)
        if not np.isfinite(ll):
            return ll, None
        return ll, self.gradient(theta)


# ----------------------------------------------------------------------
# One-shot module-level entry points
# ----------------------------------------------------------------------

def log_likelihood(spec, theta, data):
    return LikelihoodWorkspace(spec, data, validate=False).log_likelihood(theta)


def gradient(spec, theta, data):
    return LikelihoodWorkspace(spec, data, validate=False).gradient(theta)


def hessian(spec, theta, data):
    return LikelihoodWorkspace(spec, data, validate=False).hessian(theta)


def score_outer_product(spec, theta, data):
    return LikelihoodWorkspace(spec, data, validate=False).score_outer_product(theta)
