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
and (gamma_i, gamma_i) blocks (F' = F(1-F), F'' = F'(1-2F)). ln|A0| and
both traces come from W's cached log-det backend (its spectrum, or for
large n a Chebyshev series in phi0; see ``weights``), so evaluations cost
O(nT) after that backend's one-time build.

The workspace holds the residual derivatives as one (dim, nT) matrix D in
the canonical parameter order (``model.Layout``), with column s + n(t-1)
for observation (s, t). The rows for phi0..phi_p (-W Y_{t-i}) and beta
(-X) do not depend on theta and are written once, when the workspace is
built. Given gamma the residuals are affine in the other parameters, and
those fixed rows are their coefficients:

    eps = y + D_lin' theta_lin - F' lambda,

with y the flattened sample slices, theta_lin = (phi0, phi, beta), D_lin
the matching rows of D and F the (h, nT) activations F(x'g_i). One kernel
runs per new theta, and it is the one place the library forms residuals:
it evaluates the activations once, caches them with the residuals and
the score ratio, and writes the network rows of D for lambda (-F) and
gamma_i (-lambda_i F'_i x). So a fit pays one sigmoid evaluation per
objective call, and D always describes the cached theta. The gradient is
g - T tr(W A0^{-1}) e_phi0 with g = D V, and the Gauss-Newton part of the
Hessian is the weighted Gram D diag(U) D'.

The per-observation log-likelihood terms

    l_{s,t}(theta) = (1/n) ln|A0| + ln f(eps_{s,t}(theta))

have scores V_{s,t} d_{s,t} - c e_phi0 with c = tr(W A0^{-1}) / n, and the
average B of their outer products estimates the information matrix.
Expanding the square gives B from the same weighted Gram as the Hessian,
with V^2 in place of U, and a rank-2 correction on the phi0 row and
column:

    nT B = D diag(V^2) D' - c (e_phi0 g' + g e_phi0') + nT c^2 e_phi0 e_phi0'.

So no (dim, nT) array of scores is ever formed: ``_weighted_gram`` sums
M diag(w) M' over blocks of ``_GRAM_BLOCK`` columns, and every such
product (the Hessian's D diag(U) D', its gamma blocks X diag(w) X', and
B's D diag(V^2) D') goes through it. Together with the averaged negated
Hessian A, B feeds the sandwich covariance in the estimator module.

``LikelihoodWorkspace`` is the one way to evaluate these quantities on a
panel. A fit builds one, and its starts, its covariance and the residuals
it reports all read that workspace. ``log_likelihood(spec, theta, data)``
is a single evaluation on a workspace of its own.
"""

from __future__ import annotations

import logging

import numpy as np

from .model import ModelSpec, PanelData, ParameterVector, param_names, sigmoid
from .weights import NumericalError

__all__ = [
    "NumericalError",
    "LikelihoodWorkspace",
    "log_likelihood",
]

logger = logging.getLogger(__name__)


# ``log_likelihood``'s allowance, per observation and relative to the
# density sum, for the computed log-det's rounding above 0 and for the
# rounding of the sums that the floor test compares. The largest computed
# ln|A0| over 5000 phi0 in [-0.995, 0.995], dense near 0, was 0 from the
# spectrum (queen 20x20, 21x19 and 37x37, Delaunay n = 400) and 7.1e-15
# (7e-18 per location) from the series (queen 20x20, Delaunay n = 1000).
_LOG_DET_SLACK = 1e-12
# Columns per block of ``_weighted_gram``: one block of a (dim, nT) matrix
# at dim = 16 is 8 MiB.
_GRAM_BLOCK = 65536


def _weighted_gram(M, w):
    """M diag(w) M', summed over blocks of ``_GRAM_BLOCK`` columns.

    The first block's product is the result's buffer, not an addition to
    zeros, so a matrix of at most one block gives (M * w) @ M.T bit for bit.
    """
    k = _GRAM_BLOCK
    G = (M[:, :k] * w[:k]) @ M[:, :k].T
    for j in range(k, M.shape[1], k):
        Mj = M[:, j:j + k]
        G += (Mj * w[j:j + k]) @ Mj.T
    return G


class LikelihoodWorkspace:
    """Caches everything reusable across evaluations at different theta.

    The flattened sample slices ``y``, the covariates as a contiguous
    (q, nT) array ``X`` and the theta-free rows of the derivative matrix
    ``D`` depend only on the data and are computed once. Per-theta
    intermediates (activations, residuals, score ratio) are cached under
    the bytes of the flat parameter array ``theta.x``, so that a likelihood
    call followed by a gradient or Hessian call at the same theta does no
    redundant work.

    ``D`` is the (dim, nT) matrix of d eps / d theta, rows as in ``layout``.
    Rows 0..p (-W Y_{t-i}) and the beta rows (-X) are fixed, and the
    residuals are read off them. The lambda and gamma rows are rewritten
    with the cache, so they always hold the cached theta. The public
    methods return fresh arrays, never views of ``D``.

    The data are checked against the spec once, here; theta is checked
    against it on every call.

    ``density`` is the error density the evaluations read: ``spec.density``
    unless a fit's smoothing stage sets another (see the estimator module).
    Setting it empties the per-theta cache, so a score cached under one
    density is never served under another. D does not depend on it.
    """

    def __init__(self, spec: ModelSpec, data: PanelData):
        data.check_against(spec)
        self.spec = spec
        self.data = data
        wy = spec.W.W.dot(data.Y.T).T  # (p + T, n)
        p, T, nT = spec.p, data.T, data.n * data.T
        self.y = data.Y_sample.ravel()
        self.X = np.ascontiguousarray(data.X.reshape(nT, spec.q).T)  # (q, nT)
        self.layout = lay = spec.layout
        self.D = np.empty((lay.dim, nT))
        for i in range(p + 1):
            self.D[i] = -wy[p - i: p - i + T].ravel()
        self.D[lay.beta] = -self.X[: spec.n_beta]
        self.n_domain_rejections = 0
        self._density = spec.density
        self._key = None
        self._c = None

    @property
    def density(self):
        return self._density

    @density.setter
    def density(self, value):
        if value is not self._density:
            self._density, self._key, self._c = value, None, None

    def _eval(self, theta: ParameterVector):
        """Checked theta: activations, residuals, score ratio and the network
        rows of ``D`` (cached).

        The one per-theta kernel: F = sigmoid(gamma X) is evaluated once, in
        the (h, nT) layout of the network rows of D, the residuals are
        y + D_lin' theta_lin - F' lambda, and the rows -F and
        -lambda_i F'_i x are written into D with F' = F(1-F).
        """
        theta.validate(self.spec)
        x = theta.x
        key = x.tobytes()
        if key == self._key:
            return self._c
        lay = self.layout
        E = self.y + x[: lay.lam.start] @ self.D[: lay.lam.start]
        c = {"E": E}
        if lay.h:
            c["F"] = F = sigmoid(theta.gamma @ self.X)
            c["Fp"] = Fp = F * (1.0 - F)
            E -= theta.lam @ F
            self.D[lay.lam] = -F
            gam = self.D[lay.gamma].reshape(lay.h, lay.q, -1)
            np.multiply((-theta.lam[:, None] * Fp)[:, None, :], self.X, out=gam)
        c["V"] = self._density.score(E)
        self._key, self._c = key, c
        return c

    # ------------------------------------------------------------------

    def residuals(self, theta: ParameterVector):
        """All residuals as a (T, n) matrix.

        eps_{s,t} = y_{s,t} - sum_{i=0..p} phi_i (W Y_{t-i})_s - x_{s,t}' beta
                    - sum_i lambda_i F(x_{s,t}' gamma_i)
        """
        E = self._eval(theta)["E"]
        return E.reshape(self.data.T, self.data.n).copy()

    def log_likelihood(self, theta: ParameterVector, floor=-np.inf):
        """T ln|A0| + sum ln f(eps); -inf sentinel outside the phi0 domain.

        Also -inf, without the log-det, when the bound sum ln f(eps) on L
        shows L < ``floor``: ln|A0| <= 0, since it is concave in phi0 and 0
        with zero slope (-tr W) at phi0 = 0. The bound is raised by
        ``_LOG_DET_SLACK`` (T n + |sum ln f|) for the log-det's rounding
        above 0 and the rounding of the sums, so a finite L is never below
        a floor that the bound passes.
        """
        c = self._eval(theta)
        W = self.spec.W
        if not W.admits(theta.phi0):
            self.n_domain_rejections += 1
            logger.debug("phi0=%g outside the admissible interval; returning -inf", theta.phi0)
            return -np.inf
        density_sum = np.sum(self._density.log_pdf(c["E"]))
        if density_sum + _LOG_DET_SLACK * (c["E"].size + abs(density_sum)) < floor:
            return -np.inf
        return float(self.data.T * W.log_det_a0(theta.phi0) + density_sum)

    def gradient(self, theta: ParameterVector):
        """Analytic dL/dtheta = D V - T tr(W A0^{-1}) e_phi0."""
        tr = self.spec.W.trace_w_a0inv(theta.phi0, 1)
        V = self._eval(theta)["V"]
        g = self.D @ V
        g[0] -= self.data.T * tr
        return g

    def hessian(self, theta: ParameterVector):
        """Analytic d2L/dtheta dtheta', symmetric.

        Unavailable for the Laplace family, whose log-density has no second
        derivative at 0; use the outer-product-only covariance instead.
        Raises ``NumericalError`` when an entry is not finite (an
        overflowing panel, whose overflow warnings it silences), naming the
        first such parameter pair, or when the matrix is asymmetric beyond
        rounding. Finiteness is tested first, since a NaN passes the
        asymmetry test. A fit's trust region fails the start that meets
        either.
        """
        spec = self.spec
        if not self._density.differentiable:
            raise ValueError(
                "analytic Hessian is unavailable for the Laplace family "
                "(curvature undefined at 0); use the score outer product"
            )
        tr2 = spec.W.trace_w_a0inv(theta.phi0, 2)
        c, D = self._eval(theta), self.D
        U = self._density.curvature(c["E"])
        # an overflowing panel overflows these products; the finiteness test
        # below names the entry, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            H = _weighted_gram(D, U)
            H[0, 0] -= self.data.T * tr2
            if spec.h:
                V, X, F, Fp = c["V"], self.X, c["F"], c["Fp"]
                l0, g0, q = self.layout.lam.start, self.layout.gamma.start, spec.q
                # d2 eps / d lambda_i d gamma_i = -F'_i x
                cross = -((Fp * V) @ X.T)  # (h, q)
                # d2 eps / d gamma_i d gamma_i' = -lambda_i F''_i x x'
                wpp = Fp * (1.0 - 2.0 * F) * V
                for i in range(spec.h):
                    gi = slice(g0 + i * q, g0 + (i + 1) * q)
                    H[l0 + i, gi] += cross[i]
                    H[gi, l0 + i] += cross[i]
                    H[gi, gi] -= theta.lam[i] * _weighted_gram(X, wpp[i])
        if not np.isfinite(H).all():  # checked first: NaN passes the asymmetry test
            i, j = np.argwhere(~np.isfinite(H))[0]
            names = param_names(spec)
            raise NumericalError(f"Hessian entry ({names[i]}, {names[j]}) is not finite")
        asym = np.max(np.abs(H - H.T)) if H.size else 0.0
        if asym > 1e-9 * max(1.0, np.max(np.abs(H))):
            raise NumericalError(f"Hessian asymmetry {asym:.3e} exceeds tolerance")
        return 0.5 * (H + H.T)

    def score_outer_product(self, theta: ParameterVector):
        """B = (1/nT) sum_{s,t} (dl_{s,t}/dtheta)(dl_{s,t}/dtheta)'.

        The per-observation score is V_{s,t} d_{s,t} - c e_phi0 with
        c = tr(W A0^{-1}) / n, so with g = D V (the data part of the
        gradient)

            nT B = D diag(V^2) D' - c (e_phi0 g' + g e_phi0')
                   + nT c^2 e_phi0 e_phi0'.
        """
        c = self.spec.W.trace_w_a0inv(theta.phi0, 1) / self.data.n
        V = self._eval(theta)["V"]
        nT = V.size
        B = _weighted_gram(self.D, V * V)
        g = self.D @ V
        B[0] -= c * g
        B[:, 0] -= c * g
        B[0, 0] += nT * c * c
        B /= nT
        return 0.5 * (B + B.T)

    def loglik_and_gradient(self, theta: ParameterVector, floor=-np.inf):
        """(L, dL/dtheta), or (-inf, None) where ``log_likelihood`` with
        ``floor`` is -inf."""
        ll = self.log_likelihood(theta, floor)
        if not np.isfinite(ll):
            return ll, None
        return ll, self.gradient(theta)


def log_likelihood(spec, theta, data):
    """L(theta) on a workspace of its own; fits reuse one workspace instead."""
    return LikelihoodWorkspace(spec, data).log_likelihood(theta)
