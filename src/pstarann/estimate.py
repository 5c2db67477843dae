"""
Maximum-likelihood fitting with box constraints, multi-start, post-hoc
canonicalization, and sandwich covariance.

Every error family runs one optimizer: a projected trust-region Newton
method on the analytic gradient and Hessian (Lin & Moré 1999, TRON), with
each subproblem solved exactly through an eigendecomposition of the Hessian
block of the free variables (Moré & Sorensen 1983). Its stopping rule is the
``converged`` that ``fit`` reports: the projected gradient's infinity norm
is at most tol * (1 + |f|) for the minimized objective f. The Laplace
log-density has a kink at 0 and no curvature elsewhere, so a Laplace fit
runs the trust region on a smoothing homotopy: the pseudo-Huber surrogate
-ln(2b) - sqrt(s^2 + mu^2) / b for each mu in ``_LAPLACE_SMOOTHING``, each
stage warm-started from the last (Madsen & Nielsen 1993). Its
``converged`` and ``gradient_norm`` are those of the last stage's
objective. Every start leaves a record in ``FitResult.trace``. Default
boxes keep the search compact and sigmoid arguments sane:

    phi0 in [-0.995, 0.995] / tau_max,  phi_i in [-3, 3],
    beta, lambda in [-50, 50],          gamma in [-25, 25].

The identification convention gamma_i1 > 0 is NOT imposed during the
search (it is a labeling convention, not a statistical constraint); it is
restored afterwards by ``canonicalize`` whenever the design has an
intercept column.

Asymptotic covariance is the sandwich

    Omega = A^{-1} B A^{-1},   A = -(1/nT) Hessian,   B = (1/nT) sum of
                                   per-observation score outer products,

with per-parameter standard errors sqrt(diag(Omega) / nT). For the Laplace
family A is unavailable (no curvature at 0), so fits report point
estimates only.

Each fit builds one ``LikelihoodWorkspace``. The starts
(``initial_points``), the optimizer, the covariance
(``sandwich_covariance``) and the residuals the fit reports all read it,
so the panel is checked and its fixed derivative rows are formed once.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.special import chdtrc

from .densities import SmoothedLaplace
from .likelihood import LikelihoodWorkspace, NumericalError
from .model import (
    CausalityCheck,
    ModelSpec,
    PanelData,
    ParameterVector,
    canonicalize,
    check_causal,
    param_names,
)

__all__ = [
    "FitResult",
    "FitError",
    "CovarianceUnavailableError",
    "default_bounds",
    "initial_points",
    "fit",
    "sandwich_covariance",
    "likelihood_ratio_test",
]

# Not used by the estimator: bench/tracer.py reads it to count finite
# optima, and it goes once the tracer stops reading it.
_PENALTY = 1e15
# The widths mu of a Laplace fit's pseudo-Huber stages, each a tenth of the
# last (``fit`` extrapolates along that ratio). The last stage's optimum
# loses at most about dim * mu / b of exact log-likelihood, from the dim
# residuals a kink optimum interpolates: 7e-6 at dim = 5 and mu = 1e-6.
# Ending at 1e-5 left a 10x10 fit 1.5e-5 (1.1e-8 relative) short.
_LAPLACE_SMOOTHING = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# A trust-region start ends once this many trials in a row have not lowered
# the objective by more than its rounding. That is more than the at most 31
# rejections that shrink the largest radius, 1e3, to the rounding of x, so a
# run of rejections still ends at the radius test. It ends a cycle on a
# valley that is flat to rounding, where steps along a near-null Hessian
# direction are accepted on the model alone and the iterate only wanders.
_FLAT_TRIALS = 40


class FitError(RuntimeError):
    """Raised when no start produces a usable optimum."""


class CovarianceUnavailableError(RuntimeError):
    """Raised when the sandwich covariance cannot be formed."""


@dataclass
class FitResult:
    """Fitted parameters plus inference and convergence metadata.

    ``residuals`` is the (T, n) residual matrix at ``theta``, which the
    residual diagnostics read. It is not part of the JSON record.
    """

    theta: ParameterVector
    loglik: float
    gradient_norm: float
    converged: bool
    n_starts: int
    n_iterations: int
    aic: float
    covariance: Optional[np.ndarray] = None
    std_errors: Optional[np.ndarray] = None
    ci95: Optional[np.ndarray] = None
    cov_note: Optional[str] = None
    canonical: bool = True
    causality: Optional[CausalityCheck] = None
    boundary_warning: bool = False
    trace: list = field(default_factory=list)
    n_domain_rejections: int = 0
    nT: int = 0
    names: list = field(default_factory=list)
    residuals: Optional[np.ndarray] = field(default=None, repr=False)

    def to_json_dict(self):
        d = {
            "parameters": self.theta.to_json_dict(),
            "loglik": self.loglik,
            "aic": self.aic,
            "gradient_norm": self.gradient_norm,
            "converged": self.converged,
            "canonical": self.canonical,
            "n_starts": self.n_starts,
            "n_iterations": self.n_iterations,
            "trace": self.trace,
            "boundary_warning": self.boundary_warning,
            "n_domain_rejections": self.n_domain_rejections,
            "nT": self.nT,
            "names": self.names,
        }
        if self.causality is not None:
            d["causal"] = self.causality.causal
            d["max_root_modulus"] = self.causality.max_root_modulus
        if self.std_errors is not None:
            d["std_errors"] = np.asarray(self.std_errors).tolist()
            d["ci95"] = np.asarray(self.ci95).tolist()
            d["covariance"] = np.asarray(self.covariance).tolist()
        if self.cov_note:
            d["covariance_note"] = self.cov_note
        return d

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    def format_table(self):
        """Human-readable table: Parameter | Estimate | Std. | 95% C.I.

        A trailing * marks coefficients whose interval covers zero; the
        Std./C.I. columns are omitted when the covariance is unavailable.
        """
        est = self.theta.x
        lines = []
        have_se = self.std_errors is not None
        if have_se:
            lines.append(f"{'Parameter':<10} {'Estimate':>10} {'Std.':>9}  {'95% C.I.':>22}")
            for k, name in enumerate(self.names):
                lo, hi = self.ci95[k]
                star = "*" if lo <= 0.0 <= hi else ""
                lines.append(
                    f"{name:<10} {est[k]:>10.4f} {self.std_errors[k]:>9.4f}  "
                    f"({lo:>9.4f}, {hi:>9.4f}){star}"
                )
        else:
            lines.append(f"{'Parameter':<10} {'Estimate':>10}")
            for k, name in enumerate(self.names):
                lines.append(f"{name:<10} {est[k]:>10.4f}")
        lines.append("")
        lines.append(f"log-likelihood  {self.loglik:.4f}")
        lines.append(f"AIC             {self.aic:.4f}")
        lines.append(f"converged       {self.converged}  (grad norm {self.gradient_norm:.3e})")
        if self.causality is not None:
            lines.append(
                f"causal          {self.causality.causal}  "
                f"(max root modulus {self.causality.max_root_modulus:.4f})"
            )
        if self.cov_note:
            lines.append(f"note: {self.cov_note}")
        if self.boundary_warning:
            lines.append("warning: phi0 pinned at its search bound")
        if not self.canonical:
            lines.append("warning: estimate reported in non-canonical form "
                         "(gamma_i1 < 0 without an intercept column)")
        return "\n".join(lines)


# ----------------------------------------------------------------------


def default_bounds(spec: ModelSpec):
    """Box constraints in canonical order, as an (dim, 2) array."""
    lay, phi0_cap = spec.layout, 0.995 / spec.W.tau_max
    bounds = np.empty((lay.dim, 2))
    bounds[0] = (-phi0_cap, phi0_cap)
    bounds[lay.phi] = (-3.0, 3.0)
    bounds[lay.beta] = bounds[lay.lam] = (-50.0, 50.0)
    bounds[lay.gamma] = (-25.0, 25.0)
    return bounds


def initial_points(ws: LikelihoodWorkspace, n_starts=5, seed=0):
    """Deterministic multi-start initial values for the workspace's panel.

    Start 1 profiles a linear model: phi0 on a grid with (phi_1..phi_p,
    beta) from least squares at each grid point under a Gaussian
    criterion, lambda as small positive descending values 0.5/i, and gamma
    standard normal with gamma_i1 forced positive. Remaining starts jitter
    the linear block multiplicatively (30% relative scale) and redraw the
    gamma rows; keeping every start in one gamma orbit would defeat the
    point of multi-start on a multimodal network surface.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    spec, T = ws.spec, ws.data.T
    lay = spec.layout

    # the theta-free rows of the derivative matrix are -W Y_t, -W Y_{t-i}
    # and -X: the profile regressors
    L0 = -ws.D[0]
    Z = -ws.D[1: lay.lam.start].T
    y = ws.y
    # y - phi0 L0 is linear in phi0, and so are its least-squares
    # coefficients and residuals: one solve for [y, L0] serves the grid
    coef_y, coef_l = np.linalg.lstsq(Z, np.column_stack((y, L0)), rcond=None)[0].T
    r_y, r_l = y - Z @ coef_y, L0 - Z @ coef_l

    def profile_loglik(phi0):
        r = r_y - phi0 * r_l
        return T * spec.W.log_det_a0(phi0) - 0.5 * float(r @ r)

    phi0_hat = max(np.linspace(-0.9, 0.9, 37) * (1.0 / spec.W.tau_max), key=profile_loglik)

    def draw_gamma():  # draws nothing when h = 0
        g = rng.standard_normal((spec.h, spec.q))
        g[:, :1] = np.abs(g[:, :1])
        return g

    base = ParameterVector.from_array(np.zeros(lay.dim), spec)
    base.x[: lay.lam.start] = np.append(phi0_hat, coef_y - phi0_hat * coef_l)  # (phi0, phi, beta)
    base.lam = 0.5 / np.arange(1, spec.h + 1)
    base.gamma = draw_gamma()
    starts = [base]
    for _ in range(n_starts - 1):
        cand = ParameterVector.from_array(base.x * (1.0 + 0.3 * rng.standard_normal(lay.dim)), spec)
        cand.gamma = draw_gamma()
        starts.append(cand)
    bounds = default_bounds(spec)
    for theta in starts:
        np.clip(theta.x, bounds[:, 0] + 1e-6, bounds[:, 1] - 1e-6, out=theta.x)
    return starts


def _first_order(x, g, f, lb, ub, tol):
    """The first-order test that ``fit`` reports as ``converged``.

    ``g`` is the gradient of the minimized objective ``f`` at x. A variable
    on a bound whose descent direction -g points out of the box is held;
    the projected gradient is g over the other variables. Returns its
    infinity norm and whether that is <= tol * (1 + |f|).
    """
    held = ((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0))
    pg = np.where(held, 0.0, g)
    norm = float(np.max(np.abs(pg))) if pg.size else 0.0
    return norm, norm <= tol * (1.0 + abs(f)), ~held


def _trust_region_step(g, lam, Q, delta):
    """argmin g's + s'Bs/2 over ||s|| <= delta, with B = Q diag(lam) Q'.

    Moré & Sorensen (1983) with the eigendecomposition in place of their
    Cholesky factors: the step is -(B + sigma I)^{-1} g with sigma >= 0,
    B + sigma I positive semidefinite, and ||s|| = delta unless sigma = 0.
    Newton's method on 1/||s(sigma)|| - 1/delta, started left of the root,
    increases monotonically to it. In the hard case g has no component
    along the lowest eigenvector, and that eigenvector fills the step out
    to the boundary. A component of Q'g below the rounding of Q'g is taken
    as zero, so that a g orthogonal to the lowest eigenvector up to
    rounding is the hard case: dividing that rounding by a shift
    lam_1 + sigma of the same order gives a step of arbitrary length.
    """
    a = Q.T @ g
    a[np.abs(a) <= 4.0 * a.size * np.finfo(float).eps * np.linalg.norm(g)] = 0.0
    if lam[0] > 0:
        s = -Q @ (a / lam)
        if np.linalg.norm(s) <= delta:
            return s
    # some component alone already reaches the boundary here, so the
    # start is left of the root (or at -lam_1 with a_1 = 0)
    sigma = max(0.0, -lam[0], float(np.max(np.abs(a) / delta - lam)))
    for _ in range(100):
        d = lam + sigma
        pos = d > 0
        w = np.zeros_like(a)
        w[pos] = a[pos] / d[pos]
        norm = np.linalg.norm(w)
        if not pos[0] and norm < delta:  # hard case
            return -Q @ w + np.sqrt(delta ** 2 - norm ** 2) * Q[:, 0]
        if abs(norm - delta) <= 1e-10 * delta:
            break
        sigma += norm ** 2 / np.sum(w[pos] ** 2 / d[pos]) * (norm - delta) / delta
    return -Q @ w


def _trust_region_newton(fun, x0, jac, hess, bounds, gtol=1e-8, maxiter=500, **_):
    """Projected trust-region Newton on a box, a method for ``optimize.minimize``.

    Lin & Moré (1999, TRON) with an exact subproblem: each iteration takes
    the free variables (those not held on a bound by ``_first_order``),
    solves the trust-region subproblem on their block of the Hessian
    (``_trust_region_step``), projects the step onto the box and applies
    the ratio test. A trial point where ``fun`` is not finite is rejected
    and shrinks the radius. Both reductions in the ratio carry
    10 eps max(1, |f|), so that once the predicted gain falls below the
    objective's rounding a step is judged by its model alone (Conn, Gould
    & Toint 2000, sec. 17.4.2). Stops when ``_first_order`` holds with
    ``gtol``, after ``maxiter`` trials, when the radius falls below the
    rounding of x, or after ``_FLAT_TRIALS`` trials in a row that lowered f
    by no more than its rounding. ``nit`` counts trials, accepted or not; a
    start where ``fun`` is not finite returns ``fun = inf``.
    """
    lb, ub = np.asarray(bounds, dtype=float).T
    x = np.clip(x0, lb, ub)
    f, nfev = fun(x), 1
    if not np.isfinite(f):
        return optimize.OptimizeResult(x=x, fun=np.inf, nit=0, nfev=nfev, success=False,
                                       message="objective not finite at the start")
    g, delta, nit, eig, flat = jac(x), 1.0, 0, None, 0
    while True:
        _, done, free = _first_order(x, g, f, lb, ub, gtol)
        if done:
            success, message = True, "projected gradient below tolerance"
            break
        if nit >= maxiter:
            success, message = False, "maximum number of iterations reached"
            break
        if delta <= np.finfo(float).eps * (1.0 + np.max(np.abs(x))):
            success, message = False, "trust radius fell below the rounding of x"
            break
        if flat >= _FLAT_TRIALS:
            success = False
            message = f"no progress: {flat} trials gained less than the rounding of f"
            break
        if eig is None:  # a new iterate
            B = hess(x)
            eig = np.linalg.eigh(B[np.ix_(free, free)])
        nit += 1
        s = np.zeros_like(x)
        s[free] = _trust_region_step(g[free], *eig, delta)
        trial = np.clip(x + s, lb, ub)
        s = trial - x
        step = np.linalg.norm(s)
        pred = -(g @ s + 0.5 * s @ B @ s)
        f_new, nfev = fun(trial), nfev + 1
        noise = 10.0 * np.finfo(float).eps * max(1.0, abs(f))
        rho = (f - f_new + noise) / (pred + noise) if np.isfinite(f_new) and pred > 0 else -np.inf
        if rho < 0.25:  # a projected step can be shorter than the radius
            delta = 0.25 * (step if 0 < step < delta else delta)
        elif rho > 0.75 and step > 0.9 * delta:
            delta = min(2.0 * delta, 1e3)
        flat = 0 if rho > 0.15 and f_new < f - noise else flat + 1
        if rho > 0.15:
            x, f, g, eig = trial, f_new, jac(trial), None
    return optimize.OptimizeResult(x=x, fun=f, nit=nit, nfev=nfev, success=success,
                                   message=message)


def fit(spec: ModelSpec, data: PanelData, n_starts=5, seed=0, bounds=None,
        tol=1e-8, max_iter=500, covariance=True, starts=None):
    """Maximize the conditional log-likelihood from multiple starts.

    Each start runs ``_trust_region_newton`` on the analytic gradient and
    Hessian. The normal and scaled-t families run it once, on the
    log-likelihood. The Laplace family runs it once per width in
    ``_LAPLACE_SMOOTHING``, on the pseudo-Huber smoothing of its
    log-likelihood (``densities.SmoothedLaplace``), each stage started where
    the last ended, or from the third stage on, extrapolated linearly in mu
    from the last two stages. Each stage but the last stops at the looser
    tolerance max(tol, mu / 100). ``max_iter`` bounds the trial steps of
    each stage.

    Returns the best local optimum by the exact log-likelihood (ties broken
    by start index) after canonicalization. ``converged`` is the trust
    region's own stopping test (``_first_order``) at the winner, on the
    objective its last stage minimized: the projected-gradient infinity norm
    satisfies ||pg|| <= tol * (1 + |f|), and ``gradient_norm`` is that norm.
    For the Laplace family f is the smoothing of the narrowest width; the
    reported log-likelihood, residuals and canonicalization check use the
    exact density. ``trace`` holds one record per start: the
    log-likelihood at the start and at the optimizer's end (None where it
    is not finite), ``nit`` and ``nfev`` summed over the stages, the last
    stage's message, and the start's wall seconds. ``n_iterations`` is the
    winner's ``nit``. ``residuals`` are those at the reported theta.
    """
    ws = LikelihoodWorkspace(spec, data)
    if bounds is None:
        bounds = default_bounds(spec)
    else:
        bounds = np.asarray(bounds, dtype=float).reshape(spec.dim, 2)
    lb, ub = bounds[:, 0], bounds[:, 1]
    exact = spec.density
    if exact.differentiable:
        stages = [(exact, tol)]
    else:
        # a stage's optimum moves by O(mu) as mu shrinks, so each stage but
        # the last stops at a tolerance of that order
        stages = [(SmoothedLaplace(mu), max(tol, 1e-2 * mu)) for mu in _LAPLACE_SMOOTHING]
        stages[-1] = (stages[-1][0], tol)

    def objective(x):
        ll, g = ws.loglik_and_gradient(ParameterVector.from_array(x, spec))
        if not np.isfinite(ll):
            return np.inf, np.zeros(spec.dim)
        return -ll, -g

    def neg_hessian(x):
        return -ws.hessian(ParameterVector.from_array(x, spec))

    if starts is None:
        starts = initial_points(ws, n_starts, seed)
    else:
        starts = [s if isinstance(s, ParameterVector)
                  else ParameterVector.from_array(s, spec) for s in starts]
        n_starts = len(starts)
    candidates, trace = [], []
    for idx, theta0 in enumerate(starts):
        t0 = time.perf_counter()
        ll0 = ws.log_likelihood(theta0)
        nit, nfev, optima = 0, 0, [theta0.x]
        for density, gtol in stages:
            ws.density = density
            # a smoothing's optimum moves about linearly in mu once mu is
            # small, and each mu is a tenth of the last: from the third stage
            # on, start a tenth of the last move further along that line
            x0 = optima[-1] if len(optima) < 3 else optima[-1] + 0.1 * (optima[-1] - optima[-2])
            res = optimize.minimize(objective, x0, jac=True, hess=neg_hessian,
                                    method=_trust_region_newton,
                                    bounds=list(map(tuple, bounds)),
                                    options={"gtol": gtol, "maxiter": max_iter})
            nit, nfev = nit + int(res.nit), nfev + int(res.nfev)
            optima.append(res.x)
            if not np.isfinite(res.fun):
                break
        ws.density = exact
        ok = bool(np.isfinite(res.fun))
        ll = -float(res.fun)
        if ok and density is not exact:  # a smoothing's optimum, scored exactly
            ll = ws.log_likelihood(ParameterVector.from_array(res.x, spec))
        if ok:
            candidates.append((-ll, idx, res.x, nit))
        trace.append({
            "start_loglik": float(ll0) if np.isfinite(ll0) else None,
            "loglik": ll if ok else None,
            "nit": nit,
            "nfev": nfev,
            "message": str(res.message),
            "seconds": time.perf_counter() - t0,
        })

    if not candidates:
        raise FitError(
            f"all {n_starts} starts failed to produce a finite optimum; "
            "check data scaling and bounds"
        )

    _, _, x_best, nit_best = min(candidates, key=lambda c: c[:2])

    theta_raw = ParameterVector.from_array(x_best, spec)
    ws.density = stages[-1][0]
    f_last, g_last = ws.loglik_and_gradient(theta_raw)
    grad_norm, converged, _ = _first_order(theta_raw.x, -g_last, -f_last, lb, ub, tol)
    ws.density = exact
    ll_hat = ws.log_likelihood(theta_raw)

    canonical = True
    theta_hat = theta_raw
    if spec.h:
        try:
            theta_hat = canonicalize(theta_raw, spec.include_intercept)
        except ValueError as exc:
            warnings.warn(str(exc), RuntimeWarning, stacklevel=2)
            canonical = False
    if canonical:
        ll_canon = ws.log_likelihood(theta_hat)
        if abs(ll_canon - ll_hat) > 1e-10 * (1.0 + abs(ll_hat)):
            raise NumericalError(
                f"canonicalization changed the log-likelihood by {ll_canon - ll_hat:.3e}"
            )

    boundary = bool(abs(theta_raw.phi0 - lb[0]) < 1e-8 or abs(theta_raw.phi0 - ub[0]) < 1e-8)
    if boundary:
        warnings.warn("phi0 pinned at its search bound", RuntimeWarning, stacklevel=2)

    result = FitResult(
        theta=theta_hat,
        loglik=float(ll_hat),
        gradient_norm=grad_norm,
        converged=bool(converged),
        n_starts=n_starts,
        n_iterations=nit_best,
        aic=2.0 * spec.dim - 2.0 * float(ll_hat),
        canonical=canonical,
        causality=check_causal(spec, theta_hat),
        boundary_warning=boundary,
        trace=trace,
        n_domain_rejections=ws.n_domain_rejections,
        nT=data.n * data.T,
        names=param_names(spec),
        # the workspace's cache already holds theta_hat: no new evaluation
        residuals=ws.residuals(theta_hat),
    )

    if covariance:
        try:
            cov = sandwich_covariance(ws, theta_hat)
            result.covariance = cov["omega"]
            result.std_errors = cov["se"]
            result.ci95 = cov["ci95"]
        except (CovarianceUnavailableError, ValueError) as exc:
            # point estimates stand; inference degrades with an explanation
            result.cov_note = str(exc)
    return result


def sandwich_covariance(ws: LikelihoodWorkspace, theta_hat: ParameterVector):
    """Omega = A^{-1} B A^{-1} with SEs and 95% intervals on the workspace's panel.

    A is the averaged negated Hessian, B the averaged per-observation score
    outer product. Raises :class:`CovarianceUnavailableError` for the
    Laplace family and a ValueError (with condition number) when A is
    singular or not positive definite.
    """
    if not ws.spec.density.differentiable:
        raise CovarianceUnavailableError(
            "sandwich covariance unavailable for the Laplace family: the "
            "log-density has no second derivative at 0; point estimates only"
        )
    nT = ws.data.n * ws.data.T
    A = -ws.hessian(theta_hat) / nT
    B = ws.score_outer_product(theta_hat)
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        cond = np.inf if eigs[0] == 0 else eigs[-1] / eigs[0]
        raise ValueError(
            f"averaged negated Hessian is not positive definite "
            f"(min eigenvalue {eigs[0]:.3e}, condition number {cond:.3e})"
        )
    Ainv = np.linalg.inv(A)
    omega = Ainv @ B @ Ainv
    omega = 0.5 * (omega + omega.T)
    if np.linalg.eigvalsh(omega)[0] <= 0:
        warnings.warn("sandwich covariance is not positive definite", RuntimeWarning,
                      stacklevel=2)
    se = np.sqrt(np.diag(omega) / nT)
    ci95 = np.column_stack((theta_hat.x - 1.96 * se, theta_hat.x + 1.96 * se))
    return {"omega": omega, "A": A, "B": B, "se": se, "ci95": ci95}


def likelihood_ratio_test(full: FitResult, nested: FitResult, df):
    """Chi-square likelihood-ratio test of a nested model.

    stat = 2 (loglik_full - loglik_nested), p-value from the chi-square
    upper tail with ``df`` degrees of freedom. The chi-square reference is
    approximate when extra neurons are unidentified under the null; the
    p-value is reported with that caveat in mind.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    stat = 2.0 * (full.loglik - nested.loglik)
    if stat < -1e-6 * (1.0 + abs(full.loglik)):
        raise ValueError(
            f"nested model has higher log-likelihood (stat = {stat:.6g}); "
            "models do not nest or a fit did not converge"
        )
    stat = max(stat, 0.0)
    return {"stat": stat, "df": int(df), "pvalue": float(chdtrc(df, stat))}
