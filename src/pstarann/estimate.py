"""
Maximum-likelihood fitting with box constraints, multi-start, post-hoc
canonicalization, and sandwich covariance.

Every error family runs one optimizer, ``_trust_region_newton``, which
``fit`` calls directly: a projected trust-region Newton method on the
analytic gradient and Hessian (Lin & Moré 1999, TRON), with each
subproblem solved exactly through an eigendecomposition of the Hessian
block of the free variables (Moré & Sorensen 1983). Its stopping rule is
the ``converged`` that ``fit`` reports: the projected gradient's
infinity norm is at most tol * (1 + |f|) for the minimized objective f.
The Laplace log-density has a kink at 0 and no curvature elsewhere, so a
Laplace fit runs the trust region on a smoothing homotopy: the
pseudo-Huber surrogate -ln(2b) - sqrt(s^2 + mu^2) / b for each mu in
``_LAPLACE_SMOOTHING``, each stage warm-started from the last (Madsen &
Nielsen 1993). Its ``converged`` and ``gradient_norm`` are those of the
last stage's objective. Every start leaves a record in
``FitResult.trace``. Default boxes keep the search compact and sigmoid
arguments sane:

    |phi0| <= SERIES_PHI0_MAX,  phi_i in [-3, 3],
    beta, lambda in [-50, 50],  gamma in [-25, 25].

The phi0 box is the log-det series' own (``weights.SERIES_PHI0_MAX``), so
no trial of a fit at n >= N_SERIES falls through to the dense spectrum.

The identification convention gamma_i1 > 0 is NOT imposed during the
search (it is a labeling convention, not a statistical constraint); it is
restored afterwards by ``canonicalize`` whenever the design has an
intercept column.

Asymptotic covariance is the sandwich

    Omega = A^{-1} B A^{-1},   A = -(1/nT) Hessian,   B = (1/nT) sum of
                                   per-observation score outer products,

with per-parameter standard errors sqrt(diag(Omega) / nT). A and B come
from one weighted Gram of the residual derivatives (see the likelihood
module): A's Gauss-Newton part weights them by the log-density's
curvature, B weights them by the squared score ratio and adds a rank-2
correction for the log-determinant's share of each observation, so no
per-observation score array is ever formed. For the Laplace
family A is unavailable (no curvature at 0), so fits report point
estimates only.

A fit ends in an estimate or in ``FitError``, a ``NumericalError`` that
carries the record of every start that ran. An estimate whose covariance
cannot be formed keeps its point estimates, and ``covariance_note`` says
why. ``fit`` runs under ``np.errstate(over="ignore", invalid="ignore")``:
every non-finite value it meets ends as a rejected trial, a failed start,
a ``FitError`` or a note, so numpy's overflow warnings would only repeat
that record.

Each fit builds one ``LikelihoodWorkspace``. The starts
(``initial_points``), the optimizer, the covariance
(``sandwich_covariance``) and the residuals the fit reports all read it,
so the panel is checked and its fixed derivative rows are formed once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import chdtrc

from . import weights
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
    "default_bounds",
    "initial_points",
    "fit",
    "sandwich_covariance",
    "likelihood_ratio_test",
]

_EPS = np.finfo(float).eps
# Not used by the estimator: bench/tracer.py reads it to count finite
# optima (see ``optimize`` below).
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


class FitError(NumericalError):
    """Raised when a fit ends without an estimate: every start failed, W's
    log-det failed (a series node's self-check), or the canonicalization
    check failed. ``trace`` holds the record of every start that ran, as
    ``FitResult.trace`` does."""

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = list(trace)


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

    def format_table(self):
        """Human-readable table: Parameter | Estimate | Std. | 95% C.I.

        A trailing * marks coefficients whose interval covers zero; the
        Std./C.I. columns are omitted when the covariance is unavailable.
        """
        est, se = self.theta.x, self.std_errors
        lines = [f"{'Parameter':<10} {'Estimate':>10}"
                 + ("" if se is None else f" {'Std.':>9}  {'95% C.I.':>22}")]
        for k, name in enumerate(self.names):
            row = f"{name:<10} {est[k]:>10.4f}"
            if se is not None:
                lo, hi = self.ci95[k]
                star = "*" if lo <= 0.0 <= hi else ""
                row += f" {se[k]:>9.4f}  ({lo:>9.4f}, {hi:>9.4f}){star}"
            lines.append(row)
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
    lay, phi0_cap = spec.layout, weights.SERIES_PHI0_MAX
    bounds = np.empty((lay.dim, 2))
    bounds[0] = (-phi0_cap, phi0_cap)
    bounds[lay.phi] = (-3.0, 3.0)
    bounds[lay.beta] = bounds[lay.lam] = (-50.0, 50.0)
    bounds[lay.gamma] = (-25.0, 25.0)
    return bounds


def _checked_bounds(bounds, spec: ModelSpec):
    """``bounds`` as a (dim, 2) float array of rows (lb, ub).

    Raises ValueError for another shape, and naming the parameter, for a
    NaN bound or lb > ub.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (spec.dim, 2):
        raise ValueError(f"bounds must have shape ({spec.dim}, 2), one (lower, upper) row "
                         f"per parameter; got shape {bounds.shape}")
    for name, (lo, hi) in zip(param_names(spec), bounds):
        if np.isnan(lo) or np.isnan(hi):
            raise ValueError(f"bounds for {name} are ({lo}, {hi}): a bound is NaN")
        if lo > hi:
            raise ValueError(f"bounds for {name} are ({lo}, {hi}): lower exceeds upper")
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

    # the Gaussian profile is T ln|A0| - r'r / 2, and ln|A0| <= 0 (see
    # _grid_argmax), so -r'r / 2 bounds it without a log-det
    def residual_term(phi0):
        r = r_y - phi0 * r_l
        return -0.5 * float(r @ r)

    phi0_hat = _grid_argmax(np.linspace(-0.9, 0.9, 37), residual_term,
                            lambda phi0: T * spec.W.log_det_a0(phi0))

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


def _grid_argmax(grid, bound, rest):
    """``max(grid, key=lambda c: rest(c) + bound(c))``, the first grid point
    of largest value, for ``rest`` <= 0 at every point.

    ``initial_points`` passes rest = T ln|I - phi0 W|. That is <= 0: it is
    concave in phi0 (its second derivative is -T tr((W A0^{-1})^2)), and
    it is 0 with a zero derivative (-T tr W) at phi0 = 0. So every point
    has value <= ``bound`` there, to the last bit, and where that bound is
    below the best value found the point can neither win nor tie: ``rest``
    is not evaluated for it. The points >= 0 are visited first, so a series
    log-det seldom builds its negative pieces.
    """
    values, best = {}, -np.inf
    for k in sorted(range(len(grid)), key=lambda k: grid[k] < 0.0):
        b = bound(grid[k])
        if b >= best:
            values[k] = rest(grid[k]) + b
            best = max(best, values[k])
    return grid[max(sorted(values), key=values.get)]


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
    a[np.abs(a) <= 4.0 * a.size * _EPS * np.linalg.norm(g)] = 0.0
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


class TrustRegionResult(NamedTuple):
    """The end of one ``_trust_region_newton`` run."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool
    pg_norm: float
    message: str


def _trust_region_newton(fun, x0, hess, bounds, gtol=1e-8, maxiter=500):
    """Projected trust-region Newton on the box ``bounds``, (dim, 2) rows (lb, ub).

    ``fun(x)`` returns the objective and its gradient, ``(f, g)``, and
    ``hess(x)`` its Hessian. A trial point is evaluated as
    ``fun(x, threshold)``: the ratio test rejects, up to rounding, every
    f(x) >= threshold, so ``fun`` may return a non-finite f for a point that
    it can show to be rejected without computing f. Lin & Moré (1999, TRON)
    with an exact subproblem: each iteration takes the free variables
    (those not held on a bound by ``_first_order``), solves the
    trust-region subproblem on their block of the Hessian
    (``_trust_region_step``), projects the step onto the box and applies
    the ratio test. A trial point where ``fun`` is not finite is rejected
    and shrinks the radius, as any rejection does. x, f, g, the stopping
    test and the Hessian change only at an accepted trial. Both
    reductions in the ratio carry
    10 eps max(1, |f|), so that once the predicted gain falls below the
    objective's rounding a step is judged by its model alone (Conn, Gould
    & Toint 2000, sec. 17.4.2). Stops when ``_first_order`` holds with
    ``gtol``, after ``maxiter`` trials, when the radius falls below the
    rounding of x, or after ``_FLAT_TRIALS`` trials in a row that lowered f
    by no more than its rounding. Each trial evaluates ``fun`` once, and an
    accepted trial's gradient is the next iterate's. ``nit`` counts trials,
    accepted or not, and ``nfev`` the calls of ``fun``; ``pg_norm`` is the
    projected-gradient norm of the last ``_first_order`` test, at the
    returned x, and ``success`` is that test's outcome. A start where
    ``fun`` is not finite, or an iterate where ``hess`` raises
    ``NumericalError`` (an entry that is not finite, or asymmetry), fails
    the start: it returns ``fun = inf`` and ``pg_norm = inf``, and the
    message names the cause. Errors from ``fun`` propagate: a log-det series
    node whose pivot check fails is a fault of W, not of one start, and
    failing the start instead would rebuild that piece, 24 LUs, at every
    later evaluation.
    """
    lb, ub = np.asarray(bounds, dtype=float).T
    x = np.clip(x0, lb, ub)
    (f, g), nfev = fun(x), 1
    if not np.isfinite(f):
        return TrustRegionResult(x, np.inf, 0, nfev, False, np.inf,
                                 "objective not finite at the start")
    delta, nit, flat, new = 1.0, 0, 0, True
    while True:
        if new:  # x, f and g change only here: a rejected trial keeps them
            pg_norm, done, free = _first_order(x, g, f, lb, ub, gtol)
            if done:
                success, message = True, "projected gradient below tolerance"
                break
            x_rounding = _EPS * (1.0 + np.max(np.abs(x)))
            noise = 10.0 * _EPS * max(1.0, abs(f))
        if nit >= maxiter:
            success, message = False, "maximum number of iterations reached"
            break
        if delta <= x_rounding:
            success, message = False, "trust radius fell below the rounding of x"
            break
        if flat >= _FLAT_TRIALS:
            success = False
            message = f"no progress: {flat} trials gained less than the rounding of f"
            break
        if new:
            try:
                B = hess(x)
            except NumericalError as exc:  # a failed start, as a non-finite f is
                return TrustRegionResult(x, np.inf, nit, nfev, False, np.inf,
                                         f"Hessian failed: {exc}")
            eig = np.linalg.eigh(B[np.ix_(free, free)])
            new = False
        nit += 1
        s = np.zeros_like(x)
        s[free] = _trust_region_step(g[free], *eig, delta)
        trial = np.clip(x + s, lb, ub)
        s = trial - x
        step = np.linalg.norm(s)
        pred = -(g @ s + 0.5 * s @ B @ s)
        # the ratio test below accepts the trial iff f_new < threshold
        (f_new, g_new), nfev = fun(trial, f + noise - 0.15 * (pred + noise)), nfev + 1
        rho = (f - f_new + noise) / (pred + noise) if np.isfinite(f_new) and pred > 0 else -np.inf
        if rho < 0.25:  # a projected step can be shorter than the radius
            delta = 0.25 * (step if 0 < step < delta else delta)
        elif rho > 0.75 and step > 0.9 * delta:
            delta = min(2.0 * delta, 1e3)
        flat = 0 if rho > 0.15 and f_new < f - noise else flat + 1
        if rho > 0.15:
            x, f, g, new = trial, f_new, g_new, True
    return TrustRegionResult(x, f, nit, nfev, success, pg_norm, message)


# What ``fit`` calls each trust-region stage through. bench/tracer.py wraps
# ``optimize.minimize`` to count the optimizer's work, and reads
# ``_PENALTY``; both go with ROADMAP item 3's benchmark PR.
optimize = SimpleNamespace(minimize=_trust_region_newton)


@np.errstate(over="ignore", invalid="ignore")
def fit(spec: ModelSpec, data: PanelData, n_starts=5, seed=0, bounds=None,
        tol=1e-8, max_iter=500, covariance=True, starts=None):
    """Maximize the conditional log-likelihood from multiple starts.

    Each start runs ``_trust_region_newton`` on the analytic gradient and
    Hessian. A trial that the density sum alone shows to fail the ratio
    test is rejected without its log-det (``log_likelihood``'s ``floor``;
    ln|A0| <= 0), as the exact value would reject it: a stray trial below
    phi0 = 0 builds no negative series piece. The normal and scaled-t families run it once, on the
    log-likelihood. The Laplace family runs it once per width in
    ``_LAPLACE_SMOOTHING``, on the pseudo-Huber smoothing of its
    log-likelihood (``densities.SmoothedLaplace``), each stage started where
    the last ended, or from the third stage on, extrapolated linearly in mu
    from the last two stages. Each stage but the last stops at the looser
    tolerance max(tol, mu / 100). ``max_iter`` bounds the trial steps of
    each stage. ``bounds``, (dim, 2) rows (lb, ub) in canonical order,
    replaces ``default_bounds``; another shape raises ValueError, and so
    does a NaN bound or lb > ub, naming the parameter.

    Returns the best local optimum by the exact log-likelihood (ties broken
    by start index) after canonicalization. ``converged`` and
    ``gradient_norm`` are read off the winner's last stage, not evaluated
    again: the outcome of the trust region's last stopping test
    (``_first_order``) on the objective that stage minimized, whether the
    projected-gradient infinity norm satisfies ||pg|| <= tol * (1 + |f|),
    and that norm. For the Laplace family f is the smoothing of the
    narrowest width; the reported log-likelihood, residuals and
    canonicalization check use the exact density. ``trace`` holds one
    record per start: the log-likelihood at the start and at the
    optimizer's end (None where it is not finite), ``nit`` and ``nfev``
    summed over the stages, the last stage's message, and the start's wall
    seconds. ``n_iterations`` is the winner's ``nit``. ``residuals`` are
    those at the reported theta. An estimate that ``canonicalize`` refuses
    (gamma_i1 < 0 without an intercept column) is reported as found, with
    ``canonical`` False, and a phi0 within 1e-8 of its bound sets
    ``boundary_warning``. With ``covariance``, the estimate carries the
    sandwich covariance, or in its place a ``cov_note`` that says why it
    is unavailable: the Laplace family, or the ``NumericalError`` of
    ``sandwich_covariance``. These fields are the only record of each
    caveat: ``fit`` raises no warning, and numpy's overflow and
    invalid-value warnings are ignored throughout.

    Raises ``FitError``, carrying the record of every start that ran, for
    every end without an estimate: no start reaches a finite optimum, a
    log-det series node fails its self-check (the message is the node's
    ``NumericalError``), or the canonicalization check fails.

    Without ``starts``, W's log-det backend is built (``log_det_a0(0.0)``)
    before the ``LikelihoodWorkspace``, as ``initial_points``' grid would
    build it first: the transient of that build (the series' ordering node
    and inner positive piece, or the dense spectrum below ``weights.N_SERIES``)
    is freed before the workspace's arrays exist, so the two do not add up
    in the peak. Which piece is built first does not move a series
    coefficient. A panel that fails the workspace's check pays that build
    before its ValueError.
    """
    bounds = default_bounds(spec) if bounds is None else _checked_bounds(bounds, spec)
    lb, ub = bounds[:, 0], bounds[:, 1]
    exact = spec.density
    if exact.differentiable:
        stages = [(exact, tol)]
    else:
        # a stage's optimum moves by O(mu) as mu shrinks, so each stage but
        # the last stops at a tolerance of that order
        stages = [(SmoothedLaplace(mu), max(tol, 1e-2 * mu)) for mu in _LAPLACE_SMOOTHING]
        stages[-1] = (stages[-1][0], tol)
    candidates, trace = [], []
    try:  # every NumericalError here is W's log-det: a fault of W, not of one start
        if starts is None:  # initial_points' grid reads ln|A0| first anyway
            spec.W.log_det_a0(0.0)
        ws = LikelihoodWorkspace(spec, data)

        def objective(x, threshold=np.inf):
            # a trial whose -ll is certainly >= threshold, the ratio test's
            # rejection, comes back as inf without its log-det
            ll, g = ws.loglik_and_gradient(ParameterVector.from_array(x, spec), -threshold)
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
        for idx, theta0 in enumerate(starts):
            t0 = time.perf_counter()
            ll0 = ws.log_likelihood(theta0)
            nit, nfev, optima = 0, 0, [theta0.x]
            for density, gtol in stages:
                ws.density = density
                # a smoothing's optimum moves about linearly in mu once mu is
                # small, and each mu is a tenth of the last: from the third
                # stage on, start a tenth of the last move further along that line
                x0 = optima[-1]
                if len(optima) >= 3:
                    x0 = x0 + 0.1 * (optima[-1] - optima[-2])
                res = optimize.minimize(objective, x0, neg_hessian, bounds, gtol, max_iter)
                nit, nfev = nit + res.nit, nfev + res.nfev
                optima.append(res.x)
                if not np.isfinite(res.fun):
                    break
            ws.density = exact
            ok = bool(np.isfinite(res.fun))
            ll = -float(res.fun)
            if ok and density is not exact:  # a smoothing's optimum, scored exactly
                ll = ws.log_likelihood(ParameterVector.from_array(res.x, spec))
            if ok:
                candidates.append((-ll, idx, res, nit))
            trace.append({
                "start_loglik": float(ll0) if np.isfinite(ll0) else None,
                "loglik": ll if ok else None,
                "nit": nit,
                "nfev": nfev,
                "message": str(res.message),
                "seconds": time.perf_counter() - t0,
            })
    except NumericalError as exc:
        raise FitError(str(exc), trace) from exc

    if not candidates:
        last = f" (last start: {trace[-1]['message']})" if trace else ""
        raise FitError(
            f"all {n_starts} starts failed to produce a finite optimum; "
            f"check data scaling and bounds{last}", trace
        )

    neg_ll, _, best, nit_best = min(candidates, key=lambda c: c[:2])
    theta_raw, ll_hat = ParameterVector.from_array(best.x, spec), -neg_ll

    canonical = True
    theta_hat = theta_raw
    if spec.h:
        try:
            theta_hat = canonicalize(theta_raw, spec.include_intercept)
        except ValueError:
            canonical = False
    if canonical:
        ll_canon = ws.log_likelihood(theta_hat)
        if abs(ll_canon - ll_hat) > 1e-10 * (1.0 + abs(ll_hat)):
            raise FitError(
                f"canonicalization changed the log-likelihood by {ll_canon - ll_hat:.3e}", trace
            )

    boundary = bool(abs(theta_raw.phi0 - lb[0]) < 1e-8 or abs(theta_raw.phi0 - ub[0]) < 1e-8)

    result = FitResult(
        theta=theta_hat,
        loglik=float(ll_hat),
        gradient_norm=best.pg_norm,
        converged=bool(best.success),
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
        # the canonicalization check left theta_hat in the workspace's
        # cache; only a non-canonical fit evaluates it here
        residuals=ws.residuals(theta_hat),
    )

    if covariance and not exact.differentiable:
        result.cov_note = ("sandwich covariance unavailable for the Laplace family: the "
                           "log-density has no second derivative at 0; point estimates only")
    elif covariance:
        try:  # point estimates stand; the note says why inference does not
            cov = sandwich_covariance(ws, theta_hat)
            result.covariance, result.std_errors = cov["omega"], cov["se"]
            result.ci95 = cov["ci95"]
        except NumericalError as exc:
            result.cov_note = str(exc)
    return result


def _require_positive_definite(M, name):
    """Raise ``NumericalError`` naming ``M`` when an entry is not finite or
    its least eigenvalue is not positive (with that eigenvalue and the
    condition number max |eig| / min |eig|). Finiteness is tested first: a
    NaN would make ``eigvalsh`` raise ``LinAlgError``, a ValueError."""
    if not np.isfinite(M).all():
        raise NumericalError(f"{name} is not finite")
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0:
        mags = np.abs(eigs)
        cond = np.inf if mags.min() == 0 else mags.max() / mags.min()
        raise NumericalError(f"{name} is not positive definite "
                             f"(min eigenvalue {eigs[0]:.3e}, condition number {cond:.3e})")


def sandwich_covariance(ws: LikelihoodWorkspace, theta_hat: ParameterVector):
    """Omega = A^{-1} B A^{-1} with SEs and 95% intervals on the workspace's panel.

    A is the averaged negated Hessian, B the averaged per-observation score
    outer product. Raises ``NumericalError``, naming the matrix, when A or
    Omega is not finite or not positive definite, with its least eigenvalue
    and condition number; ``fit`` records that error as its ``cov_note``.
    For the Laplace family ``hessian`` raises its ValueError.
    """
    nT = ws.data.n * ws.data.T
    A = -ws.hessian(theta_hat) / nT
    B = ws.score_outer_product(theta_hat)
    _require_positive_definite(A, "averaged negated Hessian")
    Ainv = np.linalg.inv(A)
    omega = Ainv @ B @ Ainv
    omega = 0.5 * (omega + omega.T)
    _require_positive_definite(omega, "sandwich covariance")
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
