"""
Model specification, parameter vector, panel container, and core algebra
for the PSTAR-ANN(p) model

    Y_t = phi0 W Y_t + sum_{i=1..p} phi_i W Y_{t-i} + X_t beta
          + F(X_t gamma') lambda + eps_t,

where F is the logistic sigmoid applied entrywise and the network term is
sum_i lambda_i F(x_{s,t}' gamma_i) per location s. The canonical parameter
layout used everywhere (gradients, Hessians, optimizer vectors) is

    theta = (phi0, phi_1..phi_p, beta_1..beta_q, lambda_1..lambda_h,
             gamma_11..gamma_1q, ..., gamma_h1..gamma_hq).

phi0 is kept separate from the other autoregressive entries because its
score carries the extra log-determinant trace term. ``Layout`` places the
blocks; ``ParameterVector`` is the flat array theta with named views.

Identification conventions: lambda_1 >= ... >= lambda_h and gamma_i1 > 0
for every neuron. The sigmoid symmetry F(x) = 1 - F(-x) makes
(lambda_i, gamma_i) and (-lambda_i, -gamma_i, intercept + lambda_i)
observationally equivalent whenever the design has an intercept column, so
``canonicalize`` can always restore the convention in that case.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .densities import ErrorDensity
from .weights import WeightMatrix

__all__ = [
    "ModelSpec",
    "ParameterVector",
    "PanelData",
    "CausalityCheck",
    "sigmoid",
    "check_causal",
    "psi_expansion",
    "canonicalize",
    "param_names",
]


def sigmoid(z):
    """Logistic function F(z) = 1 / (1 + exp(-z)), for any z.

    The same formula as ``scipy.special.expit``, computed in place on one
    array. In the tails, |z| > 708, exp(-z) and F overflow or underflow to
    the same inf, 0, 1 or subnormal values as in expit; that is expected
    and not reported.
    """
    z = np.asarray(z, dtype=float)
    out = np.negative(z, out=np.empty(z.shape))
    with np.errstate(over="ignore", under="ignore"):
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
    return out if out.ndim else float(out)


class Layout(NamedTuple):
    """Block sizes of theta = (phi0, phi, beta, lambda, gamma), in that order in
    one flat array, gamma (h, q) row-major: the one definition of the layout."""

    p: int
    n_beta: int
    h: int
    q: int

    phi = property(lambda s: slice(1, 1 + s.p))
    beta = property(lambda s: slice(1 + s.p, 1 + s.p + s.n_beta))
    lam = property(lambda s: slice(1 + s.p + s.n_beta, 1 + s.p + s.n_beta + s.h))
    gamma = property(lambda s: slice(1 + s.p + s.n_beta + s.h, s.dim))
    dim = property(lambda s: 1 + s.p + s.n_beta + s.h * (1 + s.q))


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and ingredients of a PSTAR-ANN(p) model.

    ``q`` counts the columns of X; they always feed the network component.
    ``linear_term`` controls whether X also enters linearly through beta
    (the one-neuron simulation design omits it). ``include_intercept``
    declares that column 0 of X is the constant 1, which is what makes the
    sign-flip canonicalization available.
    """

    W: WeightMatrix
    p: int
    q: int
    h: int
    density: ErrorDensity
    linear_term: bool = True
    include_intercept: bool = False

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.h < 0:
            raise ValueError("orders p, q, h must be nonnegative")
        if self.h > 0 and self.q == 0:
            raise ValueError("network component needs q >= 1 covariates")

    @property
    def n(self):
        return self.W.n

    @property
    def n_beta(self):
        return self.q if self.linear_term else 0

    @cached_property
    def layout(self):
        return Layout(self.p, self.n_beta, self.h, self.q)

    @property
    def dim(self):
        return self.layout.dim


def _block(name, label):
    """A block of ``ParameterVector.x``: reads as a view, assignment copies into
    it. The value must have the view's shape; an empty value fills an empty
    block of any shape."""

    def get(self):
        view = self.x[getattr(self.layout, name)]
        return view.reshape(self.layout.h, self.layout.q) if name == "gamma" else view

    def put(self, value):
        view, value = get(self), np.asarray(value, dtype=float)
        if value.shape != view.shape and (value.size or view.size):
            if value.ndim != view.ndim or value.shape[:-1] != view.shape[:-1]:
                shape = (f"a 2-D array with one row per neuron (h={view.shape[0]})"
                         if view.ndim == 2 else "a 1-D array")
                raise ValueError(f"{label} must be {shape}, got shape {value.shape}")
            unit = "columns" if view.ndim == 2 else "entries"
            raise ValueError(f"{label} has {view.shape[-1]} {unit}; "
                             f"cannot assign {value.shape[-1]}")
        view[...] = value.reshape(view.shape)

    return property(get, put)


class ParameterVector:
    """Parameters in canonical layout: one flat array ``x`` with named views.

    ``phi0`` is ``x[0]``; ``phi`` (p,), ``beta`` (n_beta,), ``lam`` (h,) and
    ``gamma`` (h, q) are views of ``x`` at the slices of ``layout``, so writes
    into them reach ``x``. The constructor sizes the layout from the blocks
    and assigns them, so one rule serves construction and assignment: a
    block takes a value of its own shape, or an empty value when it is
    empty (``gamma`` when h = 0), and raises ``ValueError`` otherwise."""

    phi = _block("phi", "phi")
    beta = _block("beta", "beta")
    lam = _block("lam", "lambda")
    gamma = _block("gamma", "gamma")
    p = property(lambda self: self.layout.p)
    h = property(lambda self: self.layout.h)
    dim = property(lambda self: self.x.size)

    def __init__(self, phi0, phi, beta, lam, gamma):
        blocks = [np.asarray(b, dtype=float) for b in (phi, beta, lam, gamma)]
        h = blocks[2].size
        self.layout = Layout(blocks[0].size, blocks[1].size, h,
                             blocks[3].size // h if h else 0)
        self.x = np.empty(self.layout.dim)
        self.x[0] = float(phi0)
        self.phi, self.beta, self.lam, self.gamma = blocks

    @classmethod
    def from_array(cls, arr, spec: ModelSpec):
        """theta over a copy of ``arr``: an optimizer may reuse its buffer."""
        theta = cls.__new__(cls)
        theta.x, theta.layout = np.array(arr, dtype=float).reshape(-1), spec.layout
        if theta.dim != spec.dim:
            raise ValueError(f"parameter array has length {theta.dim}, expected {spec.dim}")
        return theta

    def to_array(self):
        return self.x.copy()

    def copy(self):
        return ParameterVector(self.phi0, self.phi, self.beta, self.lam, self.gamma)

    @property
    def phi0(self):
        return float(self.x[0])

    @phi0.setter
    def phi0(self, value):
        self.x[0] = value

    def validate(self, spec: ModelSpec):
        lay = self.layout
        if lay.p != spec.p:
            raise ValueError(f"phi has {lay.p} entries, spec.p={spec.p}")
        if lay.n_beta != spec.n_beta:
            raise ValueError(f"beta has {lay.n_beta} entries, expected {spec.n_beta}")
        if lay.h != spec.h:
            raise ValueError(f"lambda has {lay.h} entries, spec.h={spec.h}")
        if spec.h and lay.q != spec.q:
            raise ValueError(f"gamma has shape {self.gamma.shape}, expected {(spec.h, spec.q)}")
        return self

    def is_canonical(self):
        return self.h == 0 or bool(np.all(np.diff(self.lam) <= 0)
                                   and np.all(self.gamma[:, 0] > 0))

    # JSON wire format: keys phi0, phi, beta, lambda, gamma ---------------

    def to_json_dict(self):
        return {"phi0": self.phi0, "phi": self.phi.tolist(), "beta": self.beta.tolist(),
                "lambda": self.lam.tolist(), "gamma": self.gamma.tolist()}

    @classmethod
    def from_json_dict(cls, d):
        if "phi0" not in d:
            raise ValueError("missing required key 'phi0'")
        return cls(d["phi0"], *(d.get(k, []) for k in ("phi", "beta", "lambda", "gamma")))

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def param_names(spec: ModelSpec):
    """Canonical-order parameter names, e.g. phi0, phi1, beta1, lambda1, gamma11."""
    names = ["phi0"] + [f"phi{i}" for i in range(1, spec.p + 1)]
    names += [f"beta{j}" for j in range(1, spec.n_beta + 1)]
    names += [f"lambda{i}" for i in range(1, spec.h + 1)]
    names += [f"gamma{i}{j}" for i in range(1, spec.h + 1) for j in range(1, spec.q + 1)]
    return names


@dataclass
class PanelData:
    """T sample slices plus p presample slices of the panel.

    ``Y`` has shape (p + T, n): rows 0..p-1 are the presample, row p + t - 1
    is Y_t for t = 1..T. ``X`` has shape (T, n, q), aligned with the sample
    window. ``eps`` optionally carries the innovations injected by the
    simulator (testing hook for exact residual round-trips).
    """

    Y: np.ndarray
    X: np.ndarray
    p: int
    eps: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.Y.ndim != 2:
            raise ValueError("Y must be a (p + T, n) array")
        if self.X.ndim != 3:
            raise ValueError("X must be a (T, n, q) array")
        if self.Y.shape[0] != self.p + self.X.shape[0]:
            raise ValueError(
                f"Y has {self.Y.shape[0]} slices; expected p + T = {self.p + self.X.shape[0]}"
            )
        if self.X.shape[1] != self.Y.shape[1]:
            raise ValueError("X and Y disagree on the number of locations")
        if not np.all(np.isfinite(self.Y)) or not np.all(np.isfinite(self.X)):
            raise ValueError("panel contains non-finite values")

    @property
    def T(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.Y.shape[1]

    @property
    def q(self):
        return self.X.shape[2]

    @property
    def Y_sample(self):
        return self.Y[self.p:]

    def check_against(self, spec: ModelSpec):
        """Raise ValueError when the panel contradicts the spec.

        Checks n, q and p, that the intercept column is exactly 1 when the
        spec declares one (the first other value is named with its t and s),
        and that every X_t has full column rank (one batched rank
        computation over the T slices; the first deficient t is named).
        """
        if self.n != spec.n:
            raise ValueError(f"panel has n={self.n}, weights have n={spec.n}")
        if self.q != spec.q:
            raise ValueError(f"panel has q={self.q}, spec.q={spec.q}")
        if self.p != spec.p:
            raise ValueError(f"panel has p={self.p} presample slices, spec.p={spec.p}")
        if spec.include_intercept and self.q:
            off = np.argwhere(self.X[:, :, 0] != 1.0)
            if off.size:
                t, s = off[0]
                raise ValueError(f"spec declares an intercept but X[:, :, 0] is not exactly 1: "
                                 f"{float(self.X[t, s, 0])!r} at t={t + 1}, s={s}")
        if self.q:
            deficient = np.flatnonzero(np.linalg.matrix_rank(self.X) < self.q)
            if deficient.size:
                raise ValueError(f"X_t is rank deficient at t={deficient[0] + 1}")
        return self


# ----------------------------------------------------------------------
# Core operations
# ----------------------------------------------------------------------

# check_causal rejects a leading coefficient 1 - phi0 tau below this.
LEAD_TOL = 1e-14
# A largest root modulus above 1 - CAUSAL_MARGIN is non-causal.
CAUSAL_MARGIN = 1e-6


class CausalityCheck(NamedTuple):
    causal: bool
    max_root_modulus: float

    def require(self):
        """Return the check if causal, else raise the one non-causal ``ValueError``."""
        if not self.causal:
            raise ValueError(f"non-causal parameters: max root modulus "
                             f"{self.max_root_modulus!r} exceeds 1 - {CAUSAL_MARGIN:g}")
        return self


def _largest_root_moduli(tau, phi0, phi):
    """Largest root modulus of the factor (1 - phi0 tau) z^p - sum_i phi_i tau z^{p-i}
    at each tau of the array, from one batched ``eigvals`` of the companion
    matrices. A lead 1 - phi0 tau below LEAD_TOL raises ValueError."""
    lead = 1.0 - phi0 * tau
    if lead.min() < LEAD_TOL:
        raise ValueError(f"leading coefficient vanishes at eigenvalue tau={tau[lead.argmin()]}")
    p = phi.size
    companion = np.zeros((tau.size, p, p))
    companion[:, 0, :] = np.outer(tau, phi) / lead[:, None]
    companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    return np.abs(np.linalg.eigvals(companion)).max(axis=1)


def _verdict(moduli):
    max_mod = float(np.max(moduli))
    return CausalityCheck(max_mod <= 1.0 - CAUSAL_MARGIN, max_mod)


def check_causal(spec: ModelSpec, theta: ParameterVector):
    """Verify the stationarity condition of the autoregressive operator.

    The determinant det[z^p A0 - sum_i phi_i W z^{p-i}] factors through the
    eigenvalues tau of W into scalar polynomials

        (1 - phi0 tau) z^p - phi_1 tau z^{p-1} - ... - phi_p tau,

    so the process is causal iff every root of every factor has modulus at
    most 1 - CAUSAL_MARGIN. The roots of the factor at tau are the
    eigenvalues of its p x p companion matrix, whose first row is g phi_i,
    i = 1..p, with g = tau / (1 - phi0 tau) and ones on the subdiagonal; the
    companion matrices are stacked and solved in one batched ``eigvals``
    call. p = 0 is trivially causal.

    phi0 is checked first, for every p and before any spectrum access, by
    ``WeightMatrix.check_phi0``. So |phi0| < 1, and as W's spectrum lies in
    [-1, 1], 1 - phi0 tau >= 1 - |phi0| > 0 on all of [-1, 1]: g is
    increasing in tau there (dg/dtau = 1 / (1 - phi0 tau)^2) and ranges
    between its values at the two ends. For p <= 2 only tau_min and the
    largest eigenvalue, the Perron root 1 of a row-stochastic W, are
    checked, with the same result as checking all eigenvalues:
    the roots of z^p - g (phi_1 z^{p-1} + ... + phi_p) all have modulus
    below rho iff the Jury conditions hold, and for p <= 2 these are affine
    in g:

        p = 1:  |g phi_1| < rho,
        p = 2:  |g phi_2| < rho^2  and  |g phi_1| rho < rho^2 - g phi_2.

    With g = s r for a fixed sign s and r >= 0, each condition reads
    r c < rho^2 for a constant c, so the r that satisfy them form an
    interval [0, r*). The largest root modulus therefore does not decrease
    as |g| grows, for either sign of g, and over the spectrum it peaks at
    tau_min or 1. Both ends are eigenvalues, so the maximum is the
    same ``max_root_modulus``.

    tau_min is often not needed. W's trace is 0, so -1 <= tau_min < 0 and
    g(-1) <= g(tau_min) < 0; by the same argument the modulus at tau_min
    is at most the modulus at tau = -1. The factor at -1 is therefore
    checked first, next to the one at 1: when its modulus does not exceed
    that at 1, the modulus at 1 is the answer and tau_min (a Lanczos solve) is
    never read. For p = 1 with phi_1 != 0 that holds exactly when
    phi0 >= 0. tau = -1 need not be an eigenvalue, so a lead 1 + phi0
    below LEAD_TOL raises nothing there and leaves the check to the two
    ends.

    For p >= 3 the Jury conditions are not affine in g and the argument
    fails: with phi = (2.47, -2.93, 1.18) the largest root modulus falls
    from 1.346 at g = 1.25 to 1.255 at g = 1.4. There every eigenvalue is
    checked; only p >= 3 reads the dense spectrum. A lead below LEAD_TOL at
    an eigenvalue (|phi0| within about 1e-14 of 1) raises ValueError.
    """
    theta.validate(spec)
    W = spec.W
    W.check_phi0(theta.phi0)
    if spec.p == 0:
        return CausalityCheck(True, 0.0)
    if spec.p >= 3:
        return _verdict(_largest_root_moduli(W.eigenvalues, theta.phi0, theta.phi))
    if 1.0 + theta.phi0 >= LEAD_TOL:
        top, bound = _largest_root_moduli(np.array([1.0, -1.0]), theta.phi0, theta.phi)
        if bound <= top:
            return _verdict(top)
    return _verdict(_largest_root_moduli(np.array([1.0, W.tau_min]), theta.phi0, theta.phi))


def psi_expansion(spec: ModelSpec, theta: ParameterVector, J):
    """Moving-average matrices Psi_0..Psi_J of the causal expansion.

    Psi_0 = I and Psi_j = sum_{k=1..min(j,p)} (A0^{-1} A_k) Psi_{j-k} with
    A_k = phi_k W. An inadmissible phi0 (p = 0 included) or a non-causal
    theta raises ``check_causal``'s ``ValueError`` first. Returned dense;
    intended for moderate n (the recursion is a correctness oracle, not a
    production path).
    """
    check_causal(spec, theta).require()
    n = spec.n
    psis = [np.eye(n)]
    # B_k = A0^{-1} A_k = phi_k * A0^{-1} W, built once with a block solve
    # (none for p = 0, whose Psi_j for j >= 1 are empty sums)
    A0inv_W = spec.W.a0_factor(theta.phi0).solve(spec.W.W.toarray()) if spec.p else None
    B = [theta.phi[k - 1] * A0inv_W for k in range(1, spec.p + 1)]
    for j in range(1, J + 1):
        acc = np.zeros((n, n))
        for k in range(1, min(j, spec.p) + 1):
            acc += B[k - 1] @ psis[j - k]
        psis.append(acc)
    return psis


def canonicalize(theta: ParameterVector, include_intercept):
    """Map a parameter vector to its identified representative.

    Neurons with gamma_i1 < 0 are sign-flipped using F(x) = 1 - F(-x),
    which sends (lambda_i, gamma_i) to (-lambda_i, -gamma_i) and adds
    lambda_i to the intercept beta_1; this requires an intercept column.
    Neurons are then sorted by lambda descending. The transformation leaves
    all residuals (hence the likelihood) unchanged.
    """
    out = theta.copy()
    if out.h == 0:
        return out
    flip = out.gamma[:, 0] < 0
    if np.any(flip):
        if not include_intercept:
            raise ValueError(
                "gamma_i1 < 0 cannot be canonicalized without an intercept column; "
                "report the fit as-is"
            )
        if out.beta.size == 0:
            raise ValueError("intercept shift needs a beta block (linear term)")
        out.beta[0] += out.lam[flip].sum()
        out.lam[flip] = -out.lam[flip]
        out.gamma[flip] = -out.gamma[flip]
    order = np.argsort(-out.lam, kind="stable")
    out.lam = out.lam[order]
    out.gamma = out.gamma[order]
    if np.any(out.lam == 0.0) or np.any(out.gamma[:, 0] == 0.0):
        warnings.warn(
            "degenerate neuron (lambda_i = 0 or gamma_i1 = 0); the fit is not "
            "identified in that direction",
            RuntimeWarning,
            stacklevel=2,
        )
    return out
