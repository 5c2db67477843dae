"""
Unit-variance error families: standard normal, scaled Student t, Laplace.

The likelihood needs three functions of a residual s besides sampling:

    log_pdf(s)   = ln f(s)
    score(s)     = f'(s) / f(s)          (d/ds ln f)
    curvature(s) = f''/f - (f'/f)^2      (d^2/ds^2 ln f)

All families are scaled to variance one. The Student t with nu degrees of
freedom is rescaled by c = sqrt((nu - 2)/nu) (finite variance needs
nu > 2), giving

    score(s)     = -(nu + 1) s / (nu - 2 + s^2)
    curvature(s) = -(nu + 1)(nu - 2 - s^2) / (nu - 2 + s^2)^2

The Laplace density uses diversity b = sqrt(2)/2 and is not differentiable
at 0; we adopt the almost-everywhere convention score(0) = 0 and
curvature = 0 everywhere. Point estimation works with that convention, but
curvature-based covariance is unavailable (see the estimator module).

``SmoothedLaplace`` is not an error family: it is the pseudo-Huber
smoothing that a Laplace fit maximizes on its way to the kink optimum
(see the estimator module). No config string names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, stdtrit

__all__ = ["ErrorDensity", "normal", "scaled_t", "laplace", "density_from_config"]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LAPLACE_B = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class ErrorDensity:
    """Immutable unit-variance error family.

    ``family`` is one of ``"normal"``, ``"scaled_t"``, ``"laplace"``;
    ``nu`` is the degrees of freedom for the scaled t (ignored otherwise).
    """

    family: str
    nu: float | None = None

    def __post_init__(self):
        if self.family not in ("normal", "scaled_t", "laplace"):
            raise ValueError(f"unknown error family {self.family!r}")
        if self.family == "scaled_t" and not (self.nu is not None and 2 < self.nu < math.inf):
            raise ValueError(f"scaled t needs a finite nu > 2 for unit variance, got nu={self.nu}")

    # ------------------------------------------------------------------

    @property
    def label(self):
        if self.family == "scaled_t":
            nu = self.nu
            return f"t:{int(nu) if float(nu).is_integer() else nu}"
        return self.family

    @property
    def t_scale(self):
        """c with eps = c * T_nu, chosen so Var(eps) = 1."""
        return math.sqrt((self.nu - 2.0) / self.nu)

    @property
    def differentiable(self):
        """Twice continuously differentiable log-density (False for Laplace)."""
        return self.family != "laplace"

    # ------------------------------------------------------------------

    def log_pdf(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "normal":
            out = -_LOG_SQRT_2PI - 0.5 * s * s
        elif self.family == "scaled_t":
            nu, c = self.nu, self.t_scale
            const = (
                math.lgamma((nu + 1.0) / 2.0)
                - math.lgamma(nu / 2.0)
                - 0.5 * math.log(nu * math.pi)
                - math.log(c)
            )
            out = const - 0.5 * (nu + 1.0) * np.log1p((s / c) ** 2 / nu)
        else:
            out = -math.log(2.0 * _LAPLACE_B) - np.abs(s) / _LAPLACE_B
        return out if out.ndim else float(out)

    def score(self, s):
        """f'(s)/f(s); for Laplace, -sign(s)/b with the convention score(0)=0."""
        s = np.asarray(s, dtype=float)
        if self.family == "normal":
            out = -s
        elif self.family == "scaled_t":
            nu = self.nu
            out = -(nu + 1.0) * s / (nu - 2.0 + s * s)
        else:
            out = -np.sign(s) / _LAPLACE_B
        return out if out.ndim else float(out)

    def curvature(self, s):
        """d^2/ds^2 ln f(s); zero everywhere for Laplace (a.e. convention)."""
        s = np.asarray(s, dtype=float)
        if self.family == "normal":
            out = np.full_like(s, -1.0)
        elif self.family == "scaled_t":
            nu = self.nu
            d = nu - 2.0 + s * s
            out = -(nu + 1.0) * (nu - 2.0 - s * s) / (d * d)
        else:
            out = np.zeros_like(s)
        return out if out.ndim else float(out)

    def sample(self, rng_seed, count):
        """``count`` i.i.d. draws; deterministic for a fixed seed or Generator.

        Successive calls on one Generator continue one stream: draws taken
        in pieces equal the same number taken at once (the simulator
        draws its innovations block by block).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = np.random.default_rng(rng_seed)
        if self.family == "normal":
            return rng.standard_normal(count)
        if self.family == "scaled_t":
            out = rng.standard_t(self.nu, size=count)
            out *= self.t_scale
            return out
        return rng.laplace(0.0, _LAPLACE_B, size=count)

    def ppf(self, u):
        """Quantile function (used for residual QQ data).

        Built from the ``scipy.special`` kernels that ``scipy.stats`` itself
        calls, so the values are the same without importing ``scipy.stats``.
        """
        u = np.asarray(u, dtype=float)
        if self.family == "normal":
            return ndtri(u)
        if self.family == "scaled_t":
            # stdtrit(nu, 0) is +inf; scipy.stats maps u = 0 to -inf itself
            return self.t_scale * np.where(u == 0.0, -np.inf, stdtrit(self.nu, u))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(u > 0.5, -np.log(2.0 * (1.0 - u)), np.log(2.0 * u)) * _LAPLACE_B


@dataclass(frozen=True)
class SmoothedLaplace:
    """Pseudo-Huber smoothing of the Laplace log-density with width ``mu`` > 0.

        log_pdf(s)   = -ln(2b) - sqrt(s^2 + mu^2) / b
        score(s)     = -s / (b sqrt(s^2 + mu^2))
        curvature(s) = -mu^2 / (b (s^2 + mu^2)^(3/2))

    It is smooth, lies below the Laplace log-density by at most mu / b, and
    tends to it as mu -> 0 (Madsen & Nielsen 1993, "A finite smoothing
    algorithm for linear l1 estimation"). It does not integrate to one, so
    it serves as an objective, never as an error family.
    """

    mu: float
    differentiable = True  # a class attribute, not a field

    def _root(self, s):
        s = np.asarray(s, dtype=float)
        return np.sqrt(s * s + self.mu * self.mu)  # np.hypot is 3-4x slower

    def log_pdf(self, s):
        return -math.log(2.0 * _LAPLACE_B) - self._root(s) / _LAPLACE_B

    def score(self, s):
        return -np.asarray(s, dtype=float) / (_LAPLACE_B * self._root(s))

    def curvature(self, s):
        r = self._root(s)
        return -self.mu * self.mu / (_LAPLACE_B * (r * r * r))


def normal():
    return ErrorDensity("normal")


def scaled_t(nu):
    return ErrorDensity("scaled_t", float(nu))


def laplace():
    return ErrorDensity("laplace")


def density_from_config(text):
    """Parse a family string: ``normal``, ``t:<nu>``, or ``laplace``."""
    text = text.strip().lower()
    if text == "normal":
        return normal()
    if text == "laplace":
        return laplace()
    if text.startswith("t:"):
        try:
            nu = float(text[2:])
        except ValueError as exc:
            raise ValueError(f"bad degrees of freedom in density spec {text!r}") from exc
        return scaled_t(nu)
    raise ValueError(f"unknown density spec {text!r}; use 'normal', 't:<nu>' or 'laplace'")
