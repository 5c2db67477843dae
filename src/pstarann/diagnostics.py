"""
Residual and data diagnostics: Moran's I with a standardized statistic,
per-slice residual tests, QQ-plot data, and lattice heatmap grids as CSV.
The residual tests take the residual matrix a fit reports, so they form
no residuals of their own.

Moran's I for a vector v with centered e = v - mean(v) is

    I = (n / S0) * (e' W e) / (e' e),        S0 = sum_ij w_ij,

which for a row-standardized W (S0 = n) reduces to (e'We)/(e'e). The
z-statistic standardizes I under the normality null (Cliff & Ord):

    E[I]   = -1 / (n - 1)
    Var[I] = (n^2 S1 - n S2 + 3 S0^2) / ((n^2 - 1) S0^2) - E[I]^2
    S1     = (1/2) sum_ij (w_ij + w_ji)^2
    S2     = sum_i (w_i. + w_.i)^2

The normality-assumption variance (not the randomization variant) matches
the parametric-error modeling frame used everywhere else in this package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from ._csv import write_rows
from .model import ModelSpec

__all__ = ["morans_i", "residual_diagnostics", "heatmap_grid"]


def _centered(v):
    """(e, e'e) for e = v - mean(v): e'e is 0 for a constant v."""
    e = v - v.mean()
    return e, float(e @ e)


def morans_i(W, v):
    """Moran's I of an n-vector with normality-null z and two-sided p-value.

    ``W`` is a :class:`~pstarann.weights.WeightMatrix`. Returns a dict with
    keys ``I``, ``z``, ``pvalue`` (plus ``expected`` and ``variance``).
    """
    v = np.asarray(v, dtype=float).ravel()
    n = W.n
    if v.size != n:
        raise ValueError(f"vector has length {v.size}, weights have n={n}")
    e, ee = _centered(v)
    if ee <= 0.0:
        raise ValueError("Moran's I is undefined for a constant vector")

    s0, s1, s2 = W.s0, W.s1, W.s2
    I = (n / s0) * float(e @ W.W.dot(e)) / ee

    ei = -1.0 / (n - 1.0)
    var = (n * n * s1 - n * s2 + 3.0 * s0 * s0) / ((n * n - 1.0) * s0 * s0) - ei * ei
    z = (I - ei) / math.sqrt(var)
    p = 2.0 * ndtr(-abs(z))
    return {"I": I, "z": z, "pvalue": p, "expected": ei, "variance": var}


def residual_diagnostics(spec: ModelSpec, residuals):
    """Per-slice Moran tests and pooled QQ data for fitted residuals.

    ``residuals`` is the (T, n) matrix of a fit (``FitResult.residuals``).
    Returns a dict with one Moran result per time slice and pooled QQ pairs
    (theoretical quantile of the fitted density at plotting position
    (k - 1/2)/N against the sorted residual). A slice whose residuals are
    constant, as an exact fit of a constant panel leaves them, has no
    Moran's I: its ``I``, ``z`` and ``pvalue`` are None, and ``reason``
    says why. ``morans_i`` itself raises on such a vector.
    """
    per_t = []
    for t, e in enumerate(residuals, 1):
        if _centered(e)[1] <= 0.0:  # where morans_i raises
            per_t.append({"t": t, "I": None, "z": None, "pvalue": None,
                          "reason": "residuals constant in this slice: Moran's I is undefined"})
            continue
        r = morans_i(spec.W, e)
        per_t.append({"t": t, "I": r["I"], "z": r["z"], "pvalue": r["pvalue"]})
    pooled = np.sort(residuals, axis=None)
    N = pooled.size
    theo = spec.density.ppf((np.arange(1, N + 1) - 0.5) / N)
    return {"moran_per_t": per_t, "qq": np.column_stack((theo, pooled))}


def heatmap_grid(Y_t, lattice_dims, path=None):
    """Arrange a lattice slice as an (n1, n2) grid; optionally write CSV.

    Locations are assumed row-major: s = i * n2 + j. The CSV has n1 rows of
    n2 comma-separated values (no header), ready for external plotting.
    """
    if lattice_dims is None:
        raise ValueError("heatmap grids need lattice dimensions (n1, n2)")
    n1, n2 = map(int, lattice_dims)
    Y_t = np.asarray(Y_t, dtype=float).ravel()
    if Y_t.size != n1 * n2:
        raise ValueError(f"vector has length {Y_t.size}, lattice is {n1}x{n2}")
    grid = Y_t.reshape(n1, n2)
    if path is not None:
        write_rows(path, (map(repr, row) for row in grid.tolist()))
    return grid
