"""
Panel generation for PSTAR-ANN(p) models.

The simulator iterates the structural recursion from zero initial
conditions,

    Y_t = A0^{-1} ( sum_{i=1..p} phi_i W Y_{t-i} + X_t beta
                    + F(X_t gamma') lambda + eps_t ),

for ``burn_in + p + T`` steps, discards the burn-in, and returns the final
p presample slices plus T sample slices. The A0 solve reuses one sparse LU
factorization across steps. The default burn-in of 200 steps comfortably
exceeds the mixing time of any design with max root modulus <= 0.7.

Covariates are drawn i.i.d. across locations and time per column
(``normal`` with a mean/sd, or a ``constant`` intercept column), matching
the random-design reading of the experiments; a fixed design across
replicates is available by generating X once and passing it in.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .model import ModelSpec, PanelData, ParameterVector, check_causal, nn_component

__all__ = [
    "generate_covariates",
    "simulate",
    "write_panel_csv",
    "read_panel_csv",
]


def generate_covariates(columns, n, T, seed):
    """Draw a (T, n, q) covariate array, i.i.d. across s and t per column.

    ``columns`` is a sequence of per-column specs:
      {"kind": "constant", "value": 1.0}   -> intercept-style column
      {"kind": "normal", "mean": 0, "sd": 1.5}
    """
    if not columns:
        raise ValueError("need at least one covariate column spec")
    rng = np.random.default_rng(seed)
    X = np.empty((T, n, len(columns)))
    for j, col in enumerate(columns):
        kind = col.get("kind", "normal")
        if kind == "constant":
            X[:, :, j] = float(col.get("value", 1.0))
        elif kind == "normal":
            mean = float(col.get("mean", 0.0))
            sd = float(col.get("sd", 1.0))
            X[:, :, j] = mean + sd * rng.standard_normal((T, n))
        else:
            raise ValueError(f"unknown covariate kind {kind!r}")
    return X


def simulate(spec: ModelSpec, theta: ParameterVector, X=None, seed=0, burn_in=200,
             T=None, covariate_columns=None, errors=None):
    """Generate a PanelData panel from causal parameters.

    Parameters
    ----------
    spec, theta : model specification and (causal) parameters.
    X : optional (burn_in + p + T, n, q) array
        Explicit covariates for every step. When omitted, ``T`` and
        ``covariate_columns`` must be given and covariates are drawn.
    seed : int or SeedSequence
        Drives covariate and error draws through two independent substreams
        spawned from it, so output is bit-identical for identical inputs.
    burn_in : int
        Steps discarded before the retained window.
    errors : optional (burn_in + p + T, n) array
        Injected innovations (testing hook, e.g. the noiseless limit);
        overrides sampling from ``spec.density``.

    Returns
    -------
    PanelData with the retained p + T response slices, the T sample
    covariate slices, and ``eps`` holding the innovations of the sample
    window.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    check_causal(spec, theta).require()

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss_x, ss_e = ss.spawn(2)
    rng_x, rng_e = np.random.default_rng(ss_x), np.random.default_rng(ss_e)
    if X is None:
        if T is None or (covariate_columns is None and spec.q > 0):
            raise ValueError("either X or (T, covariate_columns) must be provided")
        steps = burn_in + spec.p + T
        if spec.q == 0:
            X = np.zeros((steps, spec.n, 0))
        else:
            X = generate_covariates(covariate_columns, spec.n, steps, rng_x)
    else:
        X = np.asarray(X, dtype=float)
        steps = X.shape[0]
        if T is not None and steps != burn_in + spec.p + T:
            raise ValueError(
                f"X supplies {steps} steps but burn_in + p + T = {burn_in + spec.p + T}"
            )
        T = steps - burn_in - spec.p
        if T < 1:
            raise ValueError("X must cover burn_in + p + T steps with T >= 1")
        if X.shape[1] != spec.n or X.shape[2] != spec.q:
            raise ValueError(f"X has shape {X.shape}, expected ({steps}, {spec.n}, {spec.q})")

    if errors is None:
        eps = spec.density.sample(rng_e, steps * spec.n).reshape(steps, spec.n)
    else:
        eps = np.asarray(errors, dtype=float)
        if eps.shape != (steps, spec.n):
            raise ValueError(f"errors have shape {eps.shape}, expected ({steps}, {spec.n})")

    # the exogenous drive eps_t + X_t beta + F(X_t gamma') lambda of every step
    drive = eps.copy()
    if spec.n_beta:
        drive += X @ theta.beta
    drive += nn_component(X, theta.lam, theta.gamma)

    lu = spec.W.a0_factor(theta.phi0)
    W = spec.W.W
    lags = [np.zeros(spec.n) for _ in range(spec.p)]  # W Y_{t-1}, ..., W Y_{t-p}
    Y = np.empty((steps, spec.n))
    for t in range(steps):
        rhs = drive[t].copy()
        for i in range(spec.p):
            rhs += theta.phi[i] * lags[i]
        y = lu.solve(rhs)
        Y[t] = y
        if spec.p:
            lags = [W.dot(y)] + lags[:-1]

    keep = burn_in
    return PanelData(
        Y=Y[keep:],
        X=X[keep + spec.p:],
        p=spec.p,
        eps=eps[keep + spec.p:].copy(),
    )


# ----------------------------------------------------------------------
# Panel CSV wire format: header t,s,y,x1..xq; presample rows have t <= 0
# and empty covariate fields.
# ----------------------------------------------------------------------

def write_panel_csv(path, data: PanelData):
    """Write a panel to CSV with schema ``t,s,y,x1..xq``."""
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


def read_panel_csv(path, p, q):
    """Load a panel written by :func:`write_panel_csv`.

    Raises ValueError naming the offending row on malformed input: a value
    that does not parse or is not finite, an empty covariate field on a
    sample row, a covariate value on a presample row, or a (t, s) pair that
    an earlier row already gave.
    """
    rows = []
    seen = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["t", "s", "y"] + [f"x{j}" for j in range(1, q + 1)]
        if header is None or [c.strip() for c in header] != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3 + q:
                raise ValueError(f"{path}: row {lineno} has {len(row)} fields, expected {3 + q}")
            try:
                t, s, y = int(row[0]), int(row[1]), float(row[2])
                xs = [float(v) for v in row[3:] if v.strip()]
            except ValueError as exc:
                raise ValueError(f"{path}: malformed value at row {lineno}") from exc
            if not (math.isfinite(y) and all(map(math.isfinite, xs))):
                raise ValueError(f"{path}: non-finite value at row {lineno}")
            if t >= 1 and len(xs) != q:
                raise ValueError(f"{path}: empty covariate field at row {lineno}")
            if t < 1 and xs:
                raise ValueError(
                    f"{path}: covariate value on presample row {lineno} (t={t}); "
                    "presample rows carry y only"
                )
            first = seen.setdefault((t, s), lineno)
            if first != lineno:
                raise ValueError(
                    f"{path}: row {lineno} repeats (t, s) = ({t}, {s}) of row {first}"
                )
            rows.append((t, s, y, xs))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    ts = sorted({r[0] for r in rows})
    ss = sorted({r[1] for r in rows})
    n = len(ss)
    if ss != list(range(n)):
        raise ValueError(f"{path}: location ids must be 0..n-1")
    t_min, t_max = ts[0], ts[-1]
    if t_min != 1 - p:
        raise ValueError(f"{path}: presample starts at t={t_min}, expected {1 - p}")
    if ts != list(range(t_min, t_max + 1)):
        raise ValueError(f"{path}: time index has gaps")
    T = t_max

    Y = np.full((p + T, n), np.nan)
    X = np.empty((T, n, q))
    for t, s, y, xs in rows:
        Y[t + p - 1, s] = y
        if t >= 1:
            X[t - 1, s, :] = xs
    # every row is finite and (t, s) pairs are unique, so a NaN is a missing cell
    if np.isnan(Y).any():
        raise ValueError(f"{path}: missing (t, s) cells in the panel")
    return PanelData(Y=Y, X=X, p=p)
