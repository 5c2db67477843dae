"""
Panel generation for PSTAR-ANN(p) models.

The simulator iterates the structural recursion from zero initial
conditions,

    Y_t = A0^{-1} ( sum_{i=1..p} phi_i W Y_{t-i} + X_t beta
                    + F(X_t gamma') lambda + eps_t ),

over ``burn_in + p + T`` steps, discards the burn-in, and returns the final
p presample slices plus T sample slices. The A0 solve reuses one sparse LU
factorization across steps. The default burn-in, ``BURN_IN`` = 200 steps,
comfortably exceeds the mixing time of any design with max root modulus
<= 0.7.

The recursion forgets its zero start geometrically, at the rate of its
largest causal root rho (``check_causal``'s ``max_root_modulus``): the
impulse response of an AR(p) filter whose roots lie in |z| <= rho is
bounded by C(K + p - 1, p - 1) rho^K after K steps. So only the last K
burn-in steps are simulated, K the least with

    (n + 1) C(K + p - 1, p - 1) rho^K <= SKIP_BOUND = 2^-80

(K = 0 when p = 0 or rho = 0), and the recursion starts from zero lags at
step ``skip`` = burn_in - K, rounded down to a whole number of
``BLOCK_STEPS`` blocks so that every retained block keeps its place. The
skipped steps still draw their innovations and covariates, in the same
order, so every later draw keeps its bits; they are neither solved nor
stored. The bound does not prove that the panel keeps its bits: that
relies on the truncated and the full trajectory coalescing in floating
point, which is observed, not guaranteed. On a random corpus of 60 causal
designs (20x20 and 13x17 lattices and a Delaunay graph of 600 points,
p = 1..3, h = 0..2, every error family, both paths, rho from 0.04 to 0.97)
every panel kept its bits at 2^-80 and at 2^-70; at 2^-60 one moved. A
second such corpus kept 59 of 60 at 2^-80: the LU panel of a Delaunay
design with phi0 = -0.46 and phi_1 = 0.86 (rho = 0.59) moved by 6.1e-16
(1 + |y|). With phi0 < 0, A0^{-1} has entries of both signs, and rounding
differences need not die out when sum |phi_i| / (1 - |phi0|) exceeds 1
(1.61 there), although rho is below 1: of 30 LU designs drawn with
phi0 < 0, rho <= 0.69 and that sum above 1, two moved, by up to 4.2e-16.

The time loop runs in blocks of ``BLOCK_STEPS`` steps: each block draws
its innovations, forms its drive eps_t + X_t beta + F(X_t gamma') lambda
with one (h, block n) activation array, in the layout of the likelihood's
network rows, and is then solved step by step. Besides the covariates of
the simulated steps, a simulation holds one block and the retained window
of Y and eps, so its memory does not grow with the burn-in beyond X. X
stays whole over the simulated steps because each column is drawn over all
steps before the next column; drawing it block by block would reorder the
draws and change every panel of a seed.

With ``spectral=True`` the recursion runs in W's eigenbasis instead
(``WeightMatrix.eigenbasis``): each block's drive is mapped into it by one
matrix product, filtered there by n scalar AR(p) recursions, and only the
retained rows are mapped back. ``replicate`` takes this path below
``weights.N_SPECTRAL`` locations, so its panels equal those of ``simulate``
with the same draws only to about 1e-14 (1 + |y|); X and the innovations
are the same bits.

Covariates are drawn i.i.d. across locations and time per column
(``normal`` with a mean/sd, or a ``constant`` intercept column), matching
the random-design reading of the experiments; a fixed design across
replicates is available by generating X once and passing it in.

A panel travels as CSV with header t,s,y,x1..xq and one line per (t, s)
cell; presample lines have t <= 0 and empty covariate fields. It is read
and written one block of ``_csv.BLOCK_ROWS`` lines at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, repeat, starmap

import numpy as np

from ._csv import read_columns, row_blocks, write_rows
from .model import ModelSpec, PanelData, ParameterVector, check_causal, sigmoid

__all__ = [
    "generate_covariates",
    "simulate",
    "write_panel_csv",
    "read_panel_csv",
]


# Steps whose drive is formed at once. It bounds the temporaries of a
# simulation, and of a covariate column's draw, to a few arrays of
# BLOCK_STEPS n max(h, 1) entries. The panels depend on it only in the last
# bits, where BLAS rounds the lambda contraction of a row by its place in
# the block.
BLOCK_STEPS = 32
# Steps discarded before the retained window when the caller names none.
BURN_IN = 200
# A burn-in step whose reach into the retained window, (n + 1) times the
# AR(p) impulse bound, is at most this is drawn but not simulated (see the
# module docstring, which gives the panels that it and looser bounds moved).
SKIP_BOUND = 2.0 ** -80


def generate_covariates(columns, n, T, seed, first=0):
    """Draw a (T, n, q) covariate array, i.i.d. across s and t per column,
    and return its rows ``first`` .. T - 1.

    ``columns`` is a sequence of per-column specs:
      {"kind": "constant", "value": 1.0}   -> intercept-style column
      {"kind": "normal", "mean": 0, "sd": 1.5}
    An empty sequence gives an empty (T - first, n, 0) array and draws
    nothing. Every step is drawn whatever ``first`` is, so the kept rows
    are the bits of the full draw's and the generator ends where the full
    draw leaves it.
    """
    if not 0 <= first <= T:
        raise ValueError(f"need 0 <= first <= T, got first = {first}, T = {T}")
    rng = np.random.default_rng(seed)
    X = np.empty((T - first, n, len(columns)))
    buf = np.empty((min(BLOCK_STEPS, T), n))
    for j, col in enumerate(columns):
        kind = col.get("kind", "normal")
        if kind == "constant":
            X[:, :, j] = float(col.get("value", 1.0))
        elif kind == "normal":
            mean = float(col.get("mean", 0.0))
            sd = float(col.get("sd", 1.0))
            # the column's draws in time order, as one (T, n) draw would give them
            for t0 in range(0, T, BLOCK_STEPS):
                t1 = min(t0 + BLOCK_STEPS, T)
                z = rng.standard_normal(out=buf[:t1 - t0])
                if t1 > first:
                    z = z[max(first - t0, 0):]
                    z *= sd
                    z += mean
                    X[max(t0 - first, 0):t1 - first, :, j] = z
        else:
            raise ValueError(f"unknown covariate kind {kind!r}")
    return X


def simulate(spec: ModelSpec, theta: ParameterVector, X=None, seed=0, burn_in=BURN_IN,
             T=None, covariate_columns=None, errors=None, spectral=False):
    """Generate a PanelData panel from causal parameters.

    Parameters
    ----------
    spec, theta : model specification and (causal) parameters.
    X : optional (burn_in + p + T, n, q) array
        Explicit covariates for every step; rows before the first simulated
        step are checked but not read. When omitted, ``T`` and
        ``covariate_columns`` must be given and covariates are drawn.
    T : int >= 1
        Sample slices to keep after the burn-in and the p presample slices.
    covariate_columns : sequence of q column specs
        How to draw X when it is not given; see :func:`generate_covariates`.
    seed : int or SeedSequence
        Drives covariate and error draws through two independent substreams
        spawned from it, so output is bit-identical for identical inputs.
    burn_in : int
        Steps discarded before the retained window. Every step is drawn, but
        only the last K burn-in steps, rounded up to whole blocks, are
        simulated: K is the least with (n + 1) C(K + p - 1, p - 1) rho^K <=
        ``SKIP_BOUND`` = 2^-80, rho the largest causal root. The panels
        then keep the full burn-in's bits in all but a few measured designs
        (see the module docstring); that is observed, not guaranteed.
    errors : optional (burn_in + p + T, n) array
        Injected innovations (testing hook, e.g. the noiseless limit);
        overrides sampling from ``spec.density``. Like ``X``, every row is
        checked and the rows before the first simulated step are not read.
    spectral : bool
        Run the recursion in ``spec.W.eigenbasis`` (built on first use)
        instead of solving with A0's sparse LU. The draws, ``X`` and ``eps``
        are the same bits; ``Y`` agrees with the LU path to about 1e-14
        (1 + |y|), not bit for bit.

    Returns
    -------
    PanelData with the retained p + T response slices, the T sample
    covariate slices, and ``eps`` holding the innovations of the sample
    window.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rho = check_causal(spec, theta).require().max_root_modulus

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss_x, ss_e = ss.spawn(2)
    rng_x, rng_e = np.random.default_rng(ss_x), np.random.default_rng(ss_e)
    skip = _skipped_steps(spec.n, spec.p, rho, burn_in)
    if X is None:
        if T is None or (covariate_columns is None and spec.q > 0):
            raise ValueError("either X or (T, covariate_columns) must be provided")
        if T < 1:
            raise ValueError(f"need T >= 1, got T = {T}")
        if covariate_columns is not None and len(covariate_columns) != spec.q:
            raise ValueError(f"{len(covariate_columns)} covariate column specs for a "
                             f"model with q = {spec.q}")
        steps = burn_in + spec.p + T
        X = generate_covariates(covariate_columns or [], spec.n, steps, rng_x, first=skip)
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
        _require_finite("X", X)
        X = X[skip:]
    # X[t - skip] holds the covariates of step t
    if errors is not None:
        errors = np.asarray(errors, dtype=float)
        if errors.shape != (steps, spec.n):
            raise ValueError(f"errors have shape {errors.shape}, expected ({steps}, {spec.n})")
        _require_finite("errors", errors)

    if spectral:
        # z_t = Q^T D^{1/2} y_t obeys z_t = g (c_t + sum_i phi_i tau z_{t-i}),
        # g = 1 / (1 - phi0 tau), c_t = Q^T D^{1/2} (the drive of step t)
        tau, Q, root = spec.W.eigenbasis
        gain = 1.0 / (1.0 - theta.phi0 * tau)
        coef = [phi * tau * gain for phi in theta.phi]
    else:
        lu = spec.W.a0_factor(theta.phi0)
        W = spec.W.W
        coef = theta.phi
    # W Y_{t-1}, ..., W Y_{t-p}, or z_{t-1}, ..., z_{t-p} in the eigenbasis
    lags = [np.zeros(spec.n) for _ in range(spec.p)]
    first = burn_in + spec.p  # the first step of the sample window
    Y = np.empty((spec.p + T, spec.n))  # steps burn_in .. steps - 1
    eps = np.empty((T, spec.n))  # steps first .. steps - 1
    # one buffer for every block's drive, so that the per-step views into a
    # block do not keep it alive while the next block is formed
    buf = np.empty((min(BLOCK_STEPS, steps), spec.n))
    for t0 in range(0, steps, BLOCK_STEPS):
        t1 = min(t0 + BLOCK_STEPS, steps)
        drive = buf[:t1 - t0]
        if t0 < skip:  # a whole block, drawn so that every later draw keeps its bits
            if errors is None:
                spec.density.sample(rng_e, drive.size)
            continue
        if errors is None:
            drive[...] = spec.density.sample(rng_e, drive.size).reshape(drive.shape)
        else:
            drive[...] = errors[t0:t1]
        if t1 > first:
            eps[max(t0 - first, 0):t1 - first] = drive[max(first - t0, 0):]

        # the exogenous drive eps_t + X_t beta + F(X_t gamma') lambda of the block
        Xb = X[t0 - skip:t1 - skip]
        if spec.n_beta:
            drive += Xb @ theta.beta
        if spec.h:
            # F in the (h, m) layout of the likelihood's network rows, with Xt
            # the (q, m) transposed view of the block's m = (t1 - t0) n rows
            Xt = Xb.reshape(-1, spec.q).T
            drive += (theta.lam @ _activations(theta.gamma, Xt)).reshape(drive.shape)
        if spectral:
            drive = (drive * root) @ Q
            drive *= gain
        for t, v in enumerate(drive, t0):
            for i in range(spec.p):
                v += coef[i] * lags[i]
            if not spectral:
                v = lu.solve(v)
            if t >= burn_in:
                Y[t - burn_in] = v
            if spec.p:
                lags = [v if spectral else W.dot(v)] + lags[:-1]

    if spectral:
        Y = (Y @ Q.T) / root
    # a copy, so that the panel does not keep the simulated steps' covariates alive
    return PanelData(Y=Y, X=X[first - skip:].copy(), p=spec.p, eps=eps)


def _skipped_steps(n, p, rho, burn_in):
    """The burn-in steps that ``simulate`` draws but does not simulate: burn_in
    - K rounded down to a multiple of BLOCK_STEPS, or 0, with K the least
    integer such that (n + 1) C(K + p - 1, p - 1) rho^K <= SKIP_BOUND, and
    K = 0 when p = 0 or rho = 0.

    The log of C(K + p - 1, p - 1) rho^K is 0 at K = 0, above the log of
    the bound, and concave in K (its steps log((K + p) / (K + 1)) + log(rho)
    decrease), so the test is false below K and true from K on. K is found
    by bisection over 0 .. burn_in: as rho nears 1 - CAUSAL_MARGIN, K grows
    without a useful bound.
    """
    if p == 0 or rho == 0.0:
        reach = 0
    else:
        log_bound = math.log(SKIP_BOUND / (n + 1))
        log_rho = math.log(rho)
        reach = bisect_left(range(burn_in), True, key=lambda k: (
            math.lgamma(k + p) - math.lgamma(k + 1) - math.lgamma(p) + k * log_rho <= log_bound))
    skip = burn_in - reach  # reach <= burn_in
    return skip - skip % BLOCK_STEPS


def _require_finite(name, a):
    """Raise ValueError naming the first non-finite entry of a supplied
    (steps, n[, q]) input, skipped steps included."""
    bad = ~np.isfinite(a)
    if bad.any():
        t, s, *j = np.unravel_index(np.argmax(bad), a.shape)
        column = f", covariate {j[0]}" if j else ""
        raise ValueError(f"{name} is not finite at step {t}, location {s}{column}")


def _activations(gamma, Xt):
    """sigmoid(gamma Xt). An argument that overflows raises ValueError naming
    theta.gamma: the sigmoid would saturate and the panel look finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        arg = gamma @ Xt
    if not np.isfinite(arg).all():
        raise ValueError("theta.gamma: the network argument gamma x is not finite; "
                         "gamma is too large for the covariates")
    return sigmoid(arg)


def _panel_header(q):
    return ["t", "s", "y"] + [f"x{j}" for j in range(1, q + 1)]


def write_panel_csv(path, data: PanelData):
    """Write a panel to CSV with schema ``t,s,y,x1..xq``, formatting one block
    of lines at a time (``_csv.BLOCK_ROWS``)."""
    p, n, q = data.p, data.n, data.q
    y, x = data.Y.reshape(-1), data.X.reshape(data.T * n, q)
    pre = p * n  # presample lines, whose covariate fields are empty

    def block(r0, r1):
        r = np.arange(r0, r1)
        xa, xb = max(r0 - pre, 0), max(r1 - pre, 0)
        columns = [map(str, (r // n + 1 - p).tolist()), map(str, (r % n).tolist()),
                   map(repr, y[r0:r1].tolist())]
        columns += [chain(repeat("", r1 - r0 - (xb - xa)), map(repr, c))
                    for c in x[xa:xb].T.tolist()]
        return zip(*columns)

    blocks = starmap(block, row_blocks(y.size))
    write_rows(path, chain([_panel_header(q)], chain.from_iterable(blocks)))


def read_panel_csv(path, p, q):
    """Load a panel written by :func:`write_panel_csv`.

    Raises ValueError on malformed input, naming the first offending line of
    the first check to fail, in this order: field count, a value that does
    not parse, a non-finite value, an empty covariate on a sample row, a
    covariate on a presample row, a (t, s) pair an earlier line gave.
    """
    lines, (t, s, y, *x), filled = read_columns(path, _panel_header(q),
                                                [np.int64, np.int64, float] + [float] * q, blank=q)
    x = np.column_stack(x) if q else np.zeros((lines.size, 0))  # presample rows leave x empty
    sample = t >= 1
    # a stable sort by (t, s) puts a repeated cell's lines together in file
    # order, so a line repeats an earlier one iff it equals its predecessor
    order = np.lexsort((s, t))
    t_sorted, s_sorted = t[order], s[order]
    again = np.zeros(lines.size, dtype=bool)
    again[order[1:]] = (t_sorted[1:] == t_sorted[:-1]) & (s_sorted[1:] == s_sorted[:-1])
    for bad, message in (
            (~(np.isfinite(y) & np.isfinite(x).all(axis=1)), "non-finite value at line {}"),
            (sample & ~filled.all(axis=1), "empty covariate field at line {}"),
            (~sample & filled.any(axis=1), "covariate value on presample line {} (t={t}); "
                                           "presample rows carry y only"),
            (again, "line {} repeats (t, s) = ({t}, {s}) of line {first}")):
        if bad.any():
            k = int(np.argmax(bad))
            first = lines[np.argmax((t == t[k]) & (s == s[k]))]
            raise ValueError(f"{path}: " + message.format(lines[k], t=t[k], s=s[k], first=first))
    if not sample.any():
        raise ValueError(f"{path}: no data rows with t >= 1")

    ts, ss = np.unique(t), np.unique(s)
    n, T = ss.size, int(ts[-1])
    if ss[0] != 0 or ss[-1] != n - 1:
        raise ValueError(f"{path}: location ids must be 0..n-1")
    if ts[0] != 1 - p:
        raise ValueError(f"{path}: presample starts at t={ts[0]}, expected {1 - p}")
    if ts.size != p + T:
        raise ValueError(f"{path}: time index has gaps")
    # the (t, s) pairs are unique and in range, so fewer rows leave a cell empty
    if lines.size != n * (p + T):
        raise ValueError(f"{path}: missing (t, s) cells in the panel")
    Y, X = np.empty((p + T, n)), np.empty((T, n, q))
    Y[t + p - 1, s] = y
    X[t[sample] - 1, s[sample]] = x[sample]
    return PanelData(Y=Y, X=X, p=p)
