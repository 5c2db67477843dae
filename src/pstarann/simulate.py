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
step ``skip`` = burn_in - K, rounded down to a whole number of the path's
blocks (below) so that every retained block keeps its place. The
skipped steps still draw their innovations and covariates, in the same
order, so every later draw keeps its bits; they are neither solved nor
stored. The bound does not prove that the panel keeps its bits: that
relies on the truncated and the full trajectory coalescing in floating
point, which is observed, not guaranteed. On a random corpus of 60 causal
designs (20x20 and 13x17 lattices and a Delaunay graph of 600 points,
p = 1..3, h = 0..2, every error family, both paths, rho from 0.04 to 0.97)
every panel kept its bits at 2^-80 and at 2^-70; at 2^-60 one moved.

Rounding differences die out only where the recursion contracts them, and
rho < 1 says so only in the long run. W is row-standardized, so
||A0^{-1}||_inf <= 1 / (1 - |phi0|), and one step may grow a difference
in the max norm by up to sum |phi_i| / (1 - |phi0|). When that sum is at
least 1, no step is skipped, on either path. Without that rule, the LU
panels of a Delaunay design of 600 points with phi0 = -0.464 and
phi_1 = 0.863 (rho = 0.59, the sum 1.61) moved in 99 to 351 of 6,600
entries, by up to 1.8e-15, on each of five seeds with a cut of 64 steps:
with phi0 < 0, A0^{-1} has entries of both signs, and the differences
need not die out although rho is below 1. Other designs with sums above
1 kept their bits; the rule gives up their cut, so that their panels are
the full burn-in's by construction.

The time loop runs in blocks of steps: each block draws its innovations
and its covariates, forms its drive eps_t + X_t beta + F(X_t gamma')
lambda with one (h, block n) activation array, in the layout of the
likelihood's network rows, and is then solved step by step. A simulation
holds one block, the retained window of Y and the T sample slices of X,
which are copied out of the blocks, so its memory grows with neither the
burn-in nor the simulated steps. The innovations are not kept: the panel
is {Y_t, X_t}, as ``fit`` reads it.

The solved path (A0's sparse LU: every CLI ``simulate``, and ``replicate``
from ``weights.N_SPECTRAL`` locations on) runs ``SOLVED_BLOCK_STEPS`` = 8
steps per block; the spectral path below and ``generate_covariates`` run
``BLOCK_STEPS`` = 32, because the spectral product with Q wants the rows
(with 8-step blocks a 20x20 panel took about 12.1 ms instead of 9.4). BLAS
may round a row of the drive's products by its place in the block and by
how it splits the block among its threads, so a block size keeps the
panels' bits only where that is observed, not guaranteed. Measured with
an intercept and three normal columns, t(8) errors and h = 1, 2, 3 and 5
at n = 400, 3107, 10^4 and 29,929: under one OpenBLAS thread, 8-, 16- and
32-step blocks on the solved path gave identical panels, and 2-step
blocks moved 10 entries of one and 1 of another. Under two threads the
8-step panels were the one-thread panels in every design, while the
32-step ones at n = 29,929 moved 12 and 8 entries (h = 2 and 5) by up to
2 ulps. On the spectral path (n = 400) 8-, 16- and 32-step blocks gave
identical panels, and 4-step blocks moved about 900 of 12,400 entries.

The covariate columns share one stream, and each normal column is drawn
over all steps before the next (``generate_covariates``' order), so a
column's first simulated step is reached only after the columns before it
are drawn. One pass over the stream therefore draws, and drops, each
normal column's skipped steps, copies the generator at the column's first
simulated step, and draws past the column's remaining steps; the blocks
then draw each column's rows from its copy, and the last normal column's
from the stream itself, which ends where the whole draw leaves it. Every
covariate bit is the whole draw's. The price is a second draw of each
normal column but the last over the simulated steps.

With ``spectral=True`` the recursion runs in W's eigenbasis instead
(``WeightMatrix.eigenbasis``): each block's drive is mapped into it by one
matrix product, filtered there by n scalar AR(p) recursions, and only the
retained rows are mapped back. ``replicate`` takes this path below
``weights.N_SPECTRAL`` locations, so its panels equal those of ``simulate``
with the same draws only to about 1e-14 (1 + |y|); X and the innovations
drawn are the same bits.

Covariates are drawn i.i.d. across locations and time per column
(``normal`` with a mean/sd, or a ``constant`` intercept column), matching
the random-design reading of the experiments; a fixed design across
replicates is available by generating X once and passing it in.

A panel travels as CSV with header t,s,y,x1..xq and one line per (t, s)
cell; presample lines have t <= 0 and empty covariate fields. It is read
and written one block of ``_csv.BLOCK_ROWS`` lines at a time.
"""

from __future__ import annotations

import copy
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


# Steps whose drive is formed at once: SOLVED_BLOCK_STEPS on the solved path
# (A0's sparse LU), BLOCK_STEPS on the spectral path and in
# ``generate_covariates``. A block bounds the temporaries of a simulation,
# and of a covariate column's draw, to a few arrays of block n max(h, 1)
# entries. Which sizes keep a panel's bits is observed, not guaranteed (see
# the module docstring).
BLOCK_STEPS = 32
SOLVED_BLOCK_STEPS = 8
# Steps discarded before the retained window when the caller names none.
BURN_IN = 200
# A burn-in step whose reach into the retained window, (n + 1) times the
# AR(p) impulse bound, is at most this is drawn but not simulated (see the
# module docstring, which gives the panels that it and looser bounds moved).
SKIP_BOUND = 2.0 ** -80


def generate_covariates(columns, n, T, seed):
    """Draw a (T, n, q) covariate array, i.i.d. across s and t per column.

    ``columns`` is a sequence of per-column specs:
      {"kind": "constant", "value": 1.0}   -> intercept-style column
      {"kind": "normal", "mean": 0, "sd": 1.5}
    Each normal column is drawn over all T steps, in step order, before the
    next, from one generator (``np.random.default_rng(seed)``; a Generator
    is used as it is and ends where the draw leaves it). An empty sequence
    gives an empty (T, n, 0) array and draws nothing. The array is the
    concatenation of the blocks that ``simulate`` draws.
    """
    X = np.empty((T, n, len(columns)))
    blocks = _covariate_blocks(columns, n, T, np.random.default_rng(seed))
    for t0, block in zip(range(0, T, BLOCK_STEPS), blocks):
        X[t0:t0 + len(block)] = block
    return X


def _covariate_blocks(columns, n, T, rng, first=0, block=BLOCK_STEPS):
    """Rows ``first`` .. T - 1 of ``generate_covariates(columns, n, T, rng)``
    as an iterator of (block, n, q) blocks, the last one shorter. Each block
    is a view of one array that the next block overwrites.

    The kinds are checked, and every normal column's rows before ``first``
    drawn and dropped, before this returns. A normal column other than the
    last draws its block rows from a copy of ``rng`` taken at its row
    ``first``, and ``rng`` is then drawn past the column's remaining rows;
    the last normal column draws from ``rng`` itself. So every kept row has
    the bits of the whole draw's, and once the blocks are exhausted ``rng``
    ends where the whole draw leaves it.
    """
    if not 0 <= first <= T:
        raise ValueError(f"need 0 <= first <= T, got first = {first}, T = {T}")
    fills = []  # per column [generator, mean, sd]; a constant has no generator
    for col in columns:
        kind = col.get("kind", "normal")
        if kind == "constant":
            fills.append([None, float(col.get("value", 1.0)), 0.0])
        elif kind == "normal":
            fills.append([rng, float(col.get("mean", 0.0)), float(col.get("sd", 1.0))])
        else:
            raise ValueError(f"unknown covariate kind {kind!r}")
    normal = [fill for fill in fills if fill[0] is not None]
    buf = np.empty((min(block, T), n))

    def draw_past(rows):
        for t0 in range(0, rows, block):
            rng.standard_normal(out=buf[:min(block, rows - t0)])

    for k, fill in enumerate(normal, 1):
        draw_past(first)
        if k < len(normal):
            fill[0] = copy.deepcopy(rng)
            draw_past(T - first)
    return _drawn_blocks(fills, n, T, first, block, buf)


def _drawn_blocks(fills, n, T, first, block, buf):
    """The blocks of ``_covariate_blocks``, each column's rows drawn from its
    own generator into ``buf``."""
    X = np.empty((min(block, T - first), n, len(fills)))
    for t0 in range(first, T, block):
        Xb = X[:min(block, T - t0)]
        for j, (gen, mean, sd) in enumerate(fills):
            if gen is None:
                Xb[:, :, j] = mean
            else:
                z = gen.standard_normal(out=buf[:len(Xb)])
                z *= sd
                z += mean
                Xb[:, :, j] = z
        yield Xb


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
        How to draw X when it is not given; see :func:`generate_covariates`,
        whose array's rows the panel's X has bit for bit. The rows are drawn
        one block at a time and only the T sample slices are kept (see the
        module docstring).
    seed : int or SeedSequence
        Drives covariate and error draws through two independent substreams
        spawned from it, so output is bit-identical for identical inputs. A
        SeedSequence is copied first, so the caller's spawns no children and
        two calls with it give the same panel.
    burn_in : int
        Steps discarded before the retained window. Every step is drawn, but
        only the last K burn-in steps, rounded up to whole blocks of the
        path (``SOLVED_BLOCK_STEPS`` or, with ``spectral``, ``BLOCK_STEPS``),
        are simulated: K is the least with (n + 1) C(K + p - 1, p - 1) rho^K <=
        ``SKIP_BOUND`` = 2^-80, rho the largest causal root; none is
        skipped when sum |phi_i| >= 1 - |phi0|. The panels then keep the
        full burn-in's bits in every measured design (see the module
        docstring); that is observed, not guaranteed.
    errors : optional (burn_in + p + T, n) array
        Injected innovations, which override sampling from ``spec.density``:
        the one way to know a panel's innovations, which it does not carry
        (a residual round trip, the noiseless limit). Like ``X``, every row
        is checked and the rows before the first simulated step are not
        read.
    spectral : bool
        Run the recursion in ``spec.W.eigenbasis`` (built on first use)
        instead of solving with A0's sparse LU. The draws of ``X`` and of
        the innovations are the same bits; ``Y`` agrees with the LU path to
        about 1e-14 (1 + |y|), not bit for bit.

    Returns
    -------
    PanelData with the retained p + T response slices and the T sample
    covariate slices.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rho = check_causal(spec, theta).require().max_root_modulus

    # a caller's SeedSequence is copied, so that it spawns no children here
    ss = copy.deepcopy(seed) if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    ss_x, ss_e = ss.spawn(2)
    rng_x, rng_e = np.random.default_rng(ss_x), np.random.default_rng(ss_e)
    # one step may grow a rounding difference in the max norm by up to
    # sum |phi_i| / (1 - |phi0|) (W row-standardized): from 1 on, no step is skipped
    contracts = sum(map(abs, theta.phi)) < 1.0 - abs(theta.phi0)
    block = BLOCK_STEPS if spectral else SOLVED_BLOCK_STEPS
    skip = _skipped_steps(spec.n, spec.p, rho, burn_in, block) if contracts else 0
    if X is None:
        if T is None or (covariate_columns is None and spec.q > 0):
            raise ValueError("either X or (T, covariate_columns) must be provided")
        if T < 1:
            raise ValueError(f"need T >= 1, got T = {T}")
        if covariate_columns is not None and len(covariate_columns) != spec.q:
            raise ValueError(f"{len(covariate_columns)} covariate column specs for a "
                             f"model with q = {spec.q}")
        steps = burn_in + spec.p + T
        blocks = _covariate_blocks(covariate_columns or [], spec.n, steps, rng_x, skip, block)
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
        blocks = (X[t0:t0 + block] for t0 in range(skip, steps, block))
    # the blocks hold the covariates of steps skip .. steps - 1, block steps at a time
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
    Y = np.empty((spec.p + T, spec.n))  # steps burn_in .. steps - 1
    Xs = np.empty((T, spec.n, spec.q))  # steps lo .. steps - 1, copied out of the blocks
    lo = burn_in + spec.p
    if errors is None:  # whole blocks, drawn so that every later draw keeps its bits
        for _ in range(0, skip, block):
            spec.density.sample(rng_e, block * spec.n)
    # one buffer for every block's drive, so that the per-step views into a
    # block do not keep it alive while the next block is formed
    buf = np.empty((min(block, steps), spec.n))
    for t0, Xb in zip(range(skip, steps, block), blocks):
        t1 = min(t0 + block, steps)
        drive = buf[:t1 - t0]
        if errors is None:
            drive[...] = spec.density.sample(rng_e, drive.size).reshape(drive.shape)
        else:
            drive[...] = errors[t0:t1]
        if t1 > lo:
            Xs[max(t0 - lo, 0):t1 - lo] = Xb[max(lo - t0, 0):]

        # the exogenous drive eps_t + X_t beta + F(X_t gamma') lambda of the block
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
    return PanelData(Y=Y, X=Xs, p=spec.p)


def _skipped_steps(n, p, rho, burn_in, block):
    """The burn-in steps that ``simulate`` draws but does not simulate: burn_in
    - K rounded down to a multiple of ``block``, or 0, with K the least
    integer such that (n + 1) C(K + p - 1, p - 1) rho^K <= SKIP_BOUND, and
    K = 0 when p = 0 or rho = 0. ``block`` is the path's block,
    SOLVED_BLOCK_STEPS on the solved path and BLOCK_STEPS on the spectral
    one, so that every retained block keeps its place: at n = 3107 and
    rho = 0.5, K = 92 leaves 108 steps, a cut of 104 on the solved path and
    of 96 on the spectral one.

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
    return skip - skip % block


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


def _same_as_previous(a):
    """Whether each entry of ``a`` after the first equals the one before it."""
    return a[1:] == a[:-1]


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
    sample = t >= 1
    # a stable sort by (t, s) puts a repeated cell's lines together in file
    # order, so a line repeats an earlier one iff it equals its predecessor
    # (each sorted column is freed before the next is made)
    order = np.lexsort((s, t))
    again = np.zeros(lines.size, dtype=bool)
    again[order[1:]] = _same_as_previous(t[order]) & _same_as_previous(s[order])
    for bad, message in (
            (~np.logical_and.reduce([np.isfinite(c) for c in (y, *x)]),
             "non-finite value at line {}"),
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
    del lines, t, s, filled, sample, again  # freed before the panel is filled
    # each cell is on one line, so the lines in (t, s) order are the panel's
    # cells in order, the p n presample cells first
    Y, X = y[order].reshape(p + T, n), np.empty((T, n, q))
    for j, column in enumerate(x):
        X[:, :, j] = column[order[p * n:]].reshape(T, n)
    return PanelData(Y=Y, X=X, p=p)
