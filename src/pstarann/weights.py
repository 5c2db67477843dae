"""
Spatial weight matrices and the contemporaneous spatial operator.

A weight matrix W encodes neighbor influence between n locations. We build
it from a symmetric binary adjacency (queen contiguity on a lattice, or an
edge list given as pairs or as an ``i,j`` CSV file), zero the diagonal, and
row-standardize so every row sums to 1. The contemporaneous operator is

    A0 = I - phi0 * W

and W enters the likelihood only through one scalar function of phi0 and
its first two derivatives:

    f(phi0)   = ln|A0|             = sum_i ln(1 - phi0 * tau_i)
    -f'(phi0) = tr(W A0^{-1})      = sum_i tau_i / (1 - phi0 * tau_i)
    -f''(phi0)= tr((W A0^{-1})^2)  = sum_i tau_i^2 / (1 - phi0 * tau_i)^2

where tau_1 >= ... >= tau_n are the eigenvalues of W. Because W comes from
a symmetric adjacency A with degree matrix D, W = D^{-1} A is similar to
the symmetric matrix S = D^{-1/2} A D^{-1/2}, so its spectrum is real and
A0 is similar to I - phi0 S, which is symmetric positive definite for
|phi0| < 1.

Two backends compute f, f' and f''. Both are built lazily, on the first
log-determinant or trace (which only a likelihood needs), and cached for
the life of the WeightMatrix; ``log_det_record`` reports the backend, its
build time, the series pieces built and the node LUs they took.

- The spectrum (Ord's device): a dense symmetric eigensolve of S, after
  which every evaluation is O(n). It costs O(n^3) time and n^2 memory, and
  serves n < N_SERIES and any |phi0| > SERIES_PHI0_MAX. On a lattice, S is
  unchanged when either axis is reversed (J1 S J1 = J2 S J2 = S for the
  reversal permutations J1, J2 of row-major order), so it commutes with
  both and is block diagonal in a basis of their common eigenvectors, the
  Kronecker products of each axis' even and odd vectors (a symmetry-
  adapted basis; Fässler & Stiefel 1992). Each of the up to four blocks,
  of about n/4 rows, is solved on its own, for 1/16 of the flops of one
  solve of S. A W without that symmetry, every edge-list design among
  them, is the one-block case: its basis is the identity, and the block
  is S itself.
- The series (``LogDetSeries``): for n >= N_SERIES and
  |phi0| <= SERIES_PHI0_MAX. In x = atanh(phi0), f is analytic in the
  strip |Im x| < pi/2 whatever the spectrum, so a Chebyshev series
  converges geometrically at a rate that does not depend on n (Trefethen
  2013, ch. 8). It has four pieces, phi0 in [-0.995, -0.905),
  [-0.905, 0), [0, 0.905) and [0.905, 0.995], and each is built on its
  first evaluation from SERIES_NODES[piece] sparse LUs of I - z S, at
  complex z on the upper half of a Bernstein ellipse about the piece's
  x interval: 17 for an inner piece, 20 for an outer one. Each LU gives
  the complex value of ln det(I - z S), so M of them give the 2M
  Chebyshev coefficients of a series of f (Bornemann 2011). Every node
  shares the pattern of I - S, and a fill-reducing ordering reads only
  the pattern, so one real LU of I - S/2, made with the series, chooses a
  symmetric ordering; I - S is renumbered by it once, and every node is
  factored in NATURAL order on that pattern by one node routine. A fit
  whose phi0 stay in [0, 0.905), as the start grid's do, builds only the
  inner positive piece: 17 complex LUs in all. No dense n x n matrix is
  formed; once a piece is built, an evaluation on it costs O(1).

Simulation and the causality check for p <= 2 need only the ends of the
spectrum. The largest eigenvalue of W is exactly 1 (Perron-Frobenius: W
is nonnegative with unit row sums). The smallest comes from a Lanczos
iteration (ARPACK) on the sparse S, which costs milliseconds where the
dense spectrum costs seconds. The check reads it only when the bound
tau_min >= -1 leaves the result open (``model.check_causal``): never for
p = 1 with phi0 >= 0.

A0 is strictly row diagonally dominant, hence invertible, whenever
|phi0| < 1 / max_i |tau_i| = 1. Linear solves with A0 use the package's one
sparse LU (``_splu``): diagonal pivots in SuperLU's symmetric mode, here in
the minimum-degree ordering of A0's pattern (MMD on A0 + A0^T). The A0
factor is not checked; ``a0_factor`` says why its pivots cannot fail, and
neither is the series' ordering LU, of which only the ordering is read. The
series' nodes are checked (``LogDetSeries._node``), since the log of their
pivots needs each to have a positive real part.

A sparse factor lives only inside the call that uses it. The one
exception is the A0 factor that ``a0_factor`` hands to ``simulate`` and
``psi_expansion`` for their solves. Nothing reads its pivots, so it
carries only SuperLU's native L and U: reading ``lu.U`` would build CSC
copies of L and U that live as long as the factor (102 MiB for model 1's
A0 at 316x316, where ``simulate``'s whole traced peak is 107 MiB without
them). The series keeps no factor, while it is built or after; its nodes
read their pivots, so each node's copies live only inside its call. What
a caller keeps of a SuperLU object must own its data: ``perm_c`` and
``perm_r`` are views whose ``.base`` is the factor, and one kept alive
keeps the whole factor (its native L and U and any CSC copies that
``.U`` cached) alive with it. The series therefore copies the ordering
out of its ordering LU, and that factor is freed before the pattern is
renumbered: a kept view would hold it while the pattern was allocated
above it, and the pattern would then pin the top of the heap (ROADMAP
item 8).

Only ``eigenbasis`` materializes eigenvectors: S = Q diag(tau) Q^T gives
W = D^{-1/2} Q diag(tau) Q^T D^{1/2}, so in the coordinates
z = Q^T D^{1/2} y the recursion of a simulation becomes n scalar AR(p)
filters (``simulate(..., spectral=True)``). For one panel the basis
costs about twice what it saves on an edge-list design and about breaks
even on a lattice, so only ``replicate`` takes it, below N_SPECTRAL
locations. Once it is built, ``eigenvalues`` is its tau, so
the log-det reads the same spectrum and no second solve is made.
"""

from __future__ import annotations

import bisect
import math
import time
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Chebyshev

from ._csv import read_columns

__all__ = [
    "LogDetSeries",
    "NumericalError",
    "WeightMatrix",
    "build_queen_lattice",
    "from_adjacency",
    "read_adjacency_csv",
]

# Row sums of W must hit 1 to this tolerance.
ROW_SUM_TOL = 1e-12
# The spectrum of W may exceed 1 in modulus by this much.
SPECTRUM_TOL = 1e-10
# From this many locations on, the log-det and traces come from the series.
# It was set where the series' full build of that time (all four pieces,
# 96 sparse LUs in one ordering; 74 now) and the dense eigensolve crossed:
# about 0.35 s each on a Delaunay design at n = 1400 with one BLAS thread.
# One piece, all that a fit in 0 <= phi0 < 0.905 builds, then took 24 LUs
# (17 now) and beat the eigensolve from about n = 750; the threshold is not
# moved, since that changes the fits of every n it crosses.
N_SERIES = 1400
# Below this many locations, ``replicate`` simulates its panels in the
# eigenbasis of W. Model 1 (p = 1, T = 30, burn-in 200), one BLAS thread,
# 2 shared vCPUs. On queen lattices, min of 5 to 9: the basis, from its
# reflection blocks, takes 8-9 ms at n = 400 and a panel falls from 25 to
# 11 ms, draws included; at n = 625, 17 ms and 36 to 19 ms; at n = 900,
# 24-34 ms and 48 to 32 ms; at n = 1369, 61-83 ms and 72 to 62 ms. A whole
# ``replicate --threads 1``, min / median of 7 alternating runs, basis
# against LU: a gain on the 20x20 lattice (R = 3: 111 / 118 against
# 129 / 136 ms; R = 2: 80 / 84 against 94 / 98 ms) and a wash on Delaunay
# edge lists, whose basis is one solve of S (n = 400, R = 3: 160 / 186
# against 155 / 200 ms; n = 499, R = 3: 157 / 162 against 156 / 163 ms,
# R = 2: 119 / 128 against 113 / 122 ms). The log-det then reads the
# basis' tau, so no values-only solve is made. The threshold was set when
# one solve of S took 21 ms at n = 400 (62 ms at n = 625); moving it
# would change the panels of every n it crosses.
N_SPECTRAL = 500
# The series covers |phi0| <= SERIES_PHI0_MAX, the default phi0 search box.
SERIES_PHI0_MAX = 0.995
# Each piece of the series: M = SERIES_NODES[piece] complex LUs on the
# upper half of the Bernstein ellipse of parameter rho0 = SERIES_RHO[piece]
# about the piece's x interval, keyed as in ``LogDetSeries.PIECES``. The
# outer pieces take the larger ellipse: near |phi0| = 0.995, f'' =
# f_xx / (1 - phi0^2)^2 + ... magnifies the samples' rounding about 1e4 times.
# On the inner pieces rho0 = 1.7 leaves a truncation error in f' near
# phi0 = 0 that rho0 = 1.5 does not (``LogDetSeries``).
SERIES_NODES = {"negative-outer": 20, "negative-inner": 17, "positive-inner": 17,
                "positive-outer": 20}
SERIES_RHO = {"negative-outer": 2.0, "negative-inner": 1.5, "positive-inner": 1.5,
              "positive-outer": 2.0}


class NumericalError(RuntimeError):
    """Raised when a numerical self-check fails: here a series node's sparse
    LU that left its symmetric ordering or met a pivot whose real part is
    not positive, in ``likelihood`` a non-finite or asymmetric Hessian, in
    ``estimate`` a covariance matrix that is not finite or not positive
    definite. ``estimate.FitError``, a fit that ends without an estimate,
    is one."""


class LogDetSeries:
    """f(phi0) = ln|I - phi0 S| and its first two derivatives from one
    Chebyshev series per piece, for symmetric S with spectrum in [-1, 1].

    In x = atanh(phi0), [-a, a] with a = atanh(SERIES_PHI0_MAX) is split
    into ``PIECES``, in x order, at x = -a/2, 0 and a/2 (phi0 = -0.905, 0
    and 0.905). On a piece of midpoint m and half-width r, g(t) =
    ln det(I - z S) with z = tanh(m + r t) is analytic wherever
    |Im(m + r t)| < pi/2, and real for real t. The piece samples g at
    M = SERIES_NODES[piece] points on the upper half of the Bernstein
    ellipse of parameter rho0 = SERIES_RHO[piece]: t_j = (w_j + 1/w_j) / 2,
    w_j = rho0 e^{i theta_j}, theta_j = pi (j + 1/2) / M. A sample is one
    complex number, so M samples give the 2M coefficients of a series of
    degree 2M - 1 (``_ellipse_coefficients``), and the samples' rounding
    reaches c_k divided by rho0^k, which keeps the series' derivatives
    accurate (Trefethen 2013, ch. 8; Bornemann 2011). Then, with f_x and
    f_xx the x-derivatives of the series f,

        f'  = f_x / (1 - phi0^2),
        f'' = (f_xx / (1 - phi0^2) + 2 phi0 f') / (1 - phi0^2),

    so f' and f'' are the exact derivatives of the f that is returned. An
    inner piece's f is shifted to f(0) = 0; an outer piece's f to its
    inner neighbour's value at their seam, so f is continuous at every seam.
    Worst error against the spectrum at 2001 phi0 over |phi0| <= 0.995,
    relative to 1 + |value|, on queen 20x20 and 42x42 lattices and Delaunay
    designs of n = 1000 and 3107:

        layout (LUs per inner / outer piece)      f        f'       f''
        ellipses, rho0 1.5 / 2.0 (17 / 20)      3.0e-14  1.6e-13  5.2e-11
        ellipses, rho0 1.7 / 2.0 (17 / 20)      4.0e-14  8.9e-13  5.2e-11
        ellipses, rho0 1.5 / 1.5 (17 / 20)      3.0e-14  2.0e-13  3.5e-10
        complex-step f' at 24 Chebyshev
          points of each piece (24 / 24)        3.3e-14  3.7e-13  4.7e-11

    f' is least accurate at phi0 = 0, the inner pieces' common end, where
    the series' derivative magnifies the samples' rounding most. That
    rounding is absolute, about n eps in each sample's real part (the
    factor's pivots), so the error there grows with n: on queen 70x70
    (n = 4900) it reaches 4.4e-13. At rho0 = 1.7 the inner series' truncation
    adds to it (7.7e-13 at phi0 = 0 on a Delaunay design of n = 3107,
    exact samples or not); at rho0 = 1.5 the truncation is below the
    rounding. The outer pieces take the larger ellipse for f'' near
    |phi0| = 0.995.

    The branch. A sample is sum Log U_ii over the pivots of the sparse LU
    of I - z S. The Hermitian part of I - z S is I - Re(z) S, positive
    definite for |Re z| < 1, and each Schur complement keeps that, so
    every pivot has a positive real part. Along a path from the real axis
    each Log U_ii then moves continuously, so the sum stays the branch of
    ln det(I - z S) that is real on the real axis. |Re tanh x| < 1 wherever
    |Im x| < pi/4, and the ellipses reach |Im x| = r (rho0 - 1/rho0) / 2:
    0.31 on an inner piece and 0.56 on an outer one. The node checks its
    factor (equal row and column permutations, pivots of positive real
    part) and raises ``NumericalError`` without both. Every node has the
    pattern of I - S, so the constructor takes the minimum-degree ordering
    of that pattern (MMD on S + S^T) from one real LU of I - S/2, which is
    not checked since only its ordering is read, and renumbers I - S by
    it. Every node, through the one node routine ``_node``, fills in the
    values of the renumbered pattern and is factored in its NATURAL order.

    Each piece is built on its first evaluation and then kept; an outer
    piece builds its inner neighbour first. So a fit that stays in
    0 <= phi0 < 0.905 factors 17 nodes, and one that also visits
    -0.905 < phi0 < 0 twice that, in either order. For the pieces not yet
    built the series keeps only the renumbered pattern (O(nnz) arrays,
    which pickle with it), so every node value, and every coefficient, is
    the same whichever piece is built first. No factor is kept, the
    ordering LU's included: its ordering is copied out of the factor
    (``perm_c`` is a view that keeps the factor alive), so the factor is
    freed before the pattern is renumbered.

    Attributes
    ----------
    pieces : list of str
        The pieces built so far, in the order of ``PIECES``.
    build_s : float
        Wall seconds of the build so far: the ordering LU and each piece.
    factorizations : int
        The complex node LUs factored so far: SERIES_NODES[piece] per piece
        built. The real ordering LU is not one of them.
    """

    PIECES = ("negative-outer", "negative-inner", "positive-inner", "positive-outer")

    def __init__(self, S):
        t0 = time.perf_counter()
        S = sp.csc_matrix(S)
        a = math.atanh(SERIES_PHI0_MAX)
        self._seams = (-a / 2, 0.0, a / 2)
        ends = (-a, *self._seams, a)
        self._domains = tuple(zip(ends[:-1], ends[1:]))
        self._pieces = [None] * len(self.PIECES)
        # The ordering reads only the pattern, which every node shares: one
        # real LU of I - S/2 (I - S is singular: S's largest eigenvalue is 1)
        # chooses it, unchecked, since only perm_c is read. The copy lets the
        # factor go before the pattern is renumbered.
        half = sp.identity(S.shape[0], format="csc") - 0.5 * S
        perm = _splu(half, "MMD_AT_PLUS_A").perm_c.copy()
        self._pattern = _renumbered(S, perm)
        self.factorizations = 0
        self.build_s = time.perf_counter() - t0

    @property
    def pieces(self):
        return [name for name, piece in zip(self.PIECES, self._pieces) if piece]

    def __call__(self, phi0, order=0):
        """The ``order``-th phi0-derivative of ln|I - phi0 S|, order 0, 1 or 2."""
        x = math.atanh(phi0)
        k = bisect.bisect_right(self._seams, x)
        f, u, u_x = self._pieces[k] or self._build(k)
        if order == 0:
            return float(f(x))
        s = (1.0 - phi0) * (1.0 + phi0)
        d1 = float(u(x)) / s
        return d1 if order == 1 else (float(u_x(x)) / s + 2.0 * phi0 * d1) / s

    def _build(self, k):
        """Build piece k, the index of its name in ``PIECES``, and return it."""
        # the seam nearer phi0 = 0, where f starts: 0 for an inner piece, the
        # inner neighbour's value for an outer one
        edge = min(self._domains[k], key=abs)
        f_edge = 0.0
        if edge != 0.0:
            inner = k + 1 if k == 0 else k - 1
            f_edge = float((self._pieces[inner] or self._build(inner))[0](edge))
        t0 = time.perf_counter()
        name, (lo, hi) = self.PIECES[k], self._domains[k]
        m, rho = SERIES_NODES[name], SERIES_RHO[name]
        w = rho * np.exp(1j * np.pi * (np.arange(m) + 0.5) / m)
        xs = (lo + hi) / 2 + (hi - lo) / 4 * (w + 1 / w)
        g = np.array([self._node(z) for z in np.tanh(xs)])
        f = Chebyshev(_ellipse_coefficients(g, rho), domain=self._domains[k])
        f.coef[0] += f_edge - f(edge)
        self._pieces[k] = (f, f.deriv(), f.deriv(2))
        self.build_s += time.perf_counter() - t0
        return self._pieces[k]

    def _node(self, z):
        """ln det(I - z S) at one complex sample z, |Re z| < 1, the series'
        one node routine: sum Log U_ii of the ``_splu`` factor of the
        renumbered pattern's values in NATURAL order. The factor is checked
        first: the sum needs a symmetric ordering (equal row and column
        permutations) and pivots of positive real part, as I - z S has, and
        a factor without both raises ``NumericalError``. The pivots are read
        through ``lu.U``, which builds CSC copies of L and U (SuperLU has no
        pivot accessor); the factor and its copies are freed when this
        returns."""
        eye, s, indices, indptr = self._pattern
        n = len(indptr) - 1
        A = sp.csc_matrix((eye - z * s, indices, indptr), shape=(n, n))
        self.factorizations += 1
        lu = _splu(A, "NATURAL")
        pivots = lu.U.diagonal()
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots.real > 0.0)):
            raise NumericalError("sparse LU left its symmetric ordering or met a nonpositive "
                                 "pivot; diagonal pivoting needs both")
        return complex(np.sum(np.log(pivots)))


def _ellipse_coefficients(g, rho):
    """The coefficients c_0, ..., c_{2M-1} of a real Chebyshev series
    sum_k c_k T_k(t) from its M values g_j at t_j = (w_j + 1/w_j) / 2,
    w_j = rho e^{i theta_j}, theta_j = pi (j + 1/2) / M, on the upper half
    of the Bernstein ellipse of parameter rho > 1. There T_k(t_j) =
    a_k cos k theta_j + i b_k sin k theta_j, with a_k = cosh(k ln rho) and
    b_k = sinh(k ln rho), so a DCT-II of Re g gives alpha_k = c_k a_k -
    c_{2M-k} a_{2M-k} and a DST-II of Im g gives beta_k = c_k b_k +
    c_{2M-k} b_{2M-k}, for 0 < k < M; c_0 = alpha_0 and c_M = beta_M / b_M
    come alone. Each 2 x 2 system has determinant b_{2M}."""
    m = len(g)
    k_log_rho = np.arange(2 * m + 1) * math.log(rho)
    a, b = np.cosh(k_log_rho), np.sinh(k_log_rho)
    # alpha_0 .. alpha_M and beta_0 .. beta_M (alpha_M = beta_0 = 0) by FFTs
    # of length 2M: sum_j x_j e^{-i k theta_j} = e^{-i pi k / 2M} times the
    # k-th term of the DFT of x
    shift = np.exp(-0.5j * np.pi * np.arange(m + 1) / m)
    alpha = 2 / m * (shift * np.fft.rfft(g.real, 2 * m)).real
    beta = -2 / m * (shift * np.fft.rfft(g.imag, 2 * m)).imag
    alpha[0] /= 2
    beta[m] /= 2
    k = np.arange(1, m)
    c = np.empty(2 * m)
    c[0], c[m] = alpha[0], beta[m] / b[m]
    c[k] = (alpha[k] * b[2 * m - k] + a[2 * m - k] * beta[k]) / b[2 * m]
    c[2 * m - k] = (a[k] * beta[k] - b[k] * alpha[k]) / b[2 * m]
    return c


def _splu(A, permc_spec):
    """A's SuperLU factor with diagonal pivots in symmetric mode, one column
    per panel: the package's one ``splu`` call, unchecked. With
    ``diag_pivot_thresh=0.0`` SuperLU keeps every nonzero diagonal pivot, so
    a matrix whose pivots in the ordering are nonzero gets
    ``perm_r == perm_c``. The same A and ``permc_spec`` give the same
    factor, bit for bit."""
    # options={"Fact": "SamePattern"} would reuse the ordering inside SuperLU,
    # but it crashes the interpreter in scipy 1.17; a prepermuted pattern
    # factored in its NATURAL order does the same.
    return spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0, panel_size=1,
                     options={"SymmetricMode": True})


def _renumbered(S, perm):
    """The pattern of I - S with index i renumbered perm[i], as the canonical
    CSC arrays (eye, s, indices, indptr): I - z S is the CSC matrix of
    eye - z s on (indices, indptr)."""
    n = S.shape[0]
    C = S.tocoo()
    k = np.arange(n)
    # S real, the identity imaginary: one duplicate-summing conversion puts
    # both on their union pattern and keeps them apart.
    B = sp.csc_matrix((np.concatenate([C.data, np.full(n, 1j)]),
                       (perm[np.concatenate([C.row, k])], perm[np.concatenate([C.col, k])])),
                      shape=(n, n))
    return B.data.imag.copy(), B.data.real.copy(), B.indices, B.indptr


class WeightMatrix:
    """Immutable row-standardized spatial weight matrix with a lazy log-det.

    ln|A0| and the traces come from the dense spectrum below N_SERIES
    locations and from a ``LogDetSeries`` from there on (see the module
    docstring); each is built on first use and cached. ``tau_min`` needs
    neither.

    Parameters
    ----------
    adjacency : scipy.sparse matrix or ndarray
        Symmetric nonnegative adjacency with zero diagonal. Typically
        binary; weighted symmetric adjacencies are accepted. A weight that
        is not finite raises ValueError naming its (row, column), before
        the symmetry test; so does a location whose degree is 0 (isolated),
        or whose degree or its reciprocal is not finite, naming it.
    lattice_dims : (n1, n2) or None
        Set when the locations form a regular lattice in row-major order.
        If n1 n2 = n and reversing either axis leaves S as it is, the
        spectrum is solved in up to four reflection blocks
        (``_reflection_blocks``); otherwise, or when it is None, S is one
        block.

    Attributes
    ----------
    n : int
        Number of locations.
    W : scipy.sparse.csr_matrix
        The row-standardized weight matrix D^{-1} A.
    eigenvalues : ndarray
        Real spectrum of W, sorted descending and read-only, then cached.
        If ``eigenbasis`` is built, its tau reversed; else built on first
        access by a values-only solve (``_spectrum``) of the reflection
        blocks: up to four on a lattice that has them, else the one block
        S. The log-det reads it below N_SERIES locations or outside
        |phi0| <= SERIES_PHI0_MAX, and the causality check for p >= 3.
    eigenbasis : (tau, Q, root) of read-only ndarrays
        S = Q diag(tau) Q^T, tau ascending, and root = D^{1/2}, the square
        roots of the degrees, so that W = diag(1 / root) Q diag(tau) Q^T
        diag(root). Built on first access by the same solve with vectors
        (n^2 doubles for Q), then cached. tau keep the blocks' order where
        they tie, and each column of Q is a block's eigenvector mapped back,
        B q: q itself when S is one block. Q is column-major, as LAPACK
        returns it. An ``eigenvalues`` built before the basis may
        differ from its tau in the last bits. ``simulate(...,
        spectral=True)`` reads it.
    log_det_series : LogDetSeries
        The series of ln|I - phi0 S| in phi0, made on first access, then
        cached; each of its four pieces is built on its first evaluation.
        The log-det reads it from N_SERIES locations on for
        |phi0| <= SERIES_PHI0_MAX.
    log_det_record : dict
        What the log-det has built so far, as a fresh dict: ``backend``,
        "series" when W was made with at least N_SERIES locations, else
        "spectrum" (the backend inside the series' box); ``build_s``, the
        wall seconds of that backend's build so far, None before it starts
        (the series' grows with each piece); ``pieces``, the series pieces
        built, named as in ``LogDetSeries.PIECES``; ``factorizations``, the
        complex node LUs the series has factored, SERIES_NODES[piece] per
        piece.
        Without a series, ``pieces`` is [] and ``factorizations`` 0.
    tau_min : float
        The smallest eigenvalue, from Lanczos on first access, then cached.
        ARPACK starts from a fixed vector, so it is the same in every
        process; should ARPACK not converge, it is read off ``eigenvalues``.
        The causality check for p <= 2 reads it only when the bound
        tau_min >= -1 leaves the check open.
    s0, s1, s2 : float
        The weight sums S0, S1 and S2 of Moran's I (see ``diagnostics``).
    """

    def __init__(self, adjacency, lattice_dims=None):
        A = sp.csr_matrix(adjacency, dtype=float)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"adjacency must be square, got {A.shape}")
        n = A.shape[0]
        if not np.isfinite(A.data).all():  # checked before NaN fails the symmetry test
            C = A.tocoo()
            bad = ~np.isfinite(C.data)
            row, col = min(zip(C.row[bad].tolist(), C.col[bad].tolist()))
            raise ValueError(f"adjacency weight at ({row}, {col}) is not finite")
        if A.diagonal().any():
            raise ValueError("adjacency has nonzero diagonal entries")
        if (A != A.T).nnz:
            raise ValueError("adjacency must be symmetric")
        if A.nnz and A.data.min() < 0:
            raise ValueError("adjacency weights must be nonnegative")

        # a degree may overflow to inf, or its reciprocal from a subnormal one
        with np.errstate(over="ignore", divide="ignore"):
            degrees = np.asarray(A.sum(axis=1)).ravel()
            inverse = 1.0 / degrees
        for where, what in ((degrees == 0, "isolated location(s) with no neighbors"),
                            (~(np.isfinite(degrees) & np.isfinite(inverse)),
                             "location(s) whose degree or its reciprocal is not finite")):
            located = np.flatnonzero(where)
            if located.size:
                shown = ", ".join(map(str, located[:10]))
                more = "" if located.size <= 10 else f" (+{located.size - 10} more)"
                raise ValueError(f"{what}: {shown}{more}; "
                                 "row standardization is undefined for them")

        W = sp.csr_matrix(sp.diags(inverse) @ A)
        # tau(D^{-1} A) = tau(D^{-1/2} A D^{-1/2}); the right side is
        # symmetric, so the spectrum is real by construction.
        d = 1.0 / np.sqrt(degrees)
        S = A.multiply(d[:, None]).multiply(d[None, :])

        rowsums = np.asarray(W.sum(axis=1)).ravel()
        if np.max(np.abs(rowsums - 1.0)) > ROW_SUM_TOL:
            raise ValueError("row standardization failed to reach tolerance")
        if W.data.min() < 0.0 or W.data.max() > 1.0:
            raise ValueError("standardized weights must lie in [0, 1]")

        self.n = n
        self.W = W
        # fixed here: N_SERIES is read once per W, not at each log-det
        self._backend = "series" if n >= N_SERIES else "spectrum"
        self._spectrum_build_s = None
        self._similarity = sp.csr_matrix(S)
        self._root_degrees = np.sqrt(degrees)
        self._root_degrees.setflags(write=False)
        self.lattice_dims = tuple(lattice_dims) if lattice_dims else None
        self.s0 = float(W.sum())
        sym = W + W.T
        self.s1 = 0.5 * float(sym.multiply(sym).sum())
        self.s2 = float(np.sum((np.asarray(W.sum(axis=1)).ravel()
                                + np.asarray(W.sum(axis=0)).ravel()) ** 2))

    @cached_property
    def eigenvalues(self):
        basis = self.__dict__.get("eigenbasis")
        tau = (basis[0] if basis else self._spectrum(vectors=False)[0])[::-1].copy()
        tau.setflags(write=False)
        return tau

    @cached_property
    def eigenbasis(self):
        tau, Q = self._spectrum(vectors=True)
        tau.setflags(write=False)
        Q.setflags(write=False)
        return tau, Q, self._root_degrees

    def _spectrum(self, vectors):
        """(tau, Q) of S = Q diag(tau) Q^T, tau ascending, Q None unless
        ``vectors``: the one spectrum build, which ``eigenvalues`` and
        ``eigenbasis`` share. Each block B^T S B of ``_reflection_blocks`` is
        solved on its own; tau is their values merged by a stable sort, and
        Q's columns are the blocks' eigenvectors mapped back, B q, in tau's
        order. A W without the reflection symmetry is one block, B = I."""
        t0 = time.perf_counter()
        S = self._similarity.tocoo()
        blocks = self._reflection_blocks()
        # B^T S B, summed over S's entries: B has one entry per row
        dense = [np.bincount(column[S.row] * size + column[S.col],
                             weights=weight[S.row] * S.data * weight[S.col],
                             minlength=size * size).reshape(size, size)
                 for size, column, weight in blocks]
        # eigh on M.T, the Fortran-ordered view of a dense symmetric M,
        # overwrites it in place where np.linalg.eigvalsh would copy it (n^2
        # doubles for S). The divide-and-conquer driver is the one eigvalsh uses.
        parts = [sla.eigh(M.T, eigvals_only=not vectors, overwrite_a=True, check_finite=False,
                          driver="evd") for M in dense]
        tau = np.concatenate([part[0] if vectors else part for part in parts])
        order = np.argsort(tau, kind="stable")
        tau, Q = tau[order], None
        if vectors:
            # B q of every block, its columns in tau's order: the indexing
            # leaves Q column-major, as eigh returns it. BLAS's small-matrix
            # kernels round ``simulate``'s products with Q by its layout.
            Q = np.concatenate([weight[:, None] * q[column]
                                for (_, column, weight), (_, q) in zip(blocks, parts)],
                               axis=1)[:, order]
        if max(-tau[0], tau[-1]) > 1.0 + SPECTRUM_TOL:
            raise ValueError("row-standardized spectrum exceeds 1 in modulus")
        self._spectrum_build_s = (self._spectrum_build_s or 0.0) + time.perf_counter() - t0
        return tau, Q

    def _reflection_blocks(self):
        """S's parity blocks, as a list of (size, column, weight): up to four
        when ``lattice_dims`` multiply to n and S is unchanged by reversing
        either axis of the row-major lattice, else the identity basis as one
        block. Block (g1, g2) has the orthonormal basis B = U1[:, g1] kron
        U2[:, g2], with U_k axis k's even/odd basis (``_parity_columns``) and
        g_k its even or its odd vectors. S commutes with both reversals, so it
        maps each block's span to itself. Each row of B holds at most one
        entry: row r of B has weight[r] in column column[r], and a weight of 0
        marks a row outside the block."""
        S, dims = self._similarity, self.lattice_dims
        if dims and math.prod(dims) == self.n:
            grid = np.arange(self.n).reshape(dims)
            if not any((S[flip][:, flip] != S).nnz
                       for flip in (grid[::-1].ravel(), grid[:, ::-1].ravel())):
                # row (i, j) of B is row i of U1[:, g1] times row j of U2[:, g2]
                return [(k1 * k2, (c1[:, None] * k2 + c2).ravel(), np.outer(w1, w2).ravel())
                        for k1, c1, w1 in _parity_columns(dims[0])
                        for k2, c2, w2 in _parity_columns(dims[1]) if k1 * k2]
        return [(self.n, np.arange(self.n), np.ones(self.n))]

    @cached_property
    def log_det_series(self):
        return LogDetSeries(self._similarity)

    @property
    def log_det_record(self):
        series = self.__dict__.get("log_det_series")
        if self._backend == "series":
            build_s = series.build_s if series else None
        else:
            build_s = self._spectrum_build_s
        return {"backend": self._backend, "build_s": build_s,
                "pieces": series.pieces if series else [],
                "factorizations": series.factorizations if series else 0}

    @cached_property
    def tau_min(self):
        # ARPACK's own start vector depends on earlier calls in the process,
        # which moves the result in its last bits; a fixed one does not.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, self.n)
        try:
            tau = float(spla.eigsh(self._similarity, k=1, which="SA", tol=0, v0=v0,
                                   return_eigenvectors=False)[0])
        except spla.ArpackNoConvergence:
            tau = float(self.eigenvalues[-1])
        if tau < -1.0 - SPECTRUM_TOL:
            raise ValueError("row-standardized spectrum exceeds 1 in modulus")
        return tau

    def __repr__(self):
        dims = f", lattice={self.lattice_dims}" if self.lattice_dims else ""
        return f"WeightMatrix(n={self.n}{dims})"

    # ------------------------------------------------------------------
    # A0 = I - phi0 W algebra
    # ------------------------------------------------------------------

    def admits(self, phi0):
        """Whether phi0 lies in the admissible interval (-1, 1)."""
        return abs(phi0) < 1.0

    def check_phi0(self, phi0):
        """Raise ``ValueError`` unless ``admits(phi0)``: the one phi0 domain check,
        run first by the log-det, the traces, ``a0_factor`` and ``check_causal``."""
        if not self.admits(phi0):
            raise ValueError(
                f"phi0={phi0} outside the admissible interval (-1, 1); A0 would "
                "be singular or sign-indefinite"
            )

    def _log_det(self, phi0, order):
        """The ``order``-th phi0-derivative of ln|I - phi0 W|, order 0, 1 or 2:
        the series inside its box on a series W, else the eigenvalue sums."""
        self.check_phi0(phi0)
        if self._backend == "series" and abs(phi0) <= SERIES_PHI0_MAX:
            return self.log_det_series(phi0, order)
        tau = self.eigenvalues
        if order == 0:
            return float(np.sum(np.log1p(-phi0 * tau)))
        return -float(np.sum((tau / (1.0 - phi0 * tau)) ** order))

    def log_det_a0(self, phi0):
        """ln|I - phi0 W| via the cached series or eigenvalues."""
        return self._log_det(phi0, 0)

    def trace_w_a0inv(self, phi0, power=1):
        """tr(W A0^{-1}) for power=1, tr((W A0^{-1})^2) for power=2: both are
        -d^power/dphi0^power ln|A0|."""
        if power not in (1, 2):
            raise ValueError("power must be 1 or 2")
        return -self._log_det(phi0, power)

    def a0_factor(self, phi0):
        """A0's sparse LU (``_splu``) in the minimum-degree ordering of its
        pattern, as a SuperLU object: ``.solve(b)`` takes a vector of length
        n or an (n, k) block of right-hand sides.

        The factor is not checked, because its pivots cannot fail. For an
        admitted phi0, A0 = I - phi0 W has a unit diagonal, and each row's
        off-diagonal entries sum to |phi0| < 1 in modulus: A0 is strictly
        row diagonally dominant. A symmetric permutation keeps that
        property, and so does each step of Gaussian elimination, so every
        pivot is positive. SuperLU's symmetric mode keeps any nonzero
        diagonal pivot, so ``perm_r == perm_c``. Nothing reads ``.L`` or
        ``.U``, so the caller holds only the native factor."""
        self.check_phi0(phi0)
        return _splu(sp.identity(self.n, format="csc") - phi0 * self.W.tocsc(), "MMD_AT_PLUS_A")


def _parity_columns(m):
    """The even and the odd orthonormal basis of reversal i -> m - 1 - i on
    length-m vectors, the vectors it keeps and those it negates: for each, a
    tuple (size, column, weight) with ``column[i]`` the basis vector that has
    weight ``weight[i]`` at index i. Vector min(i, m - 1 - i) has weights
    sqrt(1/2) at i and +-sqrt(1/2) at m - 1 - i; an odd m's middle index is
    an even vector of its own (weight 1) and has weight 0 in the odd basis."""
    i = np.arange(m)
    mirror = m - 1 - i
    column = np.minimum(i, mirror)
    even = np.where(i == mirror, 1.0, math.sqrt(0.5))
    odd = np.sign(mirror - i) * math.sqrt(0.5)
    return [(m - m // 2, column, even), (m // 2, np.where(i == mirror, 0, column), odd)]


def build_queen_lattice(n1, n2):
    """Queen-contiguity weights on an n1 x n2 lattice.

    Two cells are neighbors when their Chebyshev distance is 1, so interior
    cells have 8 neighbors (weight 1/8 each), non-corner edge cells 5, and
    corners 3. Locations are numbered row-major: s = i * n2 + j.
    """
    n1, n2 = int(n1), int(n2)
    if n1 < 1 or n2 < 1:
        raise ValueError("lattice dimensions must be positive")
    if n1 * n2 < 2:
        raise ValueError("1x1 lattice has an isolated location with no neighbors")

    # I + P, P a path graph's adjacency, marks |i - i'| <= 1 on one axis; the
    # Kronecker product marks Chebyshev distance <= 1 in row-major order.
    I_P1, I_P2 = (sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(m, m)) for m in (n1, n2))
    A = sp.kron(I_P1, I_P2, format="csr") - sp.identity(n1 * n2)
    return WeightMatrix(A, lattice_dims=(n1, n2))


def from_adjacency(pairs, n):
    """Weights from an undirected edge list.

    Parameters
    ----------
    pairs : iterable of (i, j)
        Undirected edges, 0-based, as m pairs that form an (m, 2) array;
        any other shape raises ValueError. Each pair is symmetrized;
        duplicates collapse to a single edge.
    n : int
        Number of locations. Every location must gain at least one
        neighbor, otherwise the isolated nodes are reported and rejected.
    """
    edges = np.array(list(pairs), dtype=float)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edge pairs must form an (m, 2) array, got shape {edges.shape}")
    return _edge_weights(edges, int(n))


def _edge_weights(edges, n, where=lambda k: ""):
    """Weights from an (m, 2) edge array. A non-integer id, then one out of
    range, then a self-pair raises ValueError prefixed by ``where(its index)``."""
    e = np.asarray(edges, dtype=float)
    integral = (np.isfinite(e) & (e == np.trunc(e))).all(axis=1)
    for bad, message in ((~integral, "edge ({}, {}) has a non-integer vertex id"),
                         (((e < 0) | (e >= n)).any(axis=1),
                          "edge ({}, {}) out of range for n=" + str(n)),
                         (e[:, 0] == e[:, 1], "self-pair ({}, {}) not allowed")):
        if bad.any():
            k = int(np.argmax(bad))
            ids = (int(v) if v.is_integer() else v for v in e[k].tolist())
            raise ValueError(where(k) + message.format(*ids))
    e = e.astype(np.int64)
    A = sp.coo_matrix((np.ones(e.size), (e.ravel(), e[:, ::-1].ravel())), shape=(n, n)).tocsr()
    A.data[:] = 1.0  # collapse duplicate edges
    return WeightMatrix(A)


def read_adjacency_csv(path, n):
    """Load an edge list CSV with header ``i,j`` (0-based, one edge per line).

    Binary only: other columns (a weight, say) are rejected, and every row
    error names its line."""
    lines, columns, _ = read_columns(path, ["i", "j"], [np.int64, np.int64])
    edges = np.column_stack(columns)
    return _edge_weights(edges, int(n), lambda k: f"{path}: malformed edge at line {lines[k]}: ")
