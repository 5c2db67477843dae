"""
Spatial weight matrices and the log-determinant device
=======================================================

Build queen-contiguity weights on a lattice, inspect the edge effect
(corner / edge / interior neighborhoods), and show why caching the
spectrum of W makes every ln|I - phi0 W| evaluation O(n), and how a
Chebyshev series in atanh(phi0) replaces the spectrum for large n.
"""

import time

import numpy as np

import pstarann as pa

# A 5x5 lattice: cells are numbered row-major, neighbors by Chebyshev
# distance 1 (queen criterion), rows standardized to sum to 1.
W = pa.build_queen_lattice(5, 5)
dense = W.W.toarray()

print("corner cell 0 weights   :", dense[0, dense[0] > 0], "(3 neighbors)")
print("edge cell 2 weights     :", dense[2, dense[2] > 0], "(5 neighbors)")
print("interior cell 12 weights:", dense[12, dense[12] > 0], "(8 neighbors)")
print()

# The spectrum is real because W = D^{-1} A is similar to the symmetric
# D^{-1/2} A D^{-1/2}. For a connected graph the largest eigenvalue is 1.
print("largest eigenvalues:", np.round(W.eigenvalues[:4], 4))
print("largest eigenvalue tau_1 = %g, so the admissible phi0 interval is (-1, 1)"
      % W.eigenvalues[0])
print()

# ln|A0| via the cached eigenvalues agrees with a dense LU factorization,
# but costs O(n) instead of O(n^3) per phi0 value.
for phi0 in (0.3, 0.6, 0.9):
    eig_based = W.log_det_a0(phi0)
    sign, dense_lu = np.linalg.slogdet(np.eye(25) - phi0 * dense)
    print(f"phi0={phi0}: eigen {eig_based:+.8f}   dense LU {dense_lu:+.8f}")
print()

# From N_SERIES locations on, the log-det is a Chebyshev series in
# atanh(phi0), with no dense n x n matrix. Each of its four pieces is built
# from 24 sparse LUs of I - phi0 S on first use; this grid, |phi0| <= 0.9,
# asks for the two inner ones, 48 LUs. After that a log-det costs the same
# whatever n.
big = pa.build_queen_lattice(50, 50)
t0 = time.time()
vals = [big.log_det_a0(p) for p in np.linspace(-0.9, 0.9, 200)]
record = big.log_det_record
print(f"200 log-dets at n=2500 ({record['backend']}, N_SERIES={pa.weights.N_SERIES}): "
      f"{1000 * (time.time() - t0):.1f} ms total, "
      f"{1000 * record['build_s']:.1f} ms of it the build "
      f"({record['factorizations']} sparse LUs)")

# User-supplied adjacency works the same way (CSV with header i,j); isolated
# nodes are rejected because their rows cannot be standardized.
ring = pa.from_adjacency([(i, (i + 1) % 8) for i in range(8)], 8)
print("ring graph spectrum:", np.round(ring.eigenvalues, 4))
