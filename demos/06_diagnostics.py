"""
Residual diagnostics: Moran's I and QQ data
===========================================

A correctly specified fit leaves residuals with no spatial autocorrelation
(Moran's z near 0 slice by slice) and quantiles matching the fitted error
family. A model that omits the network term leaves structure behind.
"""

import numpy as np

import pstarann as pa

W = pa.build_queen_lattice(15, 15)
columns = [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}]
truth = pa.ParameterVector(phi0=0.6, phi=[-0.274], beta=[], lam=[1.5],
                           gamma=[[0.75, -0.35]])
spec = pa.ModelSpec(W=W, p=1, q=2, h=1, density=pa.normal(), linear_term=False)
data = pa.simulate(spec, truth, seed=3, T=12, covariate_columns=columns)

# Moran's I on the raw responses: strong spatial signal (phi0 = 0.6)
raw = pa.morans_i(W, data.Y_sample[-1])
print(f"raw Y_T     : I = {raw['I']:+.4f}, z = {raw['z']:+.2f}, "
      f"p = {raw['pvalue']:.2e}")

# after a correctly specified fit the per-slice tests go quiet
res = pa.fit(spec, data, n_starts=5, seed=0, covariance=False)
diag = pa.residual_diagnostics(spec, res.residuals)
pvals = [d["pvalue"] for d in diag["moran_per_t"]]
print(f"fitted model: median per-slice Moran p-value = {np.median(pvals):.3f}")

# a linear-only fit leaves the network signal in the residuals; the QQ
# data picks up the distortion even when Moran stays quiet
spec0 = pa.ModelSpec(W=W, p=1, q=2, h=0, density=pa.normal())
res0 = pa.fit(spec0, data, n_starts=3, seed=0, covariance=False)
diag0 = pa.residual_diagnostics(spec0, res0.residuals)
pvals0 = [d["pvalue"] for d in diag0["moran_per_t"]]
print(f"linear fit  : median per-slice Moran p-value = {np.median(pvals0):.3f}")
print(f"residual variance: one-neuron fit {res.residuals.var():.3f}, "
      f"linear-only fit {res0.residuals.var():.3f}")

# QQ pairs: theoretical quantile of the fitted density vs sorted residual
qq = diag["qq"]
idx = np.linspace(0, len(qq) - 1, 7).astype(int)
print("\nQQ pairs (theoretical, observed):")
for i in idx:
    print(f"  {qq[i, 0]:+8.4f}  {qq[i, 1]:+8.4f}")

# heatmap grid of the last residual slice, for external plotting
grid = pa.heatmap_grid(res.residuals[-1], W.lattice_dims)
print(f"\nresidual heatmap grid shape: {grid.shape}")
