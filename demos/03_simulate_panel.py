"""
Simulating a space-time panel with a network component
======================================================

Reproduces the two-covariate, one-neuron data-generating design on a
10x10 lattice:

    Y_t = 0.6 W Y_t - 0.274 W Y_{t-1} + X_t (0.24, -0.7)'
          + 1.5 F(X_t (0.75, -0.35)') + eps_t

with x1 ~ N(0, 1.5^2), x2 ~ N(0, 3^2), standard normal errors. Writes
heatmap grids of the last three slices; the negative temporal lag flips
cell colors between consecutive slices.
"""

from pathlib import Path

import numpy as np

import pstarann as pa

out = Path(__file__).resolve().parent / "output"
out.mkdir(exist_ok=True)

W = pa.build_queen_lattice(10, 10)
spec = pa.ModelSpec(W=W, p=1, q=2, h=1, density=pa.normal())
theta = pa.ParameterVector(phi0=0.6, phi=[-0.274], beta=[0.24, -0.7],
                           lam=[1.5], gamma=[[0.75, -0.35]])

chk = pa.check_causal(spec, theta)
print(f"causal: {chk.causal} (max root modulus {chk.max_root_modulus:.4f})")

columns = [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}]
data = pa.simulate(spec, theta, seed=42, T=30, covariate_columns=columns)
print(f"panel: T={data.T}, n={data.n}, q={data.q}, presample slices={data.p}")

# A panel holds Y and X only. Inject the innovations of every step (burn-in
# 200, p = 1, T = 30): the residuals at the generating parameters reproduce
# those of the T sample slices
eps = pa.normal().sample(7, (200 + 1 + 30) * W.n).reshape(-1, W.n)
injected = pa.simulate(spec, theta, seed=42, T=30, covariate_columns=columns, errors=eps)
resid = pa.LikelihoodWorkspace(spec, injected).residuals(theta)
print(f"residual round-trip error: {np.max(np.abs(resid - eps[-30:])):.2e}")

# lag-1 autocorrelation of the pooled series is negative (phi1 < 0)
y = data.Y_sample - data.Y_sample.mean()
lag1 = float(np.sum(y[1:] * y[:-1]) / np.sum(y * y))
print(f"pooled lag-1 autocorrelation: {lag1:+.3f}")

pa.write_panel_csv(out / "panel.csv", data)
for t in (28, 29, 30):
    pa.heatmap_grid(data.Y[spec.p + t - 1], W.lattice_dims,
                    path=out / f"heatmap_t{t}.csv")
print(f"wrote {out / 'panel.csv'} and heatmap grids for t = 28, 29, 30")

# The moving-average expansion Psi_j reconstructs the simulator: partial
# sums of Psi_j A0^{-1}(X beta + F lambda + eps) converge to Y_t.
psis = pa.psi_expansion(spec, theta, 20)
norms = [float(np.max(np.abs(P).sum(axis=1))) for P in psis]
print("Psi operator norms (geometric decay):",
      " ".join(f"{v:.2e}" for v in norms[::5]))
