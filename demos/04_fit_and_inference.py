"""
Maximum-likelihood fitting and sandwich inference
=================================================

Fits the one-neuron model to its own simulated panel, prints the
estimate / standard error / confidence interval table, and demonstrates
the Laplace caveat: point estimates work, curvature-based covariance is
reported unavailable.
"""

import numpy as np

import pstarann as pa

W = pa.build_queen_lattice(20, 20)
columns = [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}]
truth = pa.ParameterVector(phi0=0.6, phi=[-0.274], beta=[], lam=[1.5],
                           gamma=[[0.75, -0.35]])

# --- Gaussian fit with full inference -------------------------------
spec = pa.ModelSpec(W=W, p=1, q=2, h=1, density=pa.normal(), linear_term=False)
data = pa.simulate(spec, truth, seed=7, T=20, covariate_columns=columns)
res = pa.fit(spec, data, n_starts=5, seed=0)

print("truth:", np.round(truth.to_array(), 4))
print()
print(res.format_table())
print()

# The sandwich pieces: A (averaged negated Hessian), B (averaged score
# outer product). The information equality A ~ B holds at the truth for
# correctly specified Gaussian models.
cov = pa.sandwich_covariance(pa.LikelihoodWorkspace(spec, data), res.theta)
print("A diagonal:", np.round(np.diag(cov["A"]), 3))
print("B diagonal:", np.round(np.diag(cov["B"]), 3))
print()

# --- Laplace: estimates fine, covariance unavailable ------------------
spec_lap = pa.ModelSpec(W=W, p=1, q=2, h=1, density=pa.laplace(),
                        linear_term=False)
data_lap = pa.simulate(spec_lap, truth, seed=8, T=20, covariate_columns=columns)
res_lap = pa.fit(spec_lap, data_lap, n_starts=5, seed=0)
print(res_lap.format_table())
print()

# --- Model comparison: does the network term earn its parameters? -----
spec_h0 = pa.ModelSpec(W=W, p=1, q=2, h=0, density=pa.normal())
res_h0 = pa.fit(spec_h0, data, n_starts=3, seed=0, covariance=False)
spec_h1 = pa.ModelSpec(W=W, p=1, q=2, h=1, density=pa.normal())
res_h1 = pa.fit(spec_h1, data, n_starts=5, seed=0, covariance=False)
lrt = pa.likelihood_ratio_test(res_h1, res_h0, df=spec_h1.dim - spec_h0.dim)
print(f"AIC: linear {res_h0.aic:.1f} vs one neuron {res_h1.aic:.1f}")
print(f"LRT: stat {lrt['stat']:.2f}, df {lrt['df']}, p-value {lrt['pvalue']:.2e}")
print("(the chi-square reference is approximate when the extra neuron is")
print(" unidentified under the null)")
