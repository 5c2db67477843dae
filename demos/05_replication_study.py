"""
Monte-Carlo replication study
=============================

Scaled-down version of the one-neuron replication experiment: R = 20
simulate + fit cycles on a 20x20 lattice with T = 20, comparing empirical
means and standard deviations of the estimates against the sandwich
asymptotic standard errors. The nearest command is

    pstarann replicate --config model1.json --out outdir \
        --replicates 20 --seed 11

which differs in its design and its fit seeds: model1.json has a 30x30
lattice and T = 30, and the command fits replicate r from seed 11 + r where
this script uses seed r. Replicate r's panel draws from the same stream in
both, SeedSequence(11, spawn_key=(r,)).
"""

import numpy as np

import pstarann as pa

R = 20  # bump to 50+ for tighter empirical moments
W = pa.build_queen_lattice(20, 20)
spec = pa.ModelSpec(W=W, p=1, q=2, h=1, density=pa.normal(), linear_term=False)
truth = pa.ParameterVector(phi0=0.6, phi=[-0.274], beta=[], lam=[1.5],
                           gamma=[[0.75, -0.35]])
columns = [{"kind": "normal", "sd": 1.5}, {"kind": "normal", "sd": 3.0}]

estimates, ses = [], []
for r in range(R):
    data = pa.simulate(spec, truth,
                       seed=np.random.SeedSequence(11, spawn_key=(r,)),
                       T=20, covariate_columns=columns)
    res = pa.fit(spec, data, n_starts=5, seed=r)
    estimates.append(res.theta.to_array())
    ses.append(res.std_errors)
    print(f"  replicate {r + 1:2d}/{R}: loglik {res.loglik:.1f}")

est = np.array(estimates)
asy = np.array(ses).mean(axis=0)
names = pa.param_names(spec)
print()
print(f"{'parameter':<10} {'true':>8} {'mean':>8} {'emp. SD':>8} {'asy. SD':>8}")
for k, name in enumerate(names):
    print(f"{name:<10} {truth.to_array()[k]:>8.4f} {est[:, k].mean():>8.4f} "
          f"{est[:, k].std(ddof=1):>8.4f} {asy[k]:>8.4f}")
print()
# measured at R = 200 (ROADMAP item 1)
print("phi0's asymptotic SD is too small: it came out about 15% below the")
print("empirical SD on 20x20 and about 19% below on 30x30. The sandwich omits")
print("the spatial cross term T (tr(G^2) - sum_s G_ss^2), G = W A0^{-1}, of")
print("phi0's score, so a larger lattice does not close the gap. The other")
print("parameters' SDs agree up to Monte-Carlo error.")
