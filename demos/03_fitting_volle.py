"""Fitting the bundled time-budget data.

The package ships the 28-household time-budget sample (Volle's data):
minutes per day spent on meals and on personal care. Fitting
proceeds in two stages: closed-form moment estimates for the marginal
parameters, then safeguarded Newton steps on the log likelihood of all
five parameters with the moment fit as the starting point.
"""

import numpy as np

import skewbs as sk

sample = sk.volle_sample()
print(f"n = {sample.n} pairs, column means {np.round(sample.data.mean(axis=0), 2)}")

print("\n== modified moment estimates (marginals only) ==")
m = sk.mme(sample)
for name, val in zip(("alpha1", "alpha2", "beta1", "beta2"),
                     (*m.alphas, *m.betas)):
    print(f"  {name:7s} = {val:.4f}")

print("\n== maximum likelihood ==")
fit = sk.mle(sample)
print(f"converged in {fit.iterations} Newton steps, score norm {fit.score_norm:.2e}")
for name, val in zip(sk.param_names(2), fit.params.as_vector()):
    print(f"  {name:7s} = {val:.4f}")
print(f"  log likelihood = {fit.loglik:.4f}")

print("\n== restricted fit (lambda fixed at 0) ==")
fit0 = sk.mle(sample, fix_lambda=0.0)
for name, val in zip(sk.param_names(2)[:4],
                     (*fit0.params.alphas, *fit0.params.betas)):
    print(f"  {name:7s} = {val:.4f}")
print(f"  log likelihood = {fit0.loglik:.4f}")

print("\n== 95% Wald intervals ==")
print("from the observed information:")
for ci in sk.confidence_intervals(fit.params, sample=sample, info="observed"):
    print(f"  {ci.name:7s} in ({ci.lower:9.4f}, {ci.upper:9.4f})   se = {ci.se:.4f}")
print("from the expected information (exact):")
for ci in sk.confidence_intervals(fit.params, sample=sample, info="expected"):
    print(f"  {ci.name:7s} in ({ci.lower:9.4f}, {ci.upper:9.4f})   se = {ci.se:.4f}")

# fits from five lambda starts guard against sensitivity to the lambda start
vecs = [
    sk.mle(sample, start=sk.SmvbsParams(m.alphas, m.betas, lam0)).params.as_vector()
    for lam0 in (-5.0, -2.0, 0.0, 3.0, 4.0)
]
spread = max(np.abs(u - v).max() for u in vecs for v in vecs)
print(f"\nfive lambda starts agree to {spread:.2e}")
