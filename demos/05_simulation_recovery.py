"""Exact sampling and a small parameter-recovery experiment.

Draws from the bivariate model are exact (a skewed coordinate is built
from two normals, no accept/reject loop), so simulation studies run
fast. This script checks that the estimator finds the truth on growing
samples and that Wald intervals have roughly nominal coverage.
"""

import numpy as np

import skewbs as sk
from skewbs import SampleMatrix, SmvbsParams

truth = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
rng = np.random.default_rng(2024)

print("== consistency on one growing sample path ==")
big = sk.smvbs_sample(20_000, truth, rng)
for n in (250, 1_000, 4_000, 20_000):
    fit = sk.mle(SampleMatrix(big[:n]))
    err = np.abs(fit.params.as_vector() - truth.as_vector())
    print(f"n = {n:6d}: estimate {np.round(fit.params.as_vector(), 3)}, "
          f"max abs error {err.max():.3f}")

print("\n== Wald coverage, 200 replications at n = 400 ==")
level = 0.95
reps = 200
hits = np.zeros(5, dtype=int)
info = sk.expected_info(truth, 400)
se = np.sqrt(np.diag(np.linalg.inv(info.matrix)))
z = 1.959963984540054
for r in range(reps):
    data = sk.smvbs_sample(400, truth, rng)
    fit = sk.mle(SampleMatrix(data))
    if not fit.converged:
        continue
    err = np.abs(fit.params.as_vector() - truth.as_vector())
    hits += err <= z * se
print("parameter   coverage")
for name, h in zip(sk.param_names(2), hits):
    print(f"  {name:7s}   {h / reps:.3f}")
print(f"(nominal {level}, truth-based standard errors, so this checks the")
print(" information matrix as much as the estimator)")
