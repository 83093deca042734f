"""Hypothesis tests on the time-budget data.

Three questions, three tools. Is the skewness parameter needed at all
(likelihood ratio)? Does the skewed model beat a classical correlated
alternative (Vuong's non-nested comparison)? And do the margins fit
(Cramer-von Mises and Anderson-Darling on the normalized transform)?
"""

import skewbs as sk
from skewbs.inference import kbj_mle

sample = sk.volle_sample()
full = sk.mle(sample)
restricted = sk.mle(sample, fix_lambda=0.0)

print("== likelihood ratio test of lambda = 0 ==")
rep = sk.lr_test(full, restricted)
print(f"statistic = {rep.statistic:.4f}  df = {rep.df}  p = {rep.p_value:.4f}")
print("verdict:", rep.verdict)

print("\n== Vuong comparison against a correlated classical model ==")
# the alternative couples the two normal scores with a plain
# correlation instead of a skewing factor
kbj = kbj_mle(sample)
print(f"alternative fit: rho = {kbj.params.rho:.4f}, "
      f"log likelihood = {kbj.loglik:.4f}")
la = sk.smvbs_log_pdf(sample.data, full.params)
lb = sk.kbj_log_pdf(sample.data, kbj.params)
rep = sk.vuong_test(la, lb, names=("skewed", "correlated"))
print(f"statistic = {rep.statistic:.4f}  p = {rep.p_value:.4f}")
print("verdict:", rep.verdict)

print("\n== marginal goodness of fit at the joint MLE ==")
for j in range(2):
    r = sk.gof_marginal(sample.column(j), full.params.alphas[j],
                        full.params.betas[j])
    print(f"margin {j + 1}: W* = {r.w2_star:.4f} ({r.w2_verdict}),  "
          f"A* = {r.a2_star:.4f} ({r.a2_verdict})")

print("\n== the same tests notice a wrong shape ==")
import numpy as np

rng = np.random.default_rng(123)
wrong = np.sort(rng.uniform(60.0, 180.0, 28))
fitted_beta = float(np.median(wrong))
fitted_alpha = 0.4
r = sk.gof_marginal(wrong, fitted_alpha, fitted_beta)
print(f"uniform data: W* = {r.w2_star:.4f} ({r.w2_verdict}),  "
      f"A* = {r.a2_star:.4f} ({r.a2_verdict})")
