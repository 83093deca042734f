"""The skewed bivariate density: shape, margins, dependence.

One extra scalar lambda couples the margins. Its sign pushes
probability mass toward concordant (lambda > 0) or discordant
(lambda < 0) pairs, yet the margins stay exactly the two-parameter
lifetime laws: integrating lambda out of either coordinate is a
half-normal trick, not an approximation. Large lambda with small
shape parameters can even split the density into two local peaks.
"""

import numpy as np

import skewbs as sk
from skewbs import SmvbsParams

unimodal = SmvbsParams((0.5, 0.5), (1.0, 1.0), 0.5)
bimodal = SmvbsParams((0.2, 0.2), (1.0, 1.0), 5.0)


def ascii_contour(params, m=41):
    """Coarse character plot of the log density on a quantile grid."""
    qs = np.linspace(0.01, 0.99, m)
    g1 = sk.bs_quantile(qs, params.alphas[0], params.betas[0])
    g2 = sk.bs_quantile(qs, params.alphas[1], params.betas[1])
    t1, t2 = np.meshgrid(g1, g2, indexing="ij")
    z = sk.smvbs_log_pdf(np.column_stack([t1.ravel(), t2.ravel()]), params)
    z = z.reshape(m, m)
    levels = np.quantile(z, [0.5, 0.75, 0.9, 0.97])
    chars = np.full(z.shape, " ")
    for lev, ch in zip(levels, ".:*#"):
        chars[z >= lev] = ch
    for row in chars[::-1].T:
        print("".join(row))


print("lambda = 0.5 (one peak):")
ascii_contour(unimodal)
print("\nlambda = 5, small alphas (two peaks):")
ascii_contour(bimodal)

print("\n== margins are unchanged by lambda ==")
rng = np.random.default_rng(3)
draws = sk.smvbs_sample(200_000, bimodal, rng)
for j in range(2):
    qs = np.quantile(draws[:, j], [0.25, 0.5, 0.75])
    ref = sk.bs_quantile(np.array([0.25, 0.5, 0.75]),
                         bimodal.alphas[j], bimodal.betas[j])
    print(f"margin {j + 1}: sample quartiles {np.round(qs, 4)} vs model {np.round(ref, 4)}")

print("\n== dependence summaries ==")
for lam in (0.0, 0.5, 1.0, 2.0, 10.0):
    print(f"lambda = {lam:5.1f}: latent correlation = {sk.latent_correlation(lam):.4f}")
print("(the latent correlation saturates below 2/pi =", 2 / np.pi, ")")

params = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
mom = sk.product_moment(params)
indep = sk.product_moment(SmvbsParams(params.alphas, params.betas, 0.0))
print(f"\nE[T1 T2] at lambda = 1.5 : {mom.value:.6f} (quadrature)")
print(f"E[T1 T2] at lambda = 0   : {indep.value:.6f} (closed form)")

print("\n== conditionals ==")
# the conditional law of T1 given T2 = t2 tilts with t2 when lambda != 0
for t2 in (0.5, 1.0, 2.0):
    med = np.interp(
        0.5,
        [sk.conditional_cdf(t, t2, params) for t in np.linspace(0.05, 6, 400)],
        np.linspace(0.05, 6, 400),
    )
    print(f"median of T1 | T2 = {t2:3.1f} is about {med:.3f}")
