import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from skewbs import (
    SmvbsParams,
    a_transform,
    bs_cdf,
    bs_pdf,
    bs_quantile,
    bs_sample,
    conditional_cdf,
    conditional_pdf,
    latent_correlation,
    product_moment,
    smvbs_log_pdf,
    smvbs_pdf,
    smvbs_sample,
    transform_params,
)

UNIMODAL = SmvbsParams((0.5, 0.5), (1.0, 1.0), 0.5)
MODERATE = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
BIMODAL = SmvbsParams((0.2, 0.2), (1.0, 1.0), 5.0)
SKEWED = SmvbsParams((0.8, 0.3), (2.0, 0.5), -2.0)


def test_params_validation_and_round_trip():
    with pytest.raises(ValueError):
        SmvbsParams((0.5,), (1.0,), 0.0)  # needs p >= 2
    with pytest.raises(ValueError):
        SmvbsParams((0.5, -0.1), (1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        SmvbsParams((0.5, 0.5), (1.0, 1.0), math.inf)
    p = SmvbsParams((0.4, 0.6, 0.8), (1.0, 2.0, 3.0), -1.2)
    assert p.p == 3
    q = SmvbsParams.from_vector(p.as_vector())
    assert q == p


def test_log_pdf_shapes():
    val = smvbs_log_pdf([1.0, 2.0], MODERATE)
    assert isinstance(val, float)
    rows = smvbs_log_pdf(np.array([[1.0, 2.0], [0.5, 0.7]]), MODERATE)
    assert rows.shape == (2,)
    with pytest.raises(ValueError):
        smvbs_log_pdf(np.ones((3, 4)), MODERATE)


def test_lambda_zero_factorizes():
    for p in (
        SmvbsParams((0.5, 0.8), (1.0, 2.0), 0.0),
        SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 0.0),
    ):
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [bs_sample(40, p.alphas[j], p.betas[j], rng=rng) for j in range(p.p)]
        )
        prod = np.ones(40)
        for j in range(p.p):
            prod *= bs_pdf(pts[:, j], p.alphas[j], p.betas[j])
        np.testing.assert_allclose(smvbs_pdf(pts, p), prod, rtol=1e-13)


def test_density_at_joint_median_is_lambda_free():
    # all a_j = 0 there, so the skew factor is exactly 1/2
    for lam in (-3.0, 0.0, 1.5):
        p = SmvbsParams((0.5, 0.7), (1.0, 2.0), lam)
        ref = bs_pdf(1.0, 0.5, 1.0) * bs_pdf(2.0, 0.7, 2.0)
        assert smvbs_pdf([1.0, 2.0], p) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("params", [MODERATE, BIMODAL, SKEWED])
def test_pdf_normalization_by_importance_sampling(params):
    # draws from the independent BS product give bounded weights
    # w = 2 Phi(lambda prod a) whose mean must be 1
    rng = np.random.default_rng(101)
    n = 400_000
    pts = np.column_stack(
        [
            bs_sample(n, params.alphas[j], params.betas[j], rng=rng)
            for j in range(2)
        ]
    )
    base = np.zeros(n)
    for j in range(2):
        base += np.log(bs_pdf(pts[:, j], params.alphas[j], params.betas[j]))
    w = np.exp(smvbs_log_pdf(pts, params) - base)
    assert np.all(w <= 2.0 + 1e-12)
    se = w.std(ddof=1) / math.sqrt(n)
    assert abs(w.mean() - 1.0) < 3 * se


def test_conditional_pdf_times_margin_recovers_joint():
    params = MODERATE
    for t1, t2 in ((0.7, 1.2), (2.0, 0.5), (1.1, 1.0)):
        joint = smvbs_pdf([t1, t2], params)
        ref = conditional_pdf(t1, t2, params) * bs_pdf(
            t2, params.alphas[1], params.betas[1]
        )
        assert joint == pytest.approx(ref, rel=1e-13)


def test_conditional_cdf_matches_pdf_quadrature():
    params = SmvbsParams((0.5, 0.6), (1.0, 2.0), 1.2)
    t2 = 1.7
    for t1 in np.linspace(0.2, 4.0, 20):
        ref, _ = integrate.quad(
            lambda s: conditional_pdf(s, t2, params), 0, t1, limit=300
        )
        assert conditional_cdf(t1, t2, params) == pytest.approx(ref, abs=1e-8)


def test_conditional_cdf_limits_and_lambda_zero():
    params = SmvbsParams((0.5, 0.6), (1.0, 2.0), 1.2)
    assert conditional_cdf(1e-8, 1.0, params) == pytest.approx(0.0, abs=1e-12)
    assert conditional_cdf(1e8, 1.0, params) == pytest.approx(1.0, abs=1e-12)
    free = SmvbsParams((0.5, 0.6), (1.0, 2.0), 0.0)
    for t1 in (0.4, 1.0, 3.0):
        assert conditional_cdf(t1, 5.0, free) == pytest.approx(
            bs_cdf(t1, 0.5, 1.0), abs=1e-13
        )


def test_conditionals_require_bivariate():
    p3 = SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 1.0)
    with pytest.raises(ValueError):
        conditional_pdf(1.0, 1.0, p3)
    with pytest.raises(ValueError):
        conditional_cdf(1.0, 1.0, p3)


def test_sampler_determinism_and_positivity():
    t1 = smvbs_sample(1000, MODERATE, np.random.default_rng(3))
    t2 = smvbs_sample(1000, MODERATE, np.random.default_rng(3))
    np.testing.assert_array_equal(t1, t2)
    assert t1.shape == (1000, 2)
    assert np.all(t1 > 0)


@pytest.mark.parametrize("params", [MODERATE, BIMODAL])
def test_sampler_margins_are_bs(params):
    # Theorem-level property: each margin of the skewed joint law is
    # plain BS regardless of lambda
    draws = smvbs_sample(100_000, params, np.random.default_rng(17))
    for j in range(2):
        res = stats.kstest(
            draws[:, j],
            lambda x, j=j: bs_cdf(x, params.alphas[j], params.betas[j]),
        )
        assert res.pvalue > 0.01


def test_sampler_independent_when_lambda_zero():
    params = SmvbsParams((0.5, 0.8), (1.0, 2.0), 0.0)
    draws = smvbs_sample(200_000, params, np.random.default_rng(23))
    z = np.column_stack(
        [
            a_transform(draws[:, j], params.alphas[j], params.betas[j])
            for j in range(2)
        ]
    )
    r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert abs(r) < 3.5 / math.sqrt(draws.shape[0])


def _cell_probabilities(params, edges1, edges2):
    """Joint cell masses by integrating margin density x conditional cdf."""
    a2, b2 = params.alphas[1], params.betas[1]

    probs = np.empty((len(edges1) - 1, len(edges2) - 1))
    for j in range(len(edges2) - 1):
        def strip(t2):
            cdf_vals = conditional_cdf(np.asarray(edges1[1:-1]), t2, params)
            cdf_vals = np.concatenate([[0.0], np.atleast_1d(cdf_vals), [1.0]])
            return np.diff(cdf_vals) * bs_pdf(t2, a2, b2)

        lo = edges2[j] if np.isfinite(edges2[j]) and edges2[j] > 0 else 1e-9
        hi = edges2[j + 1] if np.isfinite(edges2[j + 1]) else 60 * b2
        col, _ = integrate.quad_vec(strip, lo, hi, epsabs=1e-10, epsrel=1e-9)
        probs[:, j] = col
    return probs


@pytest.mark.parametrize("params", [MODERATE, BIMODAL])
def test_sampler_against_density_chi_square_grid(params):
    m = 6
    qs = np.linspace(0.0, 1.0, m + 1)
    edges1 = bs_quantile(qs, params.alphas[0], params.betas[0])
    edges2 = bs_quantile(qs, params.alphas[1], params.betas[1])
    probs = _cell_probabilities(params, edges1, edges2)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    n = 20_000
    draws = smvbs_sample(n, params, np.random.default_rng(29))
    counts, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges1, edges2])
    assert counts.sum() == n
    expected = probs * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = m * m - 1
    assert special.chdtrc(dof, chi2) > 0.01


def test_transform_params_scale_matches_scaled_draws():
    k = (2.5, 0.4)
    scaled = transform_params(MODERATE, scale=k)
    assert scaled.alphas == MODERATE.alphas
    assert scaled.lam == MODERATE.lam
    d1 = smvbs_sample(500, MODERATE, np.random.default_rng(31)) * np.asarray(k)
    d2 = smvbs_sample(500, scaled, np.random.default_rng(31))
    np.testing.assert_allclose(d1, d2, rtol=1e-12)


def test_scale_closure_at_density_level():
    k = np.array([2.5, 0.4])
    scaled = transform_params(MODERATE, scale=k)
    pts = np.array([[0.7, 1.3], [1.5, 0.6], [2.2, 2.0]])
    np.testing.assert_allclose(
        smvbs_pdf(pts * k, scaled),
        smvbs_pdf(pts, MODERATE) / k.prod(),
        rtol=1e-12,
    )


def test_reciprocal_closure_at_density_level():
    # inverting one coordinate flips the sign of lambda
    inv = transform_params(MODERATE, invert=(True, False))
    assert inv.lam == -MODERATE.lam
    assert inv.betas[0] == pytest.approx(1.0 / MODERATE.betas[0])
    pts = np.array([[0.7, 1.3], [1.5, 0.6], [2.2, 2.0]])
    flipped = pts.copy()
    flipped[:, 0] = 1.0 / flipped[:, 0]
    np.testing.assert_allclose(
        smvbs_pdf(flipped, inv),
        smvbs_pdf(pts, MODERATE) * pts[:, 0] ** 2,
        rtol=1e-12,
    )
    # inverting both margins returns lambda to its original sign
    both = transform_params(MODERATE, invert=(True, True))
    assert both.lam == MODERATE.lam


def test_transform_params_argument_errors():
    with pytest.raises(ValueError):
        transform_params(MODERATE, scale=(1.0,))
    with pytest.raises(ValueError):
        transform_params(MODERATE, scale=(1.0, -2.0))
    with pytest.raises(ValueError):
        transform_params(MODERATE, invert=(True,))


def test_latent_correlation_basic_shape():
    assert latent_correlation(0.0) == 0.0
    grid = np.linspace(0.2, 6.0, 15)
    vals = np.array([latent_correlation(l) for l in grid])
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals < 2.0 / math.pi)
    for lam in (0.5, 1.7):
        assert latent_correlation(-lam) == pytest.approx(
            -latent_correlation(lam), abs=1e-15
        )


def test_latent_correlation_reference_values():
    assert latent_correlation(0.5) == pytest.approx(0.31301983463357314, rel=1e-12)
    assert latent_correlation(1.0) == pytest.approx(0.4507176855561605, rel=1e-12)
    assert latent_correlation(2.0) == pytest.approx(0.5506866971456811, rel=1e-12)


def test_latent_correlation_matches_monte_carlo():
    lam = 1.0
    params = SmvbsParams((0.5, 0.5), (1.0, 1.0), lam)
    draws = smvbs_sample(2_000_000, params, np.random.default_rng(37))
    z = np.column_stack(
        [a_transform(draws[:, j], 0.5, 1.0) for j in range(2)]
    )
    r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    rho = latent_correlation(lam)
    se = (1.0 - rho * rho) / math.sqrt(z.shape[0])
    assert abs(r - rho) < 3 * se


def test_product_moment_closed_form_at_lambda_zero():
    p = SmvbsParams((0.5, 0.5), (1.0, 1.0), 0.0)
    pm = product_moment(p)
    assert pm.value == pytest.approx(1.265625, abs=1e-15)
    assert pm.mc_se == 0.0 and pm.draws == 0
    scaled = product_moment(transform_params(p, scale=(2.0, 3.0)))
    assert scaled.value == pytest.approx(6.0 * 1.265625, rel=1e-14)


def test_product_moment_monte_carlo_self_consistency():
    pm1 = product_moment(MODERATE, mc_draws=300_000, rng=np.random.default_rng(1))
    pm2 = product_moment(MODERATE, mc_draws=300_000, rng=np.random.default_rng(2))
    assert pm1.mc_se > 0 and pm1.draws == 300_000
    gap = math.hypot(pm1.mc_se, pm2.mc_se)
    assert abs(pm1.value - pm2.value) < 4 * gap


def test_product_moment_rejects_bad_input():
    p3 = SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 1.0)
    with pytest.raises(ValueError):
        product_moment(p3)
    with pytest.raises(ValueError):
        product_moment(MODERATE, mc_draws=1)


def _count_modes(params, m=161):
    qs = np.linspace(0.001, 0.999, m)
    g1 = bs_quantile(qs, params.alphas[0], params.betas[0])
    g2 = bs_quantile(qs, params.alphas[1], params.betas[1])
    t1, t2 = np.meshgrid(g1, g2, indexing="ij")
    z = smvbs_log_pdf(np.column_stack([t1.ravel(), t2.ravel()]), params)
    z = z.reshape(m, m)
    count = 0
    for i in range(1, m - 1):
        for j in range(1, m - 1):
            nb = z[i - 1 : i + 2, j - 1 : j + 2].copy()
            nb[1, 1] = -np.inf
            if z[i, j] > nb.max():
                count += 1
    return count


def test_mode_count_flips_with_skewness_strength():
    # small |lambda| keeps one interior mode; a strong lambda with small
    # alphas splits the density into two humps
    assert _count_modes(UNIMODAL) == 1
    assert _count_modes(BIMODAL) == 2
