import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from skewbs import (
    BsParams,
    SmvbsParams,
    a_transform,
    bs_cdf,
    bs_log_pdf,
    bs_moments,
    bs_pdf,
    bs_quantile,
    bs_sample,
    gbs_pdf,
    make_generator,
    smvbs_sample,
)


def test_params_validation():
    with pytest.raises(ValueError):
        BsParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        BsParams(0.5, 0.0)
    with pytest.raises(ValueError):
        BsParams(math.nan, 1.0)


def test_a_transform_sign_and_zero():
    assert a_transform(2.0, 0.5, 2.0) == 0.0
    assert a_transform(1.0, 0.5, 2.0) < 0 < a_transform(4.0, 0.5, 2.0)


def test_per_column_transforms_match_column_loop():
    # the joint densities call these once on an (n, p) array with
    # per-column alphas and betas; the arithmetic is the column loop's
    from skewbs.univariate import _log_jacobian

    x = np.random.default_rng(5).lognormal(size=(50, 3))
    alphas, betas = (0.3, 0.8, 2.0), (1.0, 0.5, 3.0)
    for fn in (a_transform, _log_jacobian):
        loop = np.column_stack([fn(x[:, j], alphas[j], betas[j]) for j in range(3)])
        np.testing.assert_array_equal(fn(x, alphas, betas), loop)
    assert isinstance(a_transform(2.0, 0.5, 2.0), float)


def test_pdf_value_at_median():
    # f(beta) = 1 / (sqrt(2 pi) alpha beta)
    for alpha, beta in ((0.5, 2.0), (1.2, 0.7)):
        ref = 1.0 / (math.sqrt(2 * math.pi) * alpha * beta)
        assert bs_pdf(beta, alpha, beta) == pytest.approx(ref, rel=1e-14)


def test_pdf_normalizes():
    for alpha, beta in ((0.3, 1.0), (0.8, 2.0), (2.0, 0.5)):
        total, _ = integrate.quad(
            lambda t: bs_pdf(t, alpha, beta), 0, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_pdf_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bs_pdf(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        bs_log_pdf(np.array([1.0, -2.0]), 0.5, 1.0)


def test_cdf_median_and_monotonicity():
    assert bs_cdf(2.0, 0.5, 2.0) == pytest.approx(0.5, abs=1e-15)
    t = np.linspace(0.1, 10, 50)
    assert np.all(np.diff(bs_cdf(t, 0.5, 2.0)) > 0)


def test_cdf_matches_pdf_quadrature():
    alpha, beta = 0.7, 1.5
    for t in (0.4, 1.0, 2.5, 6.0):
        ref, _ = integrate.quad(lambda s: bs_pdf(s, alpha, beta), 0, t, limit=200)
        assert bs_cdf(t, alpha, beta) == pytest.approx(ref, abs=1e-10)


def test_quantile_round_trip_and_edges():
    alpha, beta = 0.6, 3.0
    q = np.array([0.01, 0.2, 0.5, 0.8, 0.99])
    t = bs_quantile(q, alpha, beta)
    np.testing.assert_allclose(bs_cdf(t, alpha, beta), q, atol=1e-12)
    assert bs_quantile(0.0, alpha, beta) == 0.0
    assert bs_quantile(1.0, alpha, beta) == math.inf
    assert bs_quantile(0.5, alpha, beta) == pytest.approx(beta, rel=1e-14)


def test_inverse_transform_keeps_precision_at_large_alpha():
    # the squared form beta (h + sqrt(h^2 + 1))^2 cancelled to exact zeros
    # for large negative h = alpha z / 2
    alpha, beta = 1e8, 1.0
    q = np.array([1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6])
    h = 0.5 * alpha * special.ndtri(q)
    s = (np.abs(h) + np.sqrt(h * h + 1.0)) ** 2
    reciprocal = beta * np.where(h < 0.0, 1.0 / s, s)
    np.testing.assert_allclose(bs_quantile(q, alpha, beta), reciprocal, rtol=1e-12, atol=0.0)
    assert bs_quantile(1e-6, alpha, beta) > 0.0
    draws = bs_sample(10_000, alpha, beta, rng=np.random.default_rng(1))
    assert np.all(np.isfinite(draws) & (draws > 0.0))
    joint = smvbs_sample(10_000, SmvbsParams((alpha, 0.5), (1.0, 1.0), 0.5), np.random.default_rng(1))
    assert np.all(np.isfinite(joint) & (joint > 0.0))


def test_scale_closure_at_density_level():
    # k T ~ BS(alpha, k beta)
    alpha, beta, k = 0.5, 2.0, 3.7
    t = np.array([0.5, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(
        bs_pdf(k * t, alpha, k * beta), bs_pdf(t, alpha, beta) / k, rtol=1e-13
    )


def test_reciprocal_closure_at_density_level():
    # 1/T ~ BS(alpha, 1/beta)
    alpha, beta = 0.5, 2.0
    s = np.array([0.2, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(
        bs_pdf(s, alpha, 1.0 / beta),
        bs_pdf(1.0 / s, alpha, beta) / s**2,
        rtol=1e-12,
    )


def _moments_by_quadrature(alpha, beta):
    def moment(fn):
        val, _ = integrate.quad(
            lambda t: fn(t) * bs_pdf(t, alpha, beta), 0, np.inf, limit=400
        )
        return val

    m1 = moment(lambda t: t)
    m2 = moment(lambda t: t * t)
    var = m2 - m1 * m1
    sd = math.sqrt(var)
    m3 = moment(lambda t: (t - m1) ** 3)
    m4 = moment(lambda t: (t - m1) ** 4)
    return {
        "mean": m1,
        "variance": var,
        "skewness": m3 / sd**3,
        "kurtosis": m4 / var**2,
        "mean_reciprocal": moment(lambda t: 1.0 / t),
        "variance_reciprocal": moment(lambda t: t**-2) - moment(lambda t: 1.0 / t) ** 2,
    }


@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_moment_formulas_match_quadrature(alpha):
    beta = 2.0
    m = bs_moments(alpha, beta)
    ref = _moments_by_quadrature(alpha, beta)
    assert m.mean == pytest.approx(ref["mean"], rel=1e-9)
    assert m.variance == pytest.approx(ref["variance"], rel=1e-9)
    assert m.skewness == pytest.approx(ref["skewness"], rel=1e-7)
    assert m.kurtosis == pytest.approx(ref["kurtosis"], rel=1e-7)
    assert m.mean_reciprocal == pytest.approx(ref["mean_reciprocal"], rel=1e-9)
    assert m.variance_reciprocal == pytest.approx(ref["variance_reciprocal"], rel=1e-9)


def test_moment_values_worked_example():
    m = bs_moments(0.5, 2.0)
    assert m.mean == pytest.approx(2.25)
    assert m.variance == pytest.approx(1.3125)
    # reciprocal moments mirror the mean/variance with beta -> 1/beta
    assert m.mean_reciprocal == pytest.approx(1.125 / 2.0)
    assert m.variance_reciprocal == pytest.approx(0.25 * 1.3125 / 4.0)


def test_sampler_distribution_and_determinism():
    alpha, beta = 0.5, 2.0
    t1 = bs_sample(100_000, alpha, beta, rng=np.random.default_rng(11))
    t2 = bs_sample(100_000, alpha, beta, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(t1, t2)
    assert np.all(t1 > 0)
    stat = stats.kstest(t1, lambda x: bs_cdf(x, alpha, beta))
    assert stat.pvalue > 0.01
    m = bs_moments(alpha, beta)
    assert t1.mean() == pytest.approx(m.mean, abs=4 * math.sqrt(m.variance / t1.size))


ALL_GENERATORS = [
    ("normal", {}),
    ("cauchy", {}),
    ("student_t", {"nu": 5.0}),
    ("gen_student_t", {"s": 3.0, "r": 5.0}),
    ("logistic_i", {}),
    ("logistic_ii", {}),
    ("power_exp", {"k": 0.5}),
    # edge parameters: the heaviest tails and the flattest and sharpest peaks
    ("student_t", {"nu": 0.5}),
    ("power_exp", {"k": -0.9}),
    ("power_exp", {"k": 1.0}),
    ("gen_student_t", {"s": 0.01, "r": 0.5}),
]


@pytest.mark.parametrize("name,params", ALL_GENERATORS)
def test_generator_normalizes(name, params):
    gen = make_generator(name, **params)
    total, _ = integrate.quad(lambda z: gen.pdf(z), -np.inf, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name,params", ALL_GENERATORS)
def test_generator_cdf_matches_pdf_quadrature(name, params):
    gen = make_generator(name, **params)
    for x in (-1.5, 0.0, 0.8, 2.5):
        ref, _ = integrate.quad(lambda z: gen.pdf(z), -np.inf, x, limit=200)
        assert gen.cdf(x) == pytest.approx(ref, abs=5e-8)


def test_normal_generator_reduces_to_bs():
    gen = make_generator("normal")
    t = np.array([0.3, 1.0, 2.4, 7.0])
    np.testing.assert_allclose(
        gbs_pdf(t, 0.5, 2.0, gen), bs_pdf(t, 0.5, 2.0), rtol=1e-12
    )


def test_cauchy_equals_student_t_one():
    gc = make_generator("cauchy")
    g1 = make_generator("student_t", nu=1.0)
    z = np.linspace(-4, 4, 33)
    np.testing.assert_allclose(gc.pdf(z), g1.pdf(z), rtol=1e-12)
    np.testing.assert_allclose(gc.cdf(z), g1.cdf(z), atol=1e-12)


def test_student_t_matches_reference():
    z = np.linspace(-5, 5, 41)
    tail = np.linspace(-40, -1, 79)
    for nu in (1.0, 5.0, 30.0):
        gen = make_generator("student_t", nu=nu)
        np.testing.assert_allclose(gen.pdf(z), stats.t.pdf(z, nu), rtol=1e-12)
        np.testing.assert_allclose(gen.cdf(z), stats.t.cdf(z, nu), atol=1e-12)
        # the lower tail keeps its relative accuracy (1 - I_q cancels there)
        np.testing.assert_allclose(gen.cdf(tail), stats.t.cdf(tail, nu), rtol=1e-13)


def test_logistic_ii_is_standard_logistic():
    gen = make_generator("logistic_ii")
    z = np.linspace(-6, 6, 25)
    np.testing.assert_allclose(gen.cdf(z), special.expit(z), atol=1e-14)
    np.testing.assert_allclose(gen.pdf(z), stats.logistic.pdf(z), rtol=1e-12)


def test_logistic_i_constant_and_cdf():
    gen = make_generator("logistic_i")
    assert gen.norm_const == pytest.approx(1.4843000268115583, rel=1e-9)
    for x in np.linspace(-8.0, 8.0, 33):
        ref, _ = integrate.quad(lambda z: gen.pdf(z), -np.inf, x, limit=200)
        assert gen.cdf(x) == pytest.approx(ref, abs=5e-9)
    assert gen.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert gen.cdf(math.inf) == 1.0 and gen.cdf(-math.inf) == 0.0


@pytest.mark.parametrize("k", [-0.5, 0.0, 0.5, 1.0])
def test_power_exp_constant_closed_form(k):
    # the normalizer is 1 / (Gamma((k+3)/2) 2^((k+3)/2))
    gen = make_generator("power_exp", k=k)
    closed = 1.0 / (special.gamma((k + 3.0) / 2.0) * 2.0 ** ((k + 3.0) / 2.0))
    assert gen.norm_const == pytest.approx(closed, rel=1e-14)


def test_power_exp_zero_is_normal():
    gp = make_generator("power_exp", k=0.0)
    gn = make_generator("normal")
    z = np.linspace(-4, 4, 33)
    np.testing.assert_allclose(gp.pdf(z), gn.pdf(z), rtol=1e-12)
    np.testing.assert_allclose(gp.cdf(z), gn.cdf(z), atol=1e-12)


def test_gbs_pdf_normalizes_with_heavy_tails():
    gen = make_generator("student_t", nu=5.0)
    total, _ = integrate.quad(
        lambda t: gbs_pdf(t, 0.5, 1.0, gen), 0, np.inf, limit=400
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_generator_argument_errors():
    with pytest.raises(ValueError):
        make_generator("nope")
    with pytest.raises(ValueError):
        make_generator("student_t", nu=0.0)
    with pytest.raises(ValueError):
        make_generator("gen_student_t", s=-1.0, r=2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="nu"):
            make_generator("student_t", nu=bad)
        with pytest.raises(ValueError, match="finite s"):
            make_generator("gen_student_t", s=bad, r=2.0)
        with pytest.raises(ValueError, match="finite r"):
            make_generator("gen_student_t", s=1.0, r=bad)
    with pytest.raises(ValueError):
        make_generator("power_exp", k=1.5)
