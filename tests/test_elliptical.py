import math

import numpy as np
import pytest
from scipy import integrate

from skewbs import (
    KbjParams,
    SbvgbsParams,
    SmvbsParams,
    gbs_pdf,
    kbj_log_pdf,
    make_generator,
    sbvbs_t_mle,
    sbvbs_t_pdf,
    sbvgbs_log_pdf,
    sbvgbs_pdf,
    smvbs_log_pdf,
    smvbs_pdf,
)
from skewbs.elliptical import _t_pass, sbvbs_t_observed_info
from skewbs.inference import _kbj_pass, kbj_loglik, kbj_observed_info

PTS = np.array([[0.7, 1.3], [1.5, 0.6], [2.2, 2.0], [0.9, 0.9]])


def _params(gen, alphas=(0.5, 0.6), betas=(1.0, 2.0), lam=1.2):
    return SbvgbsParams(alphas, betas, lam, gen)


def test_params_validation():
    gen = make_generator("normal")
    with pytest.raises(ValueError):
        SbvgbsParams((0.5,), (1.0,), 0.0, gen)  # bivariate only
    with pytest.raises(ValueError):
        SbvgbsParams((0.5, -0.2), (1.0, 1.0), 0.0, gen)
    with pytest.raises(ValueError):
        SbvgbsParams((0.5, 0.5), (1.0, 1.0), math.nan, gen)


def test_normal_generator_reduces_to_skewed_bs():
    gen = make_generator("normal")
    for lam in (-2.0, 0.0, 1.2):
        ours = sbvgbs_pdf(PTS, _params(gen, lam=lam))
        ref = smvbs_pdf(PTS, SmvbsParams((0.5, 0.6), (1.0, 2.0), lam))
        np.testing.assert_allclose(ours, ref, rtol=1e-12)


@pytest.mark.parametrize(
    "name,kw",
    [("student_t", {"nu": 5.0}), ("logistic_ii", {}), ("power_exp", {"k": 0.5})],
)
def test_lambda_zero_factorizes_into_gbs_margins(name, kw):
    gen = make_generator(name, **kw)
    params = _params(gen, lam=0.0)
    ref = gbs_pdf(PTS[:, 0], 0.5, 1.0, gen) * gbs_pdf(PTS[:, 1], 0.6, 2.0, gen)
    np.testing.assert_allclose(sbvgbs_pdf(PTS, params), ref, rtol=1e-12)


def test_t_convenience_wrapper():
    nu = 4.0
    gen = make_generator("student_t", nu=nu)
    ours = sbvbs_t_pdf(PTS, (0.5, 0.6), (1.0, 2.0), 1.2, nu)
    ref = sbvgbs_pdf(PTS, _params(gen))
    np.testing.assert_allclose(ours, ref, rtol=1e-14)


def test_t_generator_large_nu_approaches_normal():
    ours = sbvbs_t_pdf(PTS, (0.5, 0.6), (1.0, 2.0), 1.2, 1e6)
    ref = smvbs_pdf(PTS, SmvbsParams((0.5, 0.6), (1.0, 2.0), 1.2))
    np.testing.assert_allclose(ours, ref, rtol=1e-4)


def test_t_generator_nu_one_is_cauchy():
    ours = sbvbs_t_pdf(PTS, (0.5, 0.6), (1.0, 2.0), 1.2, 1.0)
    ref = sbvgbs_pdf(PTS, _params(make_generator("cauchy")))
    np.testing.assert_allclose(ours, ref, rtol=1e-12)


def _importance_normalization(gen, latent_sampler, lam, n=400_000):
    # proposal: independent GBS margins built from the same generator,
    # so the weight is exactly 2 F(lam a1 a2), bounded by 2
    rng = np.random.default_rng(211)
    alphas, betas = (0.5, 0.6), (1.0, 2.0)
    cols = []
    for j in range(2):
        z = latent_sampler(rng, n)
        half = 0.5 * alphas[j] * z
        cols.append(betas[j] * (half + np.sqrt(half * half + 1.0)) ** 2)
    pts = np.column_stack(cols)
    base = np.log(gbs_pdf(pts[:, 0], 0.5, 1.0, gen)) + np.log(
        gbs_pdf(pts[:, 1], 0.6, 2.0, gen)
    )
    w = np.exp(sbvgbs_log_pdf(pts, _params(gen, lam=lam)) - base)
    assert np.all(w <= 2.0 + 1e-9)
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(n))


def test_t_generator_normalization():
    gen = make_generator("student_t", nu=5.0)
    mean, se = _importance_normalization(
        gen, lambda rng, n: rng.standard_t(5.0, n), lam=1.2
    )
    assert abs(mean - 1.0) < 3 * se


def test_logistic_generator_normalization():
    gen = make_generator("logistic_ii")
    mean, se = _importance_normalization(
        gen, lambda rng, n: rng.logistic(size=n), lam=-0.8
    )
    assert abs(mean - 1.0) < 3 * se


def test_marginal_of_joint_is_gbs():
    gen = make_generator("student_t", nu=5.0)
    params = _params(gen, lam=1.5)
    for t1 in (0.5, 1.0, 2.0):
        val, _ = integrate.quad(
            lambda t2: sbvgbs_pdf(np.array([t1, t2]), params),
            0,
            np.inf,
            limit=400,
        )
        assert val == pytest.approx(gbs_pdf(t1, 0.5, 1.0, gen), rel=1e-6)


def test_scale_closure_at_density_level():
    gen = make_generator("student_t", nu=4.0)
    k = np.array([2.5, 0.4])
    scaled = SbvgbsParams((0.5, 0.6), tuple(np.array([1.0, 2.0]) * k), 1.2, gen)
    np.testing.assert_allclose(
        sbvgbs_pdf(PTS * k, scaled),
        sbvgbs_pdf(PTS, _params(gen)) / k.prod(),
        rtol=1e-12,
    )


def test_reciprocal_closure_flips_lambda():
    gen = make_generator("student_t", nu=4.0)
    inv = SbvgbsParams((0.5, 0.6), (1.0, 0.5), -1.2, gen)
    flipped = PTS.copy()
    flipped[:, 1] = 1.0 / flipped[:, 1]
    np.testing.assert_allclose(
        sbvgbs_pdf(flipped, inv),
        sbvgbs_pdf(PTS, _params(gen)) * PTS[:, 1] ** 2,
        rtol=1e-12,
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "log_pdf,params",
    [
        (smvbs_log_pdf, SmvbsParams((0.5, 0.6), (1.0, 2.0), 1.2)),
        (sbvgbs_log_pdf, _params(make_generator("student_t", nu=4.0))),
        (kbj_log_pdf, KbjParams((0.5, 0.6), (1.0, 2.0), 0.3)),
    ],
    ids=["smvbs", "sbvgbs", "kbj"],
)
@pytest.mark.parametrize(
    "point",
    [[math.nan, 1.0], [math.inf, 1.0], [0.0, 1.0], [-1.0, 1.0], [1.0, 1.0, 1.0]],
    ids=["nan", "inf", "zero", "negative", "width"],
)
def test_joint_densities_reject_bad_points(log_pdf, params, point):
    for x in (np.array(point), np.array([point, [1.0] * len(point)])):
        with pytest.raises(ValueError):
            log_pdf(x, params)


def _five_point_gradient(f, theta, rel=1e-4):
    g = np.empty(theta.size)
    for i in range(theta.size):
        step = np.zeros(theta.size)
        step[i] = rel * max(abs(theta[i]), 1.0)
        g[i] = (
            -f(theta + 2 * step) + 8 * f(theta + step) - 8 * f(theta - step) + f(theta - 2 * step)
        ) / (12 * step[i])
    return g


@pytest.mark.parametrize("nu", [1.0, 4.0, 30.0])
@pytest.mark.parametrize("lam", [-1.5, 0.0, 0.8])
def test_t_score_matches_finite_differences(volle, nu, lam):
    params = SbvgbsParams((0.2, 0.4), (110.0, 90.0), lam, make_generator("student_t", nu=nu))
    ll, g, _ = _t_pass(params, volle)
    assert ll == pytest.approx(sbvgbs_log_pdf(volle.data, params).sum(), rel=1e-14)
    fd = _five_point_gradient(
        lambda th: sbvgbs_log_pdf(volle.data, params.from_vector(th)).sum(), params.as_vector()
    )
    assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-8


_KBJ_CASES = [("kbj", rho, None) for rho in (-0.9, -0.3, 0.0, 0.5, 0.95)]
_T_CASES = [("gbs-t", lam, nu) for nu in (1.0, 4.0, 30.0) for lam in (-3.0, -0.7, 0.0, 0.8, 5.0)]


@pytest.mark.parametrize("model,shape,nu", _KBJ_CASES + _T_CASES)
def test_observed_info_matches_five_point_stencil_of_score(volle, model, shape, nu):
    if model == "kbj":
        params = KbjParams((0.2, 0.4), (110.0, 90.0), shape)
        ll, g, _ = _kbj_pass(params, volle)
        assert ll == kbj_loglik(params, volle)
        fd = _five_point_gradient(
            lambda th: kbj_loglik(KbjParams.from_vector(th), volle), params.as_vector()
        )
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-8
        info = kbj_observed_info(params, volle)
        score = lambda th: _kbj_pass(KbjParams.from_vector(th), volle)[1]
    else:
        params = SbvgbsParams((0.2, 0.4), (110.0, 90.0), shape, make_generator("student_t", nu=nu))
        info = sbvbs_t_observed_info(params, volle)
        score = lambda th: _t_pass(params.from_vector(th), volle)[1]
    theta = params.as_vector()
    fd = -np.array([_five_point_gradient(lambda th: score(th)[i], theta) for i in range(theta.size)])
    np.testing.assert_array_equal(info, info.T)
    assert np.max(np.abs(info - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-7


# Log likelihood and estimates of the finite-difference BFGS fit this
# model had before it joined the shared fitter; that fit stopped at a
# score sup norm near 2e-5, so the estimates agree only to about 1e-6.
T_FIT_REFERENCE = {
    1.0: (
        -278.93945634415775,
        (0.12427843607231107, 0.30252159721371125, 106.33508784135591, 85.25312986823573, 0.688252118975963),
    ),
    4.0: (
        -268.4797224581487,
        (0.17525521797623825, 0.36719162270432043, 110.98068778596925, 89.72824080083295, 0.7831299526750455),
    ),
    30.0: (
        -265.8037368641086,
        (0.199897430005908, 0.4029055541539804, 112.93248955375705, 90.65440727071746, 0.8637959340553805),
    ),
}


@pytest.mark.parametrize("nu", sorted(T_FIT_REFERENCE))
def test_t_mle_is_certified_and_matches_reference(volle, nu):
    fit = sbvbs_t_mle(volle, nu)
    loglik, theta = T_FIT_REFERENCE[nu]
    assert fit.converged
    assert fit.score_norm <= 1e-8 and fit.step_norm <= 1e-10
    assert fit.params.generator.params["nu"] == nu
    assert fit.loglik == pytest.approx(loglik, rel=1e-9)
    np.testing.assert_allclose(fit.params.as_vector(), theta, rtol=1e-5)
