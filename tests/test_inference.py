import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import skewbs as sk
from skewbs import (
    KbjParams,
    SampleMatrix,
    bs_pdf,
    bs_sample,
    gof_marginal,
    kbj_log_pdf,
    kbj_mle,
    kbj_pdf,
    lr_test,
    smvbs_log_pdf,
    vuong_test,
)
from skewbs.inference import kbj_loglik

LR_REF = 6.68343590197037
VUONG_REF = 0.8972647781997272
KBJ_REF = (0.20352094113879438, 0.40993302654456815, 115.76184409325643, 91.88900688971798)
KBJ_RHO_REF = 0.4177403995900454
KBJ_LOGLIK_REF = -266.1172788271776
GOF1_REF = (0.09488039402735957, 0.5539061345874506)
GOF2_REF = (0.05125559313816601, 0.3145177361662229)


def test_lr_reference_value(volle_mle, volle_restricted):
    rep = lr_test(volle_mle, volle_restricted)
    assert rep.name == "lr" and rep.df == 1
    assert rep.statistic == pytest.approx(LR_REF, rel=1e-9)
    assert rep.p_value == pytest.approx(0.009731287012892855, rel=1e-9)
    assert rep.p_value < 0.01
    assert rep.verdict.startswith("reject the restriction")


def test_lr_zero_for_identical_fits(volle_mle):
    rep = lr_test(volle_mle, volle_mle)
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0
    assert rep.verdict.startswith("no evidence")


def test_lr_rejects_misordered_fits(volle_mle, volle_restricted):
    with pytest.raises(ValueError):
        lr_test(volle_restricted, volle_mle)
    with pytest.raises(ValueError):
        lr_test(volle_mle, volle_restricted, level=1.5)


def test_lr_respects_level(volle_mle, volle_restricted):
    rep = lr_test(volle_mle, volle_restricted, level=0.001)
    assert rep.verdict.startswith("no evidence")


def test_vuong_reference_value(volle, volle_mle, volle_kbj):
    la = smvbs_log_pdf(volle.data, volle_mle.params)
    lb = kbj_log_pdf(volle.data, volle_kbj.params)
    rep = vuong_test(la, lb, names=("smvbs", "kbj"))
    assert rep.statistic == pytest.approx(VUONG_REF, rel=1e-8)
    assert rep.verdict == "models statistically equivalent"
    assert rep.df is None


def test_vuong_antisymmetry_and_shift_invariance(volle, volle_mle, volle_kbj):
    la = smvbs_log_pdf(volle.data, volle_mle.params)
    lb = kbj_log_pdf(volle.data, volle_kbj.params)
    fwd = vuong_test(la, lb)
    rev = vuong_test(lb, la)
    assert rev.statistic == pytest.approx(-fwd.statistic, rel=1e-12)
    # adding a shared per-observation constant changes nothing
    c = 3.5 * np.log(volle.data[:, 0]) + 1.0
    shifted = vuong_test(la + c, lb + c)
    assert shifted.statistic == pytest.approx(fwd.statistic, rel=1e-10)


def test_vuong_clear_preference():
    rng = np.random.default_rng(8)
    la = rng.normal(0.0, 0.5, 200)
    rep = vuong_test(la + 1.0, la, names=("better", "worse"))
    assert rep.verdict == "favor better"
    rep2 = vuong_test(la, la + 1.0, names=("worse", "better"))
    assert rep2.verdict == "favor better"


def test_vuong_degenerate_and_bad_input():
    with pytest.raises(ValueError):
        vuong_test(np.ones(10), np.zeros(10))  # constant difference
    with pytest.raises(ValueError):
        vuong_test(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        vuong_test(np.ones(5), np.zeros(5), level=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tests_refuse_non_finite_log_likelihoods(volle_mle, bad):
    with pytest.raises(ValueError, match="finite"):
        vuong_test([0.0, bad, 1.0], [0.5, 0.2, 0.1])
    with pytest.raises(ValueError, match="finite"):
        vuong_test([0.5, 0.2, 0.1], [0.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        lr_test(replace(volle_mle, loglik=bad), volle_mle)
    with pytest.raises(ValueError, match="finite"):
        lr_test(volle_mle, replace(volle_mle, loglik=bad))


def test_kbj_density_reduces_to_product_at_zero_rho():
    params = KbjParams((0.5, 0.7), (1.0, 2.0), 0.0)
    pts = np.array([[0.7, 1.5], [1.2, 2.4], [2.0, 0.9]])
    ref = bs_pdf(pts[:, 0], 0.5, 1.0) * bs_pdf(pts[:, 1], 0.7, 2.0)
    np.testing.assert_allclose(kbj_pdf(pts, params), ref, rtol=1e-13)


def test_kbj_density_normalizes():
    params = KbjParams((0.4, 0.6), (1.0, 2.0), 0.55)
    total, _ = integrate.dblquad(
        lambda t2, t1: kbj_pdf(np.array([t1, t2]), params),
        1e-9,
        40.0,
        lambda _: 1e-9,
        lambda _: 80.0,
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_kbj_params_validation():
    with pytest.raises(ValueError):
        KbjParams((0.5, 0.5), (1.0, 1.0), 1.0)  # |rho| < 1 required
    with pytest.raises(ValueError):
        KbjParams((0.5, -0.5), (1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        KbjParams((0.5,), (1.0,), 0.0)


def test_kbj_fit_reference_values(volle_kbj):
    got = (*volle_kbj.params.alphas, *volle_kbj.params.betas)
    np.testing.assert_allclose(got, KBJ_REF, rtol=1e-6)
    assert volle_kbj.params.rho == pytest.approx(KBJ_RHO_REF, rel=1e-6)
    assert volle_kbj.loglik == pytest.approx(KBJ_LOGLIK_REF, rel=1e-10)
    assert volle_kbj.converged
    assert volle_kbj.score_norm <= 1e-6
    assert volle_kbj.step_norm <= 1e-10


def test_kbj_fit_is_local_maximum_in_rho(volle, volle_kbj):
    a, b = volle_kbj.params.alphas, volle_kbj.params.betas
    center = volle_kbj.loglik
    for d in (-0.03, 0.03):
        trial = KbjParams(a, b, volle_kbj.params.rho + d)
        assert kbj_loglik(trial, volle) < center


def test_kbj_fit_recovers_truth_on_synthetic_data():
    rng = np.random.default_rng(60)
    rho = 0.6
    z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=4000)
    cols = []
    for j, (a, b) in enumerate(((0.5, 1.0), (0.8, 2.0))):
        half = 0.5 * a * z[:, j]
        cols.append(b * (half + np.sqrt(half * half + 1.0)) ** 2)
    fit = kbj_mle(SampleMatrix(np.column_stack(cols)))
    assert fit.converged
    np.testing.assert_allclose(fit.params.alphas, (0.5, 0.8), rtol=0.05)
    np.testing.assert_allclose(fit.params.betas, (1.0, 2.0), rtol=0.05)
    assert fit.params.rho == pytest.approx(rho, abs=0.05)


def test_gof_reference_values(volle, volle_mle):
    r1 = gof_marginal(
        volle.column(0), volle_mle.params.alphas[0], volle_mle.params.betas[0]
    )
    r2 = gof_marginal(
        volle.column(1), volle_mle.params.alphas[1], volle_mle.params.betas[1]
    )
    assert (r1.w2_star, r1.a2_star) == pytest.approx(GOF1_REF, rel=1e-10)
    assert (r2.w2_star, r2.a2_star) == pytest.approx(GOF2_REF, rel=1e-10)
    for r in (r1, r2):
        assert r.w2_verdict == "p > 0.10"
        assert r.a2_verdict == "p > 0.10"
        assert r.n == 28


def test_gof_invariant_to_alpha_and_scale(volle, volle_mle):
    col = volle.column(0)
    beta = volle_mle.params.betas[0]
    base = gof_marginal(col, 0.2, beta)
    # alpha cancels in the standardization
    other = gof_marginal(col, 0.9, beta)
    assert other.w2_star == pytest.approx(base.w2_star, rel=1e-12)
    assert other.a2_star == pytest.approx(base.a2_star, rel=1e-12)
    # and rescaling data and beta together changes nothing
    scaled = gof_marginal(10.0 * col, 0.2, 10.0 * beta)
    assert scaled.w2_star == pytest.approx(base.w2_star, rel=1e-10)
    assert scaled.a2_star == pytest.approx(base.a2_star, rel=1e-10)


def test_gof_detects_wrong_shape():
    # estimating both parameters of the reference normal law absorbs
    # scale errors, so the power is against shape: clearly non-BS data
    # must be flagged
    rng = np.random.default_rng(3)
    uniform = rng.uniform(1.0, 2.0, 100)
    rep = gof_marginal(uniform, 0.5, 1.5)
    assert rep.w2_verdict == "p <= 0.01"
    assert rep.a2_verdict == "p <= 0.01"
    bimodal = np.concatenate(
        [rng.normal(1.0, 0.05, 60), rng.normal(3.0, 0.05, 60)]
    )
    rep = gof_marginal(bimodal, 0.5, 1.8)
    assert rep.a2_verdict == "p <= 0.01"


def test_gof_clips_extreme_transforms_with_warning():
    col = np.array([0.9, 1.0, 1.1, 1.2, 1e9])
    with pytest.warns(UserWarning, match="clipped"):
        gof_marginal(col, 0.3, 1.0)


def test_gof_input_validation():
    with pytest.raises(ValueError):
        gof_marginal(np.array([1.0, 2.0, 3.0]), 0.5, 1.0)  # too short


def test_gof_null_distribution_calibration():
    # under the true model the 10%-level rejection rates should sit
    # near their nominal levels
    rng = np.random.default_rng(73)
    w_reject = a_reject = 0
    reps = 200
    for _ in range(reps):
        col = bs_sample(200, 0.6, 2.0, rng=rng)
        rep = gof_marginal(col, 0.6, 2.0)
        w_reject += rep.w2_star > 0.104
        a_reject += rep.a2_star > 0.631
    # binomial(200, 0.1) three-sigma band
    assert 0.04 <= w_reject / reps <= 0.17
    assert 0.04 <= a_reject / reps <= 0.17


def test_lr_null_size_is_calibrated():
    # fitting lambda on lambda-free data should reject near the nominal
    # 5% rate
    truth = sk.SmvbsParams((0.4, 0.6), (1.0, 2.0), 0.0)
    rejections = 0
    reps = 100
    for seed in range(reps):
        data = sk.smvbs_sample(200, truth, np.random.default_rng(5000 + seed))
        sample = SampleMatrix(data)
        full = sk.mle(sample)
        restricted = sk.mle(sample, fix_lambda=0.0)
        rep = lr_test(full, restricted)
        rejections += rep.p_value < 0.05
    assert 0.0 <= rejections / reps <= 0.12
