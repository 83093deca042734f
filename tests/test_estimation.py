import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, linalg, special

import skewbs as sk
from skewbs import (
    SampleMatrix,
    SmvbsParams,
    alpha_given_beta,
    bs_log_pdf,
    confidence_intervals,
    expected_info,
    k_alpha,
    loglik,
    mle,
    mme,
    observed_info,
    profile_loglik,
    score,
    smvbs_sample,
    transform_params,
)
from skewbs import elliptical, estimation, inference, specfun
from skewbs.estimation import LikelihoodWorkspace, _orbit_brackets, param_names
from skewbs.multivariate import _sample_latent

# reference fits of the strength dataset, pinned at full precision
MME_REF = (0.20352089247999622, 0.40992865201192635, 115.74571967109176, 91.7220186426144)
MLE_REF = (0.20467023174343169, 0.41008034237633084, 113.29070414510079, 90.7447430612866, 0.8805595645972083)
MLE_LOGLIK_REF = 194.79915805800545
# the same fit at full precision, as `skewbs fit` prints it in JSON
MLE_FULL_REF = (0.20467023174343169, 0.41008034237633084, 113.29070414510079, 90.7447430612866, 0.8805595645972085)
MLE_FULL_LOGLIK_REF = 194.79915805800542
RESTRICTED_REF = (0.20352089277238644, 0.40992866549961077, 115.74696951737364, 91.71275523645538)
RESTRICTED_LOGLIK_REF = 191.45744010702026
# the exact expected information: closed-form K(alpha), product-rule brackets
EXPECTED_HW_REF = (0.053605426881489726, 0.10740463633396033, 8.068228979088389, 12.767957033011498, 0.8840626291423885)
OBSERVED_HW_REF = (0.054194988165356006, 0.10747980266426682, 8.446786871630863, 12.879270126717174, 0.8952717807986692)


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        SampleMatrix(np.array([1.0, 2.0, 3.0]))  # not 2-D
    with pytest.raises(ValueError):
        SampleMatrix(np.array([[1.0, 2.0]]))  # single row
    with pytest.raises(ValueError):
        SampleMatrix(np.array([[1.0], [2.0]]))  # single column
    with pytest.raises(ValueError):
        SampleMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    with pytest.raises(ValueError):
        SampleMatrix(np.array([[1.0, 2.0], [math.nan, 3.0]]))


def test_sample_matrix_means(volle):
    np.testing.assert_allclose(volle.s_bar, (118.14285714285714, 99.42857142857143))
    np.testing.assert_allclose(volle.r_bar, (113.3972205, 84.61278869), rtol=1e-9)
    assert volle.n == 28 and volle.p == 2
    # arithmetic mean dominates the harmonic mean
    assert np.all(np.asarray(volle.s_bar) > np.asarray(volle.r_bar))


def test_mme_reference_values(volle):
    m = mme(volle)
    got = (*m.alphas, *m.betas)
    np.testing.assert_allclose(got, MME_REF, rtol=1e-12)
    np.testing.assert_allclose(np.round(got, 4), (0.2035, 0.4099, 115.7457, 91.7220))


def test_mme_is_exactly_equivariant(volle):
    k = (10.0, 0.25)
    scaled = SampleMatrix(volle.data * np.asarray(k))
    m0, m1 = mme(volle), mme(scaled)
    np.testing.assert_allclose(m1.alphas, m0.alphas, rtol=1e-14)
    np.testing.assert_allclose(m1.betas, np.asarray(m0.betas) * np.asarray(k), rtol=1e-14)


def test_mme_rejects_degenerate_column():
    data = np.column_stack([np.full(6, 2.0), np.arange(1.0, 7.0)])
    with pytest.raises(ValueError):
        mme(SampleMatrix(data))


def test_loglik_drops_only_data_constants(volle):
    # at lambda = 0 the joint law factorizes, so the retained part must
    # differ from the sum of marginal log densities by a theta-free shift
    thetas = [
        SmvbsParams((0.3, 0.5), (100.0, 90.0), 0.0),
        SmvbsParams((0.2, 0.4), (115.0, 92.0), 0.0),
        SmvbsParams((0.9, 0.7), (80.0, 130.0), 0.0),
    ]
    shifts = []
    for th in thetas:
        full = sum(
            bs_log_pdf(volle.column(j), th.alphas[j], th.betas[j]).sum()
            for j in range(2)
        )
        shifts.append(loglik(th, volle) - full)
    assert max(shifts) - min(shifts) < 1e-9
    t = volle.data
    n = volle.n
    expected_shift = (
        -n * math.log(2.0)
        + n * 2 * (0.5 * math.log(2 * math.pi) + math.log(2.0))
        + 1.5 * np.log(t).sum()
    )
    assert shifts[0] == pytest.approx(expected_shift, rel=1e-12)


def test_loglik_scale_identity(volle):
    # rescaling data and beta together shifts the retained part by
    # (n/2) sum log k
    theta = SmvbsParams((0.3, 0.5), (100.0, 90.0), 1.2)
    k = (3.0, 0.5)
    scaled_sample = SampleMatrix(volle.data * np.asarray(k))
    scaled_theta = transform_params(theta, scale=k)
    shift = loglik(scaled_theta, scaled_sample) - loglik(theta, volle)
    assert shift == pytest.approx(
        0.5 * volle.n * (math.log(k[0]) + math.log(k[1])), rel=1e-10
    )


def _fd_score(theta_vec, sample, h_scale=6e-6):
    g = np.empty_like(theta_vec)
    for i in range(theta_vec.size):
        h = h_scale * max(abs(theta_vec[i]), 1.0)
        tp, tm = theta_vec.copy(), theta_vec.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (
            loglik(SmvbsParams.from_vector(tp), sample)
            - loglik(SmvbsParams.from_vector(tm), sample)
        ) / (2.0 * h)
    return g


def _random_thetas(rng, count, beta_lo, beta_hi):
    for _ in range(count):
        yield np.array(
            [
                rng.uniform(0.15, 1.0),
                rng.uniform(0.15, 1.0),
                rng.uniform(beta_lo, beta_hi),
                rng.uniform(beta_lo, beta_hi),
                rng.uniform(-3.0, 3.0),
            ]
        )


def test_score_matches_finite_differences(volle):
    rng = np.random.default_rng(42)
    for theta in _random_thetas(rng, 20, 70.0, 160.0):
        analytic = score(SmvbsParams.from_vector(theta), volle)
        fd = _fd_score(theta, volle)
        scale = 1.0 + np.abs(analytic).max()
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6 * scale)


def test_score_matches_finite_differences_on_synthetic(synthetic_sample):
    _, sample = synthetic_sample
    rng = np.random.default_rng(43)
    for theta in _random_thetas(rng, 5, 0.6, 2.0):
        analytic = score(SmvbsParams.from_vector(theta), sample)
        fd = _fd_score(theta, sample)
        scale = 1.0 + np.abs(analytic).max()
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=2e-6 * scale)


def test_score_lambda_component_at_zero(volle):
    # at lambda = 0 the skew weight is sqrt(2/pi), so dl/dlambda
    # reduces to sqrt(2/pi) sum prod(a)
    theta = SmvbsParams((0.25, 0.45), (110.0, 95.0), 0.0)
    a = np.column_stack(
        [
            sk.a_transform(volle.column(j), theta.alphas[j], theta.betas[j])
            for j in range(2)
        ]
    )
    expected = math.sqrt(2.0 / math.pi) * np.prod(a, axis=1).sum()
    assert score(theta, volle)[-1] == pytest.approx(expected, rel=1e-12)


def test_score_vanishes_at_mle(volle, volle_mle):
    assert np.abs(score(volle_mle.params, volle)).max() <= 1e-8


def _fd_info(params, sample, h_scale=2e-6):
    theta = params.as_vector()
    H = np.empty((theta.size, theta.size))
    for i in range(theta.size):
        h = h_scale * max(abs(theta[i]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        gp = score(SmvbsParams.from_vector(tp), sample)
        gm = score(SmvbsParams.from_vector(tm), sample)
        H[i] = (gp - gm) / (2.0 * h)
    return -0.5 * (H + H.T)


def test_observed_info_matches_score_jacobian(volle):
    rng = np.random.default_rng(44)
    for theta in _random_thetas(rng, 6, 80.0, 150.0):
        params = SmvbsParams.from_vector(theta)
        analytic = observed_info(params, volle)
        fd = _fd_info(params, volle)
        scale = np.abs(analytic).max()
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-4 * scale)


def test_observed_info_symmetric_and_positive_definite_at_mle(volle, volle_mle):
    info = observed_info(volle_mle.params, volle)
    np.testing.assert_allclose(info, info.T, rtol=1e-12)
    assert np.all(linalg.eigvalsh(info) > 0)


def test_observed_info_trivariate_matches_finite_differences():
    truth = SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 1.0)
    data = smvbs_sample(80, truth, np.random.default_rng(55))
    sample = SampleMatrix(data)
    params = SmvbsParams((0.45, 0.55, 0.5), (1.1, 1.8, 3.2), 0.7)
    analytic = observed_info(params, sample)
    fd = _fd_info(params, sample)
    scale = np.abs(analytic).max()
    np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-4 * scale)
    analytic_score = score(params, sample)
    fd_score = _fd_score(params.as_vector(), sample)
    np.testing.assert_allclose(analytic_score, fd_score, rtol=1e-6, atol=1e-6)


def _sample_with_zero_scores(params, n, seed):
    """A sample whose first row sits at beta in one coordinate and whose
    second row sits at beta in two, so some a_ij are exactly zero."""
    data = smvbs_sample(n, params, np.random.default_rng(seed))
    data[0, 1] = params.betas[1]
    data[1, 0] = params.betas[0]
    data[1, -1] = params.betas[-1]
    return SampleMatrix(data)


@pytest.mark.parametrize("p", [3, 4])
def test_score_matches_finite_differences_with_zero_scores(p):
    alphas = tuple(0.4 + 0.1 * j for j in range(p))
    betas = tuple(1.0 + 0.7 * j for j in range(p))
    params = SmvbsParams(alphas, betas, 0.8)
    sample = _sample_with_zero_scores(params, 60, 60 + p)
    ws = LikelihoodWorkspace.build(params, sample.data)
    assert ws.a[0, 1] == 0.0 and ws.a[1, 0] == ws.a[1, -1] == 0.0
    analytic = score(params, sample)
    assert np.all(np.isfinite(analytic))
    fd = _fd_score(params.as_vector(), sample)
    scale = 1.0 + np.abs(analytic).max()
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6 * scale)


def test_observed_info_four_margins_matches_finite_differences():
    params = SmvbsParams((0.45, 0.55, 0.5, 0.35), (1.1, 1.8, 3.2, 0.7), 0.7)
    sample = _sample_with_zero_scores(params, 80, 57)
    analytic = observed_info(params, sample)
    assert np.all(np.isfinite(analytic))
    fd = _fd_info(params, sample)
    scale = np.abs(analytic).max()
    np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-4 * scale)


def test_alpha_profile_identities(volle, volle_restricted):
    m = mme(volle)
    # at the moment betas the profiled alphas are the moment alphas
    np.testing.assert_allclose(
        alpha_given_beta(m.betas, volle), m.alphas, rtol=1e-12
    )
    # the restricted fit is a stationary point of the profile
    betas_hat = np.asarray(volle_restricted.params.betas)
    np.testing.assert_allclose(
        alpha_given_beta(betas_hat, volle),
        volle_restricted.params.alphas,
        rtol=1e-9,
    )
    center = profile_loglik(betas_hat, volle)
    assert center == pytest.approx(RESTRICTED_LOGLIK_REF, rel=1e-12)
    for shift in ((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)):
        assert profile_loglik(betas_hat + np.asarray(shift), volle) < center


def test_mle_reference_values(volle, volle_mle):
    np.testing.assert_allclose(volle_mle.params.as_vector(), MLE_REF, rtol=1e-9)
    assert volle_mle.loglik == pytest.approx(MLE_LOGLIK_REF, rel=1e-12)
    assert volle_mle.converged
    assert volle_mle.score_norm <= 1e-8
    assert volle_mle.step_norm <= 1e-10
    assert volle_mle.fixed_lambda is None


def test_mle_matches_full_precision_reference(volle, volle_mle):
    # the optimizer's path may change (iteration counts, hand-off point),
    # the certified optimum may not
    np.testing.assert_allclose(volle_mle.params.as_vector(), MLE_FULL_REF, rtol=1e-12)
    assert volle_mle.loglik == pytest.approx(MLE_FULL_LOGLIK_REF, rel=1e-12)


def test_restricted_mle_reference_values(volle_restricted):
    got = (*volle_restricted.params.alphas, *volle_restricted.params.betas)
    np.testing.assert_allclose(got, RESTRICTED_REF, rtol=1e-9)
    assert volle_restricted.params.lam == 0.0
    assert volle_restricted.loglik == pytest.approx(RESTRICTED_LOGLIK_REF, rel=1e-12)
    assert volle_restricted.converged
    assert volle_restricted.fixed_lambda == 0.0


def test_restricted_vs_moment_estimates_nearly_coincide(volle_restricted):
    # with lambda pinned at zero the likelihood and moment estimators
    # agree to 4 decimals on this data
    got = (*volle_restricted.params.alphas, *volle_restricted.params.betas)
    np.testing.assert_allclose(
        np.round(got, 4), (0.2035, 0.4099, 115.7470, 91.7128)
    )


def test_multi_start_runs_agree(volle):
    m = mme(volle)
    fits = [
        mle(volle, start=SmvbsParams(m.alphas, m.betas, lam0))
        for lam0 in (-5.0, -2.0, 0.0, 3.0, 4.0)
    ]
    vecs = [fit.params.as_vector() for fit in fits]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert np.abs(vecs[i] - vecs[j]).max() <= 1e-6
    best = max(fits, key=lambda fit: fit.loglik)
    np.testing.assert_allclose(best.params.as_vector(), MLE_REF, rtol=1e-9)


def test_mle_argument_errors(volle):
    # the five lambda starts reach one warm start, so the knob is gone
    with pytest.raises(TypeError):
        mle(volle, multi_start=True)


def test_mle_accepts_explicit_start(volle, volle_mle):
    start = SmvbsParams((0.25, 0.45), (100.0, 85.0), 0.5)
    fit = mle(volle, start=start)
    np.testing.assert_allclose(
        fit.params.as_vector(), volle_mle.params.as_vector(), rtol=1e-8
    )


# the first full step from this start overflows in its line-search
# trials; a rejected trial must not warn
@pytest.mark.filterwarnings("error")
def test_fit_certifies_from_a_start_with_an_indefinite_hessian(volle, volle_mle):
    m = mme(volle)
    start = SmvbsParams(tuple(3.0 * np.asarray(m.alphas)), m.betas, 5.0)
    theta = start.as_vector()
    theta[-1] = estimation._lambda_warm_start(theta, volle)
    # the Hessian in (log alpha, log beta, lambda) where the fit starts
    params = SmvbsParams.from_vector(theta)
    scale = np.append(theta[:-1], 1.0)
    hessian = -observed_info(params, volle) * np.outer(scale, scale)
    hessian[:4, :4] += np.diag(score(params, volle)[:4] * theta[:4])
    assert np.linalg.eigvalsh(hessian).max() > 0.0
    fit = mle(volle, start=start)
    assert fit.converged
    assert fit.loglik == pytest.approx(volle_mle.loglik, rel=1e-12)


@pytest.mark.parametrize("lam0", [-5.0, 5.0])
def test_fit_certifies_from_scaled_moment_start(volle, volle_mle, lam0):
    # from this start the lambda warm start ends near 64, far from the
    # MLE's 0.88, and the joint fit must still find its way back
    m = mme(volle)
    alphas, betas = 5.0 * np.asarray(m.alphas), 2.0 * np.asarray(m.betas)
    fit = mle(volle, start=SmvbsParams(tuple(alphas), tuple(betas), lam0))
    assert fit.converged
    assert fit.loglik == pytest.approx(volle_mle.loglik, rel=1e-12)
    np.testing.assert_allclose(fit.params.as_vector(), MLE_FULL_REF, rtol=1e-9)


def test_fitters_never_call_a_general_optimizer(volle, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fitter called optimize.minimize")

    monkeypatch.setattr(estimation.optimize, "minimize", refuse)
    fits = [mle(volle), mle(volle, fix_lambda=0.0), sk.kbj_mle(volle), sk.sbvbs_t_mle(volle, 4.0)]
    assert all(fit.converged for fit in fits)


# log likelihoods at the certified MLE of small samples on which a plain
# Newton iteration with a gradient-step fallback loses certification (the
# first five), or one that also floors small positive eigenvalues of -H
# (the last four, near-separated fits with |lambda| in the hundreds or
# thousands)
SMALL_SAMPLE_FITS = [
    ("smvbs", ((0.05, 0.1), (1.0, 50.0), -3.0), 15, [0, 15, 0], 117.04682890916),
    ("smvbs", ((0.5, 0.5), (1.0, 50.0), -3.0), 15, [1, 15, 7], 52.300652906107),
    ("smvbs", ((0.3, 0.6, 1.0), (1.0, 2.0, 3.0), -8.0), 15, [19, 15, 8], 49.020489441456),
    ("gbs-t", ((0.05, 0.1), (1.0, 50.0), -3.0), 30, [0, 30, 0], -15.518324503777),
    ("gbs-t", ((0.05, 0.1), (1.0, 50.0), 20.0), 15, [15, 15, 4], -15.650431351065),
    ("smvbs", ((0.5, 0.5), (1.0, 50.0), -8.0), 15, [1, 15, 21], 60.123168117249),
    ("gbs-t", ((0.5, 0.5), (1.0, 50.0), -8.0), 15, [1, 15, 21], -73.432164788432),
    ("smvbs", ((0.05, 0.1), (1.0, 50.0), 20.0), 100, [15, 100, 3], 762.28862226174),
    ("gbs-t", ((0.05, 0.1), (1.0, 50.0), 20.0), 100, [15, 100, 3], -81.150099948163),
]


@pytest.mark.filterwarnings("error")  # rejected line-search trials stay silent
@pytest.mark.parametrize("model, truth, n, key, ref", SMALL_SAMPLE_FITS)
def test_small_sample_fits_certify_at_the_mle(model, truth, n, key, ref):
    data = smvbs_sample(n, SmvbsParams(*truth), np.random.default_rng(key))
    sample = SampleMatrix(data)
    fit = mle(sample) if model == "smvbs" else sk.sbvbs_t_mle(sample, 4.0)
    assert fit.converged
    assert fit.loglik == pytest.approx(ref, rel=1e-9)


# a near-separated sample on which a Newton step finds no acceptable trial:
# lambda runs past 1e17 and every halving of the step lowers the likelihood
STALL_SAMPLE = (15, ((0.05, 0.1), (1.0, 50.0), 20.0), [0, 15, 3, 1200, 7])


def test_fit_stops_when_no_trial_is_accepted():
    n, truth, key = STALL_SAMPLE
    sample = SampleMatrix(smvbs_sample(n, SmvbsParams(*truth), np.random.default_rng(key)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = mle(sample)
    # stalled at the last accepted point, uncertified and still in the parameter space
    assert not fit.converged
    assert fit.iterations < 100
    assert np.isfinite(fit.loglik) and fit.score_norm > estimation._SCORE_TOL
    assert min(fit.params.alphas) > 0.0


# the lambda warm start on the strength data from the moment estimates,
# pinned at full precision
WARM_START_REF = {0.0: 0.7955557246905155, -5.0: 0.7955557246905155, 4.0: 0.7955557246905292}


FITS = {
    "smvbs": mle,
    "restricted": lambda sample: mle(sample, fix_lambda=0.0),
    "kbj": sk.kbj_mle,
    "gbs-t": lambda sample: sk.sbvbs_t_mle(sample, 4.0),
}


# per model: its module, its pass and its public observed information
PASSES = {
    "smvbs": (estimation, "_smvbs_pass", "observed_info"),
    "kbj": (inference, "_kbj_pass", "kbj_observed_info"),
    "gbs-t": (elliptical, "_t_pass", "sbvbs_t_observed_info"),
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_no_point_is_evaluated_twice_in_a_fit(volle, monkeypatch, name):
    points = []

    def recording(inner):
        def wrapper(params, sample):
            points.append(params.as_vector().tobytes())
            return inner(params, sample)

        return wrapper

    def refuse(params, sample):
        raise AssertionError("the fitter took its information from a second pass")

    for module, run_pass, public_info in PASSES.values():
        monkeypatch.setattr(module, run_pass, recording(getattr(module, run_pass)))
        monkeypatch.setattr(module, public_info, refuse)
    fit = FITS[name](volle)
    assert fit.converged
    assert len(set(points)) == len(points)
    assert fit.likelihood_passes == len(points)


@pytest.mark.parametrize("fix_lambda, warm_start", [(None, 1), (0.0, 0)])
def test_each_pass_builds_one_workspace(volle, monkeypatch, fix_lambda, warm_start):
    build = LikelihoodWorkspace.build
    builds = []

    def counting(params, data):
        builds.append(params.as_vector())
        return build(params, data)

    monkeypatch.setattr(LikelihoodWorkspace, "build", staticmethod(counting))
    fit = mle(volle, fix_lambda=fix_lambda)
    assert fit.converged
    # each at its own point; the lambda warm start builds one more, at the start
    assert len({theta.tobytes() for theta in builds}) == len(builds)
    assert len(builds) == fit.likelihood_passes + warm_start


@pytest.mark.parametrize("name, p", [("smvbs", 2), ("smvbs", 3), ("kbj", 2), ("gbs-t", 2)])
def test_pass_info_is_the_public_observed_info(volle, name, p):
    module, run_pass, public_info = PASSES[name]
    sample = volle
    if p == 3:
        truth = SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 1.0)
        sample = SampleMatrix(smvbs_sample(300, truth, np.random.default_rng(5)))
    fit = FITS[name](sample)
    assert fit.converged
    theta = fit.params.as_vector()
    for factor in (1.0, 1.03, 0.96):
        params = fit.params.from_vector(theta * factor)
        info = getattr(module, run_pass)(params, sample)[2]()
        assert np.array_equal(info, getattr(module, public_info)(params, sample))


def test_fit_peak_memory_is_one_information_pass():
    # the fitter must free each point's workspace before the next point
    # builds its own; holding the Newton base's through its line-search
    # trials raises the peak by about two thirds
    truth = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
    sample = SampleMatrix(smvbs_sample(200_000, truth, np.random.default_rng(13)))

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fit, fit_peak = peak(lambda: mle(sample))
    assert fit.converged
    _, info_peak = peak(lambda: observed_info(fit.params, sample))
    assert fit_peak <= 1.05 * info_peak


@pytest.mark.parametrize("lam0", sorted(WARM_START_REF))
def test_warm_start_computes_the_mills_ratio_once_per_point(volle, monkeypatch, lam0):
    m = mme(volle)
    theta0 = np.concatenate([m.alphas, m.betas, [lam0]])
    calls = []
    wfun = estimation._wfun

    def recording(u):
        calls.append(np.array(u).tobytes())
        return wfun(u)

    monkeypatch.setattr(estimation, "_wfun", recording)
    lam = estimation._lambda_warm_start(theta0, volle)
    # one call per line-search trial, each at its own lambda; the start's
    # inverse Mills ratio comes from the workspace built there
    assert len(set(calls)) == len(calls)
    assert lam == pytest.approx(WARM_START_REF[lam0], rel=1e-15, abs=0.0)


def test_mle_scale_equivariance(volle, volle_mle):
    k = (10.0, 0.25)
    fit = mle(SampleMatrix(volle.data * np.asarray(k)))
    base = volle_mle.params
    np.testing.assert_allclose(fit.params.alphas, base.alphas, rtol=1e-6)
    np.testing.assert_allclose(
        fit.params.betas, np.asarray(base.betas) * np.asarray(k), rtol=1e-6
    )
    assert fit.params.lam == pytest.approx(base.lam, rel=1e-6)


def test_mle_reciprocal_equivariance(volle, volle_mle):
    flipped = volle.data.copy()
    flipped[:, 0] = 1.0 / flipped[:, 0]
    fit = mle(SampleMatrix(flipped))
    base = volle_mle.params
    np.testing.assert_allclose(fit.params.alphas, base.alphas, rtol=1e-6)
    assert fit.params.betas[0] == pytest.approx(1.0 / base.betas[0], rel=1e-6)
    assert fit.params.betas[1] == pytest.approx(base.betas[1], rel=1e-6)
    assert fit.params.lam == pytest.approx(-base.lam, rel=1e-6)


def test_mle_recovers_truth_on_synthetic_data(synthetic_sample):
    truth, sample = synthetic_sample
    fit = mle(sample)
    assert fit.converged
    info = expected_info(truth, sample.n)
    se = np.sqrt(np.diag(linalg.inv(info.matrix)))
    err = np.abs(fit.params.as_vector() - truth.as_vector())
    assert np.all(err < 4.0 * se)


def test_mle_trivariate_smoke():
    truth = SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 1.0)
    data = smvbs_sample(1500, truth, np.random.default_rng(77))
    sample = SampleMatrix(data)
    fit = mle(sample)
    assert fit.converged
    assert fit.score_norm <= 1e-8
    assert loglik(fit.params, sample) >= loglik(truth, sample)
    rel = np.abs(fit.params.as_vector() - truth.as_vector()) / truth.as_vector()
    assert np.all(np.abs(rel) < 0.2)


def test_expected_info_lambda_zero_closed_form():
    params = SmvbsParams((0.5, 1.0), (1.0, 2.0), 0.0)
    n = 7
    info = expected_info(params, n)
    assert info.draws == 0
    assert np.all(info.mc_se == 0.0)
    diag = []
    for a in params.alphas:
        diag.append(2.0 / a**2)
    for a, b in zip(params.alphas, params.betas):
        diag.append((a * k_alpha(a) + 1.0) / (a * b) ** 2)
    diag.append(2.0 / math.pi)
    np.testing.assert_allclose(info.matrix, n * np.diag(diag), rtol=1e-14)


def test_expected_info_lambda_zero_determinant_identity():
    # det I = 2^(p+1) n^(2p+1) / pi * prod (alpha_j K_j + 1) / (alpha_j^4 beta_j^2)
    params = SmvbsParams((0.5, 1.0), (1.0, 2.0), 0.0)
    n = 2
    det = linalg.det(expected_info(params, n).matrix)
    p = 2
    prod = 1.0
    for a, b in zip(params.alphas, params.betas):
        prod *= (a * k_alpha(a) + 1.0) / (a**4 * b**2)
    closed = 2.0 ** (p + 1) * n ** (2 * p + 1) / math.pi * prod
    assert det == pytest.approx(closed, rel=1e-10)


def test_expected_info_lambda_zero_any_dimension():
    params = SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 0.0)
    info = expected_info(params, 5)
    assert info.matrix.shape == (7, 7)
    assert info.matrix[6, 6] == pytest.approx(5 * 2.0 / math.pi, rel=1e-14)


def test_expected_info_monte_carlo_structure(volle, volle_mle):
    info = expected_info(volle_mle.params, volle.n)
    assert info.draws == 0 and np.all(info.mc_se == 0.0)
    m = info.matrix
    np.testing.assert_allclose(m, m.T, rtol=1e-12)
    assert np.all(linalg.eigvalsh(m) > 0)
    # parity makes the alpha-beta and beta-lambda blocks exact zeros
    np.testing.assert_array_equal(m[:2, 2:4], np.zeros((2, 2)))
    np.testing.assert_array_equal(m[2:4, 4], np.zeros(2))
    # and the bracket structure forces [I^-1]_(alpha_j, alpha_j) = alpha_j^2/(2n)
    inv = linalg.inv(m)
    for j, a in enumerate(volle_mle.params.alphas):
        assert inv[j, j] == pytest.approx(a * a / (2.0 * volle.n), rel=1e-10)


def test_expected_info_small_lambda_continuity():
    params0 = SmvbsParams((0.5, 1.0), (1.0, 2.0), 0.0)
    params1 = SmvbsParams((0.5, 1.0), (1.0, 2.0), 1e-3)
    closed = expected_info(params0, 1).matrix
    near = expected_info(params1, 1).matrix
    scale = np.sqrt(np.outer(np.diag(closed), np.diag(closed)))
    assert np.all(np.abs(near - closed) <= 2e-3 * scale)


def test_expected_info_matches_brute_force_hessian_average(volle_mle):
    # independent route: expectation of the observed information over a
    # large exact sample from the model
    params = volle_mle.params
    rb = expected_info(params, 1)
    batches = []
    rng = np.random.default_rng(99)
    for _ in range(10):
        draws = smvbs_sample(20_000, params, rng)
        batches.append(observed_info(params, SampleMatrix(draws)) / 20_000)
    brute = np.mean(batches, axis=0)
    brute_se = np.std(batches, axis=0, ddof=1) / math.sqrt(len(batches))
    tol = 5.0 * brute_se + 1e-12
    assert np.all(np.abs(brute - rb.matrix) <= tol)


def _four_pattern_brackets(z1, z2, alphas, lam):
    """The sign-orbit average by brute force: the bracket at each of the
    four sign patterns of (z1, z2), weighted by Phi(lambda a1 a2) / 2."""
    D1 = np.sqrt((alphas[0] * z1) ** 2 + 4.0)
    D2 = np.sqrt((alphas[1] * z2) ** 2 + 4.0)
    shape = np.broadcast_shapes(np.shape(z1), np.shape(z2))
    per = {k: np.zeros(shape) for k in ("G", "C1", "C2", "Dd", "E2", "F")}
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        a1, a2 = s1 * z1, s2 * z2
        P = a1 * a2
        u = lam * P
        wgt = special.ndtr(u) / 2.0
        w = np.exp(-0.5 * u * u - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(u))
        per["G"] += wgt * (w * P) ** 2
        per["C1"] += wgt * (w * D1 * a2) ** 2
        per["C2"] += wgt * (w * D2 * a1) ** 2
        per["Dd"] += wgt * w * D1 * D2
        per["E2"] += wgt * w * D1 * D2 * P * P
        per["F"] += wgt * w * w * D1 * D2 * P
    return tuple(per[k] for k in ("G", "C1", "C2", "Dd", "E2", "F"))


ORACLE_LAMBDAS = [0.1, 0.8806, 5.0, 20.0, 50.0, -3.0]


def _mc_bracket_means(alphas, lam, draws, rng):
    """The Monte Carlo estimator the quadrature replaced: mean and standard
    error of each orbit bracket over exact latent draws."""
    brackets = _orbit_brackets(*_sample_latent(draws, 2, lam, rng), alphas, lam)
    return [(b.mean(), b.std(ddof=1) / math.sqrt(draws)) for b in brackets]


def _k0_lambda_bracket(lam):
    """G = E[H(lambda P) P^2] in 1-D: |Z1 Z2| has density 2 K0(p) / pi
    (Craig 1936)."""

    def integrand(p):
        u = lam * p
        H = math.exp(-u * u - math.log(2.0 * math.pi) - special.log_ndtr(u) - special.log_ndtr(-u))
        return 2.0 * special.k0(p) / math.pi * H * p * p

    return integrate.quad(integrand, 0.0, np.inf, limit=200, epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS)
def test_orbit_brackets_match_four_pattern_loop(volle_mle, lam, monkeypatch):
    alphas = np.asarray(volle_mle.params.alphas)
    z1, z2 = _sample_latent(50_000, 2, lam, np.random.default_rng(8))
    closed = _orbit_brackets(z1, z2, alphas, lam)
    loop = _four_pattern_brackets(z1, z2, alphas, lam)
    for new, old in zip(closed, loop):
        assert new.mean() == pytest.approx(old.mean(), rel=1e-12)
    # the same matrix when the loop, not the closed form, is evaluated at the nodes
    params = SmvbsParams(volle_mle.params.alphas, volle_mle.params.betas, lam)
    info = expected_info(params, 28)
    monkeypatch.setattr(estimation, "_orbit_brackets", _four_pattern_brackets)
    oracle = expected_info(params, 28)
    np.testing.assert_allclose(info.matrix, oracle.matrix, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS)
def test_bracket_means_match_oracles(volle_mle, lam):
    alphas = np.asarray(volle_mle.params.alphas)
    exact = specfun._product_rule_sums(lambda z1, z2: _orbit_brackets(z1, z2, alphas, lam))
    # G, the lambda-lambda entry, against the 1-D K0 integral
    assert exact[0] == pytest.approx(_k0_lambda_bracket(lam), rel=1e-12, abs=0.0)
    assert expected_info(SmvbsParams(volle_mle.params.alphas, volle_mle.params.betas, lam), 1).matrix[4, 4] == exact[0]
    # every bracket against the Monte Carlo estimator
    mc = _mc_bracket_means(alphas, lam, 1_000_000, np.random.default_rng(31))
    for value, (mean, se) in zip(exact, mc):
        assert abs(value - mean) <= 5.0 * se
    # and against the same rule with twice the nodes
    x, w = specfun._half_normal_rule(600)
    doubled = [w @ b @ w for b in _orbit_brackets(x[:, None], x, alphas, lam)]
    np.testing.assert_allclose(exact, doubled, rtol=1e-10, atol=0.0)


def test_half_normal_rule_is_cached_and_read_only():
    x, w = specfun._half_normal_rule()
    assert specfun._half_normal_rule() is specfun._half_normal_rule()
    assert not x.flags.writeable and not w.flags.writeable
    # the product rule integrates E|Z1|^k |Z2|^m exactly enough
    for k, moment in ((0, 1.0), (1, math.sqrt(2.0 / math.pi)), (2, 1.0), (4, 3.0)):
        assert w @ x**k == pytest.approx(moment, rel=1e-14)


def test_product_rule_sums_match_the_whole_matrix():
    # the row blocks add up to the sum over the full 300 x 300 node matrix
    x, w = specfun._half_normal_rule()

    def kernel(z1, z2):
        return np.exp(-z1 * z2), z1 * np.sqrt(z2 + 1.0)

    whole = [w @ f @ w for f in kernel(x[:, None], x)]
    np.testing.assert_allclose(specfun._product_rule_sums(kernel), whole, rtol=1e-14, atol=0.0)


def test_expected_info_is_deterministic_by_default(volle_mle):
    a = expected_info(volle_mle.params, 28).matrix
    b = expected_info(volle_mle.params, 28).matrix
    np.testing.assert_array_equal(a, b)


def test_expected_info_argument_errors(volle_mle):
    with pytest.raises(ValueError):
        expected_info(volle_mle.params, 0)
    with pytest.raises(ValueError):
        expected_info(volle_mle.params, 28, mc_draws=10)
    p3 = SmvbsParams((0.4, 0.5, 0.6), (1.0, 2.0, 3.0), 1.0)
    with pytest.raises(NotImplementedError):
        expected_info(p3, 10)


def test_monte_carlo_arguments_are_deprecated_and_ignored(volle, volle_mle):
    params = volle_mle.params
    exact = expected_info(params, 28).matrix
    with pytest.warns(DeprecationWarning, match="mc_draws") as caught:
        ignored = expected_info(params, 28, mc_draws=5_000, rng=np.random.default_rng(1))
    assert len(caught) == 1 and caught[0].filename == __file__
    np.testing.assert_array_equal(ignored.matrix, exact)
    with pytest.warns(DeprecationWarning) as caught:
        cis = confidence_intervals(params, sample=volle, mc_draws=200_000)
    assert len(caught) == 1 and caught[0].filename == __file__
    assert [ci.se for ci in cis] == [ci.se for ci in confidence_intervals(params, sample=volle)]
    with pytest.raises(ValueError):
        confidence_intervals(params, sample=volle, mc_draws=10)


def test_confidence_intervals_expected_reference(volle, volle_mle):
    cis = confidence_intervals(volle_mle.params, sample=volle, info="expected")
    assert [ci.name for ci in cis] == list(param_names(2))
    hw = [ci.half_width for ci in cis]
    np.testing.assert_allclose(hw, EXPECTED_HW_REF, rtol=1e-8)
    for ci in cis:
        assert ci.lower < ci.estimate < ci.upper
        assert ci.half_width == pytest.approx(1.959963984540054 * ci.se, rel=1e-12)


def test_confidence_intervals_observed_reference(volle, volle_mle):
    cis = confidence_intervals(volle_mle.params, sample=volle, info="observed")
    hw = [ci.half_width for ci in cis]
    np.testing.assert_allclose(hw, OBSERVED_HW_REF, rtol=1e-8)


def test_confidence_intervals_level_monotone(volle, volle_mle):
    lo = confidence_intervals(
        volle_mle.params, sample=volle, info="observed", level=0.90
    )
    hi = confidence_intervals(
        volle_mle.params, sample=volle, info="observed", level=0.99
    )
    assert all(a.half_width < b.half_width for a, b in zip(lo, hi))


def test_confidence_intervals_argument_errors(volle_mle):
    with pytest.raises(ValueError):
        confidence_intervals(volle_mle.params, info="observed")  # needs sample
    with pytest.raises(ValueError):
        confidence_intervals(volle_mle.params, info="expected")  # needs n
    with pytest.raises(ValueError):
        confidence_intervals(volle_mle.params, n=28, level=1.5)
    with pytest.raises(ValueError):
        confidence_intervals(volle_mle.params, n=28, info="bogus")


def test_param_names():
    assert param_names(2) == ("alpha1", "alpha2", "beta1", "beta2", "lambda")
    assert param_names(3)[-1] == "lambda"


def test_tail_weights_stay_finite(volle):
    # the phi/Phi weight must survive deep negative skew arguments
    from skewbs.estimation import _wfun

    u = np.linspace(-50.0, 50.0, 1001)
    w = _wfun(u)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    theta = SmvbsParams((0.3, 0.5), (110.0, 90.0), 40.0)
    assert np.all(np.isfinite(score(theta, volle)))
    assert np.all(np.isfinite(observed_info(theta, volle)))


def test_mle_consistency_over_seeds():
    # 50 independent samples of size 5000; at most 2 fits may land any
    # parameter outside 4 Wald standard errors of the truth
    truth = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
    n = 5000
    info = expected_info(truth, n)
    se = np.sqrt(np.diag(linalg.inv(info.matrix)))
    failures = 0
    for seed in range(50):
        data = smvbs_sample(n, truth, np.random.default_rng(1000 + seed))
        fit = mle(SampleMatrix(data))
        err = np.abs(fit.params.as_vector() - truth.as_vector())
        if not (fit.converged and np.all(err < 4.0 * se)):
            failures += 1
    assert failures <= 2


def test_small_sample_fits_certify_within_five_newton_steps():
    # 200 replicates at n = 100: from the moment estimates and the lambda
    # warm start, Newton must certify the full and the lambda = 0 fit in
    # a few steps
    truth = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
    for i in range(200):
        sample = SampleMatrix(smvbs_sample(100, truth, np.random.default_rng([7, i])))
        for fit in (mle(sample), mle(sample, fix_lambda=0.0)):
            assert fit.converged, (i, fit.score_norm, fit.step_norm)
            assert 1 <= fit.iterations <= 5, (i, fit.iterations)
