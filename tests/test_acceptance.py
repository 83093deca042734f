"""Acceptance gate: one test per numbered criterion.

Each test prints a single [PASS]/[FAIL] line with the measured values
before asserting, so the full gate status is readable from the test
log. Two reproduction targets are known not to hold for a faithful
implementation (the published Vuong statistic and three of the five
interval half-widths); those tests fail honestly rather than loosening
their tolerances. The published margin-1 goodness-of-fit pair is a
misprint (it is margin-1 data evaluated at margin 2's beta-hat), so
criterion 6 checks the corrected target and keeps the printed pair as
an erratum assertion.
"""

import inspect
import math
import time

import numpy as np
import pytest
from scipy import integrate, linalg, special, stats

import skewbs as sk
from skewbs import (
    SampleMatrix,
    SmvbsParams,
    a_transform,
    bs_cdf,
    bs_pdf,
    bs_quantile,
    bs_sample,
    conditional_cdf,
    conditional_pdf,
    confidence_intervals,
    expected_info,
    gof_marginal,
    k_alpha,
    kbj_log_pdf,
    loglik,
    lr_test,
    make_generator,
    mle,
    mme,
    observed_info,
    product_moment,
    latent_correlation,
    score,
    smvbs_log_pdf,
    smvbs_pdf,
    smvbs_sample,
    transform_params,
    vuong_test,
)
from skewbs.elliptical import SbvgbsParams, sbvgbs_log_pdf, sbvgbs_pdf
from skewbs.inference import kbj_mle


def _line(num, ok, desc, detail=""):
    tag = "PASS" if ok else "FAIL"
    msg = f"[{tag}] criterion {num}: {desc}"
    if detail:
        msg += f" | {detail}"
    print(msg)
    return msg


def test_criterion_01_mme_reproduction(volle):
    t0 = time.perf_counter()
    m = mme(volle)
    elapsed = time.perf_counter() - t0
    got = np.round((*m.alphas, *m.betas), 4)
    target = (0.2035, 0.4099, 115.7457, 91.7220)
    ok = bool(np.all(got == np.asarray(target)) and elapsed < 1e-3)
    msg = _line(1, ok, "MME on Volle data to 4 d.p. in under 1 ms",
                f"got {tuple(float(v) for v in got)}, {elapsed * 1e3:.2f} ms")
    assert ok, msg


def test_criterion_02_mle_reproduction(volle):
    t0 = time.perf_counter()
    fit = mle(volle)
    elapsed = time.perf_counter() - t0
    target = np.array([0.2047, 0.4101, 113.2907, 90.7447, 0.8806])
    tol = np.array([5e-4, 5e-4, 5e-3, 5e-3, 1e-3])
    err = np.abs(fit.params.as_vector() - target)
    m = mme(volle)
    vecs = [
        mle(volle, start=SmvbsParams(m.alphas, m.betas, lam0)).params.as_vector()
        for lam0 in (-5.0, -2.0, 0.0, 3.0, 4.0)
    ]
    spread = max(
        np.abs(u - v).max() for u in vecs for v in vecs
    )
    ok = bool(np.all(err <= tol) and spread <= 1e-6 and elapsed < 1.0)
    msg = _line(2, ok, "MLE on Volle data within stated tolerances, 5 starts agree",
                f"err {np.array2string(err, precision=2)}, spread {spread:.2e}, {elapsed:.3f} s")
    assert ok, msg


def test_criterion_03_restricted_mle(volle):
    t0 = time.perf_counter()
    fit = mle(volle, fix_lambda=0.0)
    elapsed = time.perf_counter() - t0
    target = np.array([0.2035, 0.4099, 115.7470, 91.7128])
    tol = np.array([5e-4, 5e-4, 5e-3, 5e-3])
    got = np.array([*fit.params.alphas, *fit.params.betas])
    err = np.abs(got - target)
    ok = bool(np.all(err <= tol) and elapsed < 1.0)
    msg = _line(3, ok, "restricted MLE (lambda = 0) within stated tolerances",
                f"err {np.array2string(err, precision=2)}, {elapsed:.3f} s")
    assert ok, msg


def test_criterion_04_likelihood_ratio(volle, volle_mle, volle_restricted):
    t0 = time.perf_counter()
    rep = lr_test(volle_mle, volle_restricted)
    elapsed = time.perf_counter() - t0
    ok = bool(abs(rep.statistic - 6.6834) <= 0.02 and rep.p_value < 0.01 and elapsed < 1.0)
    msg = _line(4, ok, "LR statistic 6.6834 +/- 0.02 with p < 0.01",
                f"statistic {rep.statistic:.4f}, p {rep.p_value:.4f}")
    assert ok, msg


def test_criterion_05_vuong_statistic(volle, volle_mle):
    # the published value 4.0903 is not reproducible from this data:
    # a faithful statistic lands near 0.897 (equivalence)
    t0 = time.perf_counter()
    kbj = kbj_mle(volle)
    la = smvbs_log_pdf(volle.data, volle_mle.params)
    lb = kbj_log_pdf(volle.data, kbj.params)
    rep = vuong_test(la, lb, names=("sbvbs", "kbj"))
    elapsed = time.perf_counter() - t0
    ok = bool(
        abs(rep.statistic - 4.0903) <= 0.2
        and rep.verdict == "favor sbvbs"
        and elapsed < 5.0
    )
    msg = _line(5, ok, "Vuong statistic 4.0903 +/- 0.2 favoring the skewed model",
                f"statistic {rep.statistic:.4f}, verdict {rep.verdict!r}, {elapsed:.3f} s")
    assert ok, msg


def _anderson_norm(x):
    """scipy's Anderson-Darling statistic of x against a fitted normal law.

    scipy 1.17 warns unless a p-value ``method`` is chosen; releases
    before it have no such parameter.
    """
    kwargs = {}
    if "method" in inspect.signature(stats.anderson).parameters:
        kwargs["method"] = "interpolate"
    return float(stats.anderson(x, "norm", **kwargs).statistic)


def test_criterion_06_goodness_of_fit(volle, volle_mle):
    # Erratum: the published margin-1 pair (0.0971, 0.5680) is margin-1
    # data evaluated at margin 2's beta-hat 90.7447; at margin 1's own
    # estimate (0.2047, 113.2907) the pair is (0.0949, 0.5539), which
    # scipy's Cramer-von Mises and Anderson-Darling statistics confirm.
    # Margin 2's published (0.0513, 0.3145) reproduces at its own
    # estimate. The target is the own-estimate pair; the printed pair
    # is still asserted at beta2-hat.
    t0 = time.perf_counter()
    r1 = gof_marginal(volle.column(0), volle_mle.params.alphas[0], volle_mle.params.betas[0])
    r2 = gof_marginal(volle.column(1), volle_mle.params.alphas[1], volle_mle.params.betas[1])
    elapsed = time.perf_counter() - t0
    alpha1, beta1 = volle_mle.params.alphas[0], volle_mle.params.betas[0]
    beta2 = volle_mle.params.betas[1]
    erratum = gof_marginal(volle.column(0), alpha1, beta2)
    # independent check: scipy's statistics of the ddof-1 standardized
    # normal scores, with the same small-sample factors
    n = r1.n
    y = special.ndtri(bs_cdf(np.asarray(volle.column(0)), alpha1, beta1))
    z = (y - y.mean()) / y.std(ddof=1)
    w2_ref = float(stats.cramervonmises(z, "norm").statistic) * (1.0 + 0.5 / n)
    a2_ref = _anderson_norm(z) * (1.0 + 0.75 / n + 2.25 / n**2)
    scipy_ok = math.isclose(r1.w2_star, w2_ref, rel_tol=1e-10) and math.isclose(
        r1.a2_star, a2_ref, rel_tol=1e-10
    )
    flags_ok = all(
        v == "p > 0.10" for v in (r1.w2_verdict, r1.a2_verdict, r2.w2_verdict, r2.a2_verdict)
    )
    m1_ok = abs(r1.w2_star - 0.0949) <= 0.002 and abs(r1.a2_star - 0.5539) <= 0.005
    erratum_ok = (
        abs(erratum.w2_star - 0.0971) <= 0.002 and abs(erratum.a2_star - 0.5680) <= 0.005
    )
    m2_ok = abs(r2.w2_star - 0.0513) <= 0.002 and abs(r2.a2_star - 0.3145) <= 0.005
    ok = bool(m1_ok and erratum_ok and scipy_ok and m2_ok and flags_ok and elapsed < 0.010)
    msg = _line(6, ok, "marginal (W*, A*) pairs with all p > 0.1",
                f"m1 ({r1.w2_star:.4f}, {r1.a2_star:.4f}) target (0.0949, 0.5539), "
                f"scipy ({w2_ref:.4f}, {a2_ref:.4f}); "
                f"published m1 (0.0971, 0.5680) vs m1 at beta2-hat {beta2:.4f} "
                f"({erratum.w2_star:.4f}, {erratum.a2_star:.4f}); "
                f"m2 ({r2.w2_star:.4f}, {r2.a2_star:.4f}) target (0.0513, 0.3145); "
                f"{elapsed * 1e3:.2f} ms")
    assert ok, msg


def test_criterion_07_wald_intervals(volle, volle_mle):
    # alpha1 and beta2 match the published half-widths within 2%; the
    # published alpha2, beta1 and lambda intervals are not reproducible
    # from any consistent information evaluation at this estimate
    paper_hw = np.array([
        (0.2586 - 0.1508) / 2,
        (0.5152 - 0.3051) / 2,
        (121.7489 - 104.8325) / 2,
        (103.5919 - 77.8975) / 2,
        (1.7263 - 0.0349) / 2,
    ])
    t0 = time.perf_counter()
    cis = confidence_intervals(volle_mle.params, sample=volle, info="expected")
    elapsed = time.perf_counter() - t0
    hw = np.array([ci.half_width for ci in cis])
    rel = np.abs(hw - paper_hw) / paper_hw
    ok = bool(np.all(rel <= 0.02) and elapsed < 30.0)
    detail = ", ".join(
        f"{ci.name} {r * 100:.2f}%" for ci, r in zip(cis, rel)
    )
    msg = _line(7, ok, "95% Wald half-widths within 2% of the published intervals",
                f"{detail}; {elapsed:.2f} s")
    assert ok, msg


def test_criterion_08_determinant_identity():
    t0 = time.perf_counter()
    params = SmvbsParams((0.5, 1.0), (1.0, 2.0), 0.0)
    n, p = 2, 2
    det = linalg.det(expected_info(params, n).matrix)
    prod = 1.0
    for a, b in zip(params.alphas, params.betas):
        prod *= (a * k_alpha(a) + 1.0) / (a**4 * b**2)
    closed = 2.0 ** (p + 1) * n ** (2 * p + 1) / math.pi * prod
    elapsed = time.perf_counter() - t0
    rel = abs(det - closed) / closed
    ok = bool(rel <= 1e-10 and elapsed < 1e-3)
    msg = _line(8, ok, "lambda = 0 Fisher determinant identity to 1e-10",
                f"rel err {rel:.2e}, {elapsed * 1e3:.3f} ms")
    assert ok, msg


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


def _random_thetas(rng, count):
    for _ in range(count):
        yield np.array(
            [
                rng.uniform(0.15, 1.0),
                rng.uniform(0.15, 1.0),
                rng.uniform(70.0, 160.0),
                rng.uniform(70.0, 160.0),
                rng.uniform(-3.0, 3.0),
            ]
        )


def test_criterion_09_property_suite(volle, volle_mle):
    checks = []

    def run(label, fn):
        t0 = time.perf_counter()
        ok = bool(fn())
        dt = time.perf_counter() - t0
        checks.append((label, ok, dt))
        return ok

    def score_fd():
        rng = np.random.default_rng(42)
        for theta in _random_thetas(rng, 20):
            an = score(SmvbsParams.from_vector(theta), volle)
            fd = _fd_score(theta, volle)
            if not np.allclose(an, fd, rtol=1e-6, atol=1e-6 * (1 + np.abs(an).max())):
                return False
        return True

    def info_fd():
        rng = np.random.default_rng(44)
        for theta in _random_thetas(rng, 5):
            params = SmvbsParams.from_vector(theta)
            an = observed_info(params, volle)
            H = np.empty((5, 5))
            for i in range(5):
                h = 2e-6 * max(abs(theta[i]), 1.0)
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                H[i] = (
                    score(SmvbsParams.from_vector(tp), volle)
                    - score(SmvbsParams.from_vector(tm), volle)
                ) / (2.0 * h)
            fd = -0.5 * (H + H.T)
            if not np.allclose(an, fd, rtol=1e-4, atol=1e-4 * np.abs(an).max()):
                return False
        return True

    def mc_normalization():
        thetas = [
            SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5),
            SmvbsParams((0.2, 0.2), (1.0, 1.0), 5.0),  # bimodal
            SmvbsParams((0.8, 0.3), (2.0, 0.5), -2.0),
        ]
        rng = np.random.default_rng(101)
        for params in thetas:
            n = 200_000
            pts = np.column_stack(
                [bs_sample(n, params.alphas[j], params.betas[j], rng=rng) for j in range(2)]
            )
            base = sum(
                np.log(bs_pdf(pts[:, j], params.alphas[j], params.betas[j]))
                for j in range(2)
            )
            w = np.exp(smvbs_log_pdf(pts, params) - base)
            se = w.std(ddof=1) / math.sqrt(n)
            if abs(w.mean() - 1.0) > 3 * se:
                return False
        return True

    def chi_square_grid():
        params = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
        m = 6
        qs = np.linspace(0.0, 1.0, m + 1)
        e1 = bs_quantile(qs, 0.5, 1.0)
        e2 = bs_quantile(qs, 0.5, 1.0)
        probs = np.empty((m, m))
        for j in range(m):
            def strip(t2):
                cdf = conditional_cdf(np.asarray(e1[1:-1]), t2, params)
                cdf = np.concatenate([[0.0], np.atleast_1d(cdf), [1.0]])
                return np.diff(cdf) * bs_pdf(t2, 0.5, 1.0)

            lo = e2[j] if j > 0 else 1e-9
            hi = e2[j + 1] if np.isfinite(e2[j + 1]) else 60.0
            probs[:, j], _ = integrate.quad_vec(strip, lo, hi, epsabs=1e-10)
        n = 20_000
        draws = smvbs_sample(n, params, np.random.default_rng(29))
        counts, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[e1, e2])
        chi2 = float(((counts - probs * n) ** 2 / (probs * n)).sum())
        return special.chdtrc(m * m - 1, chi2) > 0.01

    def marginal_ks():
        params = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
        draws = smvbs_sample(100_000, params, np.random.default_rng(17))
        return all(
            stats.kstest(
                draws[:, j], lambda x, j=j: bs_cdf(x, 0.5, 1.0)
            ).pvalue
            > 0.01
            for j in range(2)
        )

    def conditional_consistency():
        params = SmvbsParams((0.5, 0.6), (1.0, 2.0), 1.2)
        for t1 in np.linspace(0.2, 4.0, 20):
            ref, _ = integrate.quad(
                lambda s: conditional_pdf(s, 1.7, params), 0, t1, limit=300
            )
            if abs(conditional_cdf(t1, 1.7, params) - ref) > 1e-8:
                return False
        return True

    def latent_corr_mc():
        lam = 1.0
        params = SmvbsParams((0.5, 0.5), (1.0, 1.0), lam)
        draws = smvbs_sample(1_000_000, params, np.random.default_rng(37))
        z = np.column_stack([a_transform(draws[:, j], 0.5, 1.0) for j in range(2)])
        r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        rho = latent_correlation(lam)
        se = (1.0 - rho * rho) / math.sqrt(z.shape[0])
        return abs(r - rho) < 3 * se

    def factorization():
        params = SmvbsParams((0.5, 0.8), (1.0, 2.0), 0.0)
        pts = np.array([[0.7, 1.5], [1.2, 2.4], [2.0, 0.9], [0.4, 3.2]])
        ref = bs_pdf(pts[:, 0], 0.5, 1.0) * bs_pdf(pts[:, 1], 0.8, 2.0)
        return np.allclose(smvbs_pdf(pts, params), ref, rtol=1e-13)

    def closure_identities():
        base = SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
        pts = np.array([[0.7, 1.3], [1.5, 0.6], [2.2, 2.0]])
        k = np.array([2.5, 0.4])
        scaled = transform_params(base, scale=k)
        if not np.allclose(
            smvbs_pdf(pts * k, scaled), smvbs_pdf(pts, base) / k.prod(), rtol=1e-12
        ):
            return False
        inv = transform_params(base, invert=(True, False))
        flipped = pts.copy()
        flipped[:, 0] = 1.0 / flipped[:, 0]
        if not np.allclose(
            smvbs_pdf(flipped, inv), smvbs_pdf(pts, base) * pts[:, 0] ** 2, rtol=1e-12
        ):
            return False
        # estimate level: refit rescaled data
        fit0 = mle(volle)
        ks = (10.0, 0.25)
        fit1 = mle(SampleMatrix(volle.data * np.asarray(ks)))
        return (
            np.allclose(fit1.params.alphas, fit0.params.alphas, rtol=1e-6)
            and np.allclose(
                fit1.params.betas,
                np.asarray(fit0.params.betas) * np.asarray(ks),
                rtol=1e-6,
            )
            and math.isclose(fit1.params.lam, fit0.params.lam, rel_tol=1e-6)
        )

    def normal_reduction():
        gen = make_generator("normal")
        pts = np.array([[0.7, 1.3], [1.5, 0.6], [2.2, 2.0]])
        for lam in (-2.0, 0.0, 1.2):
            ours = sbvgbs_pdf(pts, SbvgbsParams((0.5, 0.6), (1.0, 2.0), lam, gen))
            ref = smvbs_pdf(pts, SmvbsParams((0.5, 0.6), (1.0, 2.0), lam))
            if not np.allclose(ours, ref, rtol=1e-12):
                return False
        return True

    def t_normalization():
        gen = make_generator("student_t", nu=5.0)
        rng = np.random.default_rng(211)
        n = 400_000
        cols = []
        for j, (a, b) in enumerate(((0.5, 1.0), (0.6, 2.0))):
            z = rng.standard_t(5.0, n)
            half = 0.5 * a * z
            cols.append(b * (half + np.sqrt(half * half + 1.0)) ** 2)
        pts = np.column_stack(cols)
        base = np.log(sk.gbs_pdf(pts[:, 0], 0.5, 1.0, gen)) + np.log(
            sk.gbs_pdf(pts[:, 1], 0.6, 2.0, gen)
        )
        params = SbvgbsParams((0.5, 0.6), (1.0, 2.0), 1.2, gen)
        w = np.exp(sbvgbs_log_pdf(pts, params) - base)
        se = w.std(ddof=1) / math.sqrt(n)
        return abs(w.mean() - 1.0) < 3 * se

    run("score vs finite differences", score_fd)
    run("observed info vs score jacobian", info_fd)
    run("pdf MC normalization at 3 thetas", mc_normalization)
    run("sampler chi-square grid", chi_square_grid)
    run("marginal KS", marginal_ks)
    run("conditional quadrature consistency", conditional_consistency)
    run("latent correlation vs MC", latent_corr_mc)
    run("lambda = 0 factorization", factorization)
    run("closure identities density and estimate level", closure_identities)
    run("normal generator reduction", normal_reduction)
    run("student-t generator normalization", t_normalization)

    ok = all(c[1] for c in checks) and all(c[2] < 60.0 for c in checks)
    detail = "; ".join(f"{lbl} {'ok' if good else 'BAD'} {dt:.1f}s" for lbl, good, dt in checks)
    msg = _line(9, ok, "property suite, each item under 60 s", detail)
    assert ok, msg


def test_criterion_10_figure_and_series_substitutes():
    # the published contours and series values are not reproducible as
    # printed; the agreed substitutes are a mode-count flip across the
    # two contour parameter sets and product-moment self-consistency
    def count_modes(params, m=161):
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

    t0 = time.perf_counter()
    unimodal = count_modes(SmvbsParams((0.5, 0.5), (1.0, 1.0), 0.5))
    bimodal = count_modes(SmvbsParams((0.2, 0.2), (1.0, 1.0), 5.0))
    closed = product_moment(SmvbsParams((0.5, 0.5), (1.0, 1.0), 0.0))
    # the exact moment moves by about 0.236 lambda near lambda = 0
    near = product_moment(SmvbsParams((0.5, 0.5), (1.0, 1.0), 1e-8))
    elapsed = time.perf_counter() - t0
    rel = abs(near.value - closed.value) / closed.value
    ok = bool(
        unimodal == 1
        and bimodal >= 2
        and closed.value == 1.265625
        and rel <= 1e-7
    )
    msg = _line(10, ok, "mode-count flip and product-moment self-consistency",
                f"modes {unimodal} vs {bimodal}, closed {closed.value}, "
                f"lambda = 1e-8 {near.value:.12f} (rel {rel:.2e}), {elapsed:.1f} s")
    assert ok, msg
