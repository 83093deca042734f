import math

import numpy as np
import pytest
from scipy import integrate, special

from skewbs import (
    confluent_u,
    erf,
    incomplete_beta_ratio,
    k_alpha,
    log_std_normal_cdf,
    owen_t,
    std_normal_cdf,
    std_normal_pdf,
)


def test_erf_against_quadrature():
    for x in (0.3, 1.0, 2.5):
        ref, _ = integrate.quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, x)
        assert erf(x) == pytest.approx(ref, abs=1e-12)


def test_erf_symmetry_and_limits():
    x = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(erf(-x), -np.asarray(erf(x)), rtol=0, atol=1e-15)
    assert erf(0.0) == 0.0
    assert erf(10.0) == pytest.approx(1.0, abs=1e-15)


def test_std_normal_basics():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)
    x = np.linspace(-5, 5, 21)
    np.testing.assert_allclose(
        std_normal_cdf(x) + std_normal_cdf(-x), np.ones_like(x), atol=1e-15
    )


def test_log_cdf_deep_tail():
    # Mills-ratio asymptotics; naive log(Phi(x)) would be -inf here
    x = -40.0
    asym = -0.5 * x * x - math.log(-x * math.sqrt(2 * math.pi)) + math.log1p(
        -1.0 / x**2 + 3.0 / x**4
    )
    assert log_std_normal_cdf(x) == pytest.approx(asym, rel=1e-10)
    assert np.isfinite(log_std_normal_cdf(-300.0))


def test_owen_t_trivial_arguments():
    assert owen_t(1.3, 0.0) == 0.0
    for a in (0.3, 1.0, 2.5):
        assert owen_t(0.0, a) == pytest.approx(math.atan(a) / (2 * math.pi), abs=1e-14)


def test_owen_t_unit_slope_identity():
    # T(h, 1) = Phi(h) (1 - Phi(h)) / 2
    for h in (-2.0, -0.5, 0.0, 0.7, 1.8):
        ref = std_normal_cdf(h) * (1.0 - std_normal_cdf(h)) / 2.0
        assert owen_t(h, 1.0) == pytest.approx(ref, abs=1e-13)


def test_owen_t_symmetries():
    for h, a in ((0.5, 0.8), (1.2, 2.5), (2.0, 0.3)):
        assert owen_t(-h, a) == pytest.approx(owen_t(h, a), abs=1e-14)
        assert owen_t(h, -a) == pytest.approx(-owen_t(h, a), abs=1e-14)


def test_owen_t_infinite_slope():
    for h in (-1.0, 0.0, 1.5):
        ref = (1.0 - std_normal_cdf(abs(h))) / 2.0
        assert owen_t(h, math.inf) == pytest.approx(ref, abs=1e-13)


def test_owen_t_against_reference_implementation():
    # scipy uses a different algorithm, so this is an independent check
    h = np.array([-3.0, -1.0, -0.2, 0.0, 0.4, 1.1, 2.7])
    a = np.array([0.1, 0.5, 1.0, 3.0, 10.0])
    H, A = np.meshgrid(h, a)
    ours = owen_t(H, A)
    ref = special.owens_t(H, A)
    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


def test_owen_t_vectorizes():
    h = np.linspace(-2, 2, 5)
    out = owen_t(h, 0.7)
    assert out.shape == h.shape


def test_confluent_u_closed_form():
    # U(1, 2, z) = 1/z
    for z in (0.2, 1.0, 5.0, 40.0):
        assert confluent_u(1.0, 2.0, z) == pytest.approx(1.0 / z, rel=1e-9)


def test_confluent_u_against_reference():
    for a, b in ((1.5, 2.0), (0.7, 1.2), (2.5, 3.0)):
        for z in (0.05, 0.5, 2.0, 20.0):
            assert confluent_u(a, b, z) == pytest.approx(
                special.hyperu(a, b, z), rel=1e-7
            )


def test_confluent_u_large_z_asymptote():
    # U(a, b, z) ~ z^(-a) for large z
    z = 1e3
    assert z**1.5 * confluent_u(1.5, 2.0, z) == pytest.approx(1.0, abs=2e-3)


def test_confluent_u_domain_errors():
    with pytest.raises(ValueError):
        confluent_u(2.0, 1.5, 1.0)  # needs b > a
    with pytest.raises(ValueError):
        confluent_u(1.0, 2.0, -1.0)
    with pytest.raises(ValueError):
        confluent_u(-1.0, 2.0, 1.0)


def test_incomplete_beta_ratio_bounds_and_symmetry():
    assert incomplete_beta_ratio(0.0, 2.0, 3.0) == 0.0
    assert incomplete_beta_ratio(1.0, 2.0, 3.0) == 1.0
    x = 0.37
    assert incomplete_beta_ratio(x, 2.0, 3.0) + incomplete_beta_ratio(
        1.0 - x, 3.0, 2.0
    ) == pytest.approx(1.0, abs=1e-14)


def test_incomplete_beta_ratio_against_quadrature():
    r, s, x = 2.0, 3.0, 0.3
    val, _ = integrate.quad(lambda t: t ** (r - 1) * (1 - t) ** (s - 1), 0, x)
    ref = val / special.beta(r, s)
    assert incomplete_beta_ratio(x, r, s) == pytest.approx(ref, rel=1e-12)


def test_incomplete_beta_ratio_domain():
    with pytest.raises(ValueError):
        incomplete_beta_ratio(1.5, 2.0, 3.0)
    with pytest.raises(ValueError):
        incomplete_beta_ratio(0.5, -1.0, 3.0)


def test_k_alpha_small_alpha_limit():
    # K(alpha)/alpha -> 1/4 as alpha -> 0
    assert k_alpha(1e-3) / 1e-3 == pytest.approx(0.25, abs=1e-6)


def test_k_alpha_positive_and_increasing():
    grid = np.linspace(0.05, 3.0, 40)
    vals = k_alpha(grid)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.2047, 0.4101, 0.4999, 0.5, 1.0, 3.0])
def test_k_alpha_matches_quadrature_definition(alpha):
    # K(alpha) = alpha E[(1/(R^2+1))^2] with R = alpha Z/2 + sqrt((alpha Z/2)^2 + 1),
    # Z ~ N(0, 1); the grid includes the bundled alpha-hats and both sides of 0.5
    def integrand(z):
        r = math.exp(math.asinh(0.5 * alpha * z))  # R, without cancellation for z < 0
        return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / (r * r + 1.0) ** 2

    ref, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    assert k_alpha(alpha) == pytest.approx(alpha * ref, rel=1e-12, abs=0.0)


def test_k_alpha_matches_expectation_identity():
    # K(alpha) = alpha E[(beta/(T+beta))^2] for T ~ BS(alpha, beta)
    import skewbs as sk

    rng = np.random.default_rng(7)
    for a in (0.3, 0.8):
        t = sk.bs_sample(200_000, a, 2.0, rng=rng)
        est = a * np.mean((2.0 / (t + 2.0)) ** 2)
        se = a * np.std((2.0 / (t + 2.0)) ** 2, ddof=1) / math.sqrt(t.size)
        assert abs(k_alpha(a) - est) < 4 * se
