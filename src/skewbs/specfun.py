"""Special functions backing the Birnbaum-Saunders family.

The error function, the standard normal pdf/cdf, the incomplete beta
ratio, Owen's T function and the confluent hypergeometric U function
(on its restricted domain b > a > 0, z > 0) delegate to scipy.special,
which evaluates them to near machine precision.
"""

from __future__ import annotations

import functools
import math

import numpy as np
# unused here; perfbench/tracer.py counts quadrature calls through this binding
from scipy import integrate, special  # noqa: F401

__all__ = [
    "erf",
    "std_normal_pdf",
    "std_normal_cdf",
    "log_std_normal_pdf",
    "log_std_normal_cdf",
    "owen_t",
    "confluent_u",
    "incomplete_beta_ratio",
    "k_alpha",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def erf(x):
    """Error function, vectorized; accurate to about 1 ulp."""
    return special.erf(x)


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def std_normal_cdf(x):
    return special.ndtr(np.asarray(x, dtype=float))


def log_std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - _LOG_SQRT_2PI


def log_std_normal_cdf(x):
    """log Phi(x), stable far into the lower tail (x ~ -40 and beyond)."""
    return special.log_ndtr(np.asarray(x, dtype=float))


def owen_t(h, a):
    """Owen's T function T(h, a), from ``scipy.special.owens_t``.

    T(h, a) = (2*pi)^-1 * integral_0^a exp(-h^2 (1+x^2)/2) / (1+x^2) dx.

    Vectorized over h and a by broadcasting; a may be +-inf. The
    Patefield-Tandy algorithm holds the absolute error near 1e-15.
    """
    out = special.owens_t(np.asarray(h, dtype=float), np.asarray(a, dtype=float))
    return float(out) if out.ndim == 0 else out


def confluent_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric U(a, b, z) for b > a > 0, z > 0.

    Delegates to ``scipy.special.hyperu``; the domain is restricted to
    the range where the integral representation
        U(a, b, z) = Gamma(a)^-1 * integral_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt
    converges.
    """
    if not (b > a > 0.0):
        raise ValueError("confluent_u requires b > a > 0")
    if not z > 0.0:
        raise ValueError("confluent_u requires z > 0")
    return float(special.hyperu(a, b, z))


def incomplete_beta_ratio(x, r: float, s: float):
    """Regularized incomplete beta function I_x(r, s) on 0 <= x <= 1."""
    if r <= 0.0 or s <= 0.0:
        raise ValueError("incomplete_beta_ratio requires r > 0 and s > 0")
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("incomplete_beta_ratio requires 0 <= x <= 1")
    out = special.betainc(r, s, x)
    return float(out) if out.ndim == 0 else out


def k_alpha(alpha):
    """The shape integral K(alpha) entering the expected information.

    K(alpha) = alpha * E[beta^2 / (T + beta)^2] for T ~ BS(alpha, beta),
    a function of alpha alone. Evaluated in closed form as
        K = (alpha - sqrt(pi/2) * erfcx(sqrt(2)/alpha)) / 2,
    where erfcx(y) = exp(y^2) erfc(y) is the scaled complementary error
    function, so nothing overflows as alpha -> 0. K(alpha)/alpha -> 1/4
    as alpha -> 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0):
        raise ValueError("k_alpha requires alpha > 0")
    out = 0.5 * (alpha - math.sqrt(math.pi / 2.0) * special.erfcx(math.sqrt(2.0) / alpha))
    return float(out) if out.ndim == 0 else out


@functools.cache
def _half_normal_rule(nodes: int = 300) -> tuple:
    """Read-only nodes x and weights w with sum w f(x) = E f(|Z|), Z ~ N(0, 1).

    Gauss-Legendre in log x on [-40, 3.4], outside which the half-normal
    mass is below 1e-17; w is 2 phi(x) times the Jacobian x. In log
    coordinates the kink of Phi(lambda x y) has width O(1) whatever
    lambda, so the product rule over pairs (x_i, x_j) holds about 1e-13
    relative accuracy for |lambda| up to 50. Built on first use. The
    library uses the default; ``nodes`` exists so that the accuracy
    tests can compare against a rule of twice the size.
    """
    s, v = np.polynomial.legendre.leggauss(nodes)
    half = 21.7  # half the length of [-40, 3.4]
    x = np.exp(half * (s + 1.0) - 40.0)
    w = half * v * x * np.exp(-0.5 * x * x) * math.sqrt(2.0 / math.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _product_rule_sums(kernel) -> np.ndarray:
    """``sum_ij w_i w_j f(x_i, x_j)`` for each ``f`` of ``kernel(rows, x)``, 16 rows at a time."""
    x, w = _half_normal_rule()
    sums = 0.0
    for i in range(0, len(x), 16):  # 38 kB temporaries: reused, too small for BLAS threads
        sums = sums + np.array([w[i : i + 16] @ f @ w for f in kernel(x[i : i + 16, None], x)])
    return sums
