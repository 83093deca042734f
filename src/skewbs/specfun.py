"""Special functions backing the Birnbaum-Saunders family.

The error function, the standard normal pdf/cdf, the incomplete beta
ratio, Owen's T function and the confluent hypergeometric U function
(on its restricted domain b > a > 0, z > 0) delegate to scipy.special,
which evaluates them to near machine precision.
"""

from __future__ import annotations

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
    a function of alpha alone. Evaluated as
        K = (alpha - sqrt(pi/2) * Kstar) / 2,
    where Kstar = exp(2/alpha^2) * erfc(sqrt(2)/alpha) for alpha >= 0.5
    (computed through the scaled complement erfcx so nothing overflows)
    and by the small-alpha expansion
        Kstar ~= alpha/sqrt(2 pi) * (1 - alpha^2/4 + 3 alpha^4/16)
    below the switch. The two branches agree to about 3e-4 at the
    switch point, the expansion error there; K itself stays smooth to
    within that tolerance. K(alpha)/alpha -> 1/4 as alpha -> 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0):
        raise ValueError("k_alpha requires alpha > 0")
    y = math.sqrt(2.0) / np.maximum(alpha, 1e-300)
    exact = special.erfcx(y)
    series = alpha / math.sqrt(2.0 * math.pi) * (
        1.0 - alpha**2 / 4.0 + 3.0 * alpha**4 / 16.0
    )
    kstar = np.where(alpha >= 0.5, exact, series)
    out = 0.5 * (alpha - math.sqrt(math.pi / 2.0) * kstar)
    return float(out) if out.ndim == 0 else out
