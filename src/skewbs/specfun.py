"""Special functions the Birnbaum-Saunders family needs beyond plain scipy.

Callers take scipy.special directly where it has the function (erf,
ndtr, betainc). What stays here, and why:

- ``log_std_normal_pdf``: a formula, not a scipy function.
- ``log_std_normal_cdf``: scipy's log_ndtr; perfbench times the
  kernel's log Phi through this name.
- ``owen_t`` and ``confluent_u``: scipy's owens_t and hyperu, the second
  held to its domain b > a > 0, z > 0; perfbench times both by name.
- ``k_alpha``: the shape integral of the expected information.
- ``_half_normal_rule`` and ``_product_rule_sums``: the exact half-normal product rule of
  the p = 2 information and cross moment, each kernel evaluated once per node product.
- ``integrate``, resolved by ``__getattr__``: perfbench still wraps
  ``integrate.quad``; a lazy name spares every command the import.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

__all__ = [
    "log_std_normal_pdf",
    "log_std_normal_cdf",
    "owen_t",
    "confluent_u",
    "k_alpha",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def __getattr__(name):
    """scipy.integrate as ``specfun.integrate``, imported on first read.

    perfbench/tracer.py is the only reader: it wraps ``quad``, which
    skewbs never calls. The hook goes with that binding (ROADMAP items 1-2).
    """
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate
    return integrate


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
def _half_normal_rule(step: float = 0.1) -> tuple:
    """Read-only nodes x and weights w with sum w f(x) = E f(|Z|), Z ~ N(0, 1).

    The trapezoid rule in log x, exponentially convergent for integrands analytic in a
    strip about that axis (Trefethen & Weideman 2014, SIAM Review 56): x = exp(t) on
    t = -40, -40 + h, ..., 3.4, outside which the half-normal mass is below 1e-17, and
    w = h 2 phi(x) x. In log coordinates the kink of Phi(lambda x y) has width O(1)
    whatever lambda, so the product rule over pairs (x_i, x_j) holds about 1e-13 relative
    accuracy for |lambda| up to 50. numpy's arange spaces t exactly by h, ``step`` rounded
    to the last bit of 40, so x_i x_j depends on i + j alone. Built on first use; ``step``
    exists so that the accuracy tests can halve it.
    """
    t = np.arange(-40.0, 3.4 + step / 2.0, step)
    x = np.exp(t)
    w = (t[1] - t[0]) * x * np.exp(-0.5 * x * x) * math.sqrt(2.0 / math.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _product_rule_sums(kernel, forms) -> np.ndarray:
    """Each ``(w a)' K (w b)``, K = ``kernel(x x')[k]``, for the (k, a, b) of ``forms(x)``.

    x_i x_j is P[i + j] for the 2N - 1 products P of x[0] and of x[-1] with the nodes, so
    each kernel is evaluated once per product and each form is K[k] @ conv(w a, w b).
    """
    x, w = _half_normal_rule()
    K = kernel(np.concatenate([x[0] * x, x[-1] * x[1:]]))
    return np.array([K[k] @ np.convolve(w * a, w * b) for k, a, b in forms(x)])
