"""Univariate Birnbaum-Saunders distribution and elliptical generalizations.

The BS(alpha, beta) law is the distribution of
    T = beta * (alpha Z / 2 + sqrt((alpha Z / 2)^2 + 1))^2,  Z ~ N(0, 1),
with shape alpha > 0 and scale (and median) beta > 0. The generalized
family replaces the normal kernel by an elliptical density generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, interpolate, special

from ._rng import as_generator
from .specfun import (
    incomplete_beta_ratio,
    log_std_normal_pdf,
    std_normal_cdf,
    std_normal_pdf,
)

__all__ = [
    "BsParams",
    "BsMoments",
    "DensityGenerator",
    "a_transform",
    "bs_pdf",
    "bs_log_pdf",
    "bs_cdf",
    "bs_quantile",
    "bs_sample",
    "bs_moments",
    "make_generator",
    "gbs_pdf",
    "gbs_log_pdf",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class BsParams:
    """Shape and scale of a univariate BS distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be positive and finite")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be positive and finite")


def _check_margins(params) -> int:
    """Store ``params.alphas`` and ``params.betas`` as checked float tuples.

    Shared by the frozen parameter classes of the joint models: both
    must have equal length and hold positive, finite values. Returns
    the number of margins.
    """
    alphas = tuple(float(a) for a in np.atleast_1d(params.alphas))
    betas = tuple(float(b) for b in np.atleast_1d(params.betas))
    object.__setattr__(params, "alphas", alphas)
    object.__setattr__(params, "betas", betas)
    if len(alphas) != len(betas):
        raise ValueError("alphas and betas must have equal length")
    if any(not (np.isfinite(a) and a > 0.0) for a in alphas):
        raise ValueError("all alphas must be positive and finite")
    if any(not (np.isfinite(b) and b > 0.0) for b in betas):
        raise ValueError("all betas must be positive and finite")
    return len(alphas)


def _check_positive(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t <= 0.0):
        raise ValueError("t must be positive and finite")
    return t


def _as_points(x, p: int) -> tuple[np.ndarray, bool]:
    """Positive, finite points x as (n, p) rows, and whether x was one point."""
    x = _check_positive(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != p:
        raise ValueError(f"expected points with {p} coordinates")
    return x, squeeze


def a_transform(t, alpha, beta):
    """The standardizing transform a_t = (sqrt(t/beta) - sqrt(beta/t)) / alpha.

    For T ~ BS(alpha, beta) the image a_T is standard normal. alpha and
    beta are scalars, or per-column sequences for an (n, p) array t.
    Requires t > 0; no validation is performed here since this sits in
    the inner loop of every density and likelihood evaluation.
    """
    t = np.asarray(t, dtype=float)
    r = np.sqrt(t / np.asarray(beta, dtype=float))
    return (r - 1.0 / r) / np.asarray(alpha, dtype=float)


def _log_jacobian(t, alpha, beta):
    # d a_t / d t = t^{-3/2} (t + beta) / (2 alpha sqrt(beta)), per column
    t = np.asarray(t, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return (
        -1.5 * np.log(t)
        + np.log(t + beta)
        - np.log(2.0 * alpha * np.sqrt(beta))
    )


def bs_log_pdf(t, alpha: float, beta: float):
    BsParams(alpha, beta)
    t = _check_positive(t)
    a = a_transform(t, alpha, beta)
    out = log_std_normal_pdf(a) + _log_jacobian(t, alpha, beta)
    return float(out) if out.ndim == 0 else out


def bs_pdf(t, alpha: float, beta: float):
    """Density of BS(alpha, beta) at t > 0."""
    out = np.exp(bs_log_pdf(t, alpha, beta))
    return float(out) if np.ndim(out) == 0 else out


def bs_cdf(t, alpha: float, beta: float):
    """Distribution function Phi(a_t)."""
    BsParams(alpha, beta)
    t = _check_positive(t)
    out = std_normal_cdf(a_transform(t, alpha, beta))
    return float(out) if out.ndim == 0 else out


def bs_quantile(q, alpha: float, beta: float):
    """Quantile function; q = 0 and q = 1 map to 0 and inf."""
    BsParams(alpha, beta)
    q = np.asarray(q, dtype=float)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("q must lie in [0, 1]")
    z = special.ndtri(q)
    half = 0.5 * alpha * z
    with np.errstate(invalid="ignore"):
        out = beta * (half + np.sqrt(half * half + 1.0)) ** 2
    # z = -inf gives nan through inf - inf; the limit is 0
    out = np.where(q == 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


def bs_sample(n: int, alpha: float, beta: float, rng=None):
    """Draw n exact BS(alpha, beta) variates."""
    BsParams(alpha, beta)
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = as_generator(rng)
    z = rng.standard_normal(n)
    half = 0.5 * alpha * z
    return beta * (half + np.sqrt(half * half + 1.0)) ** 2


@dataclass(frozen=True)
class BsMoments:
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    mean_reciprocal: float
    variance_reciprocal: float


def bs_moments(alpha: float, beta: float) -> BsMoments:
    """Closed-form moments of BS(alpha, beta).

    Kurtosis is reported in standardized (non-excess) form. The
    reciprocal moments reflect the 1/T ~ BS(alpha, 1/beta) closure.
    """
    BsParams(alpha, beta)
    a2 = alpha * alpha
    denom = 5.0 * a2 + 4.0
    return BsMoments(
        mean=beta * (1.0 + a2 / 2.0),
        variance=(alpha * beta) ** 2 * (1.0 + 1.25 * a2),
        skewness=4.0 * alpha * (11.0 * a2 + 6.0) / denom**1.5,
        kurtosis=3.0 + 6.0 * a2 * (93.0 * a2 + 40.0) / denom**2,
        mean_reciprocal=(1.0 + a2 / 2.0) / beta,
        variance_reciprocal=a2 * (1.0 + 1.25 * a2) / beta**2,
    )


@dataclass(frozen=True)
class DensityGenerator:
    """An elliptical density generator: f(z) = norm_const * kernel(z^2).

    The cdf callable integrates f. Construction verifies the
    normalization numerically, so a generator that reaches user code
    always satisfies integral(norm_const * kernel(z^2) dz) = 1 to 1e-6.
    """

    name: str
    kernel: Callable[[np.ndarray], np.ndarray]
    norm_const: float
    cdf: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        return self.norm_const * self.kernel(z * z)

    def __post_init__(self):
        total, _ = integrate.quad(
            lambda z: self.norm_const * float(self.kernel(z * z)),
            -np.inf,
            np.inf,
            limit=200,
        )
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"generator {self.name!r} normalizes to {total!r}, not 1"
            )


def _numeric_norm_const(kernel) -> float:
    total, _ = integrate.quad(
        lambda z: float(kernel(z * z)), -np.inf, np.inf, limit=200
    )
    return 1.0 / total


def _spline_cdf(pdf, z_max: float):
    # one-sided cumulative on a dense grid; symmetry gives the left tail
    grid = np.linspace(0.0, z_max, 16385)
    vals = pdf(grid)
    cum = integrate.cumulative_trapezoid(vals, grid, initial=0.0)
    # trapezoid bias is ~2e-9 at this resolution; rescale so F(inf)=0.5
    cum *= 0.5 / cum[-1]
    spline = interpolate.CubicSpline(grid, cum)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        mag = np.clip(np.abs(x), 0.0, z_max)
        half = spline(mag)
        out = np.where(x >= 0.0, 0.5 + half, 0.5 - half)
        return float(out) if out.ndim == 0 else np.clip(out, 0.0, 1.0)

    return cdf


def _student_cdf(scale: float, shape: float):
    # F(x) = (1 + sign(x) I_{x^2/(x^2+scale)}(1/2, shape/2)) / 2
    def cdf(x):
        x = np.asarray(x, dtype=float)
        q = x * x / (x * x + scale)
        out = 0.5 * (1.0 + np.sign(x) * incomplete_beta_ratio(q, 0.5, shape / 2.0))
        return float(out) if out.ndim == 0 else out

    return cdf


def make_generator(name: str, **params) -> DensityGenerator:
    """Build one of the named density generators.

    Supported names and their parameters:

    - "normal"
    - "cauchy"
    - "student_t"      nu > 0
    - "gen_student_t"  s > 0, r > 0
    - "logistic_i"     (type I logistic; numeric normalizer and cdf)
    - "logistic_ii"    (type II logistic, the standard logistic law)
    - "power_exp"      -1 < k <= 1

    Normalizing constants without a closed form (logistic_i, power_exp)
    are computed by quadrature at construction time.
    """
    if name == "normal":
        return DensityGenerator(
            name,
            lambda u: np.exp(-0.5 * u),
            1.0 / math.sqrt(2.0 * math.pi),
            std_normal_cdf,
        )
    if name == "cauchy":
        return DensityGenerator(
            name,
            lambda u: 1.0 / (1.0 + u),
            1.0 / math.pi,
            lambda x: 0.5 + np.arctan(x) / math.pi,
        )
    if name == "student_t":
        nu = float(params.get("nu", 4.0))
        if nu <= 0.0:
            raise ValueError("student_t requires nu > 0")
        c = math.exp(
            special.gammaln((nu + 1.0) / 2.0)
            - special.gammaln(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
        )
        return DensityGenerator(
            name,
            lambda u, nu=nu: (1.0 + u / nu) ** (-(nu + 1.0) / 2.0),
            c,
            _student_cdf(nu, nu),
            {"nu": nu},
        )
    if name == "gen_student_t":
        s = float(params.get("s", 1.0))
        r = float(params.get("r", 1.0))
        if s <= 0.0 or r <= 0.0:
            raise ValueError("gen_student_t requires s > 0 and r > 0")
        c = math.exp(
            special.gammaln((r + 1.0) / 2.0)
            - special.gammaln(r / 2.0)
            - 0.5 * math.log(s * math.pi)
        )
        return DensityGenerator(
            name,
            lambda u, s=s, r=r: (1.0 + u / s) ** (-(r + 1.0) / 2.0),
            c,
            _student_cdf(s, r),
            {"s": s, "r": r},
        )
    if name == "logistic_i":
        def kernel(u):
            e = np.exp(-np.asarray(u, dtype=float))
            return e / (1.0 + e) ** 2

        c = _numeric_norm_const(kernel)  # ~1.48430003
        cdf = _spline_cdf(lambda z: c * kernel(z * z), 8.5)
        return DensityGenerator(name, kernel, c, cdf)
    if name == "logistic_ii":
        def kernel(u):
            e = np.exp(-np.sqrt(np.asarray(u, dtype=float)))
            return e / (1.0 + e) ** 2

        return DensityGenerator(name, kernel, 1.0, special.expit)
    if name == "power_exp":
        k = float(params.get("k", 0.0))
        if not (-1.0 < k <= 1.0):
            raise ValueError("power_exp requires -1 < k <= 1")
        expo = 1.0 / (1.0 + k)

        def kernel(u, expo=expo):
            return np.exp(-0.5 * np.asarray(u, dtype=float) ** expo)

        c = _numeric_norm_const(kernel)

        def cdf(x, k=k, expo=expo):
            x = np.asarray(x, dtype=float)
            arg = 0.5 * np.abs(x) ** (2.0 * expo)
            out = 0.5 * (1.0 + np.sign(x) * special.gammainc((1.0 + k) / 2.0, arg))
            return float(out) if out.ndim == 0 else out

        return DensityGenerator(name, kernel, c, cdf, {"k": k})
    raise ValueError(f"unknown generator {name!r}")


def gbs_log_pdf(t, alpha: float, beta: float, generator: DensityGenerator):
    BsParams(alpha, beta)
    t = _check_positive(t)
    a = a_transform(t, alpha, beta)
    with np.errstate(divide="ignore"):
        log_kernel = np.log(generator.kernel(a * a))
    out = math.log(generator.norm_const) + log_kernel + _log_jacobian(t, alpha, beta)
    return float(out) if out.ndim == 0 else out


def gbs_pdf(t, alpha: float, beta: float, generator: DensityGenerator):
    """Density of the generalized BS law with the given generator."""
    out = np.exp(gbs_log_pdf(t, alpha, beta, generator))
    return float(out) if np.ndim(out) == 0 else out
