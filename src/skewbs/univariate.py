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
from scipy import special

from ._rng import as_generator
from .specfun import log_std_normal_pdf

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


def _bs_from_normal(z, alpha, beta) -> np.ndarray:
    """The inverse of ``a_transform``: beta (h + sqrt(h^2 + 1))^2, h = alpha z / 2.

    Evaluated as beta exp(2 asinh h), which keeps full relative precision
    in both tails; the squared form cancels to exact zeros for large
    negative h (alpha = 1e8). z = -inf and inf map to 0 and inf.
    """
    return beta * np.exp(2.0 * np.arcsinh(0.5 * alpha * z))


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
    out = special.ndtr(a_transform(t, alpha, beta))
    return float(out) if out.ndim == 0 else out


def bs_quantile(q, alpha: float, beta: float):
    """Quantile function; q = 0 and q = 1 map to 0 and inf."""
    BsParams(alpha, beta)
    q = np.asarray(q, dtype=float)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("q must lie in [0, 1]")
    out = _bs_from_normal(special.ndtri(q), alpha, beta)
    return float(out) if out.ndim == 0 else out


def bs_sample(n: int, alpha: float, beta: float, rng=None):
    """Draw n exact BS(alpha, beta) variates."""
    BsParams(alpha, beta)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _bs_from_normal(as_generator(rng).standard_normal(n), alpha, beta)


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

    The cdf callable integrates f. Nothing is checked at construction:
    the generators from ``make_generator`` carry exact normalizing
    constants, and a hand-built one must supply its own.
    """

    name: str
    kernel: Callable[[np.ndarray], np.ndarray]
    norm_const: float
    cdf: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        return self.norm_const * self.kernel(z * z)


def _tabulated_cdf(pdf, z_max: float):
    # trapezoid sums of the pdf on [0, z_max], rescaled so that F(inf) = 1; read
    # linearly, the table is monotone and within 1e-9 of F; symmetry gives x < 0
    grid = np.linspace(0.0, z_max, 65537)
    vals = pdf(grid)
    half = np.concatenate(([0.0], np.cumsum(vals[1:] + vals[:-1])))
    half *= 0.5 / half[-1]

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = 0.5 + np.sign(x) * np.interp(np.abs(x), grid, half)
        return float(out) if out.ndim == 0 else out

    return cdf


def _student_cdf(scale: float, shape: float):
    # F(x) = (1 + sign(x) I_{x^2/(x^2+scale)}(1/2, shape/2)) / 2 near 0. Past
    # x^2 = scale/100 that cancels in the lower tail, which is instead
    # 0.5 I_{scale/(scale+x^2)}(shape/2, 1/2), and the upper tail 1 minus it.
    def cdf(x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        near = np.minimum(x2, scale)  # the core is dropped past scale/100; no inf/inf at x = inf
        core = 0.5 * (1.0 + np.sign(x) * special.betainc(0.5, shape / 2.0, near / (near + scale)))
        tail = 0.5 * special.betainc(shape / 2.0, 0.5, scale / (scale + x2))
        out = np.where(x2 < scale / 100.0, core, np.where(x < 0.0, tail, 1.0 - tail))
        return float(out) if out.ndim == 0 else out

    return cdf


def make_generator(name: str, **params) -> DensityGenerator:
    """Build one of the named density generators.

    Supported names and their parameters:

    - "normal"
    - "cauchy"
    - "student_t"      finite nu > 0
    - "gen_student_t"  finite s > 0, r > 0
    - "logistic_i"     (type I logistic; tabulated cdf)
    - "logistic_ii"    (type II logistic, the standard logistic law)
    - "power_exp"      -1 < k <= 1

    Every normalizing constant is in closed form; logistic_i's is
    1 / (sqrt(pi) (1 - 2^{3/2}) zeta(-1/2)) and power_exp's is
    1 / (Gamma((k+3)/2) 2^{(k+3)/2}).
    """
    if name == "normal":
        return DensityGenerator(
            name,
            lambda u: np.exp(-0.5 * u),
            1.0 / math.sqrt(2.0 * math.pi),
            special.ndtr,
        )
    if name == "cauchy":
        return DensityGenerator(
            name,
            lambda u: 1.0 / (1.0 + u),
            1.0 / math.pi,
            lambda x: 0.5 + np.arctan(x) / math.pi,
        )
    if name in ("student_t", "gen_student_t"):
        # student_t(nu) is gen_student_t with s = r = nu
        if name == "student_t":
            shape = {"nu": float(params.get("nu", 4.0))}
            s = r = shape["nu"]
        else:
            shape = {"s": float(params.get("s", 1.0)), "r": float(params.get("r", 1.0))}
            s, r = shape["s"], shape["r"]
        for key, value in shape.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} requires a finite {key} > 0, got {key} = {value}")
        c = math.exp(
            special.gammaln((r + 1.0) / 2.0)
            - special.gammaln(r / 2.0)
            - 0.5 * math.log(s * math.pi)
        )
        def kernel(u, s=s, r=r):
            return (1.0 + u / s) ** (-(r + 1.0) / 2.0)

        return DensityGenerator(name, kernel, c, _student_cdf(s, r), shape)
    if name == "logistic_i":
        def kernel(u):
            e = np.exp(-np.asarray(u, dtype=float))
            return e / (1.0 + e) ** 2

        # integral of e^{-z^2} / (1 + e^{-z^2})^2 is sqrt(pi) (1 - 2^{3/2}) zeta(-1/2)
        c = 1.0 / (math.sqrt(math.pi) * (1.0 - 2.0**1.5) * float(special.zeta(-0.5)))
        cdf = _tabulated_cdf(lambda z: c * kernel(z * z), 8.5)
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

        c = 1.0 / (math.gamma((k + 3.0) / 2.0) * 2.0 ** ((k + 3.0) / 2.0))

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
