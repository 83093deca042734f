"""The skewed multivariate Birnbaum-Saunders (SMVBS) model.

With a_j the standardizing transform of coordinate j, the joint density
on the positive orthant is

    f(t) = 2 * prod_j phi(a_j) * Phi(lambda * prod_j a_j) * prod_j J_j,

where J_j is the BS Jacobian of margin j. Margins are exactly
BS(alpha_j, beta_j) for every lambda; lambda = 0 recovers the
independent product model, and its sign controls the direction of the
dependence. Only beta is affected by coordinatewise rescaling, which
gives the exact scale and reciprocation closures implemented in
``transform_params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from ._rng import deprecated_draws
from .specfun import (
    _LOG_SQRT_2PI, confluent_u, _product_rule_sums, log_std_normal_cdf, log_std_normal_pdf, owen_t,
)
from .univariate import (
    _bs_from_normal, _check_margins, _check_positive, _joint_log_pdf, _log_jacobian, a_transform,
)

__all__ = [
    "SmvbsParams",
    "smvbs_pdf",
    "smvbs_log_pdf",
    "conditional_pdf",
    "conditional_cdf",
    "smvbs_sample",
    "transform_params",
    "latent_correlation",
    "product_moment",
    "ProductMoment",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SmvbsParams:
    """Parameters (alpha_1..alpha_p, beta_1..beta_p, lambda), p >= 2."""

    alphas: tuple
    betas: tuple
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if _check_margins(self) < 2:
            raise ValueError("the model needs at least two margins")
        if not np.isfinite(self.lam):
            raise ValueError("lambda must be finite")

    @property
    def p(self) -> int:
        return len(self.alphas)

    def as_vector(self) -> np.ndarray:
        """Flatten to (alpha_1..alpha_p, beta_1..beta_p, lambda)."""
        return np.array(self.alphas + self.betas + (self.lam,))

    @classmethod
    def from_vector(cls, vec) -> "SmvbsParams":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size < 5 or vec.size % 2 == 0:
            raise ValueError("expected a vector (alphas..., betas..., lambda)")
        p = (vec.size - 1) // 2
        return cls(tuple(vec[:p]), tuple(vec[p : 2 * p]), vec[-1])


def _smvbs_log_h(a, lam: float, P):
    """The log density of (n, p) a-scores per row, given their row products P, and its log Phi column.

    h = log 2 - p log sqrt(2 pi) - |a|^2/2 + log Phi(lambda P), P = prod a.
    """
    log_phi = log_std_normal_cdf(lam * P)
    return (_LOG2 - a.shape[1] * _LOG_SQRT_2PI) - 0.5 * (a * a).sum(axis=1) + log_phi, log_phi


def smvbs_log_pdf(x, params: SmvbsParams):
    """Joint log density at rows of x (shape (n, p) or a single point)."""
    return _joint_log_pdf(x, params, lambda a: _smvbs_log_h(a, params.lam, np.prod(a, axis=1))[0])


def smvbs_pdf(x, params: SmvbsParams):
    out = np.exp(smvbs_log_pdf(x, params))
    return float(out) if np.ndim(out) == 0 else out


def _conditional_transforms(t1, t2, params: SmvbsParams):
    """Checked t1 with a_1(t1) and a_2(t2), for T1 given T2 = t2."""
    if params.p != 2:
        raise ValueError("conditionals are implemented for p = 2")
    t1 = _check_positive(t1)
    a2 = a_transform(float(_check_positive(t2)), params.alphas[1], params.betas[1])
    return t1, a_transform(t1, params.alphas[0], params.betas[0]), a2


def conditional_pdf(t1, t2, params: SmvbsParams):
    """Density of T1 given T2 = t2 for a bivariate model.

    The conditional is a skewed BS law: 2 phi(a_1) Phi(lambda a_2 a_1) J_1.
    """
    t1, a1, a2 = _conditional_transforms(t1, t2, params)
    out = np.exp(
        _LOG2
        + log_std_normal_pdf(a1)
        + log_std_normal_cdf(params.lam * a2 * a1)
        + _log_jacobian(t1, params.alphas[0], params.betas[0])
    )
    return float(out) if out.ndim == 0 else out


def conditional_cdf(t1, t2, params: SmvbsParams):
    """P(T1 <= t1 | T2 = t2) = Phi(a_1) - 2 T(a_1, lambda a_2)."""
    _, a1, a2 = _conditional_transforms(t1, t2, params)
    out = np.clip(special.ndtr(a1) - 2.0 * owen_t(a1, params.lam * a2), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _sample_latent(n: int, p: int, lam: float, rng) -> list:
    """Draw the latent normal-scale vectors (Z_1..Z_p) exactly, as p columns.

    Z_1..Z_{p-1} are iid standard normal. Conditionally on them, Z_p is
    skew-normal with slant c = lambda * prod(Z_1..Z_{p-1}), generated by
    the convolution representation (c |W0| + W1) / sqrt(1 + c^2). Where
    |c| > 1e150, c^2 would overflow and Z_p is its limit sign(c) |W0|,
    which is exact there in double precision.
    """
    head = np.ascontiguousarray(rng.standard_normal((n, p - 1)).T)
    with np.errstate(over="ignore"):
        c = lam * np.prod(head, axis=0)
    w0 = np.abs(rng.standard_normal(n))
    w1 = rng.standard_normal(n)
    huge = np.abs(c) > 1e150
    tame = np.where(huge, 0.0, c)
    last = np.where(huge, np.copysign(w0, c), (tame * w0 + w1) / np.sqrt(1.0 + tame * tame))
    return [*head, last]


def smvbs_sample(n: int, params: SmvbsParams, rng=None) -> np.ndarray:
    """Draw n exact vectors from the model; returns shape (n, p)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = _sample_latent(n, params.p, params.lam, np.random.default_rng(rng))
    return np.stack([_bs_from_normal(*col) for col in zip(z, params.alphas, params.betas)], axis=1)


def transform_params(
    params: SmvbsParams,
    scale: Sequence[float] | None = None,
    invert: Sequence[bool] | None = None,
) -> SmvbsParams:
    """Parameters of (k_j * T_j) and/or (1 / T_j) under the closures.

    Inversion is applied first: each inverted coordinate replaces
    beta_j by 1/beta_j and flips the sign of lambda once. Scaling then
    multiplies beta_j by k_j > 0. Both match the distribution of the
    transformed vector exactly.
    """
    alphas = list(params.alphas)
    betas = list(params.betas)
    lam = params.lam
    if invert is not None:
        if len(invert) != params.p:
            raise ValueError("invert must have one flag per margin")
        for j, flag in enumerate(invert):
            if flag:
                betas[j] = 1.0 / betas[j]
                lam = -lam
    if scale is not None:
        if len(scale) != params.p:
            raise ValueError("scale must have one factor per margin")
        for j, k in enumerate(scale):
            k = float(k)
            if not (np.isfinite(k) and k > 0.0):
                raise ValueError("scale factors must be positive")
            betas[j] *= k
    return SmvbsParams(tuple(alphas), tuple(betas), lam)


def latent_correlation(lam: float) -> float:
    """Correlation of the latent normal-scale pair as a function of lambda.

    rho(lambda) = sign(lambda) * U(3/2, 2, 1/(2 lambda^2)) / (2 lambda^2 sqrt(pi))
    = E[P erf(lambda P / sqrt 2)], P = |Z1 Z2|, with U the confluent hypergeometric
    function: odd, zero at zero and increasing toward the asymptote 2/pi. scipy's hyperu
    is within 6e-15 of mpmath for 0.5 <= |lambda| <= 1e5 but off by 2.3e-8 near 0.22, nan
    past 7e5 and 0 below 1e-150; elsewhere the product rule is within 4e-16 (1e-300 to 1e200).
    """
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam == 0.0:
        return 0.0
    if not 0.5 <= abs(lam) <= 1e5:
        c = lam / math.sqrt(2.0)
        return float(_product_rule_sums(lambda P: (special.erf(c * P),), lambda x: ((0, x, x),))[0])
    z = 1.0 / (2.0 * lam * lam)
    return math.copysign(confluent_u(1.5, 2.0, z) / (2.0 * lam * lam * math.sqrt(math.pi)), lam)


@dataclass(frozen=True)
class ProductMoment:
    """Exact E[T1 T2]; ``mc_se`` and ``draws`` (both 0) are kept for old callers."""

    value: float
    mc_se: float
    draws: int


def product_moment(params: SmvbsParams, mc_draws: int | None = None, rng=None) -> ProductMoment:
    """Cross moment E[T1 T2] of a bivariate model, exact.

    T_j / beta_j = 1 + alpha_j^2 Z_j^2 / 2 + o_j(Z_j) with the odd part o_j(z) =
    alpha_j z sqrt(alpha_j^2 z^2 + 4) / 2. Averaging over the sign patterns of the
    latent pair gives E[T1 T2] / (beta1 beta2) = (1 + alpha1^2/2)(1 + alpha2^2/2) +
    E o1(|Z1|) o2(|Z2|) erf(lambda |Z1 Z2| / sqrt 2), Z1, Z2 independent standard
    normal. The erf factor depends on the node product alone, so it is evaluated once
    per product of the ``_half_normal_rule`` nodes (``_product_rule_sums``). ``mc_draws``
    and ``rng`` are deprecated and ignored (mc_draws < 2 still raises).
    """
    deprecated_draws(mc_draws, rng, 2)
    if params.p != 2:
        raise ValueError("product_moment is implemented for p = 2")
    a1, a2 = params.alphas
    beta12 = params.betas[0] * params.betas[1]
    value = beta12 * (1.0 + a1**2 / 2.0) * (1.0 + a2**2 / 2.0)
    if params.lam != 0.0:
        o1, o2 = (lambda z, a=a: a * z * np.sqrt((a * z) ** 2 + 4.0) / 2.0 for a in (a1, a2))
        c = params.lam / math.sqrt(2.0)
        value += beta12 * _product_rule_sums(
            lambda P: (special.erf(c * P),), lambda x: ((0, o1(x), o2(x)),)
        )[0]
    return ProductMoment(float(value), 0.0, 0)
