"""Skewed bivariate generalized BS models driven by a density generator.

Replacing the normal kernel in the skewed bivariate BS density by an
elliptical generator f(z) = c g(z^2) with cdf F gives

    f(t1, t2) = 2 f(a_1) f(a_2) F(lambda a_1 a_2) J_1 J_2.

Any extra generator parameters (degrees of freedom and the like) are
treated as fixed constants, shared by both margins. The normal
generator recovers the SMVBS density exactly, and the scale and
reciprocation closures of the base model carry over unchanged. The
Student-t case is fitted by the shared fitter with an analytic score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import FitResult, Model, SampleMatrix, mme
from .estimation import _central_difference_info, _fit_from
from .univariate import (
    DensityGenerator,
    a_transform,
    _as_points,
    _check_margins,
    _log_jacobian,
    make_generator,
)

__all__ = [
    "SbvgbsParams",
    "sbvgbs_pdf",
    "sbvgbs_log_pdf",
    "sbvbs_t_pdf",
    "sbvbs_t_log_pdf",
    "sbvbs_t_mle",
    "sbvbs_t_observed_info",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SbvgbsParams:
    """Parameters of the generator-driven bivariate model."""

    alphas: tuple
    betas: tuple
    lam: float
    generator: DensityGenerator

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if _check_margins(self) != 2:
            raise ValueError("the generator-driven model is bivariate")
        if not np.isfinite(self.lam):
            raise ValueError("lambda must be finite")

    def as_vector(self) -> np.ndarray:
        """Flatten to (alpha1, alpha2, beta1, beta2, lambda)."""
        return np.array(self.alphas + self.betas + (self.lam,))

    def from_vector(self, vec) -> "SbvgbsParams":
        """Parameters at a vector, with this generator (which the vector lacks)."""
        return SbvgbsParams(tuple(vec[:2]), tuple(vec[2:4]), vec[4], self.generator)


def _log_pdf_terms(x, params: SbvgbsParams):
    """Log density at validated (n, 2) rows x, with the a-scores and F(lambda a1 a2)."""
    gen = params.generator
    a = a_transform(x, params.alphas, params.betas)
    cdf = gen.cdf(params.lam * a[:, 0] * a[:, 1])
    with np.errstate(divide="ignore"):
        out = (
            _LOG2
            + 2.0 * math.log(gen.norm_const)
            + np.log(gen.kernel(a * a)).sum(axis=1)
            + np.log(cdf)
            + _log_jacobian(x, params.alphas, params.betas).sum(axis=1)
        )
    return out, a, cdf


def sbvgbs_log_pdf(x, params: SbvgbsParams):
    x, squeeze = _as_points(x, 2)
    out = _log_pdf_terms(x, params)[0]
    return float(out[0]) if squeeze else out


def sbvgbs_pdf(x, params: SbvgbsParams):
    """Joint density of the generator-driven model at rows of x."""
    out = np.exp(sbvgbs_log_pdf(x, params))
    return float(out) if np.ndim(out) == 0 else out


def sbvbs_t_log_pdf(x, alphas, betas, lam: float, nu: float):
    """Log density of the Student-t special case with nu degrees of freedom."""
    params = SbvgbsParams(alphas, betas, lam, make_generator("student_t", nu=nu))
    return sbvgbs_log_pdf(x, params)


def sbvbs_t_pdf(x, alphas, betas, lam: float, nu: float):
    out = np.exp(sbvbs_t_log_pdf(x, alphas, betas, lam, nu))
    return float(out) if np.ndim(out) == 0 else out


def _t_loglik_and_score(params: SbvgbsParams, sample: SampleMatrix):
    """Log likelihood of the Student-t model and its analytic gradient.

    With psi(u) = -(nu + 1) / (2 (nu + u)) the derivative of log g(u)
    and m = f/F at lambda a1 a2, the a-score of margin j is
    e_j = 2 a_j psi(a_j^2) + lambda a_k m; da_j/dalpha_j = -a_j/alpha_j
    and da_j/dbeta_j = -d_j / (2 alpha_j beta_j) with d = r + 1/r.
    """
    n = sample.n
    gen = params.generator
    nu = gen.params["nu"]
    alphas = np.asarray(params.alphas)
    betas = np.asarray(params.betas)
    logf, a, cdf = _log_pdf_terms(sample.data, params)
    prod_a = a[:, 0] * a[:, 1]
    m = gen.pdf(params.lam * prod_a) / cdf
    e = -(nu + 1.0) * a / (nu + a * a) + params.lam * a[:, ::-1] * m[:, None]
    d = np.sqrt((alphas * a) ** 2 + 4.0)
    g = np.empty(5)
    g[:2] = -((e * a).sum(axis=0) + n) / alphas
    g[2:4] = (
        -n / (2.0 * betas)
        + (1.0 / (sample.data + betas)).sum(axis=0)
        - (e * d).sum(axis=0) / (2.0 * alphas * betas)
    )
    g[4] = (prod_a * m).sum()
    return float(logf.sum()), g


def sbvbs_t_observed_info(params: SbvgbsParams, sample: SampleMatrix) -> np.ndarray:
    """Observed information of the Student-t model, from its analytic score."""
    return _central_difference_info(lambda p, s: _t_loglik_and_score(p, s)[1], params, sample)


def sbvbs_t_mle(sample: SampleMatrix, nu: float) -> FitResult:
    """Fit the Student-t model with nu degrees of freedom by maximum likelihood.

    Runs the shared fitter on (log alpha, log beta, lambda) with the
    analytic score and the central-difference observed information, so
    the fit is certified by the same score and step tolerances as
    ``mle``. Moment estimates seed the margins and lambda starts at 0.
    """
    if sample.p != 2:
        raise ValueError("the generator-driven model is bivariate")
    m = mme(sample)
    start = SbvgbsParams(m.alphas, m.betas, 0.0, make_generator("student_t", nu=nu))
    model = Model(
        start.from_vector,
        _t_loglik_and_score,
        sbvbs_t_observed_info,
        ("log",) * 4 + ("identity",),
    )
    return _fit_from(model, start.as_vector(), sample, 5)
