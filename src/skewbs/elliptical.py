"""Skewed bivariate generalized BS models driven by a density generator.

Replacing the normal kernel in the skewed bivariate BS density by an
elliptical generator f(z) = c g(z^2) with cdf F gives

    f(t1, t2) = 2 f(a_1) f(a_2) F(lambda a_1 a_2) J_1 J_2.

Any extra generator parameters (degrees of freedom and the like) are
treated as fixed constants, shared by both margins. The normal
generator recovers the SMVBS density exactly, and the scale and
reciprocation closures of the base model carry over unchanged. The
Student-t case is fitted by the shared fitter with an analytic score and
observed information, from the chain rule that serves every model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import FitResult, Model, SampleMatrix, mme
from .estimation import _chain_info, _chain_score, _fit_from
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


def _t_pass(params: SbvgbsParams, sample: SampleMatrix):
    """Log likelihood of the Student-t model, its analytic gradient and ``info``.

    With psi(u) = -(nu + 1) / (2 (nu + u)) the derivative of log g(u)
    and m = f/F at v = lambda a1 a2, e_j = 2 a_j psi(a_j^2) + lambda a_k m.
    ``info()`` finishes minus the analytic Hessian from the same arrays.
    With m' = dm/dv = m (-(nu + 1) v/(nu + v^2) - m):
    E_jj = -(nu + 1)(nu - a_j^2)/(nu + a_j^2)^2 + lambda^2 a_k^2 m',
    E_12 = lambda (m + v m'), e_lambda,j = a_k (m + v m') and
    h_lambdalambda = sum (a1 a2)^2 m'.
    """
    nu, lam = params.generator.params["nu"], params.lam
    logf, a, cdf = _log_pdf_terms(sample.data, params)
    m = params.generator.pdf(lam * a[:, 0] * a[:, 1]) / cdf
    e = -(nu + 1.0) * a / (nu + a * a) + lam * a[:, ::-1] * m[:, None]
    ad = np.hstack([a, np.sqrt((np.asarray(params.alphas) * a) ** 2 + 4.0)])
    e_ad = (np.tile(e, 2) * ad).sum(axis=0)
    P = a[:, 0] * a[:, 1]

    def info():
        dm = m * (-(nu + 1.0) * lam * P / (nu + (lam * P) ** 2) - m)
        mv = m + lam * P * dm
        a2 = a * a
        E_jj = -(nu + 1.0) * (nu - a2) / (nu + a2) ** 2 + lam * lam * a2[:, ::-1] * dm[:, None]

        def E(j, k):
            return E_jj[:, j] if j == k else lam * mv

        epsi_ad = (np.tile(a[:, ::-1] * mv[:, None], 2) * ad).sum(axis=0)
        return _chain_info(params, sample.data, ad, E, e_ad, epsi_ad, float((P * P * dm).sum()))

    g = _chain_score(params, sample.data + params.betas, e_ad, float((P * m).sum()))
    return float(logf.sum()), g, info


def sbvbs_t_observed_info(params: SbvgbsParams, sample: SampleMatrix) -> np.ndarray:
    """Observed information of the Student-t model, minus its Hessian (see ``_t_pass``)."""
    return _t_pass(params, sample)[2]()


def sbvbs_t_mle(sample: SampleMatrix, nu: float) -> FitResult:
    """Fit the Student-t model with nu degrees of freedom by maximum likelihood.

    Runs the shared fitter on (log alpha, log beta, lambda) with the
    analytic score and observed information, so the fit is certified by
    the same score and step tolerances as ``mle``. Moment estimates seed
    the margins and lambda starts at 0.
    """
    if sample.p != 2:
        raise ValueError("the generator-driven model is bivariate")
    m = mme(sample)
    start = SbvgbsParams(m.alphas, m.betas, 0.0, make_generator("student_t", nu=nu))
    model = Model(start.from_vector, _t_pass, ("log",) * 4 + ("identity",))
    return _fit_from(model, start.as_vector(), sample, 5)
