"""Skewed bivariate generalized BS models driven by a density generator.

Replacing the normal kernel in the skewed bivariate BS density by an
elliptical generator f(z) = c g(z^2) with cdf F gives

    f(t1, t2) = 2 f(a_1) f(a_2) F(lambda a_1 a_2) J_1 J_2.

Any extra generator parameters (degrees of freedom and the like) are
treated as fixed constants, shared by both margins. The normal
generator recovers the SMVBS density exactly, and the scale and
reciprocation closures of the base model carry over unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .univariate import (
    DensityGenerator,
    a_transform,
    _check_margins,
    _check_positive,
    _log_jacobian,
    make_generator,
)

__all__ = [
    "SbvgbsParams",
    "sbvgbs_pdf",
    "sbvgbs_log_pdf",
    "sbvbs_t_pdf",
    "sbvbs_t_log_pdf",
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


def _as_pairs(x) -> tuple[np.ndarray, bool]:
    x = _check_positive(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError("expected points with 2 coordinates")
    return x, squeeze


def sbvgbs_log_pdf(x, params: SbvgbsParams):
    x, squeeze = _as_pairs(x)
    gen = params.generator
    a1 = a_transform(x[:, 0], params.alphas[0], params.betas[0])
    a2 = a_transform(x[:, 1], params.alphas[1], params.betas[1])
    with np.errstate(divide="ignore"):
        out = (
            _LOG2
            + 2.0 * math.log(gen.norm_const)
            + np.log(gen.kernel(a1 * a1))
            + np.log(gen.kernel(a2 * a2))
            + np.log(gen.cdf(params.lam * a1 * a2))
            + _log_jacobian(x[:, 0], params.alphas[0], params.betas[0])
            + _log_jacobian(x[:, 1], params.alphas[1], params.betas[1])
        )
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
