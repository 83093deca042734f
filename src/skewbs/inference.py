"""Hypothesis tests and the correlated-BS comparison model.

Contains the likelihood ratio test of lambda = 0, the Vuong test for
non-nested model comparison, marginal goodness-of-fit statistics of the
Cramer-von Mises and Anderson-Darling type, and the bivariate BS model
built from a correlated normal pair (the standard alternative way of
putting dependence into BS margins), which serves as the comparison
model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .estimation import FitResult, Model, SampleMatrix, mme
from .estimation import _chain_info, _chain_score, _fit_from
from .univariate import a_transform, bs_cdf, _as_points, _check_margins, _log_jacobian

__all__ = [
    "TestReport",
    "GofReport",
    "KbjParams",
    "KBJ_NAMES",
    "lr_test",
    "vuong_test",
    "gof_marginal",
    "kbj_pdf",
    "kbj_log_pdf",
    "kbj_mle",
    "kbj_loglik",
    "kbj_observed_info",
]


@dataclass(frozen=True)
class TestReport:
    """Outcome of a scalar test statistic."""

    name: str
    statistic: float
    df: int | None
    p_value: float | None
    verdict: str
    level: float


def lr_test(full, restricted, df: int = 1, level: float = 0.05) -> TestReport:
    """Likelihood ratio test from two nested fits.

    ``full`` and ``restricted`` are FitResults on the same data; the
    statistic is 2 (l_full - l_restricted) referred to chi-squared with
    ``df`` degrees of freedom. The restricted likelihood can never
    exceed the full one, so a negative statistic signals a failed fit
    and raises.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    omega = 2.0 * (full.loglik - restricted.loglik)
    if omega < -1e-8:
        raise ValueError(
            "full fit has lower likelihood than the restricted fit; "
            "refit before testing"
        )
    omega = max(omega, 0.0)
    p = float(special.chdtrc(df, omega))
    verdict = (
        f"reject the restriction at level {level:g}"
        if p < level
        else f"no evidence against the restriction at level {level:g}"
    )
    return TestReport("lr", float(omega), df, p, verdict, level)


def vuong_test(
    loglik_a,
    loglik_b,
    level: float = 0.05,
    names: tuple = ("A", "B"),
) -> TestReport:
    """Vuong closeness test between two non-nested models.

    Takes the per-observation log densities of each fitted model. The
    statistic is sqrt(n) times the mean log-density difference over its
    sample standard deviation (ddof 1). Values above the upper normal
    quantile favor the first model, below the lower quantile the
    second, and anything in between is statistical equivalence. The
    statistic is invariant to adding a common per-observation constant
    to both models, so shared Jacobian terms may be dropped or kept.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    la = np.asarray(loglik_a, dtype=float)
    lb = np.asarray(loglik_b, dtype=float)
    if la.shape != lb.shape or la.ndim != 1 or la.size < 2:
        raise ValueError("need two equal-length vectors of at least 2 entries")
    m = la - lb
    sd = m.std(ddof=1)
    if sd == 0.0:
        raise ValueError("log-density differences are constant; test degenerate")
    stat = math.sqrt(m.size) * m.mean() / sd
    z = special.ndtri(1.0 - level)
    if stat > z:
        verdict = f"favor {names[0]}"
    elif stat < -z:
        verdict = f"favor {names[1]}"
    else:
        verdict = "models statistically equivalent"
    p = float(2.0 * special.ndtr(-abs(stat)))
    return TestReport("vuong", float(stat), None, p, verdict, level)


# Upper-tail critical values for the modified statistics when both
# parameters of the reference normal law are estimated from the data.
_GOF_LEVELS = (0.10, 0.05, 0.025, 0.01)
_W2_CRIT = (0.104, 0.126, 0.148, 0.178)
_A2_CRIT = (0.631, 0.752, 0.873, 1.035)


def _gof_verdict(stat: float, crit: tuple) -> str:
    if stat < crit[0]:
        return "p > 0.10"
    for lo, hi, c in zip(_GOF_LEVELS[1:], _GOF_LEVELS[:-1], crit[1:]):
        if stat < c:
            return f"{lo:g} < p <= {hi:g}"
    return "p <= 0.01"


@dataclass(frozen=True)
class GofReport:
    """Marginal goodness-of-fit report.

    w2_star and a2_star are the modified Cramer-von Mises and
    Anderson-Darling statistics of the normalized transform of the
    data; the verdicts place their p-values against standard critical
    value tables.
    """

    w2_star: float
    a2_star: float
    w2_verdict: str
    a2_verdict: str
    n: int


def gof_marginal(column, alpha: float, beta: float) -> GofReport:
    """Goodness of fit of one margin to BS(alpha, beta).

    The probability integral transform u = F(t) is mapped to normal
    scores, standardized (ddof 1), and mapped back through Phi before
    computing the statistics, so both parameters of the implied normal
    law count as estimated. Standardization absorbs any rescaling of
    the normal scores, which makes the result exactly invariant to
    alpha; only beta matters. Transforms that land on 0 or 1 are
    clipped with a warning.
    """
    t = np.sort(np.asarray(column, dtype=float))
    if t.ndim != 1 or t.size < 4:
        raise ValueError("need a 1-D column with at least 4 observations")
    n = t.size
    u = bs_cdf(t, alpha, beta)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        warnings.warn("probability transforms at 0 or 1 were clipped")
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
    y = special.ndtri(u)
    y = (y - y.mean()) / y.std(ddof=1)
    v = special.ndtr(y)
    i = np.arange(1, n + 1)
    w2 = float(np.sum((v - (2.0 * i - 1.0) / (2.0 * n)) ** 2) + 1.0 / (12.0 * n))
    a2 = float(
        -n - np.sum((2.0 * i - 1.0) * (np.log(v) + np.log(1.0 - v[::-1]))) / n
    )
    w2_star = w2 * (1.0 + 0.5 / n)
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    return GofReport(
        w2_star=w2_star,
        a2_star=a2_star,
        w2_verdict=_gof_verdict(w2_star, _W2_CRIT),
        a2_verdict=_gof_verdict(a2_star, _A2_CRIT),
        n=n,
    )


KBJ_NAMES = ("alpha1", "alpha2", "beta1", "beta2", "rho")


@dataclass(frozen=True)
class KbjParams:
    """BS margins joined by a correlated standard normal pair."""

    alphas: tuple
    betas: tuple
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        if _check_margins(self) != 2:
            raise ValueError("the comparison model is bivariate")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")

    def as_vector(self) -> np.ndarray:
        """Flatten to (alpha1, alpha2, beta1, beta2, rho)."""
        return np.array(self.alphas + self.betas + (self.rho,))

    @classmethod
    def from_vector(cls, vec) -> "KbjParams":
        return cls(tuple(vec[:2]), tuple(vec[2:4]), vec[4])


def _kbj_log_pdf_terms(x, params: KbjParams):
    """Log density at validated (n, 2) rows x, with the a-scores."""
    a = a_transform(x, params.alphas, params.betas)
    a1, a2 = a[:, 0], a[:, 1]
    r2 = 1.0 - params.rho**2
    quad = (a1 * a1 - 2.0 * params.rho * a1 * a2 + a2 * a2) / (2.0 * r2)
    jac = _log_jacobian(x, params.alphas, params.betas).sum(axis=1)
    return -math.log(2.0 * math.pi) - 0.5 * math.log(r2) - quad + jac, a


def kbj_log_pdf(x, params: KbjParams):
    """Joint log density: bivariate normal in the a-scores times Jacobians."""
    x, squeeze = _as_points(x, 2)
    out = _kbj_log_pdf_terms(x, params)[0]
    return float(out[0]) if squeeze else out


def kbj_pdf(x, params: KbjParams):
    out = np.exp(kbj_log_pdf(x, params))
    return float(out) if np.ndim(out) == 0 else out


def kbj_loglik(params: KbjParams, sample: SampleMatrix) -> float:
    """Full log likelihood (no constants dropped)."""
    return float(_kbj_log_pdf_terms(sample.data, params)[0].sum())


def _kbj_pass(params: KbjParams, sample: SampleMatrix):
    """Log likelihood, its analytic gradient and ``info``, from one a-transform.

    h(a; rho) = -log(2 pi) - log(1 - rho^2)/2 - Q_i/(2 (1 - rho^2)) with
    Q_i = a1^2 - 2 rho a1 a2 + a2^2, so q = -dh/da = (a - rho a_k)/(1 - rho^2).
    ``info()`` finishes minus the analytic Hessian: in the a-scores
    E = [[-1, rho], [rho, -1]]/(1 - rho^2), e_rho,j = (a_k - 2 rho q_j)/(1 - rho^2)
    and, with S12 = sum a1 a2 and Q = sum Q_i,
    h_rhorho = (n (1 + rho^2) + 4 rho S12 - Q)/(1 - rho^2)^2 - 4 rho^2 Q/(1 - rho^2)^3.
    """
    logf, a = _kbj_log_pdf_terms(sample.data, params)
    n, rho, r2 = sample.n, params.rho, 1.0 - params.rho**2
    q = (a - rho * a[:, ::-1]) / r2
    ad = np.hstack([a, np.sqrt((np.asarray(params.alphas) * a) ** 2 + 4.0)])
    S12 = float((a[:, 0] * a[:, 1]).sum())
    Q = float((a * a).sum()) - 2.0 * rho * S12
    h_rho = (n * rho + S12) / r2 - rho * Q / r2**2
    e_ad = -(np.tile(q, 2) * ad).sum(axis=0)

    def info():
        h_rr = (n * (1.0 + rho * rho) + 4.0 * rho * S12 - Q) / r2**2 - 4.0 * rho * rho * Q / r2**3
        e_rho = (ad[:, 1::-1] - 2.0 * rho * q) / r2

        def E(j, k):
            return np.full(n, (rho if j != k else -1.0) / r2)

        epsi_ad = (np.tile(e_rho, 2) * ad).sum(axis=0)
        return _chain_info(params, sample.data, ad, E, e_ad, epsi_ad, h_rr)

    g = _chain_score(params, sample.data + params.betas, e_ad, h_rho)
    return float(logf.sum()), g, info


def kbj_observed_info(params: KbjParams, sample: SampleMatrix) -> np.ndarray:
    """Observed information of the comparison model, minus its Hessian (see ``_kbj_pass``)."""
    return _kbj_pass(params, sample)[2]()


def kbj_mle(sample: SampleMatrix) -> FitResult:
    """Fit the comparison model by maximum likelihood.

    Runs the shared fitter on (log alpha, log beta, atanh rho) with the
    analytic score and observed information, so the fit is certified by
    the same score and step tolerances as ``mle``. Moment estimates seed
    the margins; the empirical correlation of the standardized scores
    seeds rho.
    """
    if sample.p != 2:
        raise ValueError("the comparison model is bivariate")
    m = mme(sample)
    a0 = a_transform(sample.data, m.alphas, m.betas)
    rho0 = float(np.clip(np.corrcoef(a0[:, 0], a0[:, 1])[0, 1], -0.95, 0.95))
    links = ("log",) * 4 + ("atanh",)
    model = Model(KbjParams.from_vector, _kbj_pass, links)
    theta0 = np.concatenate([m.alphas, m.betas, [rho0]])
    return _fit_from(model, theta0, sample, 5)
