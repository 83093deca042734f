"""Moment and likelihood estimation for the skewed multivariate BS model.

Parameter vectors are ordered (alpha_1..alpha_p, beta_1..beta_p, lambda)
throughout. The log likelihood is the constant-free form

    l = -n sum_j [log alpha_j + log(beta_j)/2] + sum_ji log(t_ji + beta_j)
        - sum_ji a_ji^2 / 2 + sum_i log Phi(lambda prod_j a_ji),

which drops the data-only term -(3/2) sum log t and the additive
constants; it differs from the sum of joint log densities by a quantity
that depends on the data alone. Score and Hessian are analytic. The
expected information combines closed-form pieces with a Monte Carlo
evaluation of the bracket moments that lack closed forms; the sampler
averages every bracket over the sign orbit of the latent normal vector,
which zeroes the odd brackets exactly and shrinks the variance of the
even ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import linalg, optimize, special

from ._rng import as_generator
from .multivariate import SmvbsParams
from .specfun import k_alpha

__all__ = [
    "SampleMatrix",
    "MomentEstimates",
    "LikelihoodWorkspace",
    "FitResult",
    "Model",
    "ExpectedInfo",
    "ParamCi",
    "mme",
    "loglik",
    "score",
    "observed_info",
    "profile_loglik",
    "alpha_given_beta",
    "mle",
    "expected_info",
    "confidence_intervals",
    "wald_intervals",
    "param_names",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_DEFAULT_MC_SEED = 20120428
_SCORE_TOL = 1e-8
_STEP_TOL = 1e-10


def _wfun(u):
    """Inverse Mills ratio phi(u)/Phi(u), stable in the deep left tail."""
    u = np.asarray(u, dtype=float)
    out = np.exp(-0.5 * u * u - _LOG_SQRT_2PI - special.log_ndtr(u))
    return float(out) if out.ndim == 0 else out


class SampleMatrix:
    """A positive data matrix with its column means and harmonic means.

    s_bar[j] is the arithmetic mean of column j and r_bar[j] the
    harmonic mean; s_bar >= r_bar componentwise by the AM-HM
    inequality, with equality only for constant columns.
    """

    def __init__(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be a 2-D array")
        if data.shape[0] < 2:
            raise ValueError("need at least two observations")
        if data.shape[1] < 2:
            raise ValueError("need at least two columns")
        if np.any(~np.isfinite(data)) or np.any(data <= 0.0):
            raise ValueError("all entries must be positive and finite")
        self.data = data.copy()
        self.data.flags.writeable = False
        self.s_bar = data.mean(axis=0)
        self.r_bar = 1.0 / (1.0 / data).mean(axis=0)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j]


@dataclass(frozen=True)
class MomentEstimates:
    """Modified moment estimates of the marginal parameters."""

    alphas: tuple
    betas: tuple


def mme(sample: SampleMatrix) -> MomentEstimates:
    """Modified moment estimators per margin.

    alpha_check = sqrt(2 (sqrt(s_bar / r_bar) - 1)), beta_check =
    sqrt(s_bar r_bar). Degenerate (constant) columns give alpha = 0,
    which is flagged as an error since it leaves the BS family.
    """
    ratio = np.sqrt(sample.s_bar / sample.r_bar) - 1.0
    if np.any(ratio <= 0.0):
        raise ValueError("a column is constant; moment estimates degenerate")
    alphas = np.sqrt(2.0 * ratio)
    betas = np.sqrt(sample.s_bar * sample.r_bar)
    return MomentEstimates(tuple(alphas), tuple(betas))


def _exclusive_products(a: np.ndarray):
    """Row products of the columns before and after each column of a.

    before[:, j] = prod_{k < j} a_k and after[:, j] = prod_{k > j} a_k,
    so before * after leaves column j out without dividing by it.
    """
    p = a.shape[1]
    before = np.ones_like(a)
    after = np.ones_like(a)
    for j in range(1, p):
        before[:, j] = before[:, j - 1] * a[:, j - 1]
        after[:, p - 1 - j] = after[:, p - j] * a[:, p - j]
    return before, after


@dataclass(frozen=True)
class LikelihoodWorkspace:
    """Per-observation quantities shared by the likelihood derivatives.

    With r_ji = sqrt(t_ji / beta_j): a = (r - 1/r) / alpha is the matrix
    of standardized scores, d = r + 1/r (equal to sqrt(alpha_j^2 a_ji^2
    + 4)), prod_a the row products and P_excl[:, j] the row product
    without column j. u = lambda * prod_a, log_phi = log Phi(u) and w is
    the inverse Mills ratio phi(u)/Phi(u), formed from log_phi. The
    (n, p) arrays are column-major, so per-column sums and products
    run over contiguous memory.
    """

    a: np.ndarray
    d: np.ndarray
    prod_a: np.ndarray
    P_excl: np.ndarray
    u: np.ndarray
    log_phi: np.ndarray
    w: np.ndarray

    @classmethod
    def build(cls, params: SmvbsParams, data: np.ndarray) -> "LikelihoodWorkspace":
        r = np.sqrt(np.divide(data, params.betas, order="F"))
        inv_r = 1.0 / r
        a = (r - inv_r) / np.asarray(params.alphas)
        before, after = _exclusive_products(a)
        prod_a = before[:, -1] * a[:, -1]
        u = params.lam * prod_a
        log_phi = special.log_ndtr(u)
        w = np.exp(-0.5 * u * u - _LOG_SQRT_2PI - log_phi)
        return cls(
            a=a, d=r + inv_r, prod_a=prod_a, P_excl=before * after, u=u, log_phi=log_phi, w=w
        )


def _check_shapes(params: SmvbsParams, sample: SampleMatrix):
    if sample.p != params.p:
        raise ValueError("sample and parameter dimensions differ")


def _loglik_and_score(params: SmvbsParams, sample: SampleMatrix):
    """The constant-free log likelihood and its gradient, from one workspace."""
    _check_shapes(params, sample)
    X = sample.data
    n, p = sample.n, params.p
    alphas = np.asarray(params.alphas)
    betas = np.asarray(params.betas)
    lam = params.lam
    ws = LikelihoodWorkspace.build(params, X)
    a, d, w = ws.a, ws.d, ws.w
    X_plus_beta = np.add(X, betas, order="F")
    a_sq = (a * a).sum(axis=0)
    wP = (w * ws.prod_a).sum()
    ll = float(
        -n * (np.log(alphas) + 0.5 * np.log(betas)).sum()
        + np.log(X_plus_beta).sum()
        - 0.5 * a_sq.sum()
        + ws.log_phi.sum()
    )
    g = np.empty(2 * p + 1)
    g[:p] = (a_sq - n - lam * wP) / alphas
    g[p : 2 * p] = (
        -n / (2.0 * betas)
        + (1.0 / X_plus_beta).sum(axis=0)
        + ((a * d).sum(axis=0) - lam * (w[:, None] * d * ws.P_excl).sum(axis=0))
        / (2.0 * alphas * betas)
    )
    g[2 * p] = wP
    return ll, g


def loglik(params: SmvbsParams, sample: SampleMatrix) -> float:
    """Constant-free log likelihood (see module docstring)."""
    return _loglik_and_score(params, sample)[0]


def score(params: SmvbsParams, sample: SampleMatrix) -> np.ndarray:
    """Gradient of the constant-free log likelihood."""
    return _loglik_and_score(params, sample)[1]


def observed_info(params: SmvbsParams, sample: SampleMatrix) -> np.ndarray:
    """Observed information: minus the analytic Hessian of ``loglik``."""
    _check_shapes(params, sample)
    X = sample.data
    p = params.p
    alphas = np.asarray(params.alphas)
    betas = np.asarray(params.betas)
    lam = params.lam
    ws = LikelihoodWorkspace.build(params, X)
    a, d, P, P_excl, w = ws.a, ws.d, ws.prod_a, ws.P_excl, ws.w
    before, after = _exclusive_products(a)
    s = ws.u * w + w * w  # -d/du of the inverse Mills ratio
    H = np.zeros((2 * p + 1, 2 * p + 1))
    wP = w * P
    sP2 = s * P * P
    for j in range(p):
        aj, dj, Pj = a[:, j], d[:, j], P_excl[:, j]
        H[j, j] = (
            (1.0 - 3.0 * aj**2).sum() + 2.0 * lam * wP.sum() - lam**2 * sP2.sum()
        ) / alphas[j] ** 2
        for k in range(j + 1, p):
            H[j, k] = H[k, j] = (
                lam * (wP - lam * sP2).sum() / (alphas[j] * alphas[k])
            )
        # mixed alpha_i beta_j rows: the same skew part for every i,
        # plus a delta term when i == j
        skew = (-(lam**2) * s * dj * Pj * P + lam * w * dj * Pj).sum()
        for i in range(p):
            v = skew / (2.0 * alphas[i] * alphas[j] * betas[j])
            if i == j:
                v -= (aj * dj).sum() / (alphas[j] ** 2 * betas[j])
            H[i, p + j] = H[p + j, i] = v
        H[p + j, p + j] = (
            0.5 * sample.n / betas[j] ** 2
            - (1.0 / (X[:, j] + betas[j]) ** 2).sum()
            - X[:, j].sum() / (alphas[j] ** 2 * betas[j] ** 3)
            - lam**2 * (s * dj**2 * Pj**2).sum() / (4.0 * alphas[j] ** 2 * betas[j] ** 2)
            + lam * wP.sum() / (4.0 * betas[j] ** 2)
            + lam * (w * dj * Pj).sum() / (2.0 * alphas[j] * betas[j] ** 2)
        )
        H[j, 2 * p] = H[2 * p, j] = -(wP - lam * sP2).sum() / alphas[j]
        H[p + j, 2 * p] = H[2 * p, p + j] = (
            -(dj * Pj * (w - lam * P * s)).sum() / (2.0 * alphas[j] * betas[j])
        )
        # the row product without columns j and k: the product before j,
        # times the product strictly between j and k, times the one after k
        between = 1.0
        for k in range(j + 1, p):
            Pjk = before[:, j] * between * after[:, k]
            v = (
                -(lam**2) * (s * dj * d[:, k] * Pj * P_excl[:, k]).sum()
                + lam * (w * dj * d[:, k] * Pjk).sum()
            ) / (4.0 * alphas[j] * betas[j] * alphas[k] * betas[k])
            H[p + j, p + k] = H[p + k, p + j] = v
            between = between * a[:, k]
    H[2 * p, 2 * p] = -sP2.sum()
    return -H


def alpha_given_beta(betas, sample: SampleMatrix) -> np.ndarray:
    """Profile alpha at fixed beta under the independence restriction.

    alpha_hat_j(beta_j) = sqrt(s_bar_j / beta_j + beta_j / r_bar_j - 2).
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if betas.size != sample.p or np.any(betas <= 0.0):
        raise ValueError("betas must be positive, one per margin")
    arg = sample.s_bar / betas + betas / sample.r_bar - 2.0
    return np.sqrt(np.maximum(arg, 0.0))


def profile_loglik(betas, sample: SampleMatrix) -> float:
    """Restricted (lambda = 0) log likelihood profiled over alpha."""
    alphas = alpha_given_beta(betas, sample)
    if np.any(alphas <= 0.0):
        raise ValueError("profile alpha degenerate at this beta")
    params = SmvbsParams(tuple(alphas), tuple(np.atleast_1d(betas)), 0.0)
    return loglik(params, sample)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a likelihood fit; ``params`` is the model's parameter object.

    ``iterations`` counts BFGS and Newton steps together; ``newton_steps``
    counts the Newton steps alone.
    """

    params: object
    loglik: float
    converged: bool
    iterations: int
    newton_steps: int
    score_norm: float
    step_norm: float
    fixed_lambda: float | None = None
    starts: tuple = ()


@dataclass(frozen=True)
class Model:
    """What the shared fitter needs to know about a parametric family.

    ``params`` builds the family's parameter object from a vector;
    ``loglik_and_score`` and ``info`` take that object and the sample
    and return the log likelihood with its gradient, and the observed
    information. ``links`` names, per
    coordinate, the map to the unconstrained optimizer scale: "log",
    "identity" or "atanh".
    """

    params: Callable
    loglik_and_score: Callable
    info: Callable
    links: tuple


# Per link: eta from theta, theta from eta, and d theta/d eta and
# d^2 theta/d eta^2 written as functions of theta.
_LINKS = {
    "log": (np.log, np.exp, lambda th: th, lambda th: th),
    "identity": (np.copy, np.copy, np.ones_like, np.zeros_like),
    "atanh": (
        np.arctanh,
        np.tanh,
        lambda th: 1.0 - th * th,
        lambda th: -2.0 * th * (1.0 - th * th),
    ),
}

# BFGS stops once the link-scale gradient has sup norm at most this and
# hands over to the Newton certificate. A tighter tolerance sits below
# the gradient's rounding floor on large samples, where BFGS then spends
# its last evaluations in line searches that end in precision loss.
_BFGS_GTOL = 1e-4
_BFGS_MAX_ITER = 500


def _lambda_warm_start(theta0: np.ndarray, sample: SampleMatrix) -> float:
    """Maximize the likelihood over lambda alone at fixed alpha, beta.

    The conditional log likelihood is strictly concave in lambda
    (its second derivative is -sum P_i^2 s_i with s_i > 0), so a
    safeguarded Newton iteration finds the unique stationary point
    whenever one exists. Without this step, extreme lambda starts can
    drag the joint optimizer into a spurious basin where beta leaves
    the data range and lambda runs away.
    """
    prod_a = LikelihoodWorkspace.build(SmvbsParams.from_vector(theta0), sample.data).prod_a
    lam = float(theta0[-1])
    g = float(np.sum(_wfun(lam * prod_a) * prod_a))
    for _ in range(80):
        if abs(g) <= 1e-10 or abs(lam) > 60.0:
            break
        u = lam * prod_a
        w = _wfun(u)
        s = u * w + w * w
        h = -float(np.sum(prod_a * prod_a * s))
        step = np.clip(-g / h, -5.0, 5.0)
        t = 1.0
        for _ in range(30):
            g_new = float(np.sum(_wfun((lam + t * step) * prod_a) * prod_a))
            if abs(g_new) < abs(g):
                break
            t *= 0.5
        lam += t * step
        g = g_new
    return lam


def _fit_from(model: Model, theta0, sample, nfree: int) -> FitResult:
    """Fit a model by BFGS on the link scale, then certify by Newton steps.

    The first ``nfree`` coordinates are free; the rest stay at their
    values in theta0. Each BFGS evaluation is one ``loglik_and_score``
    call, one likelihood pass. BFGS stops at a link-scale gradient sup
    norm of 1e-4 and hands over to Newton steps on the observed
    information, which continue until the original-scale score has sup
    norm at most 1e-8 and the last step moved no parameter by more than
    1e-10; BFGS alone does not certify that. ``iterations`` counts BFGS
    and Newton steps, ``newton_steps`` the Newton steps alone.
    """
    theta0 = np.asarray(theta0, dtype=float)
    names = np.array(model.links[:nfree])
    groups = [(np.flatnonzero(names == k), f) for k, f in _LINKS.items() if k in names]

    def link(which, x):
        """Entry ``which`` of each free coordinate's link, applied to x."""
        out = np.empty(nfree)
        for idx, fns in groups:
            out[idx] = fns[which](x[idx])
        return out

    def unpack(eta):
        theta = theta0.copy()
        theta[:nfree] = link(1, eta)
        return theta

    def negll_and_grad(eta):
        theta = unpack(eta)
        ll, g = model.loglik_and_score(model.params(theta), sample)
        return -ll, -g[:nfree] * link(2, theta)

    res = optimize.minimize(
        negll_and_grad,
        link(0, theta0),
        jac=True,
        method="BFGS",
        options={"gtol": _BFGS_GTOL, "maxiter": _BFGS_MAX_ITER},
    )
    eta = res.x

    newton_steps = 0
    step_inf = np.inf
    diag = np.arange(nfree)
    for _ in range(100):
        theta = unpack(eta)
        params = model.params(theta)
        base, g = model.loglik_and_score(params, sample)
        g_theta = g[:nfree]
        score_inf = np.abs(g_theta).max()
        if score_inf <= _SCORE_TOL and step_inf <= _STEP_TOL:
            break
        scale = link(2, theta)
        g_eta = g_theta * scale
        H_eta = -model.info(params, sample)[:nfree, :nfree] * np.outer(scale, scale)
        H_eta[diag, diag] += g_theta * link(3, theta)  # chain rule
        try:
            step = linalg.solve(-H_eta, g_eta, assume_a="sym")
        except linalg.LinAlgError:
            step = g_eta / (1.0 + np.abs(g_eta).max())
        if not np.isfinite(step).all() or g_eta @ step <= 0.0:
            step = g_eta / (1.0 + np.abs(g_eta).max())
        t = 1.0
        for _ in range(40):
            try:
                trial = model.params(unpack(eta + t * step))
            except ValueError:  # left the parameter space
                trial = None
            if trial is not None:
                ll = model.loglik_and_score(trial, sample)[0]
                if ll >= base - 1e-13 * max(1.0, abs(base)):
                    break
            t *= 0.5
        new_theta = unpack(eta + t * step)
        step_inf = np.abs(new_theta - theta).max()
        eta = eta + t * step
        newton_steps += 1
        if step_inf == 0.0 and score_inf > _SCORE_TOL:
            break  # stalled; theta, and so base and g, did not change
    else:  # out of steps: the last one has not been evaluated
        params = model.params(unpack(eta))
        base, g = model.loglik_and_score(params, sample)

    score_inf = float(np.abs(g[:nfree]).max())
    return FitResult(
        params=params,
        loglik=base,
        converged=bool(score_inf <= _SCORE_TOL and step_inf <= _STEP_TOL),
        iterations=int(res.nit) + newton_steps,
        newton_steps=newton_steps,
        score_norm=score_inf,
        step_norm=float(step_inf),
    )


def _central_difference_info(score: Callable, params, sample) -> np.ndarray:
    """Observed information of a model with an analytic score but no Hessian.

    Minus the symmetrized central-difference Jacobian of ``score`` in
    the coordinates of ``params.as_vector()``, with relative step 1e-6
    per coordinate.
    """
    theta = params.as_vector()
    H = np.empty((theta.size, theta.size))
    for i in range(theta.size):
        h = 1e-6 * max(abs(theta[i]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        gp = score(params.from_vector(tp), sample)
        gm = score(params.from_vector(tm), sample)
        H[i] = (gp - gm) / (2.0 * h)
    return -0.5 * (H + H.T)


def _fit_smvbs(theta0, sample: SampleMatrix, fix_lambda) -> FitResult:
    theta0 = np.array(theta0, dtype=float)
    links = ("log",) * (theta0.size - 1) + ("identity",)
    model = Model(SmvbsParams.from_vector, _loglik_and_score, observed_info, links)
    if fix_lambda is None:
        theta0[-1] = _lambda_warm_start(theta0, sample)
        return _fit_from(model, theta0, sample, theta0.size)
    theta0[-1] = fix_lambda
    fit = _fit_from(model, theta0, sample, theta0.size - 1)
    return replace(fit, fixed_lambda=fix_lambda)


_MULTI_START_LAMBDAS = (-5.0, -2.0, 0.0, 3.0, 4.0)


def mle(
    sample: SampleMatrix,
    fix_lambda: float | None = None,
    start: SmvbsParams | None = None,
    multi_start: bool = False,
) -> FitResult:
    """Maximum likelihood fit of the SMVBS model.

    Optimizes over (log alpha, log beta, lambda) by BFGS, each
    evaluation one likelihood pass that yields the log likelihood and
    its analytic gradient together. At a link-scale gradient sup norm of
    1e-4 BFGS hands over to safeguarded Newton steps, which continue
    until the original-scale score has sup norm at most 1e-8 and the
    last step moved no parameter by more than 1e-10. Moment estimates
    seed alpha and beta; lambda starts at 0, or at each of
    {-5, -2, 0, 3, 4} under ``multi_start`` (the best fit is returned,
    all runs attached). ``fix_lambda`` pins lambda for restricted fits.
    """
    if multi_start and fix_lambda is not None:
        raise ValueError("multi_start and fix_lambda are mutually exclusive")
    if start is not None:
        theta0 = start.as_vector()
    else:
        m = mme(sample)
        theta0 = np.concatenate([m.alphas, m.betas, [0.0]])
    if not multi_start:
        return _fit_smvbs(theta0, sample, fix_lambda)
    runs = []
    for lam0 in _MULTI_START_LAMBDAS:
        t0 = theta0.copy()
        t0[-1] = lam0
        runs.append(_fit_smvbs(t0, sample, None))
    return replace(max(runs, key=lambda r: r.loglik), starts=tuple(runs))


@dataclass(frozen=True)
class ExpectedInfo:
    """Expected information matrix with per-element Monte Carlo errors."""

    matrix: np.ndarray
    mc_se: np.ndarray
    draws: int


def _expected_info_lambda_zero(params: SmvbsParams, n: int) -> np.ndarray:
    p = params.p
    alphas = np.asarray(params.alphas)
    betas = np.asarray(params.betas)
    S = np.zeros((2 * p + 1, 2 * p + 1))
    K = k_alpha(alphas)
    S[np.arange(p), np.arange(p)] = 2.0 / alphas**2
    S[np.arange(p, 2 * p), np.arange(p, 2 * p)] = (alphas * K + 1.0) / (
        alphas**2 * betas**2
    )
    S[2 * p, 2 * p] = 2.0 / math.pi
    return n * S


def expected_info(
    params: SmvbsParams,
    n: int,
    mc_draws: int = 200_000,
    rng=None,
) -> ExpectedInfo:
    """Expected (Fisher) information for n observations.

    At lambda = 0 the matrix is exact and diagonal:
    diag(2/alpha_j^2, (alpha_j K(alpha_j) + 1)/(alpha_j beta_j)^2, 2/pi)
    per observation. Otherwise the closed-form pieces are combined with
    Monte Carlo bracket moments computed from ``mc_draws`` latent
    vectors (bivariate case only). Odd brackets vanish identically
    under the sign-orbit average, which makes the alpha-beta and
    beta-lambda blocks exact zeros; mc_se reports the per-element
    standard error of what remains. When rng is None a fixed default
    seed keeps the evaluation deterministic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = params.p
    dim = 2 * p + 1
    if params.lam == 0.0:
        return ExpectedInfo(
            _expected_info_lambda_zero(params, n), np.zeros((dim, dim)), 0
        )
    if p != 2:
        raise NotImplementedError(
            "Monte Carlo expected information is implemented for p = 2"
        )
    if mc_draws < 1000:
        raise ValueError("mc_draws must be at least 1000")
    rng = as_generator(_DEFAULT_MC_SEED if rng is None else rng)
    alphas = np.asarray(params.alphas)
    betas = np.asarray(params.betas)
    lam = params.lam

    draws = int(mc_draws)
    z1 = rng.standard_normal(draws)
    w0 = np.abs(rng.standard_normal(draws))
    w1 = rng.standard_normal(draws)
    c = lam * z1
    delta = c / np.sqrt(1.0 + c * c)
    z2 = delta * w0 + np.sqrt(1.0 - delta * delta) * w1
    Z = np.stack([z1, z2], axis=1)
    D = np.sqrt((alphas * Z) ** 2 + 4.0)  # invariant under sign flips

    # Orbit-averaged bracket moments. Each per-draw value is the
    # average of the bracket over the four sign patterns of (z1, z2),
    # weighted by the conditional probability Phi(lambda a1 a2)/2 of
    # each pattern; the average is exact in the signs, so only the
    # even-in-sign brackets survive.
    per = {k: np.zeros(draws) for k in ("G", "C1", "C2", "Dd", "E2", "F")}
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        a1, a2 = s1 * z1, s2 * z2
        P = a1 * a2
        u = lam * P
        wgt = special.ndtr(u) / 2.0
        w = _wfun(u)
        per["G"] += wgt * (w * P) ** 2
        per["C1"] += wgt * (w * D[:, 0] * a2) ** 2
        per["C2"] += wgt * (w * D[:, 1] * a1) ** 2
        per["Dd"] += wgt * w * D[:, 0] * D[:, 1]
        per["E2"] += wgt * w * D[:, 0] * D[:, 1] * P * P
        per["F"] += wgt * w * w * D[:, 0] * D[:, 1] * P

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(draws))

    G, se_G = mean_se(per["G"])
    C = [None, None]
    se_C = [None, None]
    C[0], se_C[0] = mean_se(per["C1"])
    C[1], se_C[1] = mean_se(per["C2"])
    cross_draws = (lam**3 * per["E2"] + lam**2 * per["F"] - lam * per["Dd"]) / (
        4.0 * alphas[0] * betas[0] * alphas[1] * betas[1]
    )
    cross, se_cross = mean_se(cross_draws)

    S = np.zeros((dim, dim))
    E = np.zeros((dim, dim))
    for j in range(2):
        k = 1 - j
        S[j, j] = (2.0 + lam**2 * G) / alphas[j] ** 2
        E[j, j] = lam**2 * se_G / alphas[j] ** 2
        S[j, k] = lam**2 * G / (alphas[j] * alphas[k])
        E[j, k] = lam**2 * se_G / (alphas[j] * alphas[k])
        Kj = k_alpha(alphas[j])
        S[2 + j, 2 + j] = (alphas[j] * Kj + 1.0) / (alphas[j] ** 2 * betas[j] ** 2) + (
            lam**2 * C[j] / (4.0 * alphas[j] ** 2 * betas[j] ** 2)
        )
        E[2 + j, 2 + j] = lam**2 * se_C[j] / (4.0 * alphas[j] ** 2 * betas[j] ** 2)
        S[j, 4] = S[4, j] = -lam * G / alphas[j]
        E[j, 4] = E[4, j] = abs(lam) * se_G / alphas[j]
    S[2, 3] = S[3, 2] = cross
    E[2, 3] = E[3, 2] = se_cross
    S[4, 4] = G
    E[4, 4] = se_G
    return ExpectedInfo(n * S, n * E, draws)


def param_names(p: int) -> tuple:
    if p == 2:
        return ("alpha1", "alpha2", "beta1", "beta2", "lambda")
    names = [f"alpha{j + 1}" for j in range(p)]
    names += [f"beta{j + 1}" for j in range(p)]
    return tuple(names + ["lambda"])


@dataclass(frozen=True)
class ParamCi:
    """A Wald confidence interval for one parameter."""

    name: str
    estimate: float
    se: float
    lower: float
    upper: float

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0


def confidence_intervals(
    params: SmvbsParams,
    sample: SampleMatrix | None = None,
    n: int | None = None,
    level: float = 0.95,
    info: str = "expected",
    mc_draws: int = 200_000,
    rng=None,
) -> list:
    """Wald intervals from the observed or expected information.

    ``info`` selects the matrix: "observed" needs the sample,
    "expected" needs n (taken from the sample when present).
    """
    _wald_z(level)  # reject a bad level before building the matrix
    if info == "observed":
        if sample is None:
            raise ValueError("observed information needs the sample")
        matrix = observed_info(params, sample)
    elif info == "expected":
        if n is None:
            if sample is None:
                raise ValueError("expected information needs n or the sample")
            n = sample.n
        matrix = expected_info(params, n, mc_draws=mc_draws, rng=rng).matrix
    else:
        raise ValueError("info must be 'observed' or 'expected'")
    return wald_intervals(params.as_vector(), matrix, param_names(params.p), level)


def _wald_z(level: float) -> float:
    """The two-sided normal quantile of a Wald interval at ``level``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    return special.ndtri(0.5 * (1.0 + level))


def wald_intervals(estimates, info, names, level: float = 0.95) -> list:
    """Wald intervals estimate +- z se from an information matrix.

    Only the leading len(names) x len(names) block of ``info`` is
    inverted, so a fit that held trailing coordinates fixed passes the
    names of its free ones. A matrix whose inverse has a nonpositive
    diagonal raises ValueError.
    """
    z = _wald_z(level)
    k = len(names)
    variances = np.diag(linalg.inv(np.asarray(info)[:k, :k]))
    if np.any(variances <= 0.0):
        raise ValueError("information matrix is not positive definite")
    se = np.sqrt(variances)
    return [
        ParamCi(
            name=names[i],
            estimate=float(estimates[i]),
            se=float(se[i]),
            lower=float(estimates[i] - z * se[i]),
            upper=float(estimates[i] + z * se[i]),
        )
        for i in range(k)
    ]
