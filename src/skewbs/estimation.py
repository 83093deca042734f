"""Moment and likelihood estimation for the skewed multivariate BS model.

Parameter vectors are ordered (alpha_1..alpha_p, beta_1..beta_p, lambda)
throughout. The log likelihood is the constant-free form

    l = -n sum_j [log alpha_j + log(beta_j)/2] + sum_ji log(t_ji + beta_j)
        - sum_ji a_ji^2 / 2 + sum_i log Phi(lambda prod_j a_ji),

which drops the data-only term -(3/2) sum log t and the additive
constants; it differs from the sum of joint log densities by a quantity
that depends on the data alone. Score and Hessian are analytic. The
expected information combines closed-form pieces with the bracket
moments that lack closed forms; each bracket is averaged over the sign
orbit of the latent normal pair, which zeroes the odd brackets exactly
and leaves a function of |z1| and |z2| whose mean a fixed product
quadrature rule evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import special

from ._rng import deprecated_draws
from .multivariate import SmvbsParams
from .specfun import _product_rule_sums, k_alpha

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
_SCORE_TOL = 1e-8
_STEP_TOL = 1e-10


def __getattr__(name):
    """scipy.optimize as ``estimation.optimize``, imported on first read.

    perfbench/tracer.py is the only reader: it wraps ``minimize``, which
    skewbs never calls. The hook goes with that binding (ROADMAP items 1-2).
    """
    if name != "optimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import optimize
    return optimize


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
    + 4)), ad = [a | d] the (n, 2p) array they are views of, prod_a the
    row products, before[:, j] and after[:, j] the row products of the
    columns before and after j, and P_excl their product, the row
    product without column j. u = lambda * prod_a, log_phi = log Phi(u)
    and w is the inverse Mills ratio phi(u)/Phi(u), formed from log_phi.
    The 2-D arrays are column-major, so per-column sums and products
    run over contiguous memory.
    """

    a: np.ndarray
    d: np.ndarray
    ad: np.ndarray
    prod_a: np.ndarray
    P_excl: np.ndarray
    before: np.ndarray
    after: np.ndarray
    u: np.ndarray
    log_phi: np.ndarray
    w: np.ndarray

    @classmethod
    def build(cls, params: SmvbsParams, data: np.ndarray) -> "LikelihoodWorkspace":
        r = np.sqrt(np.divide(data, params.betas, order="F"))
        inv_r = 1.0 / r
        ad = np.empty((r.shape[0], 2 * params.p), order="F")
        a, d = ad[:, : params.p], ad[:, params.p :]
        np.subtract(r, inv_r, out=a)
        a /= np.asarray(params.alphas)
        np.add(r, inv_r, out=d)
        before, after = _exclusive_products(a)
        prod_a = before[:, -1] * a[:, -1]
        u = params.lam * prod_a
        log_phi = special.log_ndtr(u)
        w = np.exp(-0.5 * u * u - _LOG_SQRT_2PI - log_phi)
        return cls(a, d, ad, prod_a, before * after, before, after, u, log_phi, w)


def _check_shapes(params: SmvbsParams, sample: SampleMatrix):
    if sample.p != params.p:
        raise ValueError("sample and parameter dimensions differ")


def _chain_score(params, X_plus_beta, e_ad, h_psi: float) -> np.ndarray:
    """Score of l = -n sum_j [log alpha_j + log(beta_j)/2] + sum log(t + beta) + sum_i h(a_i; psi).

    Every model here has this form with its own h. Through
    da/dalpha = -a/alpha and da/dbeta = -d/(2 alpha beta) it needs only
    column sums: e_ad = sum e [a | d] with e = dh/da (2p entries), and
    h_psi = sum dh/dpsi.
    """
    n, p = X_plus_beta.shape
    alphas, betas = np.asarray(params.alphas), np.asarray(params.betas)
    g = np.empty(2 * p + 1)
    g[:p] = -(n + e_ad[:p]) / alphas
    g[p : 2 * p] = (1.0 / X_plus_beta).sum(axis=0) - (n + e_ad[p:] / alphas) / (2.0 * betas)
    g[2 * p] = h_psi
    return g


def _chain_info(params, X, ad, E, e_ad, epsi_ad, h_psipsi: float) -> np.ndarray:
    """Minus the Hessian of the log likelihood of ``_chain_score``.

    ad = [a | d] is (n, 2p). The model gives E(j, k) = d2h/da_j da_k per
    observation, e_ad as in ``_chain_score``, epsi_ad = sum e_psi [a | d]
    with e_psi = d2h/da dpsi, and h_psipsi = sum d2h/dpsi2. The rest is
    d2a/dalpha2 = 2a/alpha^2, d2a/dalpha dbeta = d/(2 alpha^2 beta) and
    d2a/dbeta2 = (a + 2d/alpha)/(4 beta^2).
    """
    n, p = X.shape
    alphas, betas = np.asarray(params.alphas), np.asarray(params.betas)
    M = np.empty((2 * p, 2 * p))  # sum E_jk x_j y_k for x, y in (a, d), margins j and k
    for j in range(p):
        for k in range(j, p):
            M[j::p, k::p] = np.einsum("i,ix,iy->xy", E(j, k), ad[:, j::p], ad[:, k::p])
            M[k::p, j::p] = M[j::p, k::p].T
    ea, ed = e_ad[:p], e_ad[p:]
    inv_tb = np.add(X, betas, order="F")
    np.reciprocal(inv_tb, out=inv_tb)  # in place: one (n, p) temporary at n = 1e6, not two
    own_ab = ed / (2.0 * alphas**2 * betas)  # e d2a/dtheta2 plus the margin terms' own part
    own_aa = (n + 2.0 * ea) / alphas**2
    own_bb = 0.5 * n / betas**2 - np.einsum("ij,ij->j", inv_tb, inv_tb)
    own_bb += (ea + 2.0 * ed / alphas) / (4.0 * betas**2)
    c = np.concatenate([-1.0 / alphas, -0.5 / (alphas * betas)])  # da/dalpha = c a, da/dbeta = c d
    H = np.empty((2 * p + 1, 2 * p + 1))
    H[: 2 * p, : 2 * p] = M * np.outer(c, c) + np.diag(np.concatenate([own_aa, own_bb]))
    H[: 2 * p, : 2 * p] += np.diag(own_ab, p) + np.diag(own_ab, -p)
    H[: 2 * p, 2 * p] = H[2 * p, : 2 * p] = epsi_ad * c
    H[2 * p, 2 * p] = h_psipsi
    return -0.5 * (H + H.T)  # einsum's x-y and y-x sums of one margin can differ in the last bit


def _smvbs_pass(params: SmvbsParams, sample: SampleMatrix):
    """The constant-free log likelihood, its gradient and ``info``, from one workspace.

    h(a; lambda) = -|a|^2/2 + log Phi(lambda prod a) gives
    ea = lambda sum w P - sum a^2 and ed = lambda sum w d P_excl - sum a d.
    ``info()`` finishes the observed information, minus the analytic
    Hessian, from the same workspace. With P = prod a,
    Px = P_excl, s = u w + w^2 and P_jk the row product without columns
    j and k: E_jj = -1 - lambda^2 s Px_j^2, E_jk = lambda w P_jk -
    lambda^2 s Px_j Px_k, e_lambda = Px (w - lambda P s) and
    h_lambdalambda = -sum s P^2.
    """
    _check_shapes(params, sample)
    X, lam = sample.data, params.lam
    alphas, betas = np.asarray(params.alphas), np.asarray(params.betas)
    ws = LikelihoodWorkspace.build(params, X)
    a, d, P, Px, w = ws.a, ws.d, ws.prod_a, ws.P_excl, ws.w
    X_plus_beta = np.add(X, betas, order="F")
    a_sq = (a * a).sum(axis=0)
    wP = (w * P).sum()
    ll = float(
        -sample.n * (np.log(alphas) + 0.5 * np.log(betas)).sum()
        + np.log(X_plus_beta).sum()
        - 0.5 * a_sq.sum()
        + ws.log_phi.sum()
    )
    ed = lam * (w[:, None] * d * Px).sum(axis=0) - (a * d).sum(axis=0)
    g = _chain_score(params, X_plus_beta, np.concatenate([lam * wP - a_sq, ed]), wP)

    def info():
        s = ws.u * w + w * w  # -d/du of the inverse Mills ratio

        def E(j, k):
            out = -lam * lam * s * Px[:, j] * Px[:, k]
            if j == k:
                return out - 1.0
            Pjk = ws.before[:, j] * ws.after[:, k]  # the row product without columns j and k
            for m in range(j + 1, k):
                Pjk *= a[:, m]
            return out + lam * w * Pjk

        # einsum forms these sums without (n, p) temporaries; ea and ed are summed again in
        # its order, since near-separated fits certify or not on their last bit
        c = w - lam * P * s
        ea = lam * np.einsum("i,i->", w, P) - np.einsum("ij,ij->j", a, a)
        ed = lam * np.einsum("i,ij,ij->j", w, d, Px) - np.einsum("ij,ij->j", a, d)
        Pc = np.full(a.shape[1], np.einsum("i,i->", P, c))  # sum e_lambda,j a_j, the same for every j
        epsi_ad = np.concatenate([Pc, np.einsum("i,ij,ij->j", c, Px, d)])
        h_ll = -np.einsum("i,i,i->", s, P, P)
        return _chain_info(params, X, ws.ad, E, np.concatenate([ea, ed]), epsi_ad, h_ll)

    return ll, g, info


def loglik(params: SmvbsParams, sample: SampleMatrix) -> float:
    """Constant-free log likelihood (see module docstring)."""
    return _smvbs_pass(params, sample)[0]


def score(params: SmvbsParams, sample: SampleMatrix) -> np.ndarray:
    """Gradient of the constant-free log likelihood."""
    return _smvbs_pass(params, sample)[1]


def observed_info(params: SmvbsParams, sample: SampleMatrix) -> np.ndarray:
    """Observed information: minus the analytic Hessian of ``loglik`` (see ``_smvbs_pass``)."""
    return _smvbs_pass(params, sample)[2]()


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

    ``iterations`` counts the fitter's Newton steps and
    ``likelihood_passes`` the model's passes in the fit, one per point
    evaluated.
    """

    params: object
    loglik: float
    converged: bool
    iterations: int
    score_norm: float
    step_norm: float
    fixed_lambda: float | None = None
    likelihood_passes: int = 0


@dataclass(frozen=True)
class Model:
    """What the shared fitter needs to know about a parametric family.

    ``params`` builds the family's parameter object from a vector.
    ``evaluate`` is the model's one pass: it takes that object and the
    sample and returns the log likelihood, its gradient and ``info``, a
    zero-argument callable that finishes the exact observed information
    from the pass's own arrays; every Newton step of ``_fit_from`` uses
    it. ``links`` names, per coordinate, the map to the unconstrained
    scale the steps are taken on: "log", "identity" or "atanh".
    """

    params: Callable
    evaluate: Callable
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

def _lambda_warm_start(theta0: np.ndarray, sample: SampleMatrix) -> float:
    """Maximize the likelihood over lambda alone at fixed alpha, beta.

    The conditional log likelihood is strictly concave in lambda
    (its second derivative is -sum P_i^2 s_i with s_i > 0), so a
    safeguarded Newton iteration finds the unique stationary point
    whenever one exists. Without this step, extreme lambda starts can
    drag the joint optimizer into a spurious basin where beta leaves
    the data range and lambda runs away. The workspace at theta0 gives
    the start's inverse Mills ratio, each line-search trial computes it
    once, and the accepted trial's serves the next Newton step; when no
    trial reduces |g|, lambda is at the rounding floor of g and the
    iteration stops.
    """
    ws = LikelihoodWorkspace.build(SmvbsParams.from_vector(theta0), sample.data)
    prod_a, u, w = ws.prod_a, ws.u, ws.w
    lam = float(theta0[-1])
    g = float(np.sum(w * prod_a))
    for _ in range(80):
        if abs(g) <= 1e-10 or abs(lam) > 60.0:
            break
        s = u * w + w * w
        h = -float(np.sum(prod_a * prod_a * s))
        step = np.clip(-g / h, -5.0, 5.0)
        t = 1.0
        for _ in range(30):
            u = (lam + t * step) * prod_a  # the accepted trial's u and w serve the next step
            w = _wfun(u)
            g_new = float(np.sum(w * prod_a))
            if abs(g_new) < abs(g):
                break
            t *= 0.5
        else:
            break  # no trial reduced |g|: lambda sits at the gradient's rounding floor
        lam += t * step
        g = g_new
    return lam


def _fit_from(model: Model, theta0, sample, nfree: int) -> FitResult:
    """Fit a model by safeguarded Newton steps on the link scale.

    The first ``nfree`` coordinates are free; the rest stay at their
    values in theta0. The iteration starts at the link round trip of
    theta0. Each step solves with the absolute-eigenvalue modification
    of the link-scale Hessian H (Nocedal & Wright 2006, sec. 3.4): with
    -H = V diag(ev) V', each ev <= 0 is replaced by max(|ev|, 1e-12
    max(1, max |ev|)). Where -H is positive definite that is exactly the
    Newton step, however ill-conditioned -H is; elsewhere it is still an
    ascent direction. A backtracking line search accepts the first trial
    that does not lower the log likelihood and whose score is finite;
    trials run with floating-point warnings off, and a step none of whose
    40 trials is accepted ends the fit, uncertified, at its base. The fit
    is certified once the original-scale score has sup norm at most 1e-8
    and the last step moved no parameter by more than 1e-10. The latest
    pass is kept and answers the next evaluation at the same point, so
    each step starts from the pass, and takes the information, of the
    trial the step before accepted. ``likelihood_passes`` counts one per
    point.
    """
    theta0 = np.asarray(theta0, dtype=float)
    names = np.array(model.links[:nfree])
    groups = [(np.flatnonzero(names == k), f) for k, f in _LINKS.items() if k in names]
    diag = np.arange(nfree)
    latest = {}  # the last point evaluated: its theta's bytes -> (params, ll, g, info)
    passes = 0

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

    def evaluate(theta):
        """The params, log likelihood, score and info at theta; the last point is reused."""
        nonlocal latest, passes
        key = theta.tobytes()
        if key not in latest:
            latest = {}  # frees the last point's workspace before this one is built
            params = model.params(theta)
            latest = {key: (params, *model.evaluate(params, sample))}
            passes += 1
        return latest[key]

    def trial_loglik(eta_t):
        """A trial's log likelihood; -inf off the parameter space or with a non-finite score."""
        try:
            with np.errstate(all="ignore"):  # a rejected trial may overflow
                _, ll, g_t, _ = evaluate(unpack(eta_t))
        except ValueError:
            return -np.inf
        return ll if np.isfinite(g_t[:nfree]).all() else -np.inf

    def link_hessian(theta, g, info):
        """Gradient and Hessian of the log likelihood on the link scale."""
        scale = link(2, theta)
        H = -info()[:nfree, :nfree] * np.outer(scale, scale)
        H[diag, diag] += g[:nfree] * link(3, theta)  # chain rule
        return g[:nfree] * scale, H

    eta = link(0, theta0)
    steps = 0
    step_inf = np.inf
    for _ in range(100):
        theta = unpack(eta)
        params, base, g, info = evaluate(theta)
        score_inf = np.abs(g[:nfree]).max()
        if score_inf <= _SCORE_TOL and step_inf <= _STEP_TOL:
            break
        g_eta, H_eta = link_hessian(theta, g, info)
        info = None  # so the base's workspace is freed before the trials build theirs
        ev, V = np.linalg.eigh(-H_eta)
        # only non-positive curvature is modified: flooring small positive
        # eigenvalues too stalls near-separated fits, whose -H is ill-conditioned
        floor = 1e-12 * max(1.0, np.abs(ev).max())
        ev = np.where(ev > 0.0, ev, np.maximum(-ev, floor))
        step = V @ ((V.T @ g_eta) / ev)
        if not np.isfinite(step).all():
            step = g_eta / (1.0 + np.abs(g_eta).max())
        t = 1.0
        for _ in range(40):
            if trial_loglik(eta + t * step) >= base - 1e-13 * max(1.0, abs(base)):
                break
            t *= 0.5
        else:
            break  # stalled: no trial was accepted, so the fit ends at its base
        new_theta = unpack(eta + t * step)
        step_inf = np.abs(new_theta - theta).max()
        eta = eta + t * step
        steps += 1
        if step_inf == 0.0 and score_inf > _SCORE_TOL:
            break  # stalled; theta, and so base and g, did not change
    else:  # out of steps: the last one is known only if its trial was accepted
        params, base, g, _ = evaluate(unpack(eta))

    score_inf = float(np.abs(g[:nfree]).max())
    return FitResult(
        params=params,
        loglik=base,
        converged=bool(score_inf <= _SCORE_TOL and step_inf <= _STEP_TOL),
        iterations=steps,
        score_norm=score_inf,
        step_norm=float(step_inf),
        likelihood_passes=passes,
    )


def mle(
    sample: SampleMatrix,
    fix_lambda: float | None = None,
    start: SmvbsParams | None = None,
) -> FitResult:
    """Maximum likelihood fit of the SMVBS model.

    Moment estimates seed alpha and beta and lambda starts at 0, unless
    ``start`` gives all three; the lambda warm start then maximizes over
    lambda alone. ``_fit_from`` takes safeguarded Newton steps on
    (log alpha, log beta, lambda) with the analytic observed
    information, each evaluation one likelihood pass (``_smvbs_pass``)
    that yields the log likelihood, its gradient and the information
    from one workspace, until the original-scale score has sup norm at
    most 1e-8 and the last step moved no parameter by more than 1e-10.
    Each step reuses the pass of the line-search trial the step before
    accepted, as the warm start reuses its start's and its accepted
    trial's inverse Mills ratio (``FitResult.likelihood_passes`` counts
    the passes, one per point; the warm start builds one more
    workspace). ``fix_lambda`` pins lambda for restricted fits.
    """
    if start is not None:
        theta0 = start.as_vector()
    else:
        m = mme(sample)
        theta0 = np.concatenate([m.alphas, m.betas, [0.0]])
    links = ("log",) * (theta0.size - 1) + ("identity",)
    model = Model(SmvbsParams.from_vector, _smvbs_pass, links)
    if fix_lambda is None:
        theta0[-1] = _lambda_warm_start(theta0, sample)
        return _fit_from(model, theta0, sample, theta0.size)
    theta0[-1] = fix_lambda
    fit = _fit_from(model, theta0, sample, theta0.size - 1)
    return replace(fit, fixed_lambda=fix_lambda)


@dataclass(frozen=True)
class ExpectedInfo:
    """Exact expected information; ``mc_se`` (zeros) and ``draws`` (0) are kept for old callers."""

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


def _orbit_brackets(z1, z2, alphas, lam: float) -> tuple:
    """Bracket moments (G, C1, C2, Dd, E2, F) at (z1, z2), sign-orbit averaged.

    Given x = |z1| and y = |z2|, the four sign patterns of the latent
    pair have conditional weights Phi(u)/2 (P = xy) and Phi(-u)/2
    (P = -xy), u = lambda x y. With H = phi(u)^2 / (Phi(u) Phi(-u)) and
    D_j = sqrt(alpha_j^2 z_j^2 + 4) the averages are closed forms:
    G = H P^2, C1 = H (D1 y)^2, C2 = H (D2 x)^2, Dd = 2 phi(u) D1 D2,
    E2 = Dd P^2 and F = -H erf(u / sqrt 2) D1 D2 P. z1 and z2 broadcast.
    With g = exp(-u^2/2) and e = erfcx(|u|/sqrt 2), Phi(-|u|) = g e / 2,
    so H = g / (pi (1 - g e / 2) e) needs no log Phi.
    """
    P = np.abs(z1 * z2)
    u = lam * P
    g = np.exp(-0.5 * u * u)
    e = special.erfcx(np.abs(u) * math.sqrt(0.5))
    H = g / (math.pi * (1.0 - 0.5 * g * e) * e)
    D1 = np.sqrt((alphas[0] * z1) ** 2 + 4.0)
    D2 = np.sqrt((alphas[1] * z2) ** 2 + 4.0)
    D12 = D1 * D2
    Dd = math.sqrt(2.0 / math.pi) * g * D12
    F = -H * special.erf(u / math.sqrt(2.0)) * D12 * P
    P *= P
    return H * P, H * (D1 * z2) ** 2, H * (D2 * z1) ** 2, Dd, Dd * P, F


def expected_info(
    params: SmvbsParams, n: int, mc_draws: int | None = None, rng=None
) -> ExpectedInfo:
    """Expected (Fisher) information for n observations, exact.

    At lambda = 0 the matrix is diagonal:
    diag(2/alpha_j^2, (alpha_j K(alpha_j) + 1)/(alpha_j beta_j)^2, 2/pi)
    per observation. Otherwise (bivariate case only) the closed-form
    pieces are combined with the ``_orbit_brackets`` means over the product rule of
    ``specfun._half_normal_rule`` ((|Z1|, |Z2|) has density 4 phi(x) phi(y)).
    Odd brackets vanish identically under the sign-orbit average, which
    makes the alpha-beta and beta-lambda blocks exact zeros. ``mc_draws``
    and ``rng`` are deprecated and ignored (mc_draws < 1000 still raises).
    """
    deprecated_draws(mc_draws, rng, 1000)
    if n < 1:
        raise ValueError("n must be positive")
    p = params.p
    zeros = np.zeros((2 * p + 1, 2 * p + 1))
    if params.lam == 0.0:
        return ExpectedInfo(_expected_info_lambda_zero(params, n), zeros, 0)
    if p != 2:
        raise NotImplementedError("the expected information is implemented for p = 2")
    alphas = np.asarray(params.alphas)
    betas = np.asarray(params.betas)
    lam = params.lam
    G, C1, C2, Dd, E2, F = _product_rule_sums(lambda z1, z2: _orbit_brackets(z1, z2, alphas, lam))
    S = _expected_info_lambda_zero(params, 1)  # the lambda-free terms
    S[:2, :2] += lam**2 * G / np.outer(alphas, alphas)
    S[[2, 3], [2, 3]] += lam**2 * np.array([C1, C2]) / (4.0 * alphas**2 * betas**2)
    S[:2, 4] = S[4, :2] = -lam * G / alphas
    S[2, 3] = S[3, 2] = (lam**3 * E2 + lam**2 * F - lam * Dd) / (
        4.0 * alphas[0] * betas[0] * alphas[1] * betas[1]
    )
    S[4, 4] = G
    return ExpectedInfo(n * S, zeros, 0)


def param_names(p: int) -> tuple:
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
    mc_draws: int | None = None,
    rng=None,
) -> list:
    """Wald intervals from the observed or expected information.

    ``info`` selects the matrix: "observed" needs the sample,
    "expected" needs n (taken from the sample when present).
    ``mc_draws`` and ``rng`` are deprecated, as in ``expected_info``.
    """
    deprecated_draws(mc_draws, rng, 1000)
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
        matrix = expected_info(params, n).matrix
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
    # not scipy.linalg.inv, which wakes the BLAS threads even at 5 x 5 and leaves one spinning
    variances = np.diag(np.linalg.inv(np.asarray(info)[:k, :k]))
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
