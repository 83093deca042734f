"""Moment and likelihood estimation for the skewed multivariate BS model.

Parameter vectors are ordered (alpha_1..alpha_p, beta_1..beta_p, lambda)
throughout. The log likelihood of every model here is the sum of its joint
log densities,

    l = -(3/2) sum_ji log t_ji - n p log 2 - n sum_j [log alpha_j + log(beta_j)/2]
        + sum_ji log(t_ji + beta_j) + sum_i h(a_i),

with h the model's log density of the a-scores; for the skewed model
h(a) = log 2 - p log sqrt(2 pi) - |a|^2/2 + log Phi(lambda prod_j a_j).
Score and Hessian are analytic. The expected information is exact (see
``expected_info``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy import special

from ._rng import deprecated_draws
from .multivariate import SmvbsParams, _smvbs_log_h
from .specfun import _LOG_SQRT_2PI, _product_rule_sums, k_alpha

__all__ = [
    "SampleMatrix",
    "MomentEstimates",
    "FitResult",
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
    """Inverse Mills ratio phi(u)/Phi(u) as exp(-u^2/2 - log sqrt(2 pi) - log Phi(u)).

    Its relative error grows in the left tail: against mpmath at 60 digits
    it is 9.0e-14 at u = -30, 5.4e-12 at -300, 9.2e-10 at -3,000 and
    1.5e-7 at -3e4 (ROADMAP item 12).
    """
    u = np.asarray(u, dtype=float)
    out = np.exp(-0.5 * u * u - _LOG_SQRT_2PI - special.log_ndtr(u))
    return float(out) if out.ndim == 0 else out


class SampleMatrix:
    """A positive data matrix with its column means and harmonic means.

    s_bar[j] is the arithmetic mean of column j and r_bar[j] the
    harmonic mean; s_bar >= r_bar componentwise by the AM-HM
    inequality, with equality only for constant columns.
    data_log_jacobian = -(3/2) sum log t - n p log 2 is the part of the
    summed log Jacobian that depends on the data alone; ``_chain_rule``
    adds it to every model's log likelihood.
    """

    def __init__(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be a 2-D array")
        if data.shape[0] < 2:
            raise ValueError("need at least two observations")
        if data.shape[1] < 2:
            raise ValueError("need at least two columns")
        bad = ~((data > 0.0) & (data < math.inf))
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError(f"nonpositive or non-finite value at row {r + 1}, column {c + 1}")
        self.data = data.copy()
        self.data.flags.writeable = False
        self.s_bar = data.mean(axis=0)
        self.r_bar = 1.0 / (1.0 / data).mean(axis=0)
        self.data_log_jacobian = -1.5 * float(np.log(data).sum()) - data.size * math.log(2.0)

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


@dataclass(frozen=True)
class LikelihoodWorkspace:
    """The a-scores of a sample, the one a-transform of every model's pass.

    With r_ji = sqrt(t_ji / beta_j): a = (r - 1/r) / alpha is the matrix
    of standardized scores, d = r + 1/r (equal to sqrt(alpha_j^2 a_ji^2
    + 4)) and ad = [a | d] the column-major (n, 2p) array they are views
    of, so per-column sums and products run over contiguous memory.
    ``params`` is any model's parameter object; only its alphas and
    betas are read.
    """

    a: np.ndarray
    d: np.ndarray
    ad: np.ndarray

    @classmethod
    def build(cls, params, data: np.ndarray) -> "LikelihoodWorkspace":
        p = len(params.alphas)
        r = np.sqrt(np.divide(data, params.betas, order="F"))
        inv_r = 1.0 / r
        ad = np.empty((r.shape[0], 2 * p), order="F")
        a, d = ad[:, :p], ad[:, p:]
        np.subtract(r, inv_r, out=a)
        a /= np.asarray(params.alphas)
        np.add(r, inv_r, out=d)
        return cls(a, d, ad)


def _ad_sums(x: np.ndarray, ad: np.ndarray) -> np.ndarray:
    """The 2p column sums of x [a | d] for a per-row (n, p) array x, in one einsum without tiling x."""
    n, p = x.shape
    return np.einsum("ij,ikj->kj", x, ad.reshape(n, 2, p)).ravel()


def _chain_rule(params, sample: SampleMatrix, ad, h_sum: float, e, h_psi: float, second):
    """Log likelihood, score and ``info`` of l = J - n sum_j [log alpha_j + log(beta_j)/2] + sum log(t + beta) + sum_i h(a_i; psi).

    Every model here has this form with its own h, the full log density
    of its a-scores, and J = ``sample.data_log_jacobian``, which only this
    function adds, so every log likelihood is the summed joint log
    density. Its pass gives ad =
    [a | d] (n, 2p) from ``LikelihoodWorkspace.build``, h_sum = sum_i
    h(a_i; psi), the sum of the row function its joint log density uses
    too, e = dh/da per row as a C-ordered (n, p) array, h_psi = sum
    dh/dpsi and ``second()``, which ``info()`` calls for E(j, k) =
    d2h/da_j da_k per row, epsi_ad = sum e_psi [a | d] with e_psi =
    d2h/da dpsi, and h_psipsi = sum d2h/dpsi2. The margins' terms come
    from one (n, p) array: t + beta, turned in place into 1/(t + beta)
    for the score, then into log 1/(t + beta) for l. The rest is
    da/dalpha = -a/alpha, da/dbeta = -d/(2 alpha beta), d2a/dalpha2 =
    2a/alpha^2, d2a/dalpha dbeta = d/(2 alpha^2 beta) and d2a/dbeta2 = (a
    + 2d/alpha)/(4 beta^2). The score and ``info()`` share e_ad = sum e [a
    | d] (``_ad_sums``). Near-separated fits certify or stall on its last
    bit: tiling e to (n, 2p) gives the same bits for p more n-vectors,
    but an F-ordered e turns a smvbs fit that stalls after 3 Newton steps
    (n = 15, lambda = 20) into one that runs all 100.
    """
    n, p = sample.data.shape
    alphas, betas = np.asarray(params.alphas), np.asarray(params.betas)
    ea, ed = _ad_sums(e, ad).reshape(2, p)
    inv_tb = np.add(sample.data, betas, order="F")
    np.reciprocal(inv_tb, out=inv_tb)
    g = np.empty(2 * p + 1)
    g[:p] = -(n + ea) / alphas
    g[p : 2 * p] = inv_tb.sum(axis=0) - (n + ed / alphas) / (2.0 * betas)
    g[2 * p] = h_psi
    ll = -n * (np.log(alphas) + 0.5 * np.log(betas)).sum() - np.log(inv_tb, out=inv_tb).sum()
    ll += h_sum + sample.data_log_jacobian  # h_sum + J first, the order that keeps the kbj and gbs-t fits' bits

    def info():
        E, epsi_ad, h_psipsi = second()
        M = np.empty((2 * p, 2 * p))  # sum E_jk x_j y_k for x, y in (a, d), margins j and k
        for j in range(p):
            for k in range(j, p):
                M[j::p, k::p] = np.einsum("i,ix,iy->xy", E(j, k), ad[:, j::p], ad[:, k::p])
                M[k::p, j::p] = M[j::p, k::p].T
        r = np.add(sample.data, betas, order="F")
        np.reciprocal(r, out=r)  # in place: one (n, p) temporary, not two
        own_ab = ed / (2.0 * alphas**2 * betas)  # e d2a/dtheta2 plus the margin terms' own part
        own_aa = (n + 2.0 * ea) / alphas**2
        own_bb = 0.5 * n / betas**2 - np.einsum("ij,ij->j", r, r)
        own_bb += (ea + 2.0 * ed / alphas) / (4.0 * betas**2)
        c = np.concatenate([-1.0 / alphas, -0.5 / (alphas * betas)])  # da/dalpha = c a, da/dbeta = c d
        H = np.empty((2 * p + 1, 2 * p + 1))
        H[: 2 * p, : 2 * p] = M * np.outer(c, c) + np.diag(np.concatenate([own_aa, own_bb]))
        H[: 2 * p, : 2 * p] += np.diag(own_ab, p) + np.diag(own_ab, -p)
        H[: 2 * p, 2 * p] = H[2 * p, : 2 * p] = epsi_ad * c
        H[2 * p, 2 * p] = h_psipsi
        return -0.5 * (H + H.T)  # einsum's x-y and y-x sums of one margin can differ in the last bit

    return float(ll), g, info


def _smvbs_pass(params: SmvbsParams, sample: SampleMatrix):
    """The log likelihood, its gradient and ``info``, from one workspace.

    h(a; lambda) = log 2 - p log sqrt(2 pi) - |a|^2/2 + log Phi(lambda P)
    (``_smvbs_log_h``, handed P from the running products) gives
    e_j = lambda w Px_j - a_j and h_lambda = sum w P, with P = prod a, Px_j
    the row product without column j and w the inverse Mills ratio, formed
    from h's log Phi; ``_chain_rule`` does the rest. With s = u w
    + w^2 and P_jk the row product without columns j and k, ``second()``
    gives E_jj = -1 - lambda^2 s Px_j^2, E_jk = lambda w P_jk - lambda^2
    s Px_j Px_k, e_lambda = Px (w - lambda P s) and h_lambdalambda =
    -sum s P^2. With c = w - lambda P s its lambda-row sums need no
    (n, p) e_lambda.
    """
    if sample.p != params.p:
        raise ValueError("sample and parameter dimensions differ")
    lam, p = params.lam, params.p
    ws = LikelihoodWorkspace.build(params, sample.data)
    a, d = ws.a, ws.d
    before = np.ones_like(a)
    for j in range(1, p):
        before[:, j] = before[:, j - 1] * a[:, j - 1]
    P = before[:, -1] * a[:, -1]
    h, log_phi = _smvbs_log_h(a, lam, P)
    h_sum = float(h.sum())
    del h  # this frame lives through ``_chain_rule``: each row array kept here adds an n-vector to its peak
    # built after h's temporaries are freed; built before them, it cost 1,270 page faults per fit-large op
    after = np.ones_like(a)
    for j in range(1, p):
        after[:, p - 1 - j] = after[:, p - j] * a[:, p - j]
    Px = before * after
    u = lam * P
    w = np.exp(-0.5 * u * u - _LOG_SQRT_2PI - log_phi)
    del log_phi
    e = np.empty(a.shape)  # C order, filled through its transpose: one strided pass per column
    np.subtract(np.multiply(Px.T, lam * w, out=e.T), a.T, out=e.T)

    def second():
        s = u * w + w * w  # -d/du of the inverse Mills ratio

        def E(j, k):
            out = -lam * lam * s * Px[:, j] * Px[:, k]
            if j == k:
                return out - 1.0
            Pjk = before[:, j] * after[:, k]  # the row product without columns j and k
            for m in range(j + 1, k):
                Pjk *= a[:, m]
            return out + lam * w * Pjk

        c = w - lam * P * s
        Pc = np.full(p, np.einsum("i,i->", P, c))  # sum e_lambda,j a_j, the same for every j
        epsi_ad = np.concatenate([Pc, np.einsum("i,ij,ij->j", c, Px, d)])
        return E, epsi_ad, -np.einsum("i,i,i->", s, P, P)

    return _chain_rule(params, sample, ws.ad, h_sum, e, float((w * P).sum()), second)


def loglik(params: SmvbsParams, sample: SampleMatrix) -> float:
    """Log likelihood, the summed joint log density (see module docstring)."""
    return _smvbs_pass(params, sample)[0]


def score(params: SmvbsParams, sample: SampleMatrix) -> np.ndarray:
    """Gradient of the log likelihood."""
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
    ``evaluate`` is the model's one pass: it takes the a-scores from
    ``LikelihoodWorkspace.build``, sums the model's row log density h of
    them and forms h's a-score derivatives, and ``_chain_rule`` adds the
    Jacobian terms and gives the log likelihood, the score and ``info``,
    a callable for the exact observed information that every Newton step of
    ``_fit_from`` uses. ``links`` names, per coordinate, the map to the
    unconstrained scale the steps are taken on: "log", "identity" or "atanh".
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
    the data range and lambda runs away. It keeps only the row products
    of the workspace's a-scores, computes the inverse Mills ratio at the
    start and once per line-search trial, and the accepted trial's serves
    the next Newton step; when no trial reduces |g|, lambda is at the
    rounding floor of g and the iteration stops.
    """
    prod_a = np.prod(LikelihoodWorkspace.build(SmvbsParams.from_vector(theta0), sample.data).a, axis=1)
    lam = float(theta0[-1])
    u = lam * prod_a
    w = _wfun(u)
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


def _orbit_bracket_means(alphas, lam: float) -> np.ndarray:
    """Means of the sign-orbit averaged brackets (G, C1, C2, Dd, E2, F).

    With x = |z1|, y = |z2|, P = xy, u = lambda P, H = phi(u)^2 / (Phi(u) Phi(-u)),
    g = exp(-u^2/2) and D_j = sqrt(alpha_j^2 z_j^2 + 4), averaging over the four sign
    patterns (weights Phi(+-u)/2) gives G = H P^2, C1 = H (D1 y)^2, C2 = H (D2 x)^2,
    Dd = sqrt(2/pi) g D1 D2, E2 = Dd P^2 and F = -H erf(u/sqrt 2) D1 D2 P: kernels
    of P between factors of x and of y.
    """

    def kernel(P):
        u = lam * P
        g = np.exp(-0.5 * u * u)
        e = special.erfcx(np.abs(u) * math.sqrt(0.5))
        H = g / (math.pi * (1.0 - 0.5 * g * e) * e)  # Phi(-|u|) = g e / 2: no log Phi
        return H, math.sqrt(2.0 / math.pi) * g, H * special.erf(u * math.sqrt(0.5))

    def forms(x):  # (kernel index, factor of x, factor of y) per bracket
        x2 = x * x
        D1, D2 = (np.sqrt((a * x) ** 2 + 4.0) for a in alphas)
        return ((0, x2, x2), (0, D1 * D1, x2), (0, x2, D2 * D2),
                (1, D1, D2), (1, D1 * x2, D2 * x2), (2, -D1 * x, D2 * x))

    return _product_rule_sums(kernel, forms)


def expected_info(
    params: SmvbsParams, n: int, mc_draws: int | None = None, rng=None
) -> ExpectedInfo:
    """Expected (Fisher) information for n observations, exact.

    At lambda = 0 the matrix is diagonal:
    diag(2/alpha_j^2, (alpha_j K(alpha_j) + 1)/(alpha_j beta_j)^2, 2/pi)
    per observation. Otherwise (bivariate case only) the closed-form
    pieces are combined with ``_orbit_bracket_means``, sums over the product rule of
    ``specfun._half_normal_rule`` ((|Z1|, |Z2|) has density 4 phi(x) phi(y)), one
    convolution per bracket.
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
    alphas, betas, lam = np.asarray(params.alphas), np.asarray(params.betas), params.lam
    G, C1, C2, Dd, E2, F = _orbit_bracket_means(alphas, lam)
    S = _expected_info_lambda_zero(params, 1)  # the lambda-free terms
    S[:2, :2] += lam**2 * G / np.outer(alphas, alphas)
    S[[2, 3], [2, 3]] += lam**2 * np.array([C1, C2]) / (4.0 * alphas**2 * betas**2)
    S[:2, 4] = S[4, :2] = -lam * G / alphas
    ab = alphas[0] * betas[0] * alphas[1] * betas[1]
    S[2, 3] = S[3, 2] = (lam**3 * E2 + lam**2 * F - lam * Dd) / (4.0 * ab)
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
