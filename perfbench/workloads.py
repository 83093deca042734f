"""The four benchmark workloads: seeded inputs, one operation, output checks.

Each workload is built from the benchmark seed and exposes ``op(i)``, the
i-th operation of a closed loop with one client, and ``check(outputs)``,
which raises ``CheckFailed`` when an output is wrong. Only ``op`` is
timed. Operations are addressed by index so that a traced pass can repeat
exactly the operations of an untraced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special

import skewbs as sk

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Published bundled-data MLE and the tolerances of tests/test_acceptance.py.
MLE_TARGET = np.array([0.2047, 0.4101, 113.2907, 90.7447, 0.8806])
MLE_TOL = np.array([5e-4, 5e-4, 5e-3, 5e-3, 1e-3])
MLE_KEYS = ("alpha1", "alpha2", "beta1", "beta2", "lambda")
LR_TARGET, LR_TOL = 6.6834, 1e-4
SCORE_TOL = 1e-8
# A reported Monte Carlo standard error may exceed the reference's at the
# same draw count by this factor at most; an exact value (SE 0) passes.
MC_SE_CEILING = 1.5
# Monte Carlo outputs must lie within this many standard errors of the
# reference. A set of 22 runs of inference-mc makes about 7,000 such
# comparisons; at 4 SE about one in three sets of runs would fail a
# faithful computation, at 6 SE about one in 70,000.
MC_SIGMAS = 6.0
TRUTH = ((0.5, 0.5), (1.0, 1.0), 1.5)
TRUTH_P3 = ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), 1.5)

SIZES = {
    "full": {
        "cli-volle": {"simulate_n": 1000},
        "fit-large": {"n_p2": 5000, "n_p3": 1250, "pool": 256},
        "sim-small": {"n": 100},
        "inference-mc": {
            "ci_draws": 200_000,
            "pm_draws": 1_000_000,
            "grid": 2000,
            "lambdas": 41,
        },
    },
}
SIZES["tiny"] = {
    **SIZES["full"],
    "fit-large": {"n_p2": 400, "n_p3": 200, "pool": 4},
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _check_fits(fits):
    for fit in fits:
        if not fit.converged:
            raise CheckFailed(f"fit not converged (score sup-norm {fit.score_norm:.3g})")
        if not fit.score_norm <= SCORE_TOL:
            raise CheckFailed(f"score sup-norm {fit.score_norm:.3g} > {SCORE_TOL:g}")


def _check_lr(statistic):
    if not statistic >= 0.0:
        raise CheckFailed(f"LR statistic {statistic!r} is negative")


def _check_se_ceiling(label, rel_se, reference_rel_se):
    if rel_se > MC_SE_CEILING * reference_rel_se:
        raise CheckFailed(
            f"{label}: relative MC standard error {rel_se:.3g} exceeds "
            f"{MC_SE_CEILING:g} x reference {reference_rel_se:.3g}"
        )


class CliVolle:
    """Nine CLI commands on the bundled data, one fresh process each.

    With ``in_process`` the commands run through ``skewbs.cli.main`` in
    this process instead, which is how the traced run sees inside them.
    """

    name = "cli-volle"

    def __init__(self, seed, sizes, root, in_process=False):
        import jsonschema

        self.seed = seed
        self.root = Path(root)
        self.in_process = in_process
        self.reference = load_reference()["cli"]
        schema = json.loads((self.root / "schema" / "report.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.simulate_n = sizes["simulate_n"]
        self.commands = (
            ("fit",),
            ("fit", "--model", "kbj"),
            ("fit", "--model", "gbs-t"),
            ("test-lambda",),
            ("compare",),
            ("gof",),
            ("info", "--info", "both"),
            ("corr",),
            ("simulate", "--n", str(self.simulate_n), "--params", "0.5,0.5,1,1,1.5"),
        )

    def _run(self, argv):
        if self.in_process:
            import skewbs.cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = skewbs.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "skewbs.cli", *argv],
            capture_output=True,
            text=True,
            cwd=self.root,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def op(self, i):
        return [
            (cmd, *self._run([*cmd, "--seed", str(self.seed)])) for cmd in self.commands
        ]

    def check(self, results):
        for cmd, code, out in results:
            label = " ".join(cmd)
            if code != 0:
                raise CheckFailed(f"{label}: exit code {code}")
            if cmd[0] == "simulate":
                self._check_csv(label, out)
                continue
            report = json.loads(out)
            error = next(iter(self.validator.iter_errors(report)), None)
            if error is not None:
                raise CheckFailed(f"{label}: schema: {error.message}")
            est = report["estimates"]
            mle = {
                ("fit",): "mle",
                ("test-lambda",): "full",
                ("compare",): "smvbs",
                ("gof",): "mle",
                ("info", "--info", "both"): "mle",
                ("corr",): "mle",
            }.get(cmd)
            if mle is not None:
                got = np.array([est[mle][k] for k in MLE_KEYS])
                if not np.all(np.abs(got - MLE_TARGET) <= MLE_TOL):
                    raise CheckFailed(f"{label}: MLE {got} off the published values")
            if cmd == ("test-lambda",):
                stat = report["tests"][0]["statistic"]
                if not abs(stat - LR_TARGET) <= LR_TOL:
                    raise CheckFailed(f"{label}: LR statistic {stat} != {LR_TARGET}")
        rel = self.rel_se_by_command(results)
        _check_se_ceiling("info", rel["info"], self.reference["info_rel_se_max"])
        _check_se_ceiling("corr", rel["corr"], self.reference["corr_rel_se"])

    def _check_csv(self, label, text):
        lines = text.strip().splitlines()
        if lines[0] != "t1,t2" or len(lines) != self.simulate_n + 1:
            raise CheckFailed(f"{label}: expected a t1,t2 header and {self.simulate_n} rows")
        values = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        if values.shape != (self.simulate_n, 2) or not np.all(np.isfinite(values) & (values > 0)):
            raise CheckFailed(f"{label}: draws must be positive and finite")

    @staticmethod
    def rel_se_by_command(results):
        reports = {cmd[0]: json.loads(out) for cmd, _code, out in results if cmd[0] in ("info", "corr")}
        est = reports["info"]["estimates"]
        matrix = np.abs(np.array(est["expected_info"]))
        mc_se = np.array(est["expected_info_mc_se"])
        info_rel = float(np.max(np.divide(mc_se, matrix, out=np.zeros_like(mc_se), where=mc_se > 0)))
        pm = reports["corr"]["estimates"]["product_moment"]
        return {"info": info_rel, "corr": pm["mc_se"] / abs(pm["value"])}

    def mc_rel_se(self, results):
        return max(self.rel_se_by_command(results).values())


class FitLarge:
    """Three certified fits per operation on a pool of seeded samples.

    Operation i fits the full and the lambda = 0 model to the p = 2 sample
    of pool entry i, and the full model to its p = 3 sample. The pool is
    drawn during set-up.
    """

    name = "fit-large"

    def __init__(self, seed, sizes, root):
        rng = np.random.default_rng(seed)
        p2, p3 = sk.SmvbsParams(*TRUTH), sk.SmvbsParams(*TRUTH_P3)
        self.pool = [
            (
                sk.SampleMatrix(sk.smvbs_sample(sizes["n_p2"], p2, rng)),
                sk.SampleMatrix(sk.smvbs_sample(sizes["n_p3"], p3, rng)),
            )
            for _ in range(sizes["pool"])
        ]

    def op(self, i):
        s2, s3 = self.pool[i % len(self.pool)]
        return sk.mle(s2), sk.mle(s2, fix_lambda=0.0), sk.mle(s3)

    def check(self, fits):
        _check_fits(fits)
        _check_lr(sk.lr_test(fits[0], fits[1]).statistic)

    def mc_rel_se(self, fits):
        return 0.0


class SimSmall:
    """One simulation replicate per operation: draw, fit twice, test."""

    name = "sim-small"

    def __init__(self, seed, sizes, root):
        self.seed = seed
        self.n = sizes["n"]
        self.truth = sk.SmvbsParams(*TRUTH)

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        sample = sk.SampleMatrix(sk.smvbs_sample(self.n, self.truth, rng))
        full = sk.mle(sample)
        restricted = sk.mle(sample, fix_lambda=0.0)
        return full, restricted, sk.lr_test(full, restricted)

    def check(self, outputs):
        full, restricted, report = outputs
        _check_fits((full, restricted))
        _check_lr(report.statistic)

    def mc_rel_se(self, outputs):
        return 0.0


class InferenceMc:
    """Monte Carlo and quadrature inference at the bundled-data MLE."""

    name = "inference-mc"

    def __init__(self, seed, sizes, root):
        self.seed = seed
        self.sizes = sizes
        self.reference = load_reference()
        self.sample = sk.volle_sample()
        self.params = sk.mle(self.sample).params
        rng = np.random.default_rng(seed)
        a1, a2 = self.params.alphas
        b1, b2 = self.params.betas
        self.t1 = sk.bs_quantile(np.sort(rng.uniform(5e-4, 1 - 5e-4, sizes["grid"])), a1, b1)
        self.t2 = float(sk.bs_quantile(rng.uniform(0.05, 0.95), a2, b2))
        self.lambdas = np.linspace(-20.0, 20.0, sizes["lambdas"])

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        p = self.params
        return {
            "ci_expected": sk.confidence_intervals(
                p, sample=self.sample, info="expected", mc_draws=self.sizes["ci_draws"], rng=rng
            ),
            "ci_observed": sk.confidence_intervals(p, sample=self.sample, info="observed"),
            "product_moment": sk.product_moment(p, mc_draws=self.sizes["pm_draws"], rng=rng),
            "conditional_cdf": sk.conditional_cdf(self.t1, self.t2, p),
            "latent_correlation": [sk.latent_correlation(lam) for lam in self.lambdas],
        }

    def check(self, out):
        ref = self.reference
        theta = self.params.as_vector()
        if not np.allclose(theta, ref["mle"], rtol=1e-7, atol=0.0):
            raise CheckFailed(f"bundled MLE {theta} differs from the reference's")

        observed = np.array([ci.se for ci in out["ci_observed"]])
        if not np.allclose(observed, ref["observed_ci_se"], rtol=1e-6, atol=0.0):
            raise CheckFailed(f"observed-information SEs {observed} off the reference")

        exp_ref = ref["expected_ci_se"]
        expected = np.array([ci.se for ci in out["ci_expected"]])
        sd = np.array(exp_ref["sd"])
        # Some SEs do not depend on the draws at all; a relative floor
        # keeps those from being checked to the last bit.
        tol = MC_SIGMAS * sd * math.sqrt(1.0 + 1.0 / exp_ref["seeds"]) + 1e-8 * np.abs(exp_ref["mean"])
        if not np.all(np.abs(expected - exp_ref["mean"]) <= tol):
            raise CheckFailed(
                f"expected-information SEs {expected} not within {MC_SIGMAS:g} SE of the reference"
            )
        for ci in (*out["ci_expected"], *out["ci_observed"]):
            if not ci.lower < ci.estimate < ci.upper:
                raise CheckFailed(f"interval for {ci.name} does not contain the estimate")

        pm, pm_ref = out["product_moment"], ref["product_moment"]
        if not abs(pm.value - pm_ref["value"]) <= MC_SIGMAS * math.hypot(pm.mc_se, pm_ref["se"]):
            raise CheckFailed(
                f"product moment {pm.value} not within {MC_SIGMAS:g} SE of {pm_ref['value']}"
            )
        _check_se_ceiling("product_moment", pm.mc_se / abs(pm.value), pm_ref["rel_se_at_draws"])

        a1, a2 = self.params.alphas
        b1, b2 = self.params.betas
        z1 = (np.sqrt(self.t1 / b1) - np.sqrt(b1 / self.t1)) / a1
        z2 = (math.sqrt(self.t2 / b2) - math.sqrt(b2 / self.t2)) / a2
        oracle = np.clip(special.ndtr(z1) - 2.0 * special.owens_t(z1, self.params.lam * z2), 0.0, 1.0)
        cdf = np.asarray(out["conditional_cdf"])
        if not np.all(np.abs(cdf - oracle) <= 1e-8):
            raise CheckFailed("conditional_cdf differs from scipy.special.owens_t by more than 1e-8")
        if np.any(np.diff(cdf) < -1e-12):
            raise CheckFailed("conditional_cdf is not nondecreasing on a sorted grid")

        for lam, rho in zip(self.lambdas, out["latent_correlation"]):
            if lam == 0.0:
                want = 0.0
            else:
                z = 1.0 / (2.0 * lam * lam)
                want = math.copysign(special.hyperu(1.5, 2.0, z) / (2.0 * lam * lam * math.sqrt(math.pi)), lam)
            if not abs(rho - want) <= 1e-7 * abs(want):
                raise CheckFailed(f"latent_correlation({lam}) = {rho}, scipy.special.hyperu gives {want}")

    def mc_rel_se(self, out):
        pm = out["product_moment"]
        return pm.mc_se / abs(pm.value)


WORKLOADS = {w.name: w for w in (CliVolle, FitLarge, SimSmall, InferenceMc)}
