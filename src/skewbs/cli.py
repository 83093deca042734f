"""Command-line interface.

Commands: fit, simulate, test-lambda, compare, gof, info, corr; each
accepts only the flags it reads. Reports go to stdout as JSON (default)
or a human-readable table; simulate always emits CSV. Errors go to
stderr only, so the report stream stays machine-readable. Python warnings
raised while a command runs are listed in the report's
``diagnostics.warnings``, once per category and source line (on stderr
for simulate). Exit codes: 0 success, 1 input or usage error, 2 fit did
not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .datasets import load_sample
from .elliptical import sbvbs_t_mle, sbvbs_t_observed_info, sbvgbs_log_pdf
from .estimation import (
    expected_info,
    mle,
    mme,
    observed_info,
    param_names,
    wald_intervals,
)
from .inference import (
    KBJ_NAMES,
    TestReport,
    gof_marginal,
    kbj_log_pdf,
    kbj_mle,
    kbj_observed_info,
    lr_test,
    vuong_test,
)
from .multivariate import (
    SmvbsParams,
    latent_correlation,
    product_moment,
    smvbs_log_pdf,
    smvbs_sample,
)
from .univariate import bs_quantile

DEFAULT_SEED = 20120428
DEFAULT_MC_DRAWS = 200_000  # the former --mc-draws default; perfbench reads it
# --info choice: the information kinds it reports
_INFO_KINDS = {
    "observed": ("observed",),
    "expected": ("expected",),
    "both": ("observed", "expected"),
}


def _check_args(args):
    """Checks argparse does not make; the --info refusals come from ``_FITS``."""
    if "level" in vars(args) and not 0.0 < args.level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    if "nu" in vars(args):
        if args.model == "gbs-t" and args.nu is None:
            args.nu = 4.0
        elif args.model != "gbs-t" and args.nu is not None:
            raise ValueError(f"--model {args.model} does not read --nu")
    model = getattr(args, "model", "smvbs")  # the info command reads the smvbs model
    if getattr(args, "info", None) and not set(_INFO_KINDS[args.info]) <= set(_FITS[model][3]):
        raise ValueError(f"--model {model} does not read --info {args.info}")


def _info_kinds(args, p: int) -> tuple:
    """The --info kinds; by default the model's first, but observed for smvbs at p != 2."""
    model = getattr(args, "model", "smvbs")
    default = ("observed",) if model == "smvbs" and p != 2 else tuple(_FITS[model][3])[:1]
    return _INFO_KINDS[args.info] if args.info else default


def _parse_columns(text):
    if text is None:
        return None
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        out.append(int(piece) if piece.lstrip("-").isdigit() else piece)
    return out or None


def _parse_params(text) -> SmvbsParams:
    vals = [float(v) for v in text.split(",") if v.strip()]
    if len(vals) < 5 or len(vals) % 2 == 0:
        raise ValueError(
            "--params needs an odd number of values: alphas, betas, lambda"
        )
    p = (len(vals) - 1) // 2
    return SmvbsParams(tuple(vals[:p]), tuple(vals[p : 2 * p]), vals[-1])


def _named(values, names) -> dict:
    return dict(zip(names, [float(v) for v in values]))


def _params_dict(params: SmvbsParams) -> dict:
    return _named(params.as_vector(), param_names(params.p))


def _ci_dict(cis) -> dict:
    return {ci.name: {"se": ci.se, "lower": ci.lower, "upper": ci.upper} for ci in cis}


def _sample(args):
    return load_sample(args.input, columns=_parse_columns(args.columns), raw=args.raw)


def _sample_and_mle(args):
    sample = _sample(args)
    return sample, mle(sample)


def _report(args, estimates, converged, tests=None, **diagnostics):
    """Exit code and report; a fit that did not converge exits with 2."""
    report = {
        "command": args.command,
        "model": getattr(args, "model", "smvbs"),
        "estimates": estimates,
        "tests": tests,
        "diagnostics": {"converged": converged, **diagnostics},
        "seed": args.seed,
        "version": __version__,
    }
    return (0 if converged else 2), report


def _write_grid(path, params, log_pdf):
    """Write the fitted density ``log_pdf(points, params)`` on a 101 x 101 quantile grid."""
    qs = np.linspace(0.005, 0.995, 101)
    t1 = bs_quantile(qs, params.alphas[0], params.betas[0])
    t2 = bs_quantile(qs, params.alphas[1], params.betas[1])
    pts = np.column_stack([np.tile(t1, t2.size), np.repeat(t2, t1.size)])
    dens = np.exp(log_pdf(pts, params))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t1,t2,density\n")
        for (v1, v2), f in zip(pts, dens):
            fh.write(f"{v1:.10g},{v2:.10g},{f:.10g}\n")


def _simulate(args):
    if args.params is None:
        raise ValueError("simulate requires --params")
    params = _parse_params(args.params)
    if args.n < 1:
        raise ValueError("--n must be positive")
    if args.model not in ("smvbs", "indep"):
        raise ValueError("simulate supports the smvbs and indep models")
    if args.model == "indep":
        params = SmvbsParams(params.alphas, params.betas, 0.0)
    draws = smvbs_sample(args.n, params, np.random.default_rng(args.seed))
    lines = [",".join(f"t{j + 1}" for j in range(params.p))]
    lines += [",".join(f"{v:.12g}" for v in row) for row in draws]
    return 0, "\n".join(lines) + "\n"


_SMVBS_INFO = {
    "expected": lambda params, sample: expected_info(params, sample.n).matrix,
    "observed": observed_info,
}
# model: (fit, parameter names for p margins, log density,
#         {information kind: its matrix at (params, sample)}); the first kind is the --info default
_FITS = {
    "smvbs": (lambda args, sample: mle(sample), param_names, smvbs_log_pdf, _SMVBS_INFO),
    "indep": (
        lambda args, sample: mle(sample, fix_lambda=0.0),
        param_names,
        smvbs_log_pdf,
        _SMVBS_INFO,
    ),
    "kbj": (
        lambda args, sample: kbj_mle(sample),
        lambda p: KBJ_NAMES,
        kbj_log_pdf,
        {"observed": kbj_observed_info},
    ),
    "gbs-t": (
        lambda args, sample: sbvbs_t_mle(sample, args.nu),
        param_names,
        sbvgbs_log_pdf,
        {"observed": sbvbs_t_observed_info},
    ),
}


def _fit(args):
    sample = _sample(args)
    if args.grid and sample.p != 2:
        raise ValueError(
            f"--grid writes a bivariate density grid; the sample has p = {sample.p} columns"
        )
    fit_model, names_for, log_pdf, infos = _FITS[args.model]
    fit = fit_model(args, sample)
    m = mme(sample)
    names = names_for(sample.p)
    theta = fit.params.as_vector()
    est = {
        "mme": _named(m.alphas + m.betas, param_names(sample.p)[: 2 * sample.p]),
        "mle": _named(theta, names),
        "loglik": fit.loglik,
        "ci": None,  # an uncertified fit gets no intervals and exits 2
    }
    if args.model == "gbs-t":
        est["mle"]["nu"] = args.nu
    if fit.converged:
        # a fit that held lambda fixed inverts only the free block of the information
        if fit.fixed_lambda is not None:
            names = names[: 2 * sample.p]
        est["ci"] = {"level": args.level}
        for kind in _info_kinds(args, sample.p):
            cis = wald_intervals(theta, infos[kind](fit.params, sample), names, args.level)
            est["ci"][kind] = _ci_dict(cis)
    if args.grid:
        _write_grid(args.grid, fit.params, log_pdf)
    return _report(
        args,
        est,
        fit.converged,
        iterations=fit.iterations,
        likelihood_passes=fit.likelihood_passes,
        score_norm=fit.score_norm,
    )


def _test_lambda(args):
    sample, full = _sample_and_mle(args)
    restricted = mle(sample, fix_lambda=0.0)
    # --level is a confidence level; tests run at 1 - level
    rep = lr_test(full, restricted, df=1, level=1.0 - args.level)
    est = {
        "full": _params_dict(full.params),
        "restricted": _params_dict(restricted.params),
        "loglik_full": full.loglik,
        "loglik_restricted": restricted.loglik,
    }
    converged = full.converged and restricted.converged
    return _report(args, est, converged, tests=[asdict(rep)])


def _compare(args):
    sample, fit_a = _sample_and_mle(args)
    fit_b = kbj_mle(sample)
    la = smvbs_log_pdf(sample.data, fit_a.params)
    lb = kbj_log_pdf(sample.data, fit_b.params)
    rep = vuong_test(la, lb, level=1.0 - args.level, names=("smvbs", "kbj"))
    est = {
        "smvbs": _params_dict(fit_a.params),
        "kbj": _named(fit_b.params.as_vector(), KBJ_NAMES),
        "loglik_smvbs": fit_a.loglik,
        "loglik_kbj": fit_b.loglik,
    }
    converged = fit_a.converged and fit_b.converged
    return _report(args, est, converged, tests=[asdict(rep)])


def _gof(args):
    sample, fit = _sample_and_mle(args)
    tests = []
    for j in range(sample.p):
        rep = gof_marginal(sample.column(j), fit.params.alphas[j], fit.params.betas[j])
        for kind, stat, verdict in (
            ("w2", rep.w2_star, rep.w2_verdict),
            ("a2", rep.a2_star, rep.a2_verdict),
        ):
            name = f"gof-margin{j + 1}-{kind}"
            tests.append(asdict(TestReport(name, stat, None, None, verdict, None)))
    est = {"mle": _params_dict(fit.params), "loglik": fit.loglik}
    return _report(args, est, fit.converged, tests=tests)


def _info(args):
    sample, fit = _sample_and_mle(args)
    est = {"mle": _params_dict(fit.params)}
    kinds = _info_kinds(args, sample.p)
    if "observed" in kinds:
        est["observed_info"] = observed_info(fit.params, sample).tolist()
    if "expected" in kinds:
        ei = expected_info(fit.params, sample.n)
        est["expected_info"] = ei.matrix.tolist()
        est["expected_info_mc_se"] = ei.mc_se.tolist()
    return _report(args, est, fit.converged)


def _corr(args):
    sample, fit = _sample_and_mle(args)
    pm = product_moment(fit.params)
    est = {
        "mle": _params_dict(fit.params),
        "latent_correlation": latent_correlation(fit.params.lam),
        "product_moment": asdict(pm),
    }
    return _report(args, est, fit.converged)


_FLAGS = {
    "--model": {"choices": tuple(_FITS), "default": "smvbs"},
    "--input": {"default": "volle", "help": "CSV path or 'volle'"},
    "--columns": {"help": "comma-separated column names or zero-based indices"},
    "--seed": {
        "type": int,
        "default": DEFAULT_SEED,
        "help": "seeds simulate; the other commands draw nothing and only echo it",
    },
    "--level": {"type": float, "default": 0.95},
    "--output": {"choices": ("json", "table"), "default": "json"},
    "--raw": {"action": "store_true", "help": "skip dataset canonicalization"},
    "--info": {
        "choices": tuple(_INFO_KINDS),
        "help": "default: expected (observed for smvbs at p != 2); fit --model kbj and gbs-t read observed only",
    },
    "--nu": {"type": float, "help": "degrees of freedom, gbs-t only (default 4)"},
    "--grid": {
        "metavar": "FILE",
        "help": "write a CSV density grid of the fitted model to FILE",
    },
    "--n": {"type": int, "default": 10},
    "--params": {"help": "comma-separated alpha1,alpha2,beta1,beta2,lambda"},
}
_DATA_FLAGS = ("--input", "--columns", "--raw", "--seed", "--output")

# command: (handler, help, flags it reads)
_COMMANDS = {
    "fit": (
        _fit,
        "maximum likelihood fit",
        ("--model", *_DATA_FLAGS, "--level", "--info", "--nu", "--grid"),
    ),
    "simulate": (
        _simulate,
        "draw from a model, CSV out",
        ("--model", "--n", "--params", "--seed"),
    ),
    "test-lambda": (
        _test_lambda,
        "likelihood ratio test of lambda = 0",
        (*_DATA_FLAGS, "--level"),
    ),
    "compare": (_compare, "Vuong test of smvbs against kbj", (*_DATA_FLAGS, "--level")),
    "gof": (_gof, "marginal goodness of fit at the MLE", _DATA_FLAGS),
    "info": (_info, "information matrices at the MLE", (*_DATA_FLAGS, "--info")),
    "corr": (_corr, "latent correlation and cross moment", _DATA_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbs",
        description="Skewed bivariate Birnbaum-Saunders modeling tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def _render_table(report: dict) -> str:
    lines = [f"command: {report['command']}   model: {report['model']}"]
    est = report.get("estimates") or {}

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}{k}.", v)
        elif isinstance(obj, list):
            lines.append(f"  {prefix[:-1]}: <matrix {len(obj)}x...>")
        elif isinstance(obj, float):
            lines.append(f"  {prefix[:-1]} = {obj:.6g}")
        else:
            lines.append(f"  {prefix[:-1]} = {obj}")

    walk("", est)
    for t in report.get("tests") or []:
        stat = t["statistic"]
        lines.append(
            f"  test {t['name']}: statistic = {stat:.6g}  verdict: {t['verdict']}"
        )
    diag = report.get("diagnostics") or {}
    if "converged" in diag:
        lines.append(f"  converged: {diag['converged']}")
    return "\n".join(lines) + "\n"


def _warning_notes(caught) -> list:
    """Each warning category and source line once: its first message and count."""
    seen = {}
    for w in caught:
        seen.setdefault((w.category, w.filename, w.lineno), []).append(w.message)
    return [f"{key[0].__name__}: {msgs[0]} (count {len(msgs)})" for key, msgs in seen.items()]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error; --help and --version exit with 0
            return 1
        raise
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _check_args(args)
            code, report = _COMMANDS[args.command][0](args)
    except (ValueError, OSError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    notes = _warning_notes(caught)
    if isinstance(report, str):
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        sys.stdout.write(report)
        return code
    report["diagnostics"]["warnings"] = notes
    if args.output == "table":
        sys.stdout.write(_render_table(report))
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
