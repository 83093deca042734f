import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import skewbs as sk
import skewbs.cli as cli
from skewbs.cli import main
from skewbs.estimation import FitResult
from skewbs.multivariate import SmvbsParams

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "report.schema.json").read_text()
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def validate(report):
    jsonschema.validate(report, SCHEMA)


def test_fit_reproduces_published_estimates(capsys):
    code, report = run_json(capsys, ["fit", "--info", "observed"])
    assert code == 0
    validate(report)
    mle = report["estimates"]["mle"]
    assert round(mle["alpha1"], 4) == 0.2047
    assert round(mle["alpha2"], 4) == 0.4101
    assert round(mle["beta1"], 4) == 113.2907
    assert round(mle["beta2"], 4) == 90.7447
    assert round(mle["lambda"], 4) == 0.8806
    mme = report["estimates"]["mme"]
    assert round(mme["alpha1"], 4) == 0.2035
    assert round(mme["beta2"], 4) == 91.7220
    assert report["estimates"]["ci"]["observed"]["lambda"]["se"] > 0
    assert report["diagnostics"]["converged"] is True
    assert report["command"] == "fit" and report["model"] == "smvbs"
    assert report["seed"] == cli.DEFAULT_SEED


def test_fit_expected_info_and_both(capsys):
    code, report = run_json(capsys, ["fit", "--info", "both"])
    assert code == 0
    validate(report)
    ci = report["estimates"]["ci"]
    assert set(ci) == {"level", "observed", "expected"}
    assert ci["level"] == 0.95
    for kind in ("observed", "expected"):
        for name in ("alpha1", "alpha2", "beta1", "beta2", "lambda"):
            block = ci[kind][name]
            assert block["lower"] < block["upper"]


def test_fit_reports_the_draws_it_made(capsys):
    # the expected information is exact for both models: no draws, no warnings
    for argv in (["fit"], ["fit", "--model", "indep"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["diagnostics"]["warnings"] == []


def test_fit_is_deterministic(capsys):
    main(["fit"])
    first = capsys.readouterr().out
    main(["fit"])
    second = capsys.readouterr().out
    assert first == second
    # the seed no longer reaches any estimate
    main(["fit", "--seed", "5"])
    other = capsys.readouterr().out
    assert json.loads(first)["estimates"] == json.loads(other)["estimates"]


def test_fit_indep_model_pins_lambda(capsys):
    code, report = run_json(capsys, ["fit", "--model", "indep", "--info", "observed"])
    assert code == 0
    validate(report)
    est = report["estimates"]["mle"]
    assert est["lambda"] == 0.0
    assert round(est["beta1"], 4) == 115.7470
    # the restricted covariance drops the lambda block
    assert "lambda" not in report["estimates"]["ci"]["observed"]


def test_fit_rejects_multi_start(capsys):
    # every lambda start reached the same warm start and MLE, so the flag is gone
    for command in ("fit", "test-lambda", "compare", "gof", "info", "corr"):
        assert main([command, "--multi-start"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--multi-start" in captured.err


def test_fit_reports_likelihood_passes(capsys, volle):
    code, report = run_json(capsys, ["fit"])
    assert code == 0
    validate(report)
    passes = report["diagnostics"]["likelihood_passes"]
    assert isinstance(passes, int)
    assert passes == sk.mle(volle).likelihood_passes
    # one pass per Newton step, each with its information, and the last point's pass
    assert passes >= report["diagnostics"]["iterations"] + 1
    assert "newton_steps" not in report["diagnostics"]


def test_fit_kbj_model(capsys):
    code, report = run_json(capsys, ["fit", "--model", "kbj"])
    assert code == 0
    validate(report)
    est = report["estimates"]["mle"]
    assert round(est["rho"], 4) == 0.4177
    assert report["estimates"]["ci"]["observed"]["rho"]["se"] > 0


def test_fit_gbs_t_model(capsys):
    code, report = run_json(capsys, ["fit", "--model", "gbs-t", "--nu", "4"])
    assert code == 0
    validate(report)
    est = report["estimates"]["mle"]
    assert est["nu"] == 4.0
    assert est["beta1"] > 0
    se = [block["se"] for block in report["estimates"]["ci"]["observed"].values()]
    assert len(se) == 5 and all(v > 0 for v in se)
    assert report["diagnostics"]["score_norm"] <= 1e-8


def test_fit_grid_dump(capsys, tmp_path):
    for model in ("smvbs", "gbs-t"):
        grid = tmp_path / f"{model}.csv"
        code, report = run_json(
            capsys, ["fit", "--model", model, "--info", "observed", "--grid", str(grid)]
        )
        assert code == 0
        lines = grid.read_text().strip().splitlines()
        assert lines[0] == "t1,t2,density"
        assert len(lines) == 1 + 101 * 101
        vals = np.loadtxt(lines[1:], delimiter=",")
        assert np.all(vals[:, 2] >= 0)
        assert vals[:, 0].min() > 0


def test_simulate_deterministic_csv(capsys):
    argv = [
        "simulate",
        "--params",
        "0.5,0.5,1,1,1.5",
        "--n",
        "25",
        "--seed",
        "7",
    ]
    code = main(argv)
    first = capsys.readouterr().out
    assert code == 0
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "t1,t2"
    assert len(lines) == 26
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (25, 2)
    assert np.all(data > 0)


def test_simulate_indep_model_ignores_lambda(capsys):
    base = ["--params", "0.5,0.5,1,1,9.9", "--n", "40", "--seed", "3"]
    main(["simulate", "--model", "indep", *base])
    indep = capsys.readouterr().out
    main(["simulate", "--model", "indep", "--params", "0.5,0.5,1,1,0", "--n", "40", "--seed", "3"])
    zero = capsys.readouterr().out
    assert indep == zero


def test_simulate_errors(capsys):
    assert main(["simulate"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--params", "0.5,0.5,1,1"]) == 1  # even count
    capsys.readouterr()
    assert main(["simulate", "--params", "0.5,0.5,1,1,1", "--model", "kbj"]) == 1
    err = capsys.readouterr().err
    assert "smvbs and indep" in err


def test_test_lambda_command(capsys):
    code, report = run_json(capsys, ["test-lambda"])
    assert code == 0
    validate(report)
    (rep,) = report["tests"]
    assert rep["name"] == "lr"
    assert rep["df"] == 1
    assert abs(rep["statistic"] - 6.6834) < 0.02
    assert rep["p_value"] < 0.01
    assert rep["level"] == pytest.approx(0.05)
    assert report["estimates"]["loglik_full"] > report["estimates"]["loglik_restricted"]


def test_compare_command(capsys):
    code, report = run_json(capsys, ["compare"])
    assert code == 0
    validate(report)
    (rep,) = report["tests"]
    assert rep["name"] == "vuong"
    assert rep["statistic"] == pytest.approx(0.8973, abs=1e-3)
    assert rep["verdict"] == "models statistically equivalent"
    assert report["estimates"]["loglik_smvbs"] > report["estimates"]["loglik_kbj"]


def test_log_likelihoods_share_one_scale_across_commands(capsys):
    # every command reports the summed joint log density
    loglik = {}
    for argv in (["fit"], ["fit", "--model", "indep"], ["fit", "--model", "kbj"], ["compare"], ["test-lambda"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        for key, value in report["estimates"].items():
            if key.startswith("loglik"):
                loglik[(" ".join(argv), key)] = value
    for a, b in (
        (("fit", "loglik"), ("compare", "loglik_smvbs")),
        (("fit", "loglik"), ("test-lambda", "loglik_full")),
        (("fit --model indep", "loglik"), ("test-lambda", "loglik_restricted")),
        (("fit --model kbj", "loglik"), ("compare", "loglik_kbj")),
    ):
        assert loglik[a] == pytest.approx(loglik[b], rel=1e-12, abs=0.0), (a, b)


def test_gof_command(capsys):
    code, report = run_json(capsys, ["gof"])
    assert code == 0
    validate(report)
    tests = report["tests"]
    assert [t["name"] for t in tests] == [
        "gof-margin1-w2",
        "gof-margin1-a2",
        "gof-margin2-w2",
        "gof-margin2-a2",
    ]
    for t in tests:
        assert t["verdict"] == "p > 0.10"
    assert tests[2]["statistic"] == pytest.approx(0.0513, abs=2e-3)
    assert tests[3]["statistic"] == pytest.approx(0.3145, abs=5e-3)


def test_info_command(capsys):
    code, report = run_json(capsys, ["info", "--info", "both"])
    assert code == 0
    validate(report)
    est = report["estimates"]
    obs = np.array(est["observed_info"])
    exp = np.array(est["expected_info"])
    se = np.array(est["expected_info_mc_se"])
    assert obs.shape == exp.shape == se.shape == (5, 5)
    np.testing.assert_allclose(obs, obs.T, rtol=1e-10)
    assert np.all(np.diag(exp) > 0)
    assert np.all(se == 0.0)


def test_corr_command(capsys):
    code, report = run_json(capsys, ["corr"])
    assert code == 0
    validate(report)
    est = report["estimates"]
    assert est["latent_correlation"] == pytest.approx(0.4272, abs=2e-3)
    pm = est["product_moment"]
    assert pm["draws"] == 0
    assert pm["value"] == pytest.approx(11770.0874383, rel=1e-10)
    assert pm["mc_se"] == 0.0


def test_columns_flag_reorders_margins(capsys):
    code, report = run_json(
        capsys, ["fit", "--columns", "1,0", "--info", "observed"]
    )
    assert code == 0
    est = report["estimates"]["mle"]
    assert round(est["alpha1"], 4) == 0.4101
    assert round(est["alpha2"], 4) == 0.2047
    assert round(est["lambda"], 4) == 0.8806


def test_raw_flag_changes_dataset(capsys):
    code, report = run_json(capsys, ["fit", "--model", "indep", "--raw", "--info", "observed"])
    assert code == 0
    # uncanonicalized values inflate the scale estimates
    assert report["estimates"]["mme"]["beta1"] > 150


def test_csv_input_matches_bundled_dataset(capsys, tmp_path, volle):
    f = tmp_path / "volle.csv"
    lines = ["t1,t2"] + [f"{a},{b}" for a, b in volle.data]
    f.write_text("\n".join(lines) + "\n")
    code, report = run_json(
        capsys, ["fit", "--input", str(f), "--info", "observed"]
    )
    assert code == 0
    assert round(report["estimates"]["mle"]["beta1"], 4) == 113.2907


def test_table_output(capsys):
    code = main(["fit", "--info", "observed", "--output", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged: True" in out
    assert "mle.lambda" in out


def test_mc_draws_flag_and_env_var_are_gone(capsys, monkeypatch):
    # the information and the cross moment are exact: --mc-draws is a usage
    # error, and SMVBS_MC_DRAWS is not read
    plain = {}
    for command in ("fit", "info", "corr"):
        assert main([command, "--mc-draws", "6000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines() if "--mc-draws" in line]
        assert "unrecognized arguments" in line
        assert main([command]) == 0
        plain[command] = capsys.readouterr().out
        assert "mc_draws" not in json.loads(plain[command])["diagnostics"]
    for value in ("4000", "500", "not-a-number"):
        monkeypatch.setenv("SMVBS_MC_DRAWS", value)
        for command, out in plain.items():
            assert main([command]) == 0
            assert capsys.readouterr().out == out


def test_input_error_paths(capsys, tmp_path):
    assert main(["fit", "--input", "/nonexistent/file.csv"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["fit", "--level", "2.0"]) == 1
    capsys.readouterr()
    assert main(["fit", "--columns", "a,b"]) == 1
    assert "unknown column name 'a'" in capsys.readouterr().err
    assert main(["fit", "--columns", "5"]) == 1
    assert "column index 5 out of range" in capsys.readouterr().err
    # a column selected twice, by index, by name or by both, is refused before any fit
    named = tmp_path / "named.csv"
    named.write_text("t1,t2\n1.5,2.5\n3.5,4.5\n2.0,1.0\n")
    for columns in (
        ["--columns", "0,0"],
        ["--input", str(named), "--columns", "t2,t2"],
        ["--input", str(named), "--columns", "0,t1"],
    ):
        assert main(["fit", *columns]) == 1
        err = capsys.readouterr().err
        assert "selected more than once" in err and len(err.splitlines()) == 1
    # usage errors exit 1 as well; corr fits only the smvbs model
    assert main(["corr", "--model", "kbj"]) == 1
    assert "--model" in capsys.readouterr().err
    # fit refuses, in one line, flags that its model would ignore
    refused = []
    for model in ("kbj", "gbs-t"):
        refused += [
            (["--model", model, "--info", "expected"], "--info expected"),
            (["--model", model, "--info", "both"], "--info both"),
        ]
    # only gbs-t reads --nu
    refused += [
        (["--nu", "1"], "--nu"),
        (["--model", "indep", "--nu", "0.5"], "--nu"),
        (["--model", "kbj", "--nu", "4"], "--nu"),
    ]
    for argv, flag in refused:
        assert main(["fit", *argv]) == 1
        err = capsys.readouterr().err
        assert flag in err and len(err.splitlines()) == 1
    # a non-finite generator parameter is an input error that names it
    for nu in ("nan", "inf"):
        assert main(["fit", "--model", "gbs-t", "--nu", nu]) == 1
        err = capsys.readouterr().err
        assert "nu" in err and len(err.splitlines()) == 1


def test_fit_grid_refuses_a_sample_that_is_not_bivariate(capsys, tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called")

    monkeypatch.setattr(cli, "mle", no_fit)
    path = tmp_path / "three.csv"
    path.write_text("1.5,2.5,3.5\n3.5,4.5,1.5\n2.0,1.0,2.5\n")
    grid = tmp_path / "grid.csv"
    argv = ["fit", "--input", str(path), "--info", "observed", "--grid", str(grid)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--grid" in err and "p = 3" in err and len(err.splitlines()) == 1
    assert not grid.exists()


def test_nonconvergence_maps_to_exit_two(capsys, monkeypatch):
    def fake_mle(sample, fix_lambda=None, start=None):
        params = SmvbsParams((0.2, 0.4), (115.0, 91.0), 0.5)
        return FitResult(
            params=params,
            loglik=-1.0,
            converged=False,
            iterations=500,
            score_norm=1.0,
            step_norm=1.0,
            fixed_lambda=fix_lambda,
        )

    monkeypatch.setattr(cli, "mle", fake_mle)
    code = main(["gof"])
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    assert report["diagnostics"]["converged"] is False


@pytest.mark.parametrize(
    "model, fitter", [("smvbs", "mle"), ("indep", "mle"), ("kbj", "kbj_mle"), ("gbs-t", "sbvbs_t_mle")],
    ids=["smvbs", "indep", "kbj", "gbs-t"],
)
def test_uncertified_fit_exits_two_without_intervals(capsys, monkeypatch, model, fitter):
    fit_model = getattr(cli, fitter)

    def uncertified(*args, **kwargs):
        return replace(fit_model(*args, **kwargs), converged=False)

    monkeypatch.setattr(cli, fitter, uncertified)
    code, report = run_json(capsys, ["fit", "--model", model])
    assert code == 2
    validate(report)
    assert report["diagnostics"]["converged"] is False
    assert report["estimates"]["ci"] is None
    assert report["estimates"]["mle"] and report["estimates"]["mme"]


def test_two_row_fit_reports_warnings_once(capsys, tmp_path):
    path = tmp_path / "two_rows.csv"
    path.write_text("1,2\n3,4\n")
    for info in ([], ["--info", "observed"]):
        code = main(["fit", "--input", str(path), *info])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        report = json.loads(captured.out)
        validate(report)
        assert report["diagnostics"]["warnings"] == []
        assert report["estimates"]["ci"] is None


def test_fit_without_an_accepted_trial_exits_two(capsys, tmp_path):
    # a Newton step none of whose line-search trials is accepted ends the
    # fit uncertified, not with an error out of the parameter space
    truth = SmvbsParams((0.05, 0.1), (1.0, 50.0), 20.0)
    data = sk.smvbs_sample(15, truth, np.random.default_rng([0, 15, 3, 1200, 7]))
    path = tmp_path / "stall.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    code, report = run_json(capsys, ["fit", "--input", str(path)])
    assert code == 2
    validate(report)
    assert report["estimates"]["ci"] is None
    assert report["diagnostics"]["warnings"] == []


@pytest.mark.parametrize("info", [None, "observed", "expected", "both"])
@pytest.mark.parametrize("model", list(cli._FITS))
def test_fit_table_reads_its_information_kinds(capsys, model, info):
    # smvbs and indep read both kinds, expected by default; kbj and gbs-t
    # read observed information only
    readable = ("expected", "observed") if model in ("smvbs", "indep") else ("observed",)
    assert tuple(cli._FITS[model][3]) == readable
    requested = {None: readable[:1], "both": ("observed", "expected")}.get(info, (info,))
    code = main(["fit", "--model", model, *(["--info", info] if info else [])])
    captured = capsys.readouterr()
    if set(requested) <= set(readable):
        assert code == 0
        report = json.loads(captured.out)
        validate(report)
        assert set(report["estimates"]["ci"]) == {"level", *requested}
    else:
        assert code == 1 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and f"--info {info}" in captured.err


def test_fit_names_the_moment_estimates_of_every_margin(capsys, tmp_path):
    data = sk.smvbs_sample(60, SmvbsParams((0.3, 0.5, 0.4), (1.0, 2.0, 3.0), 1.5), np.random.default_rng(3))
    path = tmp_path / "p3.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    code, report = run_json(capsys, ["fit", "--input", str(path), "--info", "observed"])
    assert code == 0
    validate(report)
    est = report["estimates"]
    assert set(est["mme"]) == {"alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3"}
    assert set(est["ci"]["observed"]) == set(est["mle"]) == {*est["mme"], "lambda"}


def test_info_defaults_to_observed_for_smvbs_beyond_two_margins(capsys, tmp_path):
    # the expected information is implemented for p = 2 only; indep's is exact at lambda = 0
    data = sk.smvbs_sample(60, SmvbsParams((0.3, 0.5, 0.4), (1.0, 2.0, 3.0), 1.5), np.random.default_rng(3))
    path = tmp_path / "p3.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    code, report = run_json(capsys, ["fit", "--input", str(path)])
    assert code == 0
    validate(report)
    assert set(report["estimates"]["ci"]) == {"level", "observed"}
    code, report = run_json(capsys, ["info", "--input", str(path)])
    assert code == 0
    validate(report)
    assert np.array(report["estimates"]["observed_info"]).shape == (7, 7)
    assert "expected_info" not in report["estimates"]
    code, report = run_json(capsys, ["fit", "--model", "indep", "--input", str(path)])
    assert code == 0
    assert set(report["estimates"]["ci"]) == {"level", "expected"}
    for argv in (["fit", "--info", "expected"], ["fit", "--info", "both"], ["info", "--info", "both"]):
        assert main([*argv, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "implemented for p = 2" in captured.err


def test_warnings_are_reported_once_per_category_and_line(capsys, monkeypatch):
    fit_mle = cli.mle

    def warning_mle(sample, fix_lambda=None, start=None):
        for _ in range(2):
            warnings.warn("from one line", RuntimeWarning)
        return fit_mle(sample, fix_lambda=fix_lambda, start=start)

    monkeypatch.setattr(cli, "mle", warning_mle)
    code, report = run_json(capsys, ["fit"])
    assert code == 0
    validate(report)
    assert report["diagnostics"]["warnings"] == ["RuntimeWarning: from one line (count 2)"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    import skewbs

    assert skewbs.__version__ in capsys.readouterr().out


# the nine bundled-data JSON reports, pinned against tests/bundled_reports.json
# (each command's report, written with `skewbs <argv>`)
BUNDLED_COMMANDS = {
    "fit": ["fit"],
    "fit-indep": ["fit", "--model", "indep"],
    "fit-kbj": ["fit", "--model", "kbj"],
    "fit-gbs-t": ["fit", "--model", "gbs-t"],
    "test-lambda": ["test-lambda"],
    "compare": ["compare"],
    "gof": ["gof"],
    "info-both": ["info", "--info", "both"],
    "corr": ["corr"],
}
BUNDLED_REPORTS = json.loads((Path(__file__).resolve().parent / "bundled_reports.json").read_text())


def assert_same_report(got, ref, path="report"):
    """Every float within 1e-10 max(1, |ref|), every other value equal."""
    if isinstance(ref, dict):
        assert isinstance(got, dict) and set(got) == set(ref), path
        for key in ref:
            assert_same_report(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), path
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_same_report(g, r, f"{path}[{i}]")
    elif isinstance(ref, float):
        assert isinstance(got, float) and abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (path, got, ref)
    else:
        assert type(got) is type(ref) and got == ref, (path, got, ref)


@pytest.mark.parametrize("key", sorted(BUNDLED_COMMANDS))
def test_bundled_reports_are_pinned(capsys, key):
    code, report = run_json(capsys, BUNDLED_COMMANDS[key])
    assert code == 0
    ref = dict(BUNDLED_REPORTS[key])
    del report["version"], ref["version"]
    assert_same_report(report, ref)
