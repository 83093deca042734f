import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import skewbs as sk
import skewbs.cli as cli
from skewbs.cli import main
from skewbs.estimation import FitResult
from skewbs.inference import KbjParams
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
    # the expected-information intervals are exact: no draws
    assert report["diagnostics"]["mc_draws"] == 0
    for kind in ("observed", "expected"):
        for name in ("alpha1", "alpha2", "beta1", "beta2", "lambda"):
            block = ci[kind][name]
            assert block["lower"] < block["upper"]
    _, observed = run_json(capsys, ["fit", "--info", "observed"])
    assert observed["diagnostics"]["mc_draws"] is None


def test_fit_reports_the_draws_it_made(capsys):
    # the expected information is exact for both models: no draws
    for argv in (["fit"], ["fit", "--model", "indep"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["diagnostics"]["mc_draws"] == 0
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
    assert report["diagnostics"]["mc_draws"] == 0
    assert np.all(se == 0.0)


def test_corr_command(capsys):
    code, report = run_json(capsys, ["corr"])
    assert code == 0
    validate(report)
    est = report["estimates"]
    assert est["latent_correlation"] == pytest.approx(0.4272, abs=2e-3)
    pm = est["product_moment"]
    assert pm["draws"] == 0 and report["diagnostics"]["mc_draws"] == 0
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


def test_env_var_sets_mc_draws(capsys, monkeypatch):
    # --mc-draws and SMVBS_MC_DRAWS are deprecated: still validated, then
    # ignored with a note in the report
    _, plain = run_json(capsys, ["corr"])
    monkeypatch.setenv("SMVBS_MC_DRAWS", "4000")
    for argv in (["corr"], ["corr", "--mc-draws", "6000"], ["info"], ["fit"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["diagnostics"]["mc_draws"] == 0
        (note,) = report["diagnostics"]["warnings"]
        assert note.startswith("DeprecationWarning: --mc-draws and SMVBS_MC_DRAWS are deprecated")
    assert report["estimates"]["ci"] == run_json(capsys, ["fit", "--seed", "1"])[1]["estimates"]["ci"]
    _, corr = run_json(capsys, ["corr", "--mc-draws", "6000"])
    assert corr["estimates"] == plain["estimates"]
    monkeypatch.setenv("SMVBS_MC_DRAWS", "500")
    assert main(["corr"]) == 1
    assert "mc-draws" in capsys.readouterr().err
    monkeypatch.setenv("SMVBS_MC_DRAWS", "not-a-number")
    assert main(["corr"]) == 1
    assert "SMVBS_MC_DRAWS" in capsys.readouterr().err
    # an explicit flag still wins
    assert run_json(capsys, ["corr", "--mc-draws", "6000"])[0] == 0


def test_input_error_paths(capsys):
    assert main(["fit", "--input", "/nonexistent/file.csv"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["fit", "--mc-draws", "10"]) == 1
    assert "mc-draws" in capsys.readouterr().err
    assert main(["fit", "--level", "2.0"]) == 1
    capsys.readouterr()
    assert main(["fit", "--columns", "a,b"]) == 1
    assert "unknown column name 'a'" in capsys.readouterr().err
    assert main(["fit", "--columns", "5"]) == 1
    assert "column index 5 out of range" in capsys.readouterr().err
    # usage errors exit 1 as well; corr fits only the smvbs model
    assert main(["corr", "--model", "kbj"]) == 1
    assert "--model" in capsys.readouterr().err
    # fit refuses, in one line, flags that its model would ignore
    refused = []
    for model in ("kbj", "gbs-t"):
        refused += [
            (["--model", model, "--mc-draws", "5000"], "--mc-draws"),
            (["--model", model, "--info", "expected"], "--info expected"),
            (["--model", model, "--info", "both"], "--info both"),
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


def test_kbj_nonconvergence_exits_two_without_intervals(capsys, monkeypatch):
    def fake_kbj_mle(sample):
        params = KbjParams((0.2, 0.4), (115.0, 91.0), 0.999999)
        return FitResult(
            params=params,
            loglik=-1.0,
            converged=False,
            iterations=500,
            score_norm=1.0,
            step_norm=1.0,
        )

    monkeypatch.setattr(cli, "kbj_mle", fake_kbj_mle)
    code, report = run_json(capsys, ["fit", "--model", "kbj"])
    assert code == 2
    validate(report)
    assert report["diagnostics"]["converged"] is False
    assert report["estimates"]["ci"] is None


def test_two_row_fit_reports_warnings_once(capsys, tmp_path):
    path = tmp_path / "two_rows.csv"
    path.write_text("1,2\n3,4\n")
    code = main(["fit", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    report = json.loads(captured.out)
    validate(report)
    assert report["diagnostics"]["warnings"] == []


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
