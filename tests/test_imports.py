import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# scipy subpackages no skewbs command calls; scipy.special is the only one it needs
_UNUSED_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.interpolate")
_LOADED = f"print([m for m in {_UNUSED_SCIPY!r} if m in sys.modules])"


def test_cli_import_loads_no_interpolation():
    # and none of the other unused subpackages: the tracer's two bindings
    # (estimation.optimize, specfun.integrate) resolve on first read
    assert _fresh(f"import skewbs.cli, sys; {_LOADED}") == "[]"


def test_cli_commands_load_no_unused_scipy():
    # the nine commands of the benchmark's cli-volle workload, in one process
    code = (
        "import contextlib, io, sys\n"
        "from skewbs.cli import main\n"
        "commands = [['fit'], ['fit', '--model', 'kbj'], ['fit', '--model', 'gbs-t'],"
        " ['test-lambda'], ['compare'], ['gof'], ['info', '--info', 'both'], ['corr'],"
        " ['simulate', '--n', '1000', '--params', '0.5,0.5,1,1,1.5']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in commands]\n"
        f"print(codes); {_LOADED}"
    )
    assert _fresh(code).splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0, 0]", "[]"]


def test_tracer_bindings_resolve_on_first_read():
    # perfbench/tracer.py wraps estimation.optimize.minimize and specfun.integrate.quad
    code = (
        "import skewbs.estimation as e, skewbs.specfun as s\n"
        "print(callable(e.optimize.minimize), callable(s.integrate.quad),"
        " hasattr(e, 'no_such_name'), hasattr(s, 'no_such_name'))"
    )
    assert _fresh(code) == "True True False False"


def test_cli_import_builds_no_quadrature_rule():
    # the product rule is built on first use (about 20 us), by the commands that use it
    code = "import skewbs.cli; print(skewbs.specfun._half_normal_rule.cache_info().currsize)"
    assert _fresh(code) == "0"


def test_generators_load_no_interpolation():
    # logistic_i's cdf is a numpy table; no generator needs scipy.interpolate
    code = (
        "import sys; from skewbs import make_generator\n"
        "for name in ('normal', 'cauchy', 'student_t', 'gen_student_t', 'logistic_i',"
        " 'logistic_ii', 'power_exp'):\n"
        "    make_generator(name).cdf(0.5)\n"
        "print('scipy.interpolate' in sys.modules)"
    )
    assert _fresh(code) == "False"


def test_smvbs_pass_faults_in_no_pages():
    # fit-large's layout on a fresh heap: with the pass's after-column products
    # built before the row density's temporaries, each op took ~1,300 minor
    # page faults in about nine fresh processes of ten, hence two processes;
    # an in-suite heap or an 8-sample pool hid them
    pytest.importorskip("resource")
    code = (
        "import resource, numpy as np, skewbs as sk\n"
        "rng = np.random.default_rng(20121017)\n"
        "p2 = sk.SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)\n"
        "p3 = sk.SmvbsParams((0.5, 0.5, 0.5), (1.0, 1.0, 1.0), 1.5)\n"
        "pool = [(sk.SampleMatrix(sk.smvbs_sample(5000, p2, rng)),"
        " sk.SampleMatrix(sk.smvbs_sample(1250, p3, rng))) for _ in range(64)]\n"
        "def op(i):\n"
        "    s2, s3 = pool[i]\n"
        "    sk.mle(s2), sk.mle(s2, fix_lambda=0.0), sk.mle(s3)\n"
        "for i in range(16):\n"
        "    op(i)\n"
        "start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for i in range(16, 48):\n"
        "    op(i)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 32)"
    )
    faults = [float(_fresh(code)) for _ in range(2)]
    assert max(faults) < 50, faults


def test_every_exported_name_resolves():
    import skewbs
    from skewbs import datasets, elliptical, estimation, inference, multivariate, specfun, univariate

    missing = [name for name in skewbs.__all__ if not hasattr(skewbs, name)]
    assert missing == []
    assert len(set(skewbs.__all__)) == len(skewbs.__all__)
    # a later star import must not shadow a name an earlier module exports
    modules = (specfun, univariate, multivariate, elliptical, estimation, inference, datasets)
    shadowed = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if getattr(skewbs, name) is not getattr(module, name)
    ]
    assert shadowed == []
