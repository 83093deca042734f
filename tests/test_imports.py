import os
import subprocess
import sys
from pathlib import Path

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
    # the product rule costs about 10 ms; only commands that use it pay
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


def test_every_exported_name_resolves():
    import skewbs

    missing = [name for name in skewbs.__all__ if not hasattr(skewbs, name)]
    assert missing == []
