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


def test_cli_import_loads_no_interpolation():
    # scipy.integrate and scipy.optimize are left out: specfun keeps its
    # scipy.integrate binding and estimation its scipy.optimize binding
    # for perfbench/tracer.py to wrap
    assert _fresh("import skewbs.cli, sys; print('scipy.interpolate' in sys.modules)") == "False"


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
