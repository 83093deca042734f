import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_loads_no_interpolation():
    # scipy.integrate and scipy.optimize are left out: specfun keeps its
    # scipy.integrate binding for perfbench/tracer.py to wrap, and
    # estimation's BFGS stage imports scipy.optimize
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import skewbs.cli, sys; print('scipy.interpolate' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
