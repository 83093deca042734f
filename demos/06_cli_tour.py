"""Command-line interface walkthrough.

Every capability is reachable without writing Python: fitting, exact
simulation, the lambda = 0 test, non-nested comparison, marginal
goodness of fit, information matrices and dependence summaries. All
commands print a single JSON report (simulate prints CSV), so output
pipes cleanly into jq or a file.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*args):
    print(f"\n$ skewbs {' '.join(args)}")
    out = subprocess.run(
        [sys.executable, "-m", "skewbs.cli", *args], capture_output=True, text=True
    )
    if out.returncode != 0:
        print(out.stderr.strip())
        return None
    return out.stdout


def show(payload, keys):
    report = json.loads(payload)
    for key in keys:
        print(f"  {key}: {json.dumps(report.get(key), default=str)[:200]}")
    return report


report = show(run("fit", "--input", "volle", "--model", "smvbs"),
              ["command", "model", "estimates"])

show(run("test-lambda", "--input", "volle"), ["tests"])

show(run("compare", "--input", "volle"), ["tests"])

show(run("gof", "--input", "volle"), ["tests"])

show(run("corr", "--input", "volle"), ["estimates"])

# simulate writes CSV; round-trip it through a file and refit
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "draws.csv"
    csv = run("simulate", "--model", "smvbs", "--n", "500",
              "--params", "0.5,0.5,1,1,1.5", "--seed", "7")
    csv_path.write_text(csv)
    print(f"  wrote {len(csv.splitlines()) - 1} rows")
    refit = run("fit", "--input", str(csv_path))
    show(refit, ["estimates"])

# input errors exit with status 1 and a message on stderr
run("simulate", "--model", "smvbs", "--n", "10")
