"""Regenerate ``reference.json``, the stored values the output checks use.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Every value is computed at the bundled-data MLE. Monte Carlo values are
averaged over many independent seeds, and the spread between seeds at the
benchmark's draw count is stored as the standard error the checks scale.
"""

from __future__ import annotations

import datetime
import json
import math
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

import skewbs as sk
from skewbs import cli

HERE = Path(__file__).resolve().parent
SEEDS = 32
CI_SEEDS = 400
CI_DRAWS = 200_000
PM_DRAWS = 1_000_000
PM_REFERENCE_DRAWS = 20_000_000


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=HERE, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main():
    sample = sk.volle_sample()
    params = sk.mle(sample).params

    expected = np.array(
        [
            [ci.se for ci in sk.confidence_intervals(
                params, sample=sample, info="expected", mc_draws=CI_DRAWS,
                rng=np.random.default_rng([7, k]),
            )]
            for k in range(CI_SEEDS)
        ]
    )
    observed = [ci.se for ci in sk.confidence_intervals(params, sample=sample, info="observed")]

    rng = np.random.default_rng(11)
    chunks = [sk.product_moment(params, mc_draws=PM_DRAWS, rng=rng) for _ in range(PM_REFERENCE_DRAWS // PM_DRAWS)]
    values = np.array([c.value for c in chunks])
    pm_rel = float(np.median([c.mc_se / c.value for c in chunks]))

    info_rel, corr_rel = [], []
    for k in range(SEEDS):
        rng = np.random.default_rng([13, k])
        ei = sk.expected_info(params, sample.n, mc_draws=cli.DEFAULT_MC_DRAWS, rng=rng)
        matrix = np.abs(ei.matrix)
        info_rel.append(float(np.max(np.divide(ei.mc_se, matrix, out=np.zeros_like(matrix), where=ei.mc_se > 0))))
        pm = sk.product_moment(params, mc_draws=cli.DEFAULT_MC_DRAWS, rng=rng)
        corr_rel.append(pm.mc_se / pm.value)

    reference = {
        "provenance": {
            "command": "PYTHONPATH=src python3 perfbench/make_reference.py",
            "date": datetime.date.today().isoformat(),
            "commit": _commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "method": (
                "expected_ci_se: mean and standard deviation over seeds of the "
                "expected-information Wald SEs at ci draws each; product_moment: "
                "mean of reference_draws exact draws in chunks of pm draws, se from "
                "the spread of the chunk means; cli: median over seeds of the "
                "relative MC standard errors the info and corr commands report at "
                "the CLI's default draw count"
            ),
        },
        "mle": params.as_vector().tolist(),
        "observed_ci_se": observed,
        "expected_ci_se": {
            "mean": expected.mean(axis=0).tolist(),
            "sd": expected.std(axis=0, ddof=1).tolist(),
            "seeds": CI_SEEDS,
            "draws": CI_DRAWS,
        },
        "product_moment": {
            "value": float(values.mean()),
            "se": float(values.std(ddof=1) / math.sqrt(values.size)),
            "reference_draws": PM_REFERENCE_DRAWS,
            "draws": PM_DRAWS,
            "rel_se_at_draws": pm_rel,
        },
        "cli": {
            "draws": cli.DEFAULT_MC_DRAWS,
            "seeds": SEEDS,
            "info_rel_se_max": float(np.median(info_rel)),
            "corr_rel_se": float(np.median(corr_rel)),
        },
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
