"""Benchmark entry point: run one skewbs workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it starts ``SETUP_REPS`` fresh workers one after another,
times each one's set-up, and lets the last one run the timed operations;
it prints every end-to-end metric of BENCHMARK.json. With ``--trace 1`` it
starts one worker that runs the operations untraced and then traced, and
prints every per-layer metric. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks fit-large for the smoke test",
    )
    return parser.parse_args(argv)


def worker_env():
    """Environment for workers: the checkout's sources, BLAS capped at nproc."""
    nproc = os.cpu_count() or 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def run_worker(args, mode, env):
    """Start one worker; return (seconds to its ready line, its result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--size", args.size,
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with code {code} before reporting")
    return setup_s, json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
    )
    return proc.stdout.strip() or None


def end_to_end(setups, result):
    times = result["op_times"]
    p90 = (
        statistics.quantiles(times, n=10, method="inclusive")[-1]
        if len(times) > 1
        else times[0]
    )
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None):
    args = parse_args(argv)
    missing = [
        p
        for p in (ROOT / "src" / "skewbs" / "__init__.py", ROOT / "schema" / "report.schema.json")
        if not p.is_file()
    ]
    if missing:
        print(f"error: the program is not in this checkout: {missing[0]} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = worker_env()
    setups, results = [], []
    modes = ["trace"] if args.trace else ["setup"] * (SETUP_REPS - 1) + ["timed"]
    try:
        for mode in modes:
            setup_s, result = run_worker(args, mode, env)
            setups.append(setup_s)
            results.append(result)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    main_result = results[-1]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    if args.trace:
        declared, values = spec["per_layer"], main_result["layers"]
    else:
        declared, values = spec["end_to_end"], end_to_end(setups, main_result)
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent:
        print(f"error: metrics not measured: {', '.join(absent)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    provenance = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            **main_result["versions"],
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        },
        "commit": git_commit(),
        "workload": args.workload,
        "sizes": main_result["sizes"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_timed": len(main_result.get("op_times", [])) or main_result.get("traced_ops"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed}/{attempted}")
    for reason in (f for r in results for f in r["failures"]):
        print(f"failure: {reason}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
