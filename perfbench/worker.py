"""One benchmark worker process: set a workload up, then time or trace it.

run.py starts this file as a fresh process. The worker imports skewbs,
builds the seeded inputs and runs one untimed warm-up operation, then
prints ``ready``; run.py times set-up up to that line. In ``setup`` mode
it stops there. In ``timed`` mode it runs operations for ``--seconds``
with tracing off. In ``trace`` mode it runs operations for half of
``--seconds`` untraced, repeats exactly those operations with every
skewbs callable wrapped by the tracer, times the kernel parts on
fit-large-sized arrays and parses a fresh ``python -X importtime``. The
last line it prints is one JSON object with its measurements.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import skewbs as sk
from skewbs import estimation, specfun, univariate
from tracer import RESULT_COUNTERS, Tracer
from workloads import SIZES, WORKLOADS, CliVolle

ROOT = Path(__file__).resolve().parents[1]
IMPORT_MODULES = ("scipy.optimize", "scipy.integrate", "scipy.special")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, workload, i):
        """Run and check operation i; return (seconds, outputs or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as exc:  # an operation that raises counts as failed
            return time.perf_counter() - start, self._fail(i, exc)
        elapsed = time.perf_counter() - start
        try:
            workload.check(out)
        except Exception as exc:  # a wrong or unreadable output counts as failed
            return elapsed, self._fail(i, exc)
        return elapsed, out

    def _fail(self, i, exc):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        return None


def timed_pass(workload, tally, seconds=None, count=None, tracer=None):
    """Run operations 0, 1, ... until ``seconds`` pass, or ``count`` of them."""
    times, rel_se = [], []
    end = time.perf_counter() + (seconds or 0.0)
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        elapsed, out = tally.run(workload, i)
        times.append(elapsed)
        if out is not None:
            rel_se.append(workload.mc_rel_se(out))
        i += 1
        if count is not None and i >= count:
            break
        if count is None and time.perf_counter() >= end:
            break
    return times, rel_se


def import_times():
    """Seconds spent importing skewbs and its heavy scipy parts, cold process.

    scipy loads some subpackages lazily, and then ``-X importtime`` logs no
    line for the package itself; its time is the sum over its outermost
    logged submodules. Times are cumulative, so a package imported from
    inside another counts in both.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import skewbs"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
        check=True,
    )
    entries = []  # (name, depth, self seconds, cumulative seconds)
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line, or not an importtime line
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((name.strip(), depth, int(fields[0]) / 1e6, int(fields[1]) / 1e6))

    def cumulative(module):
        exact = [cum for name, _d, _s, cum in entries if name == module]
        if exact:
            return exact[0]
        subs = [(depth, cum) for name, depth, _s, cum in entries if name.startswith(module + ".")]
        top = min((depth for depth, _cum in subs), default=None)
        return sum(cum for depth, cum in subs if depth == top)

    out = {
        "import.total_s": cumulative("skewbs"),
        "import.skewbs_self_s": sum(
            own for name, _d, own, _c in entries if name == "skewbs" or name.startswith("skewbs.")
        ),
    }
    for name in IMPORT_MODULES:
        out[f"import.{name}_s"] = cumulative(name)
    return out


def kernel_times(seed, sizes):
    """Median time of each kernel part on arrays of the fit-large size."""
    n, p = sizes["n_p2"], 2
    params = sk.SmvbsParams((0.5, 0.5), (1.0, 1.0), 1.5)
    data = sk.smvbs_sample(n, params, np.random.default_rng(seed))
    a = np.column_stack([univariate.a_transform(data[:, j], 0.5, 1.0) for j in range(p)])
    u = params.lam * np.prod(a, axis=1)
    parts = {
        "kernel.a_transform.busy_s": lambda: [
            univariate.a_transform(data[:, j], 0.5, 1.0) for j in range(p)
        ],
        "kernel.log_ndtr.busy_s": lambda: specfun.log_std_normal_cdf(u),
        "kernel.mills.busy_s": lambda: estimation._wfun(u),
    }
    out = {}
    for name, fn in parts.items():
        reps = []
        for _ in range(51):
            start = time.perf_counter()
            fn()
            reps.append(time.perf_counter() - start)
        out[name] = statistics.median(reps)
    # Computed from array sizes, not measured: each part reads its input
    # and writes its output once, 8 bytes per float64.
    out["kernel.bytes_per_eval"] = 8.0 * (2 * n * p + 2 * n + 2 * n)
    return out


def trace_metrics(tracer, n_ops):
    flat = {}
    for name, row in tracer.totals(n_ops).items():
        for key, value in row.items():
            flat[f"{name}.{key}"] = value
    for name in tracer.names:
        for key in ("calls", "busy_s", "self_s"):
            flat.setdefault(f"{name}.{key}", 0.0)
    for name, fields in RESULT_COUNTERS.items():
        for key, _attr in fields:
            flat[f"{name}.{key}"] = tracer.counters.get(f"{name}.{key}", 0) / n_ops
    flat["estimation.newton.busy_s"] = tracer.newton_busy(n_ops)
    return flat


def write_trace(path, tracer, table):
    path.parent.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "names": tracer.names,
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            [name, round(s - origin, 7), round(e - origin, 7), parent, op]
            for name, s, e, parent, op, _outer in tracer.spans
        ],
        "per_op": table,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def main(argv=None):
    args = parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(sk.__file__).resolve().parents:
        sys.exit(f"skewbs was imported from {sk.__file__}, not from {src}")
    sizes = SIZES[args.size]
    cls = WORKLOADS[args.workload]
    if cls is CliVolle:
        workload = cls(args.seed, sizes[cls.name], ROOT, in_process=args.mode == "trace")
    else:
        workload = cls(args.seed, sizes[cls.name], ROOT)
    tally = Tally()
    tally.run(workload, 0)  # untimed warm-up
    print("ready", flush=True)

    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "sizes": sizes[cls.name],
    }
    if args.mode == "timed":
        times, _ = timed_pass(workload, tally, seconds=args.seconds)
        who = resource.RUSAGE_CHILDREN if cls is CliVolle else resource.RUSAGE_SELF
        result.update(op_times=times, peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    elif args.mode == "trace":
        plain, _ = timed_pass(workload, tally, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, rel_se = timed_pass(workload, tally, count=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        layers = trace_metrics(tracer, len(traced))
        write_trace(
            ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json",
            tracer,
            dict(sorted(layers.items())),
        )
        layers.update(kernel_times(args.seed, sizes["fit-large"]))
        layers.update(import_times())
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        layers["mc_rel_se_max"] = max(rel_se, default=0.0)
        result.update(layers=layers, traced_ops=len(traced))
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
