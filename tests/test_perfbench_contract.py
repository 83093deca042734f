"""The benchmark's tracer must keep finding what it wraps inside skewbs.

``perfbench/tracer.py`` replaces every skewbs function and classmethod in
place, and two scipy entry points as the package binds them:
``estimation.optimize.minimize`` (reported as the ``estimation.bfgs``
span) and ``specfun.integrate.quad``. Neither is called any more (the
fitter is Newton's method alone), but the tracer fails to install if a
binding goes; if a wrapper outlived ``uninstall``, later code would run
traced.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
from pathlib import Path

import skewbs
from skewbs import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _bindings():
    """Every name bound in a skewbs module or in a class defined there."""
    modules = [skewbs] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(skewbs.__path__, "skewbs.")
    ]
    out = {}
    for module in modules:
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(module.__name__, attr, cattr)] = cvalue
    return out


def _unbound(value):
    """The function behind a classmethod or a bound method; other values as they are."""
    return getattr(value, "__func__", value)


def _restore_classmethods(before, after):
    """Put back the classmethod descriptors that ``uninstall`` left bound.

    The tracer restores a classmethod as the method bound to its class,
    which calls the same function; the tests that run afterwards get the
    descriptors back.
    """
    for key, value in before.items():
        if len(key) == 3 and isinstance(value, classmethod) and after[key] is not value:
            setattr(getattr(importlib.import_module(key[0]), key[1]), key[2], value)


def test_tracer_records_bfgs_and_restores_every_name(volle):
    before = _bindings()
    tracer = _load_tracer()()
    try:
        tracer.install()
        tracer.op = 0
        skewbs.mle(volle)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fit", "--model", "gbs-t"]) == 0
        totals = tracer.totals(1)
    finally:
        tracer.uninstall()
    after = _bindings()
    _restore_classmethods(before, after)
    assert "estimation.bfgs" in tracer.names  # wrapped, and never called
    assert "estimation.bfgs" not in totals
    assert totals["estimation.mle"]["calls"] == 1
    assert totals["elliptical.sbvbs_t_mle"]["calls"] == 1
    changed = [
        key for key, value in before.items() if _unbound(after.get(key)) is not _unbound(value)
    ]
    assert changed == []


def test_every_declared_skewbs_span_is_traced():
    # ``perfbench/run.py --trace`` refuses a run that lacks a declared
    # metric; here a renamed or removed span shows in tier-1, not only in
    # the benchmark's smoke run
    declared = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))["per_layer"]
    modules = {info.name for info in pkgutil.iter_modules(skewbs.__path__)}
    spans = {m["name"].rsplit(".", 1)[0] for m in declared if m["name"].split(".")[0] in modules}
    before = _bindings()
    tracer = _load_tracer()()
    try:
        tracer.install()
        names = set(tracer.names)
    finally:
        tracer.uninstall()
        _restore_classmethods(before, _bindings())
    # the worker computes estimation.newton from the mle spans; it is no span
    assert spans - names <= {"estimation.newton"}, sorted(spans - names)
