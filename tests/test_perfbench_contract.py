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
import pkgutil
from pathlib import Path

import skewbs
from skewbs import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
    # the tracer restores a classmethod as the method bound to its class,
    # which calls the same function; put the descriptors back for the
    # tests that run after this one
    for key, value in before.items():
        if len(key) == 3 and isinstance(value, classmethod) and after[key] is not value:
            setattr(getattr(importlib.import_module(key[0]), key[1]), key[2], value)
    assert "estimation.bfgs" in tracer.names  # wrapped, and never called
    assert "estimation.bfgs" not in totals
    assert totals["estimation.mle"]["calls"] == 1
    assert totals["elliptical.sbvbs_t_mle"]["calls"] == 1
    changed = [
        key for key, value in before.items() if _unbound(after.get(key)) is not _unbound(value)
    ]
    assert changed == []
