"""In-memory span tracer that wraps the module-level callables of skewbs.

The tracer replaces every function defined in a ``skewbs`` module (and
every classmethod of a class defined there) with a wrapper that records
one span per call: name, start, end, parent span and operation id. It
also wraps two scipy entry points as the package sees them,
``optimize.minimize`` from ``estimation`` (reported as
``estimation.bfgs``) and ``integrate.quad`` from ``specfun`` (reported as
``specfun.quad``). Nothing under ``src/skewbs`` changes: the wrappers are
installed on the imported module objects and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types

# Names used in the benchmark's metrics for callables whose own name
# does not say which layer they are.
ALIASES = {"estimation._lambda_warm_start": "estimation.warm_start"}

# Result fields accumulated as counters, keyed by span name.
RESULT_COUNTERS = {
    "estimation.mle": (("iterations", "iterations"),),
    "estimation.bfgs": (("nit", "nit"), ("nfev", "nfev")),
    "estimation.expected_info": (("draws", "draws"),),
    "inference.kbj_mle": (("nit", "iterations"),),
}


class _ModuleProxy:
    """Forwards attribute reads to a module, except the overridden ones."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans while installed; computes per-callable totals."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # each span: [name_id, start, end, parent, op, outermost]
        self.spans = []
        self.counters = {}
        self.op = -1
        self._stack = []
        self._depth = {}
        self._restore = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        counters = RESULT_COUNTERS.get(name, ())
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            outermost = not depth.get(name_id)
            span = [name_id, 0.0, 0.0, parent, self.op, outermost]
            spans.append(span)
            stack.append(index)
            depth[name_id] = depth.get(name_id, 0) + 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name_id] -= 1
                stack.pop()
            for key, attr in counters:
                full = f"{name}.{key}"
                self.counters[full] = self.counters.get(full, 0) + getattr(result, attr)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every skewbs callable in every namespace that binds it."""
        package = importlib.import_module("skewbs")
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, "skewbs.")
        ]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType):
                    if getattr(value, "__wrapped_by_tracer__", False):
                        continue
                    if not (value.__module__ or "").startswith("skewbs."):
                        continue
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self.wrap(_span_name(value), value)
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if isinstance(cvalue, classmethod):
                            fn = cvalue.__func__
                            wrapped = classmethod(self.wrap(_span_name(fn), fn))
                            self._set(value, cattr, wrapped)
        estimation = sys.modules["skewbs.estimation"]
        specfun = sys.modules["skewbs.specfun"]
        opt, integ = estimation.optimize, specfun.integrate
        self._set(
            estimation,
            "optimize",
            _ModuleProxy(opt, minimize=self.wrap("estimation.bfgs", opt.minimize)),
        )
        self._set(
            specfun,
            "integrate",
            _ModuleProxy(integ, quad=self.wrap("specfun.quad", integ.quad)),
        )

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def totals(self, n_ops):
        """Per-operation calls, busy and self seconds for every span name.

        Busy time counts only the outermost span of a name, so a callable
        that recurses into itself is not counted twice. Self time is the
        span's duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _op, _outer in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name_id, start, end, _p, _op, outermost) in enumerate(self.spans):
            row = out.setdefault(
                self.names[name_id], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            if outermost:
                row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        for row in out.values():
            for key in row:
                row[key] /= n_ops
        return out

    def newton_busy(self, n_ops):
        """Per-operation time in ``mle`` outside mme, warm start and BFGS."""
        names = self.names
        excluded = {"estimation.mme", "estimation.warm_start", "estimation.bfgs"}
        total = 0.0
        for name_id, start, end, parent, _op, outermost in self.spans:
            name = names[name_id]
            if name == "estimation.mle" and outermost:
                total += end - start
            elif name in excluded and outermost:
                # subtract it from the mle span that encloses it, if any
                while parent >= 0 and names[self.spans[parent][0]] != "estimation.mle":
                    parent = self.spans[parent][3]
                if parent >= 0:
                    total -= end - start
        return total / n_ops


def _span_name(fn):
    module = fn.__module__.removeprefix("skewbs.")
    name = f"{module}.{fn.__qualname__}"
    return ALIASES.get(name, name)
