"""Span tracing of the snmix layers from outside the package.

The tracer wraps each layer's public functions at every place a module of
the package looks them up (``snmix.estimation.batch_log``,
``snmix.mixture.kmeans``, ``snmix.cli.fit_em``, ...), so nothing under
``src/`` changes. Spans stay in memory as ``(parent, name, start_ns,
end_ns)`` tuples and are summarised, or written out, after the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import time
from collections import defaultdict

import snmix
from snmix import cli, distribution, estimation, geometry, io, metrics, mixture, simulate

LAYERS = (geometry, distribution, estimation, mixture, metrics, io, cli, simulate)

# Several functions of one layer are reported under one name.
ALIASES = {
    "io.save_points": "io.save",
    "io.save_labels": "io.save",
    "io.save_model": "io.save",
    "io.save_report": "io.save",
    "simulate.small_mix": "simulate.generate",
    "simulate.large_mix": "simulate.generate",
    "simulate.household_mix": "simulate.generate",
}

POLISH_DIP_SLACK = 1e-8


def _public_functions(module):
    names = getattr(module, "__all__", None) or ["main"]  # snmix.cli exports only main
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield obj


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def polish_dip(loglik_trace) -> bool:
    """True when the final full-precision polish lowered the log-likelihood."""
    return len(loglik_trace) >= 2 and loglik_trace[-1] < loglik_trace[-2] - POLISH_DIP_SLACK


class Tracer:
    """Records nested spans around the package's layer functions.

    ``timed(name, fn)`` runs ``fn`` under a top-level span (one per pass, or
    one for set-up); every wrapped call made inside it becomes a descendant
    span. Counters (bytes moved, EM sweeps, ...) are kept per root name.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.root_name = ""
        self._patches: list = []
        self._modules = [snmix, *LAYERS]
        hooks = {"io.load_csv": self._after_load, "mixture.fit_em": self._after_fit_em}
        hooks.update((name, self._after_save) for name in ALIASES if name.startswith("io.save"))
        self._wrappers = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for fn in _public_functions(module):
                full = f"{layer}.{fn.__name__}"
                self._wrappers[fn] = self._wrap(ALIASES.get(full, full), fn, hooks.get(full))

    def _wrap(self, name, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, name, t0, t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_load(self, args, kwargs, result) -> None:
        self.counts[(self.root_name, "io.bytes_read")] += os.path.getsize(_path_arg(args, kwargs))

    def _after_save(self, args, kwargs, result) -> None:
        self.counts[(self.root_name, "io.bytes_written")] += os.path.getsize(_path_arg(args, kwargs))

    def _after_fit_em(self, args, kwargs, report) -> None:
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
        c, root = self.counts, self.root_name
        c[(root, "mixture.sweeps")] += report.iterations
        c[(root, "mixture.reseeds")] += report.reseeds
        c[(root, "mixture.converged_fits")] += bool(report.converged)
        c[(root, "mixture.polish_dips")] += cfg.assignment == "soft" and polish_dip(
            report.loglik_trace
        )

    def install(self) -> None:
        """Replace every lookup site of a layer function by its wrapper."""
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def timed(self, root_name: str, fn, *args):
        """(seconds, result) of ``fn(*args)`` run traced under a root span."""
        self.install()
        try:
            with _Root(self, root_name) as root:
                out = fn(*args)
        finally:
            self.uninstall()
        return root.seconds, out

    def summary(self, root_name: str) -> dict:
        """Calls and self time in seconds per span name, over roots named ``root_name``.

        Self time is a span's duration minus the durations of its direct
        children. The root spans themselves appear under ``root_name``.
        """
        child_ns = [0] * len(self.spans)
        for parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        root_of = [0] * len(self.spans)
        out: dict = defaultdict(lambda: [0, 0])
        for i, (parent, name, t0, t1) in enumerate(self.spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            if self.spans[root_of[i]][1] == root_name:
                entry = out[name]
                entry[0] += 1
                entry[1] += t1 - t0 - child_ns[i]
        return {name: (calls, ns * 1e-9) for name, (calls, ns) in out.items()}

    def count(self, root_name: str, key: str) -> float:
        return self.counts.get((root_name, key), 0.0)

    def write(self, path) -> None:
        """Write every span as ``id,parent,name,start_ns,end_ns`` (gzip CSV)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (parent, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0},{t1}\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        if tr.stack:
            raise RuntimeError("root spans do not nest")
        tr.root_name = self.name
        self.sid = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.sid] = (-1, self.name, self.t0, t1)
        self.seconds = (t1 - self.t0) * 1e-9
