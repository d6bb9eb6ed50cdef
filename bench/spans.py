"""Spans around the package's layer boundaries, recorded from outside the package.

``Tracer.install`` rebinds every public function of each layer module, in
every package module that holds it, to a wrapper that records a span (name,
layer, start, end, parent, thread) plus a few counts taken from the call's
arguments and result.  It also wraps the evaluate methods of the two exact
profile classes; it must run before any profile is built, because a profile
binds its evaluate method when it is constructed.  ``Tracer.uninstall`` puts
the original bindings back.

Spans started on a thread that has no open span (the verify pool's workers)
take the innermost open ``run_checks`` span as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("specfun", "profiles", "dunkl_ops", "basis", "su11", "coherent", "verify", "cli")
POLY_FUNCTIONS = ("laguerre", "laguerre_all", "jacobi")
INNER_PRODUCTS = ("radial_inner_product", "angular_inner_product")
PROFILE_CLASSES = ("GaussLaguerreSum", "TrigJacobiSum")
POOL_ROOT = "run_checks"


class Span:
    """One call across a layer boundary; times are perf_counter_ns values."""

    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "thread", "counts")

    def __init__(self, sid, name, layer, start, end, parent, thread, counts=None):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.counts = counts


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the union of its children's intervals.

    Children on other threads may overlap one another; the part of the parent
    they cover is counted once.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0
        lo_run = hi_run = None
        clipped = sorted((max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(sp.sid, ()))
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[sp.sid] = (sp.end - sp.start) - covered
    return out


def _poly_counts(args, kwargs, result) -> dict:
    # The package passes (degree, parameters..., x) positionally.
    degree, points = int(args[0]), int(np.size(args[-1]))
    return {
        "deg_points": degree * points,
        "row_points": (degree + 1) * points,
        "nonfinite": int(np.size(result) - np.count_nonzero(np.isfinite(result))),
    }


def _eval_counts(args, kwargs, result) -> dict:
    profile, r = args[0], args[1]
    return {"term_points": len(profile.terms) * int(np.size(r))}


def _check_counts(args, kwargs, result) -> dict:
    return {
        "checks_run": len(result),
        "checks_failed": sum(1 for res in result if not res.passed),
        "checks_raised": sum(1 for res in result if res.error is not None),
    }


_COUNTERS = {
    "laguerre": _poly_counts,
    "laguerre_all": _poly_counts,
    "jacobi": _poly_counts,
    "enumerate_states": lambda a, k, res: {"states": len(res)},
    "auto_nterms": lambda a, k, res: {"nterms": int(res)},
    "run_checks": _check_counts,
    **{f"{cls}._evaluate": _eval_counts for cls in PROFILE_CLASSES},
}


class Tracer:
    """Records spans for every call into the package's layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fp_events = {"overflow": 0, "invalid": 0, "divide": 0}
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parents: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _on_fp_event(self, kind: str, _flag: int) -> None:
        # numpy names the events "overflow", "invalid value", "divide by zero" and "underflow".
        key = kind.split()[0]
        if key in self.fp_events:
            with self._lock:
                self.fp_events[key] += 1

    def errstate(self):
        """Context that counts numpy floating-point events on the calling thread."""
        return np.errstate(all="call", call=self._on_fp_event)

    def _call(self, name, layer, fn, args, kwargs, counter):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._pool_parents[-1] if self._pool_parents else None
        sid = next(self._ids)
        stack.append(sid)
        if name == POOL_ROOT:
            self._pool_parents.append(sid)
        # A worker thread starts with numpy's default error state, so its
        # outermost span installs the counting callback for its duration.
        errstate = None
        if len(stack) == 1 and threading.current_thread() is not threading.main_thread():
            errstate = self.errstate()
            errstate.__enter__()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            if errstate is not None:
                errstate.__exit__(None, None, None)
            stack.pop()
            if name == POOL_ROOT:
                self._pool_parents.pop()
        counts = counter(args, kwargs, result) if counter is not None else None
        self.spans.append(Span(sid, name, layer, start, end, parent, threading.get_ident(), counts))
        return result

    def _wrap(self, name, layer, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, layer, fn, args, kwargs, counter)

        return wrapper

    def _wrap_inner_product(self, name, fn):
        # The node count is measured where the rule meets the integrand.
        @functools.wraps(fn)
        def wrapper(f, g, *args, **kwargs):
            seen = [0]

            def counted(x):
                seen[0] += int(np.size(x))
                return f(x)

            return self._call(name, "specfun", fn, (counted, g) + args, kwargs, lambda a, k, res: {"quad_nodes": seen[0]})

        return wrapper

    def install(self, package) -> None:
        """Wrap every layer's public functions wherever the package binds them."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if not inspect.isfunction(obj):
                    continue
                if name in INNER_PRODUCTS:
                    wrapper = self._wrap_inner_product(name, obj)
                else:
                    wrapper = self._wrap(name, layer, obj)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._rebind(holder, attr, wrapper)
        profiles = sys.modules[f"{prefix}.profiles"]
        for cls_name in PROFILE_CLASSES:
            cls = getattr(profiles, cls_name)
            wrapper = self._wrap(f"{cls_name}._evaluate", "profiles", cls.__dict__["_evaluate"])
            self._rebind(cls, "_evaluate", wrapper)

    def _rebind(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans
