"""Per-layer tracing of eprmux by wrapping its public functions.

``LayerTracer.install`` replaces every public function of the package's
modules, in every module namespace that refers to it, with a wrapper that
times the call and subtracts the time of traced calls made inside it.  The
result per function is its self time and its call count; a layer's figure is
the sum over its functions.  The wrappers cost a few microseconds per call,
so the end-to-end figures come from untraced runs.

Only calls made while ``enabled`` is true are recorded, which lets the
benchmark switch tracing off around its own correctness checks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("gaussian", "optics", "criteria", "multiplex", "mcdsp", "config", "cli")

# Methods traced in addition to the modules' public functions.
_METHODS = {
    "gaussian.GaussianState.construct": ("gaussian", "GaussianState", "__post_init__"),
    "gaussian.GaussianState.mode_index": ("gaussian", "GaussianState", "mode_index"),
    "gaussian.GaussianState.validate": ("gaussian", "GaussianState", "validate"),
}


def _synthesized_samples(result) -> int:
    return sum(int(record.size) for record in result)


# Quantities counted from a traced function's return value.
_COUNTERS = {"mcdsp.synthesize_records": ("mcdsp.samples_synthesized", _synthesized_samples)}


class LayerTracer:
    def __init__(self) -> None:
        self.enabled = False
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # calls of an inner function made while an outer one is active,
        # keyed "outer>inner"
        self.nested: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        self.self_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            for outer in {frame[0] for frame in stack}:
                key = f"{outer}>{name}"
                tracer.nested[key] = tracer.nested.get(key, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer.self_s[name] += elapsed - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                key, count = counter
                tracer.counters[key] = tracer.counters.get(key, 0) + count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every eprmux module, in place."""
        package = importlib.import_module("eprmux")
        modules = {name: importlib.import_module(f"eprmux.{name}") for name in MODULES}
        wrappers = {}
        for name, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{name}.{attr}", obj)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, attr, wrappers[obj])
        for name, (module, cls, method) in _METHODS.items():
            owner = getattr(modules[module], cls)
            setattr(owner, method, self._wrap(name, getattr(owner, method)))

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "nested": dict(self.nested),
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict) -> None:
        """Add the figures of another process's tracer to this one."""
        for field in ("self_s", "calls", "nested", "counters"):
            mine = getattr(self, field)
            for key, value in snap[field].items():
                mine[key] = mine.get(key, 0) + value
