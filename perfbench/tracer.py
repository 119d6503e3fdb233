"""In-process spans around the package's layer boundaries.

Nothing in the package is edited: ``install`` replaces, at run time, every
public package function that one package module binds from another (for
example ``cayleyphase.scan.iterate`` or
``cayleyphase.cli.solve_ferro_fixed_points``) with a wrapper that records a
span.  Calls inside one module are not layer boundaries and are not wrapped.
Spans live in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# the package's modules, which are the layers; the kernel counts as dynamics
LAYERS = ("core", "symmetric", "ferro", "dynamics", "partition", "scan", "verify", "cli")


def layer_of(module_name: str) -> str | None:
    """Layer of a ``cayleyphase.*`` module, or None for any other module."""
    package, _, name = module_name.partition(".")
    return name if package == "cayleyphase" and name in LAYERS else None


class Tracer:
    """Records spans, one trace id per CLI call, and sums them as they end.

    A span is ``[trace_id, name, layer, parent_index, start, end, child_time]``.
    ``spans`` holds the spans since the last ``clear``; the per-layer self
    times and the per-name ``[calls, time, self time]`` cover every span
    recorded.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.trace_id = 0
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.by_name: dict[str, list] = {}
        # iterate outcomes as (fixed|cycle|aperiodic, steps): exact counts
        self.outcomes: list[tuple[str, int]] = []

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else None
        span = [self.trace_id, name, layer, parent, 0.0, 0.0, 0.0]
        stack.append(len(spans))
        spans.append(span)
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = end = time.perf_counter()
            stack.pop()
            duration = end - span[4]
            if parent is not None:
                spans[parent][6] += duration
            self.self_time[layer] += duration - span[6]
            total = self.by_name.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += duration
            total[2] += duration - span[6]

    def clear(self) -> None:
        """Drop the recorded spans, keeping the sums."""
        self.spans = []

    def _wrapper(self, fn, name: str, layer: str):
        if name == "dynamics.iterate":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = self.call(name, layer, fn, *args, **kwargs)
                kind = "fixed" if out.kind == "fixed-direction" else out.kind
                self.outcomes.append((kind, out.iterations_used))
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, layer, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every cross-module binding of a public package function."""
        wrappers = {}
        for mod_layer in LAYERS:
            mod_name = f"cayleyphase.{mod_layer}"
            module = importlib.import_module(mod_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                owner = getattr(value, "__module__", "") or ""
                layer = layer_of(owner)
                if layer is None or owner == mod_name:
                    continue
                key = id(value)
                if key not in wrappers:
                    name = f"{layer}.{value.__name__}"
                    wrappers[key] = self._wrapper(value, name, layer)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[key])
        # dynamics calls the kernel through its module object
        dynamics = importlib.import_module("cayleyphase.dynamics")
        kernel = dynamics._traj
        self._patched.append((kernel, "run_trajectory", kernel.run_trajectory))
        kernel.run_trajectory = self._wrapper(kernel.run_trajectory, "dynamics.kernel", "dynamics")

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        columns = ["trace_id", "name", "layer", "parent", "start", "end"]
        path.write_text(json.dumps({"columns": columns, "spans": [s[:6] for s in self.spans]}))
