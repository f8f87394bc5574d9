"""Per-layer tracing from outside the program, plus the cache census.

The tracer replaces each public module-level function of the traced layers
with a wrapper.  Intra-package calls go through module attributes, so the
wrappers see every call, including calls inside a layer.

* Every call is counted (`<layer>.<function>.calls`).
* A call that crosses a layer boundary opens a span: name, start, end, the
  operation id and the parent span.  A layer's self time is the time of its
  spans minus the time of their child spans.
* `kernel` primitives run millions of times per workload, so they are
  aggregated as call count plus busy time and not stored span by span;
  their time is still subtracted from the caller's span.
* Calls into the grouped functions (`polyhedron.dd`, `polyhedron.box`) always
  open a frame, so each group gets its own self time.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import Counter, defaultdict

LAYERS = (
    "kernel", "polyhedron", "lattice", "tdi", "ehrhart",
    "ideals", "combinat", "families", "cli",
)
AGGREGATED = frozenset({"kernel"})
GROUPS = {
    "polyhedron.dd": ("dd_convert", "cone_generators_to_hrep", "cone_hrep_to_generators"),
    "polyhedron.box": ("lattice_points", "relative_interior_lattice_points"),
}
# function -> (metric, size of one result): output sizes summed over calls
SIZES = {
    "lattice.hilbert_basis": ("lattice.basis_size", len),
    "tdi.is_tdi": ("tdi.faces_checked", lambda cert: len(cert.faces)),
    "ideals.closure_power": ("ideals.closure_power.gens", lambda ideal: len(ideal.gens)),
    "polyhedron.lattice_points": ("polyhedron.box.points", len),
    "polyhedron.relative_interior_lattice_points": ("polyhedron.box.points", len),
}
_GROUP_OF = {f"{g.split('.')[0]}.{fn}": g for g, fns in GROUPS.items() for fn in fns}
ROOT = "bench"


def package_modules(package: str = "clutterlab") -> dict:
    """Every importable module of the package, keyed by its short name."""
    pkg = importlib.import_module(package)
    out = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        out[info.name] = importlib.import_module(f"{package}.{info.name}")
    return out


def scan_caches(modules: dict) -> dict:
    """Every `functools.lru_cache` defined at module level, by `<module>.<name>`."""
    found = {}
    for short, mod in sorted(modules.items()):
        for attr, obj in sorted(vars(mod).items()):
            if callable(getattr(obj, "cache_info", None)) and callable(
                getattr(obj, "cache_clear", None)
            ) and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{short}.{attr}"] = obj
    return found


class CacheCensus:
    """Hit and miss totals of every cache, kept across `cache_clear` calls."""

    def __init__(self, caches: dict):
        self.caches = caches
        self.totals = {name: [0, 0] for name in caches}

    def clear(self):
        """Fold the current statistics into the totals, then empty every cache."""
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.totals[name][0] += info.hits
            self.totals[name][1] += info.misses
            fn.cache_clear()

    def reset(self):
        """Empty every cache and forget what was counted so far."""
        for fn in self.caches.values():
            fn.cache_clear()
        self.totals = {name: [0, 0] for name in self.caches}


def public_functions(mod) -> dict:
    """Public callables defined in `mod` itself (plain or lru-cached)."""
    out = {}
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        out[attr] = obj
    return out


class Tracer:
    def __init__(self, gave_up=(), clock=time.perf_counter):
        self.clock = clock
        self.gave_up_types = tuple(gave_up)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.gave_up = Counter()
        self.sizes = Counter()
        self.spans: list[tuple] = []  # (id, parent, op, function, start, end)
        self.op = None
        self.functions: list[str] = []
        self._stack = [[ROOT, 0, 0.0]]  # frames: [layer, span id, child time]
        self._next_id = 1
        self._patched: list[tuple] = []

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        self.functions.append(key)
        group = _GROUP_OF.get(key)
        size = SIZES.get(key)
        aggregated = layer in AGGREGATED
        calls = self.calls
        stack = self._stack
        clock = self.clock
        gave_up_types = self.gave_up_types

        def wrapper(*args, **kwargs):
            calls[key] += 1
            top = stack[-1]
            if top[0] == layer and group is None:
                result = fn(*args, **kwargs)
            else:
                span_id = self._next_id
                self._next_id += 1
                frame = [layer, span_id, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except gave_up_types:
                    if top[0] != layer:
                        self.gave_up[layer] += 1
                    raise
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - start
                    own = dur - frame[2]
                    self.self_s[layer] += own
                    if group is not None:
                        self.self_s[group] += own
                    top[2] += dur
                    if not aggregated:
                        self.spans.append((span_id, top[1], self.op, key, start, end))
            if size is not None:
                self.sizes[size[0]] += size[1](result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def install(self, modules: dict, layers=LAYERS):
        for layer in layers:
            mod = modules.get(layer)
            if mod is None:
                continue
            for name, fn in sorted(public_functions(mod).items()):
                self._patched.append((mod, name, fn))
                setattr(mod, name, self.wrap(layer, name, fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def metrics(self) -> dict:
        """Counters and self times by metric name; absent ones read 0."""
        out: dict = {}
        for key in self.functions:
            out[f"{key}.calls"] = self.calls[key]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.gave_up"] = self.gave_up[layer]
        for group, fns in GROUPS.items():
            layer = group.split(".")[0]
            out[f"{group}.calls"] = sum(self.calls[f"{layer}.{fn}"] for fn in fns)
            out[f"{group}.self_s"] = self.self_s[group]
        for metric, _ in SIZES.values():
            out[metric] = self.sizes[metric]
        out["trace.spans"] = len(self.spans)
        return out
