"""Span tracer installed from outside the grassbott package.

Each layer is a set of public functions.  The tracer replaces every
module global in ``grassbott.*`` that refers to one of them, so a call
is traced at whatever name its caller looks up; no source file of the
package is edited.  Every call records a span (name, start, end, parent
span, op id); spans stay in memory until :meth:`Tracer.summary`, which
turns them into per-layer call counts and self times.  A layer whose
function or lru cache is missing is reported with the reason instead of
stopping the run, so the tracer keeps working across refactors.

Stdlib only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# layer -> (module, function names); "Class.method" names a method.
LAYERS = {
    "schur.plethysm": ("grassbott.schur", ("wedge_power", "sym_power")),
    "schur.lr": ("grassbott.schur", ("lr_tensor",)),
    "schur.evaluate": ("grassbott.schur", ("evaluate",)),
    "bott.cohomology": ("grassbott.bott", ("cohomology",)),
    "bott.irreducible": ("grassbott.bott", ("bott_irreducible",)),
    "koszul.build_table": ("grassbott.koszul", ("build_table",)),
    "koszul.analyze": ("grassbott.koszul", ("analyze",)),
    "koszul.euler": ("grassbott.koszul", ("euler_restriction",)),
    "screens.screen": ("grassbott.screens", ("screen",)),
    "screens.witness": ("grassbott.screens", ("find_witnesses_41", "find_witnesses_5")),
    "theorems.scan": ("grassbott.theorems", ("scan_normality", "scan_deformation")),
    "expr.parse": ("grassbott.expr", ("parse_expr",)),
    "cli.main": ("grassbott.cli", ("main",)),
    "parallel.map": ("grassbott.parallel", ("parallel_map",)),
    "cache.get": ("grassbott.cache", ("Store.get",)),
    "cache.put": ("grassbott.cache", ("Store.put",)),
}

# lru_cache'd functions whose cache_info() is read at the end of a process.
LRU = {
    "evaluate": ("grassbott.schur", "_evaluate"),
    "cohomology": ("grassbott.bott", "_cohomology_cached"),
    "lr_pair": ("grassbott.schur", "_lr_pair"),
    "gt_character": ("grassbott.schur", "_gt_character"),
}


def _size(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []  # (op, name, parent, start, end, counted, span id)
        self.counters = defaultdict(int)
        self.missing = {}  # layer -> reason
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # counters are updated from worker threads

    def _add(self, counter: str, value) -> None:
        with self._lock:
            self.counters[counter] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, parent=None, counted=True):
        """Call ``fn`` inside a span; ``parent`` overrides the thread's
        current span (used for items running on worker threads)."""
        stack = self._stack()
        base = parent is not None and not stack
        if base:
            stack.append(parent)
        sid = next(self._ids)
        up = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if base:
                stack.pop()
            self.spans.append((self.op, name, up, start, end, counted, sid))

    def wrap(self, layer, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._run(layer, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _wrap_map(self, fn):
        """parallel_map(fn, items, ...): each item becomes an uncounted
        span named after the layer that called the map, so the caller's
        per-item code lands in the caller's self time."""

        def mapped(item_fn, items, *args, **kwargs):
            stack = self._stack()
            here = stack[-1]  # the parallel.map span
            owner = stack[-2][1] if len(stack) > 1 else "parallel.map"

            def item(x):
                start = time.perf_counter()
                try:
                    return self._run(owner, item_fn, (x,), {}, parent=here, counted=False)
                finally:
                    self._add("parallel.map.items", 1)
                    self._add("parallel.map.item_s", time.perf_counter() - start)

            start = time.perf_counter()
            try:
                return fn(item, items, *args, **kwargs)
            finally:
                self._add("parallel.map.wall_s", time.perf_counter() - start)

        return self.wrap("parallel.map", mapped)

    def _after(self, layer):
        add = self._add
        if layer == "schur.plethysm":
            def after(result, args):
                add("schur.plethysm.terms_out", _size(result))
        elif layer == "cache.get":
            def after(result, args):
                add("cache.get.misses" if result is None else "cache.get.hits", 1)
        elif layer == "cache.put":
            def after(result, args):
                add("cache.put.count", 1)
                add("cache.put.bytes", len(json.dumps(args[-1], sort_keys=True)))
        else:
            after = None
        return after

    def install(self) -> None:
        """Wrap every layer function at each name that refers to it."""
        for layer, (modname, names) in LAYERS.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError as err:
                self.missing[layer] = f"module {modname} not importable: {err}"
                continue
            for name in names:
                owner, _, attr = name.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = getattr(holder, attr, None) if holder is not None else None
                if not callable(fn):
                    self.missing[layer] = f"{modname}.{name} not found"
                    break
                if layer == "parallel.map":
                    traced = self._wrap_map(fn)
                else:
                    traced = self.wrap(layer, fn, self._after(layer))
                if owner:
                    setattr(holder, attr, traced)
                    continue
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith("grassbott"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, traced)

    def lru_info(self) -> dict:
        out = {}
        for label, (modname, attr) in LRU.items():
            try:
                info = getattr(importlib.import_module(modname), attr).cache_info()
            except (ImportError, AttributeError) as err:
                out[label] = {"reason": f"{modname}.{attr} has no cache_info ({err})"}
                continue
            out[label] = {"hits": info.hits, "misses": info.misses}
        return out

    def summary(self) -> dict:
        """Per-layer calls and self times; self time is a span's
        duration minus the part of it covered by its child spans."""
        children = defaultdict(list)
        for op, name, parent, start, end, counted, sid in self.spans:
            children[parent].append((start, end))
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "dur_s": 0.0})
        for op, name, parent, start, end, counted, sid in self.spans:
            covered = 0.0
            lo = hi = None
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, start), min(b, end)
                if b <= a:
                    continue
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            entry = layers[name]
            entry["self_s"] += (end - start) - covered
            if counted:
                entry["calls"] += 1
                entry["dur_s"] += end - start
        return {
            "layers": dict(layers),
            "counters": dict(self.counters),
            "missing": dict(self.missing),
            "lru": self.lru_info(),
            "spans": len(self.spans),
            "ops": len({s[0] for s in self.spans}),
        }
