"""Span tracing of cnotsynth's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the
named cnotsynth modules by a timing wrapper.  It patches the module
attribute and every other binding of the same function object in the
package, which covers names that callers imported with ``from .x import
f``.  Nothing in the program changes; ``uninstall`` puts the originals
back.

Spans nest through a stack.  Each finished span is folded into a call-path
tree (``a/b/c``) of calls, inclusive seconds, self seconds (inclusive
minus the time of child spans) and counters, so memory stays bounded
however many calls a run makes.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict


class _Node:
    __slots__ = ("calls", "s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counters = defaultdict(float)


class Tracer:
    """Collects spans of wrapped functions into a call-path tree.

    ``labels`` maps a span name to a function of (args, kwargs) giving a
    suffix, so one function can be split by an argument.  ``counters`` maps
    a span name to a function of (args, kwargs, result) giving a dict of
    counts to add to the span.
    """

    def __init__(self, labels=None, counters=None):
        self.labels = labels or {}
        self.counters = counters or {}
        self.tree = defaultdict(_Node)
        self._stack = []  # [path, child seconds]
        self._patched = []  # (module, attribute, original)

    def install(self, package: str, modules) -> None:
        wrappers = {}
        for short in modules:
            mod = sys.modules[f"{package}.{short}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> dict:
        """Return the tree collected so far and start a new one."""
        tree, self.tree = self.tree, defaultdict(_Node)
        return tree

    def _wrap(self, name: str, fn):
        label_fn = self.labels.get(name)
        counter_fn = self.counters.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            label = name if label_fn is None else f"{name}.{label_fn(args, kwargs)}"
            path = f"{stack[-1][0]}/{label}" if stack else label
            frame = [path, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                node = self.tree[path]
                node.calls += 1
                node.s += dt
                node.self_s += dt - frame[1]
            if counter_fn is not None:
                for key, value in counter_fn(args, kwargs, result).items():
                    node.counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced


def by_function(tree: dict) -> dict:
    """Fold a call-path tree into per-function totals.

    Inclusive seconds count only the outermost span of a function on each
    path, so a function that reaches itself is not counted twice.
    """
    out = defaultdict(_Node)
    for path, node in tree.items():
        parts = path.split("/")
        agg = out[parts[-1]]
        agg.calls += node.calls
        agg.self_s += node.self_s
        if parts[-1] not in parts[:-1]:
            agg.s += node.s
        for key, value in node.counters.items():
            agg.counters[key] += value
    return out


def tree_to_json(tree: dict) -> dict:
    return {
        path: {"calls": node.calls, "s": node.s, "self_s": node.self_s, **node.counters}
        for path, node in sorted(tree.items())
    }
