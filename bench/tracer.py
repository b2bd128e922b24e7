"""In-memory span tracer for the benchmark's traced run.

The tracer wraps loomalg functions and methods at layer boundaries from
outside the package: it changes nothing under src/.  Modules bind many
names with `from .x import y`, so a function is replaced in every loomalg
namespace that holds it, not only in the module that defines it; a name
patched in one place only would record nothing while its layer is busy.
Methods are replaced on their class.  `uninstall` restores every
binding.

Per span name the tracer keeps the call count, the inclusive time of the
outermost calls (recursive calls are not counted twice) and the self time
(time not covered by any other traced span).  Hooks add counters at the
same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class SpanStat:
    __slots__ = ("calls", "inclusive", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(SpanStat)
        # counters and distinct-input sets filled by boundary hooks
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        # index of the running document; part of every distinct-input key
        self.doc = 0
        # child-time accumulators of the open spans, innermost last
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, before=None, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stat.calls += 1
            stat.depth += 1
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.self_time += elapsed - child[0]
                if stat.depth == 0:
                    stat.inclusive += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch_function(self, module, attr, name, before=None, after=None):
        """Replace module.attr in every loomalg namespace bound to it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, before, after)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("loomalg"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, after=after))
        self._restore.append((cls, attr, original))

    def patch_table(self, table, key, name):
        """Wrap the handler of a (title, handler) dispatch-table entry."""
        title, handler = table[key]
        table[key] = (title, self._wrap(name, handler))
        self._restore.append((table, key, (title, handler)))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()
