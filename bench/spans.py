"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the momrev modules from
outside the package (the package itself is not edited) and records one
span per call: name, start, end, parent. Spans are kept in memory and
aggregated when the run ends; self time is a span's duration minus the
durations of its direct children.

Conv2d calls also accumulate FLOPs and bytes computed from the tensor
shapes (not measured by hardware counters).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

NO_PARENT = -1


def conv_cost(x_shape, w_shape, y_shape, itemsize, backward):
    """Computed (flop, bytes) of one Conv2d forward or backward call.

    Forward: 2*B*Co*Ci*kh*kw*OH*OW multiply-adds; reads input and weights,
    writes output. Backward does that work twice (weight grad and input
    grad); reads input, output grad and weights, writes input grad and
    weight grad.
    """
    b = x_shape[0] if len(x_shape) == 4 else 1
    co, ci, kh, kw = w_shape
    oh, ow = y_shape[-2], y_shape[-1]
    flop = 2 * b * co * ci * kh * kw * oh * ow
    x_n = b * ci * x_shape[-2] * x_shape[-1]
    y_n = b * co * oh * ow
    w_n = co * ci * kh * kw
    if backward:
        return 2 * flop, itemsize * (2 * x_n + y_n + 2 * w_n)
    return flop, itemsize * (x_n + y_n + w_n)


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def installed(self, targets):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans as rows [name, start, end, parent, root]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.amounts = Counter()  # (root index, key) -> accumulated amount

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        idx = len(self.spans)
        root = self.spans[parent][4] if parent != NO_PARENT else idx
        self.spans.append([name, self.clock(), None, parent, root])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield idx
        finally:
            self.exit(idx)

    def add(self, key: str, amount) -> None:
        """Accumulate a computed amount (e.g. FLOPs) under the open root span."""
        if self._stack:
            self.amounts[(self._stack[0], key)] += amount

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch (owner, attribute, span name[, on_return]) targets; restore on exit."""
        saved = []
        try:
            for owner, attr, name, *hook in targets:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, *hook))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == NO_PARENT and s[0] == name]

    def aggregate(self, root_name: str, skip: int = 0):
        """Per-name totals over spans under the roots called `root_name`,
        leaving out the first `skip` of those roots.

        Returns (number of roots, {name: {"calls", "ms", "self_ms"}},
        list of per-root Counters of calls by name and of `add` amounts by key).
        """
        roots = self.roots(root_name)[skip:]
        root_set = set(roots)
        child_ms = defaultdict(float)
        for s in self.spans:
            if s[3] != NO_PARENT:
                child_ms[s[3]] += s[2] - s[1]
        totals = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        per_root = {r: Counter() for r in roots}
        for i, (name, start, end, _parent, root) in enumerate(self.spans):
            if root not in root_set:
                continue
            dur = end - start
            t = totals[name]
            t["calls"] += 1
            t["ms"] += 1e3 * dur
            t["self_ms"] += 1e3 * (dur - child_ms[i])
            per_root[root][name] += 1
        for (root, key), amount in self.amounts.items():
            if root in root_set:
                per_root[root][key] += amount
        return len(roots), dict(totals), [per_root[r] for r in roots]

    def export(self):
        """Spans as [name, start_us, end_us, parent] with times from the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[n, round(1e6 * (a - t0), 1), round(1e6 * (b - t0), 1), p]
                for n, a, b, p, _r in self.spans]
