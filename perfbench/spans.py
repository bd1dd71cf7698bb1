"""Spans around calls into the nomajspa layers, recorded from outside the package.

A Tracer replaces module and class attributes, at the names the callers look
up, with wrappers that time each call and open one `count_ops` scope for it.
Counting scopes do not add into their parent, so each scope yields the span's
self ops directly; self time is the span's duration minus its child spans.

Spans are folded into per-name aggregates as they close instead of being
kept one by one: the item-selection search alone makes tens of thousands of
calls per solve. Per-call durations are kept only for the names listed in
`keep_calls`, which are called a few times per solve.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from nomajspa.ops import count_ops


@dataclass
class LayerStats:
    """Aggregate of every closed span of one layer."""

    calls: int = 0
    seconds: float = 0.0          # inclusive wall time
    self_seconds: float = 0.0     # minus the time covered by child spans
    self_ops: int = 0
    ops: int = 0                  # inclusive: self ops plus all descendants
    info: dict = field(default_factory=dict)    # summed per-call facts
    per_call: list = field(default_factory=list)  # (seconds, self_seconds)


class _Open:
    __slots__ = ("child_seconds", "child_ops")

    def __init__(self):
        self.child_seconds = 0.0
        self.child_ops = 0


@contextmanager
def patched(sites, wrap):
    """Replace each (owner, attribute) by wrap(original); restore on exit."""
    saved = []
    try:
        for owner, attr in sites:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_name(fn) -> str:
    """'jspa.opt_jspa' for nomajspa.jspa.opt_jspa, by the defining module."""
    module = fn.__module__.split(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """Collects per-layer aggregates while its wrappers are installed.

    `inspect` maps a layer name to a function of (args, result) that returns
    a dict of numbers to add into that layer's `info`.
    """

    def __init__(self, keep_calls=(), inspect=None):
        self.stats: dict[str, LayerStats] = {}
        self.keep_calls = frozenset(keep_calls)
        self.inspect = dict(inspect or {})
        self._stack: list[_Open] = []

    def wrap(self, fn):
        name = layer_name(fn)
        stats = self.stats.setdefault(name, LayerStats())
        keep = name in self.keep_calls
        inspect = self.inspect.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Open()
            stack.append(frame)
            start = time.perf_counter()
            try:
                with count_ops() as counter:
                    result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
            self_seconds = seconds - frame.child_seconds
            inclusive_ops = counter.total + frame.child_ops
            if stack:
                stack[-1].child_seconds += seconds
                stack[-1].child_ops += inclusive_ops
            stats.calls += 1
            stats.seconds += seconds
            stats.self_seconds += self_seconds
            stats.self_ops += counter.total
            stats.ops += inclusive_ops
            if keep:
                stats.per_call.append((seconds, self_seconds))
            if inspect is not None:
                for key, value in inspect(args, result).items():
                    stats.info[key] = stats.info.get(key, 0) + value
            return result

        return wrapper

    def installed(self, sites):
        """Wrap every (owner, attribute) site for the duration of the block."""
        return patched(sites, self.wrap)

    def get(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())
