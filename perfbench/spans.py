"""Spans recorded by wrapping library functions where their callers bind them.

A hook replaces one module attribute, for example ``cptsim.sim.rk4_superop``,
with a wrapper that records a span: its name, start, end and the index of
the enclosing span.  Calls made through that binding are timed; calls made
through another binding are not, so each layer is hooked in every module
that calls it.

A target that no longer exists is reported as absent instead of raising.
Its time then shows up as self time of the enclosing span, so a renamed or
replaced helper stays measurable with an unchanged benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


class Tracer:
    """Collects spans in memory; ``restore`` puts the original functions back."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def hook(self, target: str, name: str, on_return=None):
        """Wrap the function bound at ``target`` ("package.module.attr").

        on_return, if given, is called with the span name and the result
        of every call; it must not keep the result alive.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(target)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_return is not None:
                on_return(name, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def layer_times(spans: list[list], excluded: str | None = None) -> dict[str, dict]:
    """Per span name: call count, total duration and self time in seconds.

    Self time is the duration minus the time covered by direct child
    spans.  Spans nest strictly in single-threaded code, so the children
    of one span never overlap and their durations add up.  Spans named
    ``excluded`` are left out, and so is their time from every span that
    encloses them.
    """
    covered = [0.0] * len(spans)
    hidden = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
        if name == excluded:
            while parent is not None:
                hidden[parent] += end - start
                parent = spans[parent][3]
    out: dict[str, dict] = {}
    for (name, start, end, _), child, gone in zip(spans, covered, hidden):
        if name == excluded:
            continue
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start - gone
        entry["self_s"] += end - start - child
    return out
