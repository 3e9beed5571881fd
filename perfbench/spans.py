"""Spans recorded from outside the program, by wrapping module attributes.

A wrapper goes on each module attribute that callers resolve at call time
(``cli.estimate``, ``sweeps.estimate``, ``vlc_link.hyp2f1``, ...), so the
program itself is unchanged.  Each span holds its name, start, end, parent,
thread and an optional note taken from the call's arguments.  Every thread has
its own stack, so spans opened inside the Monte Carlo worker threads nest
under their own thread's spans, never under the main thread's.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    note: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(),
                        note(*args, **kwargs) if note else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    def install(self, targets) -> None:
        """``targets``: iterable of (module, attribute, span name, note or None)."""
        for module, attribute, name, note in targets:
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original, note))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children (same thread) cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_time)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
