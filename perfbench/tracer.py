"""In-memory span tracer that wraps functions from outside the program.

Each wrapped call is one span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it, so nested spans split the time
without double counting.  Spans are aggregated per name as they close
(calls, total seconds, self seconds); nothing is written until the caller
reads :attr:`Tracer.stats`.

The tracer is single-threaded: it keeps one span stack, which matches the
serial default runner of ``gqlab.harness.run``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects per-name span statistics from the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # one entry per open span: the summed duration of its closed children
        self._child_s: list[float] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        stats = self.stats.setdefault(name, SpanStats())
        clock = self.clock
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - inner

        return traced

    @contextmanager
    def installed(self, targets: dict[str, list[tuple[object, str]]]):
        """Patch every ``(owner, attribute)`` pair for the ``with`` body.

        ``targets`` maps a span name to the places callers look the function
        up, such as a module global and another module's ``from`` import of
        it.  All places for one name must hold the same function; they get
        one shared wrapper.  Every original is put back on exit, also when
        the body raises.
        """
        saved: list[tuple[object, str, object]] = []
        try:
            for name, places in targets.items():
                originals = {id(getattr(owner, attr)) for owner, attr in places}
                if len(originals) != 1:
                    raise ValueError(f"span {name!r} targets different functions")
                owner, attr = places[0]
                wrapped = self.wrap(name, getattr(owner, attr))
                for owner, attr in places:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
