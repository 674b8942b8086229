"""Per-layer tracing from outside the program.

The package calls its layers through module attributes (`integrands` calls
`log_bessel_ik`, `quadrature` calls `dlog_cross`, `cli` calls `sample_curve`
and `regularize`, ...).  Rebinding those attributes to timing wrappers for
the duration of a traced round gives call counts, inclusive times and self
times without touching `src/`.  Self time is a span's duration minus the
durations of the traced spans nested inside it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("calls", "incl", "self_time", "durations", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.results: list[object] = []


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._stack: list[float] = []

    def wrap(self, name: str, fn, keep: bool = False):
        """Time every call of fn under `name`; with keep, also record each
        call's duration and return value."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                span.calls += 1
                span.incl += dt
                span.self_time += dt - nested
                if stack:
                    stack[-1] += dt
            if keep:
                span.durations.append(dt)
                span.results.append(result)
            return result

        return traced

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())


@contextmanager
def patched(tracer: Tracer, bindings):
    """Rebind (module, attribute, span name, keep) for the body, then restore."""
    saved = []
    try:
        for module, attr, name, keep in bindings:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, keep))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
