"""In-memory span tracer for the benchmark's traced run.

Spans are recorded in the benchmark's own code: either explicitly with
`Tracer.span`, or by replacing a public name with a recording wrapper in
the module that looks it up at call time (for example
`advlab.bench.runner.run_attack`, which `run_experiment` resolves as a
module global). A name that no longer exists is recorded as missing, so
the metrics that depend on it are reported absent instead of crashing
the run.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    pass_id: str
    attrs: dict = field(default_factory=dict)
    end: float = 0.0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans. Explicit spans are no-ops unless `enabled`; wrapped
    names record until `restore` puts the originals back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, list[str]] = {}  # span name -> missing wrapped names
        self.enabled = False
        self.pass_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- recording ------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.pass_id, attrs or {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs)

    # --- wrapping public names -----------------------------------------

    def wrap(self, owner, attr: str, name, produces=(), before=None, after=None) -> None:
        """Replace owner.attr with a wrapper that records a span.

        `name` is the span name, or a function of the call arguments that
        returns it (None skips recording); `produces` then lists the names
        it can return. `before(args, kwargs)` returns extra span
        attributes; `after(result, attrs)` adds attributes from the return
        value.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        orig = getattr(owner, attr, None)
        if orig is None:
            for span_name in [name] if isinstance(name, str) else produces:
                self.missing.setdefault(span_name, []).append(label)
            return
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs)
            if span_name is None:
                return orig(*args, **kwargs)
            idx = tracer.open(span_name, before(args, kwargs) if before else None)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, type(exc).__name__)
                raise
            if after is not None:
                after(result, tracer.spans[idx].attrs)
            tracer.close(idx)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every wrapped name back."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs
        self.idx = None

    def __enter__(self):
        if self.tracer.enabled:
            self.idx = self.tracer.open(self.name, self.attrs)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.idx is not None:
            self.tracer.close(self.idx, exc_type.__name__ if exc_type else None)
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out
