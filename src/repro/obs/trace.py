"""Hierarchical trace spans: the toolchain's attribution backbone.

The paper's split-compilation argument is quantitative — every offline
cost-model decision must be attributable to an online outcome — so the
spine records *where time goes* as a tree of spans covering the five
pipeline phases (``frontend``, ``vectorize``, ``encode``, ``jit``,
``vm``) plus service request spans.  Design constraints, in order:

1. **Near-zero cost when disabled.**  No recorder installed means
   :func:`span` returns a shared no-op context manager after one global
   ``None`` check — no Span object, no attribute dict copies, no clock
   reads.  The disabled-mode overhead on the served engine's
   throughput is measured by ``benchmarks/bench_obs_overhead.py`` and
   gated <5% in CI.
2. **Dependency-free.**  Standard library only (``contextvars``,
   ``threading``, ``json``, ``time``); importable from every layer
   without cycles.
3. **Thread-correct.**  Parenthood propagates through a
   :class:`contextvars.ContextVar`, so spans opened on a service worker
   thread nest under that thread's request span and never under another
   request's.  The recorder itself is shared and lock-protected.

Spans are exported as JSONL — one JSON object per line, schema in
``docs/observability.md`` — and rendered back into a phase-attributed
tree by ``repro trace`` (:mod:`repro.obs.render`).
"""

from __future__ import annotations

import contextvars
import io
import json
import threading
import time
from contextlib import contextmanager

__all__ = [
    "PHASES",
    "Span",
    "TraceRecorder",
    "span",
    "current_span",
    "install_tracer",
    "active_tracer",
    "uninstall_tracer",
]

#: The canonical phase taxonomy.  ``flow``/``pipeline``/``service`` are
#: roots; the five pipeline phases are the attribution leaves the
#: acceptance tests assert on.
PHASES = (
    "frontend",   # VaporC lex/parse/sema/lower (offline)
    "vectorize",  # the offline auto-vectorizer (split or native config)
    "encode",     # bytecode encode + decode round-trip (the wire format)
    "jit",        # online materialization + backend (per target)
    "vm",         # cycle-cost execution on an engine
)

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: module-global active recorder; ``None`` = tracing disabled.
_TRACER: "TraceRecorder | None" = None


class Span:
    """One timed region.  Created only while a recorder is installed."""

    __slots__ = (
        "name", "phase", "span_id", "parent_id", "trace_id",
        "start_s", "dur_s", "attrs", "_t0",
    )

    def __init__(
        self,
        name: str,
        phase: str,
        span_id: int,
        parent_id: int | None,
        trace_id: int,
        start_s: float,
        attrs: dict,
    ) -> None:
        self.name = name
        self.phase = phase
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start_s = start_s
        self.dur_s: float | None = None
        self.attrs = attrs
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach structured attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "phase": self.phase,
            "start_s": round(self.start_s, 9),
            "dur_s": None if self.dur_s is None else round(self.dur_s, 9),
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, phase={self.phase!r}, "
                f"id={self.span_id}, parent={self.parent_id}, "
                f"dur={self.dur_s})")


class _NullSpan:
    """The shared disabled-mode context manager: enter/exit/set are no-ops
    and ``__enter__`` returns itself so call sites never branch on None."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager produced by :func:`span` while recording."""

    __slots__ = ("_rec", "_span", "_token")

    def __init__(self, rec: "TraceRecorder", name: str, phase: str,
                 attrs: dict) -> None:
        self._rec = rec
        self._span = rec._start(name, phase, attrs)
        self._token = None

    def __enter__(self) -> Span:
        s = self._span
        self._token = _CURRENT.set(s)
        s._t0 = time.perf_counter()
        return s

    def __exit__(self, exc_type, exc, tb) -> bool:
        s = self._span
        s.dur_s = time.perf_counter() - s._t0
        if exc is not None and "error" not in s.attrs:
            s.attrs["error"] = type(exc).__name__
        if self._token is not None:
            _CURRENT.reset(self._token)
        self._rec._finish(s)
        return False


class TraceRecorder:
    """Collects finished spans; thread-safe; exports JSONL.

    Span ids are allocated in start order; ``start_s`` is measured from
    the recorder's creation on the monotonic clock, so every exported
    number is non-negative and meaningful within one recording session.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._next_id = 1
        self.spans: list[Span] = []

    # -- span lifecycle (called from _SpanContext) ------------------------

    def _start(self, name: str, phase: str, attrs: dict) -> Span:
        parent = _CURRENT.get()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        if parent is not None:
            parent_id: int | None = parent.span_id
            trace_id = parent.trace_id
        else:
            parent_id = None
            trace_id = sid
        return Span(
            name, phase, sid, parent_id, trace_id,
            time.perf_counter() - self._epoch, attrs,
        )

    def _finish(self, s: Span) -> None:
        with self._lock:
            self.spans.append(s)

    # -- export -----------------------------------------------------------

    def snapshot(self) -> list[Span]:
        """Finished spans, ordered by start (stable under concurrency)."""
        with self._lock:
            spans = list(self.spans)
        return sorted(spans, key=lambda s: s.span_id)

    def to_jsonl(self) -> str:
        buf = io.StringIO()
        for s in self.snapshot():
            buf.write(json.dumps(s.to_dict(), sort_keys=True,
                                 default=_json_default))
            buf.write("\n")
        return buf.getvalue()

    def write_jsonl(self, path: str) -> None:
        """Export crash-safely (tempfile + fsync + rename)."""
        from ..service.cache import atomic_write

        atomic_write(path, self.to_jsonl().encode())


def _json_default(obj):
    """Spans may carry numpy scalars or arbitrary objects as attributes;
    the export degrades them to floats/strings rather than failing."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


# -- module-level API ---------------------------------------------------------


def span(name: str, phase: str = "", **attrs):
    """Open a span; the hot no-op when no recorder is installed.

    Usage::

        with obs.span("vm", phase="vm", target="sse") as sp:
            result = run(...)
            sp.set(cycles=result.cycles)
    """
    rec = _TRACER
    if rec is None:
        return NULL_SPAN
    return _SpanContext(rec, name, phase, attrs)


def current_span() -> Span | None:
    """The innermost open span on this thread/context (None if none)."""
    return _CURRENT.get()


def active_tracer() -> TraceRecorder | None:
    """The installed recorder, or None when tracing is disabled."""
    return _TRACER


def install_tracer(rec: TraceRecorder | None) -> TraceRecorder | None:
    """Install ``rec`` as the process-global recorder; returns the
    previous one (so callers can restore it)."""
    global _TRACER
    prev = _TRACER
    _TRACER = rec
    return prev


def uninstall_tracer() -> None:
    """Disable tracing (``span()`` reverts to the shared no-op)."""
    install_tracer(None)


@contextmanager
def _tracing(rec: TraceRecorder):
    prev = install_tracer(rec)
    try:
        yield rec
    finally:
        install_tracer(prev)
