"""``repro.obs`` — the end-to-end observability spine.

One dependency-free subsystem gives every entry point (library facade,
:class:`~repro.harness.flows.FlowRunner`, the CLI, and
:class:`~repro.service.KernelService`) the same two instruments:

* **trace spans** (:mod:`.trace`) — a hierarchical, contextvar-propagated
  span tree over the five pipeline phases (``frontend``, ``vectorize``,
  ``encode``, ``jit``, ``vm``) plus ``service`` request spans, exported
  as JSONL and rendered by ``repro trace``;
* **metrics** (:mod:`.metrics`) — counters/gauges/histograms fed by the
  VM engines (cycles, instructions, traps), the JIT (loops vectorized /
  scalarized, degradations), the kernel cache (hit/miss/quarantine),
  admission/breakers, and the parallel harness (retries, timeouts,
  crashes).

Both are **disabled by default** and near-free when disabled: every call
site goes through a guarded helper that performs one global ``None``
check and returns (measured <5% on the served engine's throughput by
``benchmarks/bench_obs_overhead.py``, gated in CI).

Typical use::

    from repro import obs

    with obs.recording() as ob:
        runner.run(inst, "split_vec_gcc4cli", "sse")
    ob.write_trace("t.jsonl")      # render with: repro trace t.jsonl
    ob.write_metrics("m.json")

See ``docs/observability.md`` for the span taxonomy, metric catalogue,
and the JSONL schema.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .render import (
    TraceFormatError,
    load_trace,
    phase_rollup,
    render_trace,
)
from .trace import (
    NULL_SPAN,
    PHASES,
    Span,
    TraceRecorder,
    active_tracer,
    current_span,
    install_tracer,
    span,
    uninstall_tracer,
)

__all__ = [
    "PHASES",
    "Span",
    "TraceRecorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Observation",
    "span",
    "current_span",
    "count",
    "observe",
    "gauge",
    "metrics",
    "enabled",
    "recording",
    "install",
    "uninstall",
    "active_tracer",
    "TraceFormatError",
    "load_trace",
    "render_trace",
    "phase_rollup",
]

from . import trace as _trace_mod

#: module-global active registry; ``None`` = metrics disabled.
_METRICS: MetricsRegistry | None = None


def metrics() -> MetricsRegistry | None:
    """The active registry, or None when metrics are disabled."""
    return _METRICS


def enabled() -> bool:
    """True when a trace recorder or metrics registry is installed."""
    return _trace_mod._TRACER is not None or _METRICS is not None


# -- guarded feed helpers (the one-None-check hot path) -----------------------


def count(name: str, n: float = 1) -> None:
    """Increment counter ``name`` if metrics are enabled; else no-op."""
    m = _METRICS
    if m is not None:
        m.counter(name).inc(n)


def observe(name: str, value: float, bounds=DEFAULT_BUCKETS) -> None:
    """Record ``value`` into histogram ``name`` if metrics are enabled."""
    m = _METRICS
    if m is not None:
        m.histogram(name, bounds).observe(value)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` if metrics are enabled; else no-op."""
    m = _METRICS
    if m is not None:
        m.gauge(name).set(value)


# -- session management -------------------------------------------------------


@dataclass
class Observation:
    """Handle to one recording session: the recorder + registry pair."""

    trace: TraceRecorder | None
    metrics: MetricsRegistry | None

    def spans(self) -> list[Span]:
        return self.trace.snapshot() if self.trace is not None else []

    def write_trace(self, path: str) -> None:
        if self.trace is None:
            raise ValueError("this observation was started without tracing")
        self.trace.write_jsonl(path)

    def write_metrics(self, path: str) -> None:
        if self.metrics is None:
            raise ValueError("this observation was started without metrics")
        self.metrics.write_json(path)

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot() if self.metrics is not None else {}


def install(
    trace: TraceRecorder | None = None,
    registry: MetricsRegistry | None = None,
) -> tuple[TraceRecorder | None, MetricsRegistry | None]:
    """Install a recorder/registry pair; returns the previous pair."""
    global _METRICS
    prev_tracer = install_tracer(trace)
    prev_metrics = _METRICS
    _METRICS = registry
    return prev_tracer, prev_metrics


def uninstall() -> None:
    """Disable tracing and metrics (back to the near-zero-cost mode)."""
    install(None, None)


@contextmanager
def recording(trace: bool = True, metrics: bool = True):
    """Enable observability for a region; restores the previous state.

    Yields an :class:`Observation` whose recorder/registry stay readable
    after the ``with`` block exits (export happens *after* the region so
    every span is finished).
    """
    rec = TraceRecorder() if trace else None
    reg = MetricsRegistry() if metrics else None
    prev = install(rec, reg)
    try:
        yield Observation(rec, reg)
    finally:
        install(*prev)
