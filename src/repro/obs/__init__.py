"""Observability for profile-guided meta-programming.

One umbrella for the telemetry the library emits about *itself*:

* :mod:`repro.obs.tracer` — decision-provenance tracing (spans, query
  events, :class:`DecisionRecord`), off by default with a
  zero-allocation fast path;
* :mod:`repro.obs.export` — text / versioned-JSON / Chrome
  ``trace_event`` exporters with byte-identical deterministic output;
* :mod:`repro.obs.explain` — the ``pgmp explain`` answer for one
  ``FILE:LINE``;
* :mod:`repro.obs.metrics` — the Prometheus-style metrics registry;
* :mod:`repro.obs.logs` — the ``repro`` stdlib-logging hierarchy.
"""

from __future__ import annotations

from repro.obs.export import (
    decisions_from_json_object,
    render_chrome_trace,
    render_trace_json,
    render_trace_text,
    trace_to_json_object,
)
from repro.obs.explain import decision_cause, explain_at, parse_at
from repro.obs.logs import LOG_LEVELS, configure_logging, get_logger
from repro.obs.metrics import (
    LATENCY_WINDOW,
    RENDER_QUANTILES,
    ServiceMetrics,
    get_global_metrics,
)
from repro.obs.tracer import (
    SPAN_KINDS,
    TRACE_SCHEMA_VERSION,
    DecisionRecord,
    QueryEvent,
    Span,
    TraceEvent,
    Tracer,
    active_tracer,
    decision_margin,
    maybe_span,
    set_decision_record_hook,
    using_tracer,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SPAN_KINDS",
    "DecisionRecord",
    "QueryEvent",
    "TraceEvent",
    "Span",
    "Tracer",
    "active_tracer",
    "using_tracer",
    "maybe_span",
    "set_decision_record_hook",
    "decision_margin",
    "trace_to_json_object",
    "render_trace_json",
    "render_trace_text",
    "render_chrome_trace",
    "decisions_from_json_object",
    "explain_at",
    "parse_at",
    "decision_cause",
    "ServiceMetrics",
    "get_global_metrics",
    "LATENCY_WINDOW",
    "RENDER_QUANTILES",
    "configure_logging",
    "get_logger",
    "LOG_LEVELS",
]
