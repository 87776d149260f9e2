"""The metrics registry shared by every layer of the library.

Core expansion, the three-pass workflow, and the continuous-profiling
service all report through this one registry type — and, via
:func:`get_global_metrics`, optionally through one registry instance.

A deliberately small, dependency-free design: monotonic counters,
point-in-time gauges, and a bounded latency reservoir with p50/p95/p99
quantiles, rendered in the Prometheus text exposition format so a
``curl`` of an exposed ``/metrics`` endpoint drops straight into existing
scrape pipelines. Every rendered scrape carries a
``pgmp_metrics_render_timestamp_seconds`` gauge so staleness of the
scrape itself is observable.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = [
    "LATENCY_WINDOW",
    "RENDER_QUANTILES",
    "ServiceMetrics",
    "get_global_metrics",
]

#: How many recent latency observations the quantile reservoir keeps.
#: Bounded so a long-lived aggregator's memory stays flat; quantiles are
#: therefore over a sliding window, which is what operators want anyway.
LATENCY_WINDOW = 2048

#: Quantiles exposed on every latency summary (nearest-rank, so p99 is
#: exact over the window rather than an estimate).
RENDER_QUANTILES = (0.5, 0.95, 0.99)

#: Name of the render-age gauge stamped into every scrape.
RENDER_TIMESTAMP_GAUGE = "metrics_render_timestamp_seconds"


class ServiceMetrics:
    """Thread-safe counters/gauges/latency for one service process."""

    def __init__(self, namespace: str = "pgmp") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        #: counter name -> {sorted (label, value) tuple -> count}
        self._labeled: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
        self._gauges: dict[str, float] = {}
        #: gauge name -> {sorted (label, value) tuple -> value}
        self._labeled_gauges: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
        self._help: dict[str, str] = {}
        self._latencies: dict[str, deque[float]] = {}
        self.describe(
            RENDER_TIMESTAMP_GAUGE,
            "Unix time this scrape was rendered (gauge age = scrape staleness)",
        )

    # -- recording ---------------------------------------------------------

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to ``name`` (idempotent)."""
        with self._lock:
            self._help[name] = help_text

    def inc(self, name: str, by: float = 1) -> None:
        """Bump a monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def inc_labeled(
        self, name: str, labels: dict[str, str], by: float = 1
    ) -> None:
        """Bump one labeled series of a counter (e.g. a per-reason
        breakdown). The unlabeled total, if any, is tracked separately by
        :meth:`inc` — callers that want both bump both."""
        if not labels:
            raise ValueError("inc_labeled requires at least one label")
        key = tuple(sorted(labels.items()))
        with self._lock:
            series = self._labeled.setdefault(name, {})
            series[key] = series.get(key, 0) + by

    def labeled_counter(self, name: str, labels: dict[str, str]) -> float:
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._labeled.get(name, {}).get(key, 0)

    def labeled_series(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        """All labeled samples of ``name`` (label-tuple -> count)."""
        with self._lock:
            return dict(self._labeled.get(name, {}))

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0)

    def set_labeled_gauge(
        self, name: str, labels: dict[str, str], value: float
    ) -> None:
        """Set one labeled series of a gauge (e.g. per-shard liveness)."""
        if not labels:
            raise ValueError("set_labeled_gauge requires at least one label")
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._labeled_gauges.setdefault(name, {})[key] = value

    def labeled_gauge(self, name: str, labels: dict[str, str]) -> float:
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._labeled_gauges.get(name, {}).get(key, 0)

    def drop_labeled_gauge(self, name: str, labels: dict[str, str]) -> None:
        """Forget one labeled gauge series (a shard removed from the ring
        must stop being scraped, not linger at its last value)."""
        key = tuple(sorted(labels.items()))
        with self._lock:
            series = self._labeled_gauges.get(name)
            if series is not None:
                series.pop(key, None)
                if not series:
                    del self._labeled_gauges[name]

    def observe_latency(self, name: str, seconds: float) -> None:
        """Record one latency sample into ``name``'s sliding window."""
        with self._lock:
            window = self._latencies.get(name)
            if window is None:
                window = self._latencies[name] = deque(maxlen=LATENCY_WINDOW)
            window.append(seconds)

    def latency_quantile(self, name: str, q: float) -> float:
        """The ``q``-quantile (0..1) of recent samples; 0.0 when empty.

        Nearest-rank over the sorted window — exact for the window, cheap,
        and deterministic for tests. ``q=0.99`` is the p99 the service
        dashboards alert on.
        """
        with self._lock:
            samples = sorted(self._latencies.get(name, ()))
        return self._quantile_of(samples, q)

    def latency_count(self, name: str) -> int:
        with self._lock:
            return len(self._latencies.get(name, ()))

    # -- introspection -----------------------------------------------------

    def undocumented_names(self) -> list[str]:
        """Metric names recorded without a :meth:`describe` HELP line.

        The help-coverage gate: the test suite asserts this is empty for
        every metric the service layer emits, so no scrape ever ships a
        help-less metric.
        """
        with self._lock:
            recorded = (
                set(self._counters)
                | set(self._labeled)
                | set(self._gauges)
                | set(self._labeled_gauges)
                | set(self._latencies)
            )
            return sorted(recorded - set(self._help))

    def help_for(self, name: str) -> str | None:
        with self._lock:
            return self._help.get(name)

    # -- rendering ---------------------------------------------------------

    def render(self, now: float | None = None) -> str:
        """The Prometheus text exposition of everything recorded.

        Stamps :data:`RENDER_TIMESTAMP_GAUGE` with ``now`` (default
        ``time.time()``), so the scrape's own age is a first-class metric.
        """
        self.set_gauge(RENDER_TIMESTAMP_GAUGE, time.time() if now is None else now)
        with self._lock:
            counters = dict(self._counters)
            labeled = {name: dict(series) for name, series in self._labeled.items()}
            gauges = dict(self._gauges)
            labeled_gauges = {
                name: dict(series)
                for name, series in self._labeled_gauges.items()
            }
            help_text = dict(self._help)
            latencies = {
                name: sorted(window) for name, window in self._latencies.items()
            }
        lines: list[str] = []
        for name in sorted(set(counters) | set(labeled)):
            full = f"{self.namespace}_{name}"
            if name in help_text:
                lines.append(f"# HELP {full} {help_text[name]}")
            lines.append(f"# TYPE {full} counter")
            if name in counters:
                lines.append(f"{full} {_format_value(counters[name])}")
            for key in sorted(labeled.get(name, ())):
                rendered = ",".join(f'{k}="{v}"' for k, v in key)
                lines.append(
                    f"{full}{{{rendered}}} "
                    f"{_format_value(labeled[name][key])}"
                )
        for name in sorted(set(gauges) | set(labeled_gauges)):
            full = f"{self.namespace}_{name}"
            if name in help_text:
                lines.append(f"# HELP {full} {help_text[name]}")
            lines.append(f"# TYPE {full} gauge")
            if name in gauges:
                lines.append(f"{full} {_format_value(gauges[name])}")
            for key in sorted(labeled_gauges.get(name, ())):
                rendered = ",".join(f'{k}="{v}"' for k, v in key)
                lines.append(
                    f"{full}{{{rendered}}} "
                    f"{_format_value(labeled_gauges[name][key])}"
                )
        for name in sorted(latencies):
            samples = latencies[name]
            full = f"{self.namespace}_{name}_seconds"
            if name in help_text:
                lines.append(f"# HELP {full} {help_text[name]}")
            lines.append(f"# TYPE {full} summary")
            for q in RENDER_QUANTILES:
                if samples:
                    rank = min(len(samples) - 1, max(0, int(q * len(samples))))
                    value = samples[rank]
                else:
                    value = 0.0
                lines.append(
                    f'{full}{{quantile="{q}"}} {_format_value(value)}'
                )
            lines.append(f"{full}_count {len(samples)}")
            lines.append(f"{full}_sum {_format_value(sum(samples))}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """All values as a JSON-friendly dict (for the stats frame)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "labeled_counters": {
                    name: {
                        ",".join(f"{k}={v}" for k, v in key): count
                        for key, count in series.items()
                    }
                    for name, series in self._labeled.items()
                },
                "gauges": dict(self._gauges),
                "labeled_gauges": {
                    name: {
                        ",".join(f"{k}={v}" for k, v in key): value
                        for key, value in series.items()
                    }
                    for name, series in self._labeled_gauges.items()
                },
                "latency_counts": {
                    name: len(window) for name, window in self._latencies.items()
                },
                "latency_quantiles": {
                    name: {
                        str(q): self._quantile_of(sorted(window), q)
                        for q in RENDER_QUANTILES
                    }
                    for name, window in self._latencies.items()
                },
            }

    @staticmethod
    def _quantile_of(ordered: list[float], q: float) -> float:
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# -- the process-wide registry ------------------------------------------------

_GLOBAL_METRICS: ServiceMetrics | None = None
_GLOBAL_LOCK = threading.Lock()


def get_global_metrics() -> ServiceMetrics:
    """The process-wide registry core expansion and the workflow report to.

    Service processes still get a private registry per aggregator (so two
    aggregators in one test process don't cross-pollinate), but ambient
    library activity — expansions, traces, three-pass runs — lands here,
    where a ``pgmp serve --metrics-port`` scrape or a debugging session
    can read it.
    """
    global _GLOBAL_METRICS
    with _GLOBAL_LOCK:
        if _GLOBAL_METRICS is None:
            metrics = ServiceMetrics()
            metrics.describe("expansions_total", "Scheme programs expanded")
            metrics.describe(
                "pyast_expansions_total", "Python functions macro-expanded"
            )
            metrics.describe(
                "three_pass_runs_total", "Three-pass workflow invocations"
            )
            metrics.describe("traces_total", "Decision-provenance traces collected")
            metrics.describe(
                "artifact_cache_hits_total",
                "Compiled-artifact cache hits (no re-expansion or recompile)",
            )
            metrics.describe(
                "artifact_cache_misses_total",
                "Compiled-artifact cache misses (expansion + codegen ran)",
            )
            metrics.describe(
                "artifact_compiles_total",
                "Scheme programs translated to Python by the compiled backend",
            )
            metrics.describe(
                "backend_fallbacks_total",
                "Runs the compiled backend handed back to the interpreter "
                "(labeled samples break the total down by reason)",
            )
            metrics.describe(
                "artifact_verify_passes_total",
                "Compiled artifacts that passed static translation validation",
            )
            metrics.describe(
                "artifact_verify_failures_total",
                "Compiled artifacts rejected by static translation validation",
            )
            metrics.describe(
                "samples_total",
                "Sampling events observed by the sampling profiler "
                "(pre-scaling, across both engines)",
            )
            metrics.describe(
                "sampled_datasets_total",
                "Data sets recorded from sampled (sub-instrumented) runs",
            )
            metrics.describe(
                "confidence_degradations_total",
                "profile_query results routed through degrade() because "
                "the merged sampling confidence was too low",
            )
            _GLOBAL_METRICS = metrics
        return _GLOBAL_METRICS
