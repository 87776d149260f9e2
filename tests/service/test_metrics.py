"""The metrics registry and its Prometheus text rendering."""

import threading

from repro.obs.metrics import LATENCY_WINDOW, ServiceMetrics


def test_counters_and_gauges():
    m = ServiceMetrics()
    m.inc("deltas_applied_total")
    m.inc("deltas_applied_total", 4)
    m.set_gauge("datasets", 3)
    assert m.counter("deltas_applied_total") == 5
    assert m.gauge("datasets") == 3
    assert m.counter("never_touched") == 0


def test_latency_quantiles_are_nearest_rank():
    m = ServiceMetrics()
    for i in range(1, 101):
        m.observe_latency("ingest_latency", i / 100.0)
    assert m.latency_count("ingest_latency") == 100
    assert m.latency_quantile("ingest_latency", 0.5) == 0.51
    assert m.latency_quantile("ingest_latency", 0.95) == 0.96
    assert m.latency_quantile("ingest_latency", 1.0) == 1.0
    assert m.latency_quantile("untouched", 0.5) == 0.0


def test_latency_window_is_bounded():
    m = ServiceMetrics()
    for i in range(LATENCY_WINDOW + 500):
        m.observe_latency("ingest_latency", float(i))
    assert m.latency_count("ingest_latency") == LATENCY_WINDOW
    # The oldest 500 samples fell out of the sliding window.
    assert m.latency_quantile("ingest_latency", 0.0) == 500.0


def test_render_is_prometheus_text_format():
    m = ServiceMetrics()
    m.describe("deltas_applied_total", "Profile deltas applied")
    m.inc("deltas_applied_total", 2)
    m.set_gauge("datasets", 1)
    m.observe_latency("ingest_latency", 0.25)
    text = m.render()
    assert "# HELP pgmp_deltas_applied_total Profile deltas applied" in text
    assert "# TYPE pgmp_deltas_applied_total counter" in text
    assert "pgmp_deltas_applied_total 2" in text
    assert "# TYPE pgmp_datasets gauge" in text
    assert "pgmp_datasets 1" in text
    assert "# TYPE pgmp_ingest_latency_seconds summary" in text
    assert 'pgmp_ingest_latency_seconds{quantile="0.5"} 0.25' in text
    assert "pgmp_ingest_latency_seconds_count 1" in text
    assert "pgmp_ingest_latency_seconds_sum 0.25" in text
    assert text.endswith("\n")


def test_namespace_is_configurable():
    m = ServiceMetrics(namespace="acme")
    m.inc("x")
    assert "acme_x 1" in m.render()


def test_snapshot_shape():
    m = ServiceMetrics()
    m.inc("a", 2)
    m.set_gauge("g", 7)
    m.observe_latency("l", 0.1)
    assert m.snapshot() == {
        "counters": {"a": 2},
        "labeled_counters": {},
        "gauges": {"g": 7},
        "labeled_gauges": {},
        "latency_counts": {"l": 1},
        "latency_quantiles": {"l": {"0.5": 0.1, "0.95": 0.1, "0.99": 0.1}},
    }


def test_concurrent_increments_do_not_lose_counts():
    m = ServiceMetrics()

    def bump():
        for _ in range(2_000):
            m.inc("hits")

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert m.counter("hits") == 16_000
