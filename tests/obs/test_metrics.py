"""The promoted obs metrics registry: p99, HELP coverage, render age."""

from repro.obs.metrics import (
    RENDER_QUANTILES,
    RENDER_TIMESTAMP_GAUGE,
    ServiceMetrics,
)
from repro.service.aggregator import ProfileAggregator
from repro.service.controller import RecompileController


def test_p99_quantile_is_rendered():
    assert 0.99 in RENDER_QUANTILES
    m = ServiceMetrics()
    for i in range(1, 101):
        m.observe_latency("ingest_latency", i / 100.0)
    assert m.latency_quantile("ingest_latency", 0.99) == 1.0
    assert 'quantile="0.99"' in m.render()


def test_render_stamps_timestamp_gauge():
    m = ServiceMetrics()
    text = m.render(now=123.5)
    assert f"pgmp_{RENDER_TIMESTAMP_GAUGE} 123.5" in text
    assert m.gauge(RENDER_TIMESTAMP_GAUGE) == 123.5


def test_timestamp_gauge_has_help():
    m = ServiceMetrics()
    m.render()
    assert m.undocumented_names() == []
    assert m.help_for(RENDER_TIMESTAMP_GAUGE)


def test_undocumented_names_flags_missing_help():
    m = ServiceMetrics()
    m.inc("mystery_total")
    assert m.undocumented_names() == ["mystery_total"]
    m.describe("mystery_total", "No longer a mystery")
    assert m.undocumented_names() == []


def test_every_service_metric_has_help_in_a_real_scrape():
    """No help-less names: every metric the aggregator + controller can
    emit carries a ``# HELP`` line in the rendered exposition."""
    metrics = ServiceMetrics()
    aggregator = ProfileAggregator(
        listen="tcp://127.0.0.1:0", metrics=metrics
    )
    controller = RecompileController(lambda db: object(), metrics=metrics)
    # Touch the controller-set gauges the way a recompile would.
    metrics.set_gauge("recompile_generation", 1)
    metrics.set_gauge("recompile_decisions_changed", 0)
    text = metrics.render()
    assert aggregator is not None and controller is not None
    assert metrics.undocumented_names() == []
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name = line.split("{")[0].split(" ")[0]
        base = name.removeprefix("pgmp_")
        if not metrics.help_for(base):
            # Latency summaries render as <name>_seconds{,_count,_sum}.
            for suffix in ("_seconds_count", "_seconds_sum", "_seconds"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
                    break
        assert metrics.help_for(base), f"metric without HELP: {name}"


# -- labeled counters ----------------------------------------------------------


def test_labeled_counter_accumulates_per_label_set():
    m = ServiceMetrics()
    m.inc_labeled("backend_fallbacks_total", {"reason": "nested-define"})
    m.inc_labeled("backend_fallbacks_total", {"reason": "nested-define"}, 2)
    m.inc_labeled("backend_fallbacks_total", {"reason": "other"})
    assert (
        m.labeled_counter("backend_fallbacks_total", {"reason": "nested-define"})
        == 3
    )
    assert m.labeled_counter("backend_fallbacks_total", {"reason": "other"}) == 1
    assert m.labeled_counter("backend_fallbacks_total", {"reason": "never"}) == 0


def test_labeled_key_is_order_insensitive():
    m = ServiceMetrics()
    m.inc_labeled("x_total", {"a": "1", "b": "2"})
    m.inc_labeled("x_total", {"b": "2", "a": "1"})
    assert m.labeled_counter("x_total", {"b": "2", "a": "1"}) == 2
    assert m.labeled_series("x_total") == {(("a", "1"), ("b", "2")): 2}


def test_empty_labels_are_a_programming_error():
    import pytest

    m = ServiceMetrics()
    with pytest.raises(ValueError, match="at least one label"):
        m.inc_labeled("x_total", {})


def test_labeled_samples_render_within_one_family():
    m = ServiceMetrics()
    m.describe("backend_fallbacks_total", "Interpreter fallbacks")
    m.inc("backend_fallbacks_total", 3)
    m.inc_labeled("backend_fallbacks_total", {"reason": "nested-define"}, 2)
    m.inc_labeled("backend_fallbacks_total", {"reason": "other"})
    text = m.render()
    assert text.count("# HELP pgmp_backend_fallbacks_total") == 1
    assert text.count("# TYPE pgmp_backend_fallbacks_total counter") == 1
    assert "pgmp_backend_fallbacks_total 3" in text
    assert 'pgmp_backend_fallbacks_total{reason="nested-define"} 2' in text
    assert 'pgmp_backend_fallbacks_total{reason="other"} 1' in text


def test_snapshot_includes_labeled_counters():
    m = ServiceMetrics()
    m.inc_labeled("backend_fallbacks_total", {"reason": "other"})
    snap = m.snapshot()
    assert snap["labeled_counters"] == {
        "backend_fallbacks_total": {"reason=other": 1}
    }


def test_fallback_reason_slugs_are_low_cardinality():
    from repro.scheme.pipeline import fallback_reason_slug

    assert fallback_reason_slug("nested define") == "nested-define"
    assert (
        fallback_reason_slug("expand-time form TemplateExpr at run time")
        == "expand-time-form"
    )
    assert (
        fallback_reason_slug("cannot translate constant of type Procedure")
        == "untranslatable-constant"
    )
    assert fallback_reason_slug("core form WeirdExpr") == "unsupported-core-form"
    assert fallback_reason_slug("anything else") == "other"


def test_pipeline_fallback_is_labeled_by_reason():
    from repro.obs.metrics import get_global_metrics
    from repro.scheme.pipeline import SchemeSystem

    metrics = get_global_metrics()
    labels = {"reason": "expand-time-form"}
    before = metrics.labeled_counter("backend_fallbacks_total", labels)
    system = SchemeSystem(backend="compile")
    program = system.compile("(define stx #'(a b)) (pair? 1)", "<fb>")
    system.run(program)
    assert (
        metrics.labeled_counter("backend_fallbacks_total", labels) == before + 1
    )
