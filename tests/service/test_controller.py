"""Drift measurement and the online recompilation controller."""

import pytest

from repro.core.counters import CounterSet
from repro.core.database import ProfileDatabase
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service.controller import (
    RecompilationLog,
    RecompileController,
    weight_drift,
)
from repro.obs.metrics import ServiceMetrics


def _point(n: int) -> ProfilePoint:
    return ProfilePoint.for_location(SourceLocation("c.ss", n, n + 1))


def _db(counts: dict[int, int]) -> ProfileDatabase:
    counters = CounterSet(name="ctrl")
    for n, count in counts.items():
        counters.increment(_point(n), by=count)
    db = ProfileDatabase()
    db.record_counters(counters)
    return db


# -- weight_drift ---------------------------------------------------------------


def test_drift_of_identical_mappings_is_zero():
    weights = {"a": 0.5, "b": 1.0}
    assert weight_drift(weights, weights) == 0.0
    assert weight_drift({}, {}) == 0.0


def test_drift_is_the_largest_single_move():
    before = {"a": 0.2, "b": 0.9}
    after = {"a": 0.25, "b": 0.5}
    assert weight_drift(before, after) == pytest.approx(0.4)


def test_drift_counts_new_and_vanished_points():
    assert weight_drift({}, {"a": 1.0}) == 1.0
    assert weight_drift({"a": 0.7}, {}) == pytest.approx(0.7)


def test_drift_is_symmetric():
    before, after = {"a": 0.1}, {"a": 0.9, "b": 0.3}
    assert weight_drift(before, after) == weight_drift(after, before)


# -- RecompileController --------------------------------------------------------


def test_no_data_no_baseline_skips():
    calls = []
    controller = RecompileController(lambda db: calls.append(db))
    decision = controller.maybe_recompile(ProfileDatabase())
    assert not decision.recompiled
    assert decision.reason == "no profile data yet"
    assert calls == []
    assert controller.artifact() is None


def test_first_data_always_recompiles():
    controller = RecompileController(lambda db: "artifact-1", threshold=0.9)
    decision = controller.maybe_recompile(_db({1: 10, 2: 5}))
    assert decision.recompiled
    assert decision.reason == "first optimization"
    assert decision.drift == 1.0  # hottest point went 0 -> 1
    assert decision.generation == 1
    assert controller.artifact() == "artifact-1"
    assert controller.baseline_weights() is not None
    assert decision.pause_seconds >= 0.0


def test_within_threshold_keeps_the_artifact():
    controller = RecompileController(lambda db: object(), threshold=0.5)
    controller.maybe_recompile(_db({1: 10, 2: 5}))
    first = controller.artifact()
    # Same ratios -> same weights -> zero drift.
    decision = controller.maybe_recompile(_db({1: 20, 2: 10}))
    assert not decision.recompiled
    assert decision.reason == "drift within threshold"
    assert controller.artifact() is first
    assert controller.generation == 1


def test_drift_past_threshold_swaps():
    artifacts = iter(["gen1", "gen2"])
    controller = RecompileController(lambda db: next(artifacts), threshold=0.3)
    controller.maybe_recompile(_db({1: 10, 2: 5}))
    # Point 2 goes from weight 0.5 to 1.0 and point 1 from 1.0 to 0.1.
    decision = controller.maybe_recompile(_db({1: 1, 2: 10}))
    assert decision.recompiled
    assert decision.reason == "drift exceeded threshold"
    assert controller.artifact() == "gen2"
    assert controller.generation == 2


def test_failed_recompile_changes_nothing():
    controller = RecompileController(lambda db: "ok", threshold=0.1)
    controller.maybe_recompile(_db({1: 10}))
    baseline = controller.baseline_weights()

    def explode(db):
        raise RuntimeError("compiler on fire")

    controller._recompile = explode
    with pytest.raises(RuntimeError):
        controller.maybe_recompile(_db({2: 10}))
    assert controller.artifact() == "ok"
    assert controller.baseline_weights() == baseline
    assert controller.generation == 1


def test_decisions_are_logged_and_metrics_recorded():
    log = RecompilationLog()
    metrics = ServiceMetrics()
    controller = RecompileController(
        lambda db: "a", threshold=0.5, log=log, metrics=metrics
    )
    controller.maybe_recompile(ProfileDatabase())
    controller.maybe_recompile(_db({1: 3}))
    controller.maybe_recompile(_db({1: 6}))
    assert len(log) == 3
    assert len(log.recompilations()) == 1
    assert metrics.counter("recompilations_total") == 1
    assert metrics.gauge("recompile_generation") == 1
    assert metrics.latency_count("recompile_pause") == 1
    assert "gen 1" in str(log.recompilations()[0])


def test_threshold_must_be_a_probability():
    with pytest.raises(ValueError):
        RecompileController(lambda db: None, threshold=1.5)
    with pytest.raises(ValueError):
        RecompileController(lambda db: None, threshold=-0.1)
