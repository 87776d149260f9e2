"""Confidence on the service wire: delta serialization, shipper tagging,
and the aggregator's per-dataset merge, checkpoint, and stats surface."""

import json

import pytest

from repro.core.counters import CounterSet
from repro.core.errors import DeltaFormatError, ServiceError
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.profiling import DatasetConfidence, relative_error_bar
from repro.service import ProfileAggregator, ProfileShipper
from repro.service.delta import ProfileDelta

POINTS = [
    ProfilePoint.for_location(SourceLocation("w.ss", n, n + 1)) for n in range(3)
]


def _delta(seq=1, shipper="w1", confidence=None, counts=None):
    return ProfileDelta(
        shipper=shipper,
        seq=seq,
        dataset="requests",
        counts=counts if counts is not None else {POINTS[0].key(): 40},
        confidence=confidence,
    )


# -- the wire format ----------------------------------------------------------


def test_exact_delta_omits_the_confidence_field():
    # v1 byte-compatibility: exact deltas serialize exactly as before.
    assert "confidence" not in _delta().to_json_object()
    assert (
        "confidence"
        not in _delta(confidence=DatasetConfidence.exact()).to_json_object()
    )


def test_sampled_delta_round_trips_confidence():
    conf = DatasetConfidence.sampled(40, 10)
    obj = _delta(confidence=conf).to_json_object()
    assert obj["confidence"]["mode"] == "sampled"
    rebuilt = ProfileDelta.from_json_object(json.loads(json.dumps(obj)))
    assert rebuilt.confidence is not None
    assert rebuilt.confidence.samples == 40
    assert rebuilt.confidence.scale == 10.0
    assert rebuilt.confidence.error_bar == pytest.approx(
        conf.error_bar, abs=1e-6
    )


def test_malformed_confidence_is_a_delta_format_error():
    obj = _delta().to_json_object()
    obj["confidence"] = {"mode": "sampled", "samples": "many", "scale": 10.0}
    with pytest.raises(DeltaFormatError, match="confidence"):
        ProfileDelta.from_json_object(obj)


def test_v1_delta_without_confidence_reads_as_exact():
    obj = _delta().to_json_object()
    assert ProfileDelta.from_json_object(obj).confidence is None


# -- the shipper --------------------------------------------------------------


def test_shipper_tags_flushed_deltas_with_confidence():
    counters = CounterSet(name="requests")
    with ProfileAggregator("127.0.0.1:0") as agg:
        with ProfileShipper(
            counters, agg.address, sample_scale=10.0
        ) as shipper:
            counters.increment(POINTS[0], by=400)  # reconstructed counts
            delta = shipper.flush()
    assert delta is not None and delta.confidence is not None
    assert delta.confidence.is_sampled
    assert delta.confidence.samples == 40
    assert delta.confidence.scale == 10.0


def test_shipper_without_sample_scale_ships_exact_deltas():
    counters = CounterSet(name="requests")
    with ProfileAggregator("127.0.0.1:0") as agg:
        with ProfileShipper(counters, agg.address) as shipper:
            counters.increment(POINTS[0], by=400)
            delta = shipper.flush()
    assert delta is not None and delta.confidence is None


def test_shipper_rejects_bad_sample_scale():
    with pytest.raises(ServiceError):
        ProfileShipper(CounterSet(name="ds"), "127.0.0.1:1", sample_scale=0.5)


# -- the aggregator -----------------------------------------------------------


def test_aggregator_merges_confidence_across_shippers():
    agg = ProfileAggregator("127.0.0.1:0")
    for name, samples in (("w1", 30), ("w2", 70)):
        frame = _delta(
            shipper=name,
            confidence=DatasetConfidence.sampled(samples, 10),
        ).to_json_object()
        assert agg.handle_frame(frame)["status"] == "applied"
    db = agg.merged_database()
    summary = db.confidence_summary()
    assert summary is not None
    assert summary.samples == 100
    assert summary.scale == 10.0
    assert summary.error_bar == pytest.approx(
        relative_error_bar(100, 10.0), abs=1e-6
    )
    assert agg.metrics.counter("sampled_deltas_total") == 2


def test_untagged_deltas_stay_exact_by_default():
    agg = ProfileAggregator("127.0.0.1:0")
    assert agg.handle_frame(_delta().to_json_object())["status"] == "applied"
    assert agg.merged_database().confidence_summary() is None
    assert agg.metrics.counter("sampled_deltas_total") == 0


def test_stats_frame_surfaces_dataset_confidence():
    agg = ProfileAggregator("127.0.0.1:0")
    agg.handle_frame(
        _delta(confidence=DatasetConfidence.sampled(40, 10)).to_json_object()
    )
    stats = agg.handle_frame({"type": "stats"})
    (entry,) = [
        ds for ds in stats["datasets"].values() if ds["name"] == "requests"
    ]
    assert entry["confidence"]["mode"] == "sampled"
    assert entry["confidence"]["samples"] == 40


def test_checkpoint_restores_confidence(tmp_path):
    state = str(tmp_path / "state.json")
    agg = ProfileAggregator("127.0.0.1:0", state_path=state)
    agg.handle_frame(
        _delta(confidence=DatasetConfidence.sampled(40, 10)).to_json_object()
    )
    assert agg.checkpoint()

    resumed = ProfileAggregator("127.0.0.1:0", state_path=state)
    summary = resumed.merged_database().confidence_summary()
    assert summary is not None
    assert summary.samples == 40
    assert summary.scale == 10.0
    # A duplicate of the already-applied delta is dropped by the ledger
    # and must not double-count confidence either.
    assert (
        resumed.handle_frame(
            _delta(
                confidence=DatasetConfidence.sampled(40, 10)
            ).to_json_object()
        )["status"]
        == "duplicate"
    )
    assert resumed.merged_database().confidence_summary().samples == 40


def test_end_to_end_sampled_ship_merges_confidence():
    """Two sampled workers; the aggregator's merged database pools their
    observed events into one tighter record."""
    with ProfileAggregator("127.0.0.1:0") as agg:
        for name in ("w1", "w2"):
            counters = CounterSet(name="requests")
            counters.increment(POINTS[0], by=300)
            counters.increment(POINTS[1], by=100)
            with ProfileShipper(
                counters, agg.address, shipper_id=name, sample_scale=4.0
            ) as shipper:
                shipper.flush()
        summary = agg.merged_database().confidence_summary()
    assert summary is not None
    assert summary.samples == 200  # (300 + 100) / 4 per worker, pooled
    assert summary.scale == 4.0
    assert agg.total_counts() == 800
