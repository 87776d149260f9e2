"""DatasetConfidence: validation, serialization, merging, and the
reconstruction math it is built on."""

import math

import pytest

from repro.core.counters import CounterSet
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.profiling import (
    DEFAULT_ERROR_BAR_THRESHOLD,
    DatasetConfidence,
    confidence_for_counts,
    merge_confidences,
    relative_error_bar,
)
from repro.profiling.confidence import annotate_profile_load_span

POINT = ProfilePoint.for_location(SourceLocation("f.ss", 0, 5))


# -- the error-bar math -------------------------------------------------------


def test_exact_scale_has_zero_error_bar():
    assert relative_error_bar(1000, 1.0) == 0.0
    assert relative_error_bar(0, 1.0) == 0.0


def test_empty_sample_is_maximally_uncertain():
    assert relative_error_bar(0, 10.0) == 1.0
    assert relative_error_bar(-3, 10.0) == 1.0


def test_error_bar_matches_normal_approximation():
    # n=100 observed events at scale 10: 1.96 * sqrt(9 / 1000).
    expected = 1.96 * math.sqrt(9.0 / 1000.0)
    assert relative_error_bar(100, 10.0) == pytest.approx(expected)


def test_error_bar_clamped_to_one():
    assert relative_error_bar(1, 1000.0) == 1.0


def test_error_bar_shrinks_with_more_samples():
    bars = [relative_error_bar(n, 10.0) for n in (10, 100, 1000, 10000)]
    assert bars == sorted(bars, reverse=True)
    assert bars[-1] < DEFAULT_ERROR_BAR_THRESHOLD


def test_default_threshold_cleared_by_realistic_datasets():
    # The documented property: at the default rate (10) a few hundred
    # observed events clear the degradation threshold.
    assert relative_error_bar(250, 10.0) < DEFAULT_ERROR_BAR_THRESHOLD
    assert relative_error_bar(20, 10.0) > DEFAULT_ERROR_BAR_THRESHOLD


# -- reconstruction -----------------------------------------------------------


def test_confidence_for_counts_recovers_observed_events():
    counters = CounterSet(name="ds")
    counters.increment(POINT, by=500)  # already stride-scaled counts
    conf = confidence_for_counts(counters, 10.0)
    assert conf.is_sampled
    assert conf.samples == 50
    assert conf.scale == 10.0
    assert conf.error_bar == pytest.approx(relative_error_bar(50, 10.0))


def test_confidence_for_counts_accepts_plain_mapping():
    conf = confidence_for_counts({"a": 40, "b": 20}, 4.0)
    assert conf.samples == 15


def test_confidence_for_counts_is_none_for_exact_data():
    # Scale 1 is exact collection: no record, whatever the counts.
    counters = CounterSet(name="ds")
    counters.increment(POINT, by=500)
    assert confidence_for_counts(counters, 1) is None
    assert confidence_for_counts({"a": 7}, 1.0) is None


def test_confidence_for_counts_rejects_bad_scale():
    with pytest.raises(ValueError):
        confidence_for_counts({"a": 1}, 0.0)


# -- the record itself --------------------------------------------------------


def test_exact_constructor():
    conf = DatasetConfidence.exact()
    assert not conf.is_sampled
    assert not conf.is_low()
    assert conf.error_bar == 0.0
    assert conf.describe() == "exact"


def test_sampled_constructor_computes_error_bar():
    conf = DatasetConfidence.sampled(100, 10)
    assert conf.is_sampled
    assert conf.samples == 100
    assert conf.scale == 10.0
    assert conf.error_bar == pytest.approx(relative_error_bar(100, 10.0))


def test_is_low_respects_threshold():
    starved = DatasetConfidence.sampled(5, 50)
    healthy = DatasetConfidence.sampled(5000, 10)
    assert starved.is_low()
    assert not healthy.is_low()
    # Exact records are never low, whatever the threshold.
    assert not DatasetConfidence.exact().is_low(threshold=0.0)


def test_describe_sampled():
    text = DatasetConfidence.sampled(64, 10).describe()
    assert text.startswith("sampled ±")
    assert "n=64" in text
    assert "scale 10x" in text


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="guessed", samples=1, scale=1.0, error_bar=0.0),
        dict(mode="sampled", samples=-1, scale=2.0, error_bar=0.5),
        dict(mode="sampled", samples=1, scale=0.5, error_bar=0.5),
        dict(mode="sampled", samples=1, scale=2.0, error_bar=1.5),
        dict(mode="sampled", samples=1, scale=2.0, error_bar=-0.1),
    ],
)
def test_validation_rejects_malformed_records(kwargs):
    with pytest.raises(ValueError):
        DatasetConfidence(**kwargs)


def test_json_round_trip_preserves_fields():
    conf = DatasetConfidence.sampled(123, 7)
    back = DatasetConfidence.from_json_object(conf.to_json_object())
    assert back.mode == conf.mode
    assert back.samples == conf.samples
    assert back.scale == conf.scale
    # error_bar is rounded to 6 decimals on the wire.
    assert back.error_bar == pytest.approx(conf.error_bar, abs=1e-6)


@pytest.mark.parametrize(
    "obj",
    [
        "not-an-object",
        {"mode": 3, "samples": 1, "scale": 2.0, "error_bar": 0.5},
        {"mode": "sampled", "samples": "many", "scale": 2.0, "error_bar": 0.5},
        {"mode": "sampled", "samples": True, "scale": 2.0, "error_bar": 0.5},
        {"mode": "sampled", "samples": 1, "scale": "big", "error_bar": 0.5},
        {"mode": "sampled", "samples": 1, "scale": 2.0, "error_bar": None},
        {"mode": "sampled", "samples": 1, "scale": 2.0, "error_bar": True},
    ],
)
def test_from_json_object_rejects_malformed_shapes(obj):
    with pytest.raises(ValueError):
        DatasetConfidence.from_json_object(obj)


# -- merging ------------------------------------------------------------------


def test_merge_of_exact_inputs_is_none():
    assert merge_confidences([]) is None
    assert merge_confidences([None, None]) is None
    assert merge_confidences([DatasetConfidence.exact(), None]) is None


def test_merge_pools_samples_and_takes_max_scale():
    merged = merge_confidences(
        [
            DatasetConfidence.sampled(30, 10),
            None,  # an exact data set alongside
            DatasetConfidence.sampled(70, 4),
        ]
    )
    assert merged is not None
    assert merged.samples == 100
    assert merged.scale == 10.0
    assert merged.error_bar == pytest.approx(relative_error_bar(100, 10.0))


def test_merge_tightens_the_error_bar():
    a = DatasetConfidence.sampled(40, 10)
    b = DatasetConfidence.sampled(40, 10)
    merged = merge_confidences([a, b])
    assert merged is not None
    assert merged.error_bar < a.error_bar
    assert merged.error_bar < b.error_bar


# -- span annotation ----------------------------------------------------------


class _FakeSpan:
    def __init__(self):
        self.attrs = {}


def test_annotate_profile_load_span_tolerates_no_span():
    annotate_profile_load_span(None, object())  # must not raise


def test_annotate_profile_load_span_exact():
    from repro.core.database import ProfileDatabase

    db = ProfileDatabase()
    counters = CounterSet(name="ds")
    counters.increment(POINT, by=3)
    db.record_counters(counters)
    span = _FakeSpan()
    annotate_profile_load_span(span, db)
    assert span.attrs == {"mode": "exact"}


def test_annotate_profile_load_span_sampled():
    from repro.core.database import ProfileDatabase

    db = ProfileDatabase()
    counters = CounterSet(name="ds")
    counters.increment(POINT, by=500)
    db.record_counters(
        counters, confidence=DatasetConfidence.sampled(50, 10)
    )
    span = _FakeSpan()
    annotate_profile_load_span(span, db)
    assert span.attrs["mode"] == "sampled"
    assert span.attrs["sampled_datasets"] == 1
    assert span.attrs["error_bar"] == pytest.approx(
        relative_error_bar(50, 10.0), abs=1e-6
    )
