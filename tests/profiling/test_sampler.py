"""The sampling engines: run subsetting and the per-point stride gate
that the Scheme and pyast substrates share."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterSet
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.profiling import RunSampler, SamplingCollector
from repro.pyast.profiler import collecting_counters
from repro.pyast.system import PyAstSystem

POINTS = [
    ProfilePoint.for_location(SourceLocation("s.ss", n, n + 1)) for n in range(3)
]


# -- RunSampler: whole-run subsetting for pgmp ship ---------------------------


def test_run_sampler_gates_first_and_every_stride_th_run():
    sampler = RunSampler(3)
    pattern = [sampler.gate() for _ in range(9)]
    assert pattern == [True, False, False] * 3


def test_run_sampler_stride_one_instruments_every_run():
    sampler = RunSampler(1)
    assert all(sampler.gate() for _ in range(5))


def test_run_sampler_rejects_bad_stride():
    with pytest.raises(ValueError):
        RunSampler(0)


def test_fold_scales_counts_and_accumulates_samples():
    sampler = RunSampler(4)
    shipping = CounterSet(name="ds")

    run = CounterSet(name="ds")
    run.increment(POINTS[0], by=7)
    run.increment(POINTS[1], by=3)
    assert sampler.fold(run, shipping) == 10

    run2 = CounterSet(name="ds")
    run2.increment(POINTS[0], by=5)
    assert sampler.fold(run2, shipping) == 5

    assert sampler.samples == 15
    assert shipping.count(POINTS[0]) == 48  # (7 + 5) * 4
    assert shipping.count(POINTS[1]) == 12  # 3 * 4


def test_fold_of_empty_run_is_a_noop():
    sampler = RunSampler(4)
    shipping = CounterSet(name="ds")
    assert sampler.fold(CounterSet(name="ds"), shipping) == 0
    assert sampler.samples == 0
    assert shipping.total() == 0


# -- SamplingCollector: the per-point stride gate -----------------------------


def test_gate_collector_reconstruction_is_unbiased_on_multiples():
    inner = CounterSet(name="ds")
    gate = SamplingCollector(inner, 5)
    for _ in range(100):
        gate.increment(POINTS[0])
    # 100 events at stride 5: 20 passes, each bumping by 5.
    assert inner.count(POINTS[0]) == 100


def test_gate_collector_residue_bounds_the_error():
    inner = CounterSet(name="ds")
    gate = SamplingCollector(inner, 10)
    for _ in range(37):
        gate.increment(POINTS[0])
    # Only whole strides land; at most stride-1 events sit in the residue.
    assert inner.count(POINTS[0]) == 30


def test_gate_collector_handles_bulk_increments():
    inner = CounterSet(name="ds")
    gate = SamplingCollector(inner, 10)
    gate.increment(POINTS[0], by=25)
    assert inner.count(POINTS[0]) == 20
    gate.increment(POINTS[0], by=5)
    assert inner.count(POINTS[0]) == 30


def test_gate_collector_tracks_points_independently():
    inner = CounterSet(name="ds")
    gate = SamplingCollector(inner, 4)
    for _ in range(8):
        gate.increment(POINTS[0])
    for _ in range(3):
        gate.increment(POINTS[1])
    assert inner.count(POINTS[0]) == 8
    assert inner.count(POINTS[1]) == 0  # still in the residue table


def test_gate_collector_clear_resets_everything():
    inner = CounterSet(name="ds")
    gate = SamplingCollector(inner, 3)
    for _ in range(7):
        gate.increment(POINTS[0])
    gate.clear()
    assert inner.total() == 0
    # The residues were zeroed too: a fresh stride starts over.
    gate.increment(POINTS[0])
    assert inner.count(POINTS[0]) == 0


def test_gate_collector_rejects_bad_stride():
    with pytest.raises(ValueError):
        SamplingCollector(CounterSet(name="ds"), 0)


def test_gate_at_stride_one_is_the_counter_set_itself():
    inner = CounterSet(name="ds")
    assert SamplingCollector(inner, 1) is inner
    gate = SamplingCollector(inner, 4)
    assert SamplingCollector(gate, 1) is gate
    assert gate.inner is inner and gate.stride == 4


#: (point index, by) events: ``by`` events of one point, as a run's fold
#: adds one site's count.
STREAMS = st.lists(
    st.tuples(st.integers(0, len(POINTS) - 1), st.integers(1, 6)),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(stream=STREAMS, stride=st.integers(1, 12))
def test_gate_stays_within_one_stride_of_exact(stream, stride):
    exact = CounterSet(name="ds")
    by_increment = CounterSet(name="ds")
    by_bumps = CounterSet(name="ds")
    gate = SamplingCollector(by_increment, stride)
    bumping = SamplingCollector(by_bumps, stride)
    assert (gate is by_increment) == (stride == 1)

    def replay():
        for index, by in stream:
            gate.increment(POINTS[index], by)
            for _ in range(by):
                bumping.increment(POINTS[index])

    for index, by in stream:
        exact.increment(POINTS[index], by)
    replay()
    first = by_increment.snapshot()
    assert by_bumps.snapshot() == first
    for point in POINTS:
        sampled = by_increment.count(point)
        assert 0 <= exact.count(point) - sampled < stride
        assert sampled % stride == 0

    gate.clear()
    bumping.clear()
    assert by_increment.total() == 0 and by_bumps.total() == 0
    replay()
    assert by_increment.snapshot() == first
    assert by_bumps.snapshot() == first


# -- the pyast hook through the gate -----------------------------------------


def _hook_loop(times: int, key: str) -> None:
    from repro.pyast.profiler import profile_hook

    for _ in range(times):
        profile_hook(key, lambda: None)


def test_sampling_collector_gate_engine_collects_scaled_counts():
    counters = CounterSet(name="ds")
    with collecting_counters(SamplingCollector(counters, 5)):
        _hook_loop(100, POINTS[0].key())
        _hook_loop(13, POINTS[1].key())
    assert counters.count(POINTS[0]) == 100
    assert counters.count(POINTS[1]) == 10


def test_sampling_collector_stops_collecting_on_exit():
    counters = CounterSet(name="ds")
    with collecting_counters(SamplingCollector(counters, 5)):
        _hook_loop(10, POINTS[0].key())
    _hook_loop(50, POINTS[0].key())
    assert counters.count(POINTS[0]) == 10


def test_sampling_collector_rejects_unknown_engine():
    # The stride gate is the one engine; "auto" and "monitoring" are gone.
    system = PyAstSystem()
    for engine in ("psychic", "auto", "monitoring"):
        with pytest.raises(ValueError, match="engine"):
            system.profile_sampled(lambda: None, [()], engine=engine)
    assert system.profile_db.point_count() == 0
