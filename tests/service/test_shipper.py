"""The shipper client: delta cutting, backpressure, reconnect, spill."""

import errno
import socket
import threading
import time

import pytest

import repro.service.delta as wire
from repro.core.counters import CounterSet, ShardedCounterSet
from repro.core.errors import BackpressureError, DeltaFormatError, ProfileError
from repro.core.policy import ProfilePolicy
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service import ProfileAggregator, ProfileShipper
from repro.service.delta import ProfileDelta, read_frame, write_frame
from repro.service.spill import SpillLog
from repro.service.transport import FrameClient

POINTS = [
    ProfilePoint.for_location(SourceLocation("w.ss", n, n + 1)) for n in range(4)
]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _dead_address() -> str:
    return f"127.0.0.1:{_free_port()}"


@pytest.fixture
def aggregator():
    with ProfileAggregator("127.0.0.1:0") as agg:
        yield agg


def test_flush_ships_only_increments_since_last_flush(aggregator):
    counters = CounterSet(name="ds")
    with ProfileShipper(counters, aggregator.address) as shipper:
        counters.increment(POINTS[0], by=5)
        first = shipper.flush()
        assert first is not None and first.total() == 5
        counters.increment(POINTS[0], by=2)
        counters.increment(POINTS[1], by=3)
        second = shipper.flush()
        assert second is not None and second.total() == 5
        assert second.counts[POINTS[0].key()] == 2
        assert shipper.flush() is None  # nothing accumulated
    assert aggregator.total_counts() == 10
    assert shipper.shipped_deltas == 2


def test_maybe_flush_respects_threshold(aggregator):
    counters = CounterSet(name="ds")
    with ProfileShipper(
        counters, aggregator.address, flush_threshold=10
    ) as shipper:
        counters.increment(POINTS[0], by=9)
        assert shipper.maybe_flush() is None
        assert shipper.pending_counts() == 9
        counters.increment(POINTS[0], by=1)
        delta = shipper.maybe_flush()
        assert delta is not None and delta.total() == 10


def test_sharded_counters_ship_cleanly(aggregator):
    counters = ShardedCounterSet(name="ds")
    counters.increment(POINTS[0], by=4)
    with ProfileShipper(counters, aggregator.address) as shipper:
        shipper.flush()
    assert aggregator.total_counts() == 4


def test_unreachable_aggregator_buffers_and_backs_off():
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=ProfilePolicy.IGNORE,
        backoff_base=30.0,  # long enough that the retry gate stays shut
    )
    counters.increment(POINTS[0], by=3)
    assert shipper.flush() is not None
    assert shipper.shipped_deltas == 0
    assert len(shipper.lanes[0].queue) == 1
    assert shipper.lanes[0].client.retry_at > time.monotonic()
    degr = shipper.degradations.entries()
    assert any("unreachable" in entry.reason for entry in degr)


def test_backoff_schedule_is_exponential_and_capped():
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=ProfilePolicy.IGNORE,
        backoff_base=0.05,
        backoff_max=0.2,
        backoff_jitter=0.0,  # pin the nominal schedule for exact checks
    )
    delays = []
    for _ in range(4):
        shipper.lanes[0].client.retry_at = 0.0  # reopen the gate for the next attempt
        before = time.monotonic()
        counters.increment(POINTS[0])
        shipper.flush()
        delays.append(shipper.lanes[0].client.retry_at - before)
    assert delays[0] == pytest.approx(0.05, abs=0.03)
    assert delays[1] == pytest.approx(0.10, abs=0.03)
    assert delays[2] == pytest.approx(0.20, abs=0.03)
    assert delays[3] == pytest.approx(0.20, abs=0.03)  # capped


def test_backoff_jitter_decorrelates_retries():
    """The thundering-herd regression: two shippers failing in lockstep
    must not compute identical retry instants (unless jitter is 0)."""
    import random

    def delays_for(rng):
        counters = CounterSet(name="ds")
        shipper = ProfileShipper(
            counters,
            _dead_address(),
            policy=ProfilePolicy.IGNORE,
            backoff_base=0.05,
            backoff_max=100.0,  # never capped: pure schedule comparison
            backoff_jitter=0.5,
            rng=rng,
        )
        out = []
        for _ in range(4):
            shipper.lanes[0].client.retry_at = 0.0
            before = time.monotonic()
            counters.increment(POINTS[0])
            shipper.flush()
            out.append(shipper.lanes[0].client.retry_at - before)
        return out

    a = delays_for(random.Random(1))
    b = delays_for(random.Random(2))
    assert a != b  # de-correlated schedules
    for i, (da, db) in enumerate(zip(a, b)):
        nominal = 0.05 * (2**i)
        # each delay stays within ±50% of its nominal exponential step
        # (loose upper slack for scheduler latency between the failure
        # and the clock read)
        assert 0.5 * nominal <= da <= 1.5 * nominal + 0.05
        assert 0.5 * nominal <= db <= 1.5 * nominal + 0.05
    # determinism: the same seed reproduces the same schedule (modulo
    # clock noise), which is what makes jitter testable at all
    c = delays_for(random.Random(1))
    assert all(abs(x - y) < 0.05 for x, y in zip(a, c))


def test_queue_overflow_without_spill_drops_oldest():
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=ProfilePolicy.IGNORE,
        max_pending=2,
        backoff_base=30.0,
    )
    for _ in range(4):
        counters.increment(POINTS[0])
        shipper.flush()
    assert len(shipper.lanes[0].queue) == 2
    assert shipper.dropped_deltas == 2
    # The queue holds the *newest* deltas; the oldest were sacrificed.
    assert [delta.seq for delta in shipper.lanes[0].queue] == [3, 4]


def test_queue_overflow_under_strict_raises_backpressure():
    from repro.core.errors import ProfileError

    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=ProfilePolicy.STRICT,
        max_pending=1,
        backoff_base=30.0,
    )
    counters.increment(POINTS[0])
    # Strict surfaces the unreachable aggregator immediately; the delta
    # stays queued for whoever catches and retries.
    with pytest.raises(ProfileError):
        shipper.flush()
    counters.increment(POINTS[0])
    with pytest.raises(BackpressureError):
        shipper.flush()
    assert shipper.dropped_deltas == 1, "the lost delta is still counted"


def test_queue_overflow_spills_to_disk_and_replays(tmp_path):
    spill_path = tmp_path / "spill.bin"
    counters = CounterSet(name="ds")
    dead = _dead_address()
    shipper = ProfileShipper(
        counters,
        dead,
        policy=ProfilePolicy.IGNORE,
        max_pending=1,
        spill_path=spill_path,
        backoff_base=30.0,
    )
    for _ in range(3):
        counters.increment(POINTS[0])
        shipper.flush()
    assert shipper.spilled_deltas == 2
    assert shipper.dropped_deltas == 0
    assert len(SpillLog(spill_path)) == 2

    # The aggregator comes up on the address the shipper was aiming at.
    with ProfileAggregator(dead) as aggregator:
        shipper.lanes[0].client.retry_at = 0.0
        shipper.flush()
        shipper.close()
        assert aggregator.total_counts() == 3, "spilled + queued all arrive"
    assert shipper.replayed_deltas == 2
    assert shipper.shipped_deltas == 3
    assert SpillLog(spill_path).size_bytes() == 0, "spill cleared after replay"


class _AckDroppingProxy:
    """Serves frames through ``aggregator.handle_frame``, but applies the
    first delta or batch frame without answering it and drops that
    connection."""

    def __init__(self, aggregator):
        self.aggregator = aggregator
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = f"127.0.0.1:{self.listener.getsockname()[1]}"
        self.dropped = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # closed
            with conn, conn.makefile("rwb") as stream:
                while (frame := read_frame(stream)) is not None:
                    reply = self.aggregator.handle_frame(frame)
                    data = frame.get("type") in ("delta", "batch")
                    if data and not self.dropped:
                        self.dropped = True
                        break
                    write_frame(stream, reply)

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


def test_failed_spill_replay_keeps_the_log_whole(tmp_path, monkeypatch):
    """A replay whose ack is lost must not rewrite the spill log: with
    the disk full the rewrite raises out of flush() and loses the tail.
    The whole log resends instead, and the ledger settles the overlap."""
    spill_path = tmp_path / "spill.bin"
    for seq in (1, 2, 3):
        SpillLog(spill_path).append(
            ProfileDelta(
                shipper="earlier-incarnation",
                seq=seq,
                dataset="ds",
                counts={POINTS[seq].key(): 5},
            ).to_json_object()
        )

    def disk_full(self, obj):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(SpillLog, "append", disk_full)
    with ProfileAggregator("127.0.0.1:0") as aggregator:
        proxy = _AckDroppingProxy(aggregator)
        shipper = ProfileShipper(
            CounterSet(name="ds"),
            proxy.address,
            policy=ProfilePolicy.WARN,
            spill_path=spill_path,
            backoff_base=0.01,
            backoff_max=0.01,
        )
        try:
            shipper.flush()  # the replay's ack is lost
            time.sleep(0.05)  # let the backoff gate reopen
            shipper.flush()
            assert aggregator.total_counts() == 15, "each count exactly once"
            assert SpillLog(spill_path).size_bytes() == 0
        finally:
            shipper.close()
            proxy.close()


@pytest.mark.parametrize("max_pending", [1, 64], ids=["spilled", "queued"])
def test_a_backlog_past_the_frame_limit_drains_exactly_once(
    tmp_path, monkeypatch, max_pending
):
    """An outage's backlog too large for one frame goes out in several
    batch frames instead of retrying one oversized frame forever."""
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 2048)
    points = [
        ProfilePoint.for_location(SourceLocation("backlog.ss", n, n + 1))
        for n in range(10)
    ]
    spill_path = tmp_path / "spill.bin"
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=ProfilePolicy.IGNORE,
        max_pending=max_pending,
        spill_path=spill_path,
        backoff_base=30.0,
    )
    for _ in range(20):  # ~600 bytes a delta, ~12 KiB in all
        for point in points:
            counters.increment(point)
        shipper.flush()
    assert shipper.shipped_deltas == 0
    with ProfileAggregator("127.0.0.1:0") as aggregator:
        frames = []
        handle = aggregator.handle_frame

        def recording(frame, **kwargs):
            frames.append(frame)
            return handle(frame, **kwargs)

        monkeypatch.setattr(aggregator, "handle_frame", recording)
        shipper.lanes[0].client.retarget(aggregator.address)
        shipper.flush()
        assert aggregator.total_counts() == 200, "each count exactly once"
        assert shipper.shipped_deltas == 20
        assert SpillLog(spill_path).size_bytes() == 0
        assert len(frames) > 1
        shipper.close()


def test_an_item_too_large_for_any_frame_raises_before_sending(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
    client = FrameClient(_dead_address())
    batches = client.request_batches(["x" * 100], lambda run: list(run))
    with pytest.raises(DeltaFormatError, match="limit"):
        next(batches)
    assert client.ready(), "no connection was attempted"


def test_close_spills_undelivered_deltas(tmp_path):
    spill_path = tmp_path / "spill.bin"
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=ProfilePolicy.IGNORE,
        spill_path=spill_path,
        backoff_base=30.0,
    )
    counters.increment(POINTS[0], by=7)
    shipper.flush()
    shipper.close()
    frames, torn = SpillLog(spill_path).replay()
    assert not torn
    assert len(frames) == 1
    assert frames[0]["counts"] == {POINTS[0].key(): 7}


def test_close_without_spill_drops_and_degrades():
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=ProfilePolicy.IGNORE,
        backoff_base=30.0,
    )
    counters.increment(POINTS[0])
    shipper.flush()
    shipper.close()
    assert shipper.dropped_deltas == 1
    assert any(
        "undelivered at close" in entry.reason
        for entry in shipper.degradations.entries()
    )


def test_counter_rewind_rebaselines_with_degradation(aggregator):
    counters = CounterSet(name="ds")
    with ProfileShipper(
        counters, aggregator.address, policy=ProfilePolicy.IGNORE
    ) as shipper:
        counters.increment(POINTS[0], by=10)
        shipper.flush()
        counters.clear()
        counters.increment(POINTS[0], by=4)
        delta = shipper.flush()
        assert delta is not None
        assert delta.counts == {POINTS[0].key(): 4}
        assert any(
            "went backwards" in entry.reason
            for entry in shipper.degradations.entries()
        )
    assert aggregator.total_counts() == 14


def test_background_thread_flushes_periodically(aggregator):
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters, aggregator.address, flush_interval=0.05
    ).start()
    try:
        counters.increment(POINTS[0], by=6)
        deadline = time.monotonic() + 5.0
        while aggregator.total_counts() < 6 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert aggregator.total_counts() == 6
    finally:
        shipper.close()


def _unspillable_shipper(tmp_path, policy):
    """A shipper to a dead aggregator whose spill path cannot be created."""
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        _dead_address(),
        policy=policy,
        spill_path=tmp_path / "missing" / "spill.bin",
        backoff_base=30.0,
    )
    counters.increment(POINTS[0], by=5)
    return shipper


def test_close_records_a_delta_it_could_not_spill(tmp_path):
    shipper = _unspillable_shipper(tmp_path, ProfilePolicy.WARN)
    shipper.flush()
    shipper.close()
    assert shipper.dropped_deltas == 1
    assert any(
        "undelivered at close" in entry.reason and "spill to" in entry.reason
        for entry in shipper.degradations.entries()
    ), [entry.reason for entry in shipper.degradations.entries()]


def test_close_under_strict_raises_on_a_failed_spill(tmp_path, monkeypatch):
    shipper = _unspillable_shipper(tmp_path, ProfilePolicy.STRICT)
    with pytest.raises(ProfileError):
        shipper.flush()  # strict surfaces the unreachable aggregator
    closed = []
    monkeypatch.setattr(FrameClient, "close", lambda self: closed.append(self))
    with pytest.raises(BackpressureError, match="undelivered at close"):
        shipper.close()
    assert shipper.dropped_deltas == 1
    assert closed == [shipper.lanes[0].client], "the client closes anyway"
