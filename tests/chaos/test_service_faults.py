"""Failure modes of the continuous-profiling service, injected
deterministically with :mod:`repro.testing.faults`.

The four scenarios the service must survive without losing or
double-counting profile data:

1. a checkpoint write torn by a crash (and the restart that reads it);
2. a client crash mid-flush, replayed from its spill log;
3. an aggregator killed and restarted from its last checkpoint while
   shippers retry;
4. deltas collected against changed source (stale fingerprints).
"""

import errno

from repro.core.counters import CounterSet
from repro.core.database import ProfileDatabase, source_fingerprint
from repro.core.policy import ProfilePolicy
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service import ProfileAggregator, ProfileShipper
from repro.service.spill import SpillLog
from repro.testing.faults import (
    failing_profile_store,
    tear_spill_log,
    torn_profile_store,
)

POINTS = [
    ProfilePoint.for_location(SourceLocation("svc.ss", n, n + 1)) for n in range(3)
]


def _delta_frame(seq: int, count: int = 5, shipper: str = "w1") -> dict:
    return {
        "type": "delta",
        "v": 1,
        "shipper": shipper,
        "seq": seq,
        "dataset": "ds",
        "counts": {POINTS[0].key(): count},
    }


# -- 1: torn/failed checkpoint writes ------------------------------------------


def test_torn_checkpoint_degrades_and_ingest_continues(tmp_path):
    agg = ProfileAggregator(
        "127.0.0.1:0",
        checkpoint_path=str(tmp_path / "profile.json"),
        state_path=str(tmp_path / "state.json"),
        policy="warn",
    )
    agg.handle_frame(_delta_frame(1))
    with torn_profile_store(keep_bytes=24):
        assert agg.checkpoint() is False
    assert agg.metrics.counter("checkpoint_failures_total") >= 1
    assert any(
        "skipped" in entry.fallback for entry in agg.degradations.entries()
    )
    # Ingest is unaffected; the next (healthy) checkpoint heals the files.
    assert agg.handle_frame(_delta_frame(2))["status"] == "applied"
    assert agg.checkpoint() is True
    assert ProfileDatabase.load(str(tmp_path / "profile.json")).point_count() == 1


def test_restart_from_torn_state_is_a_cold_start_not_a_crash(tmp_path):
    state = str(tmp_path / "state.json")
    agg = ProfileAggregator("127.0.0.1:0", state_path=state)
    agg.handle_frame(_delta_frame(1))
    with torn_profile_store(keep_bytes=24):
        agg.checkpoint()  # leaves a torn remnant at `state`

    resumed = ProfileAggregator("127.0.0.1:0", state_path=state, policy="warn")
    assert resumed.total_counts() == 0
    assert any(
        "cold start" in entry.fallback for entry in resumed.degradations.entries()
    )
    # The cold aggregator re-applies the shipper's retry: no data lost as
    # long as the shipper's at-least-once delivery replays.
    assert resumed.handle_frame(_delta_frame(1))["status"] == "applied"
    assert resumed.total_counts() == 5


def test_disk_full_checkpoint_keeps_previous_checkpoint(tmp_path):
    checkpoint = str(tmp_path / "profile.json")
    agg = ProfileAggregator(
        "127.0.0.1:0", checkpoint_path=checkpoint, policy="warn"
    )
    agg.handle_frame(_delta_frame(1))
    assert agg.checkpoint() is True
    before = ProfileDatabase.load(checkpoint)
    agg.handle_frame(_delta_frame(2))
    with failing_profile_store(errno.ENOSPC):
        assert agg.checkpoint() is False
    after = ProfileDatabase.load(checkpoint)
    assert after.point_count() == before.point_count(), (
        "atomic store left the old complete checkpoint intact"
    )


# -- 2: client crash mid-flush, replay from spill ------------------------------


def test_client_crash_mid_spill_replays_complete_frames(tmp_path):
    spill_path = tmp_path / "spill.bin"
    counters = CounterSet(name="ds")

    # A shipper that never reaches the aggregator spills at close — the
    # "crash" tears the final append mid-frame.
    import socket as _socket

    with _socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead = f"127.0.0.1:{probe.getsockname()[1]}"
    crashing = ProfileShipper(
        counters,
        dead,
        policy=ProfilePolicy.IGNORE,
        spill_path=spill_path,
        backoff_base=30.0,
    )
    for i in range(3):
        counters.increment(POINTS[0], by=10)
        crashing.flush()
    crashing.close()  # spills 3 deltas of 10 counts each
    tear_spill_log(spill_path, drop_bytes=4)

    # The restarted worker reuses the spill path but gets a fresh shipper
    # id (a shipper id names one *incarnation*; the spilled frames carry
    # their original id, so their dedup is unaffected).
    with ProfileAggregator("127.0.0.1:0") as agg:
        fresh = CounterSet(name="ds")
        replayer = ProfileShipper(
            fresh,
            agg.address,
            policy=ProfilePolicy.WARN,
            spill_path=spill_path,
        )
        fresh.increment(POINTS[1], by=1)
        replayer.flush()
        replayer.close()
        # 2 complete spilled deltas (20) + the new delta (1); the torn
        # third delta is lost — and reported, not silently swallowed.
        assert agg.total_counts() == 21
    assert replayer.replayed_deltas == 2
    assert any(
        "torn tail" in entry.reason for entry in replayer.degradations.entries()
    )
    assert SpillLog(spill_path).size_bytes() == 0


def test_lost_ack_replay_is_deduplicated(tmp_path):
    """The ack was lost after apply: the spill still holds the delta, the
    replay must be recognized as a duplicate, not recounted."""
    spill_path = tmp_path / "spill.bin"
    with ProfileAggregator("127.0.0.1:0") as agg:
        counters = CounterSet(name="ds")
        shipper = ProfileShipper(counters, agg.address)
        counters.increment(POINTS[0], by=7)
        delta = shipper.flush()
        assert agg.total_counts() == 7
        shipper.close()
        # Simulate the crash-after-apply-before-ack: the delta is still in
        # the spill when the worker restarts.
        SpillLog(spill_path).append(delta.to_json_object())

        replayer = ProfileShipper(
            CounterSet(name="ds"),
            agg.address,
            spill_path=spill_path,
        )
        replayer.flush()
        replayer.close()
        assert agg.total_counts() == 7, "replay did not double-count"
        assert replayer.duplicate_deltas == 1


# -- 3: aggregator kill + restart ----------------------------------------------


def test_aggregator_kill_and_restart_loses_nothing_checkpointed(tmp_path):
    state = str(tmp_path / "state.json")
    spill_path = tmp_path / "spill.bin"
    counters = CounterSet(name="ds")

    first = ProfileAggregator("127.0.0.1:0", state_path=state).start()
    address = first.address
    shipper = ProfileShipper(
        counters,
        address,
        policy=ProfilePolicy.IGNORE,
        spill_path=spill_path,
        backoff_base=0.01,
        backoff_max=0.01,
    )
    counters.increment(POINTS[0], by=10)
    shipper.flush()
    first.checkpoint()

    # Kill: the process dies with state only as of the checkpoint, so
    # stop without the final checkpoint (stopping also severs the
    # shipper's established connection, as a real kill would).
    first.stop(checkpoint=False)

    # Deltas shipped while the aggregator is down spill locally.
    counters.increment(POINTS[1], by=4)
    shipper.flush()
    import time as _time

    _time.sleep(0.03)  # let the backoff gate reopen

    # Restart on the same port, resuming from the checkpointed state.
    second = ProfileAggregator(address, state_path=state).start()
    try:
        assert second.total_counts() == 10
        # The shipper's first retry trips over its stale pre-kill socket;
        # flushing through the backoff window reconnects and delivers.
        deadline = _time.monotonic() + 10.0
        while second.total_counts() < 14 and _time.monotonic() < deadline:
            shipper.flush()
            _time.sleep(0.02)
        shipper.close()
        assert second.total_counts() == 14, (
            "checkpointed counts + spilled replay, nothing lost or doubled"
        )
    finally:
        second.stop()


# -- 4: stale fingerprints over the wire ---------------------------------------


def test_stale_shipper_quarantined_while_healthy_fleet_merges():
    current = "(define version 2)\n"
    old = "(define version 1)\n"
    with ProfileAggregator(
        "127.0.0.1:0", sources={"app.ss": current}, policy="warn"
    ) as agg:
        healthy_counters = CounterSet(name="app")
        healthy_counters.increment(POINTS[0], by=6)
        healthy = ProfileShipper(
            healthy_counters,
            agg.address,
            fingerprints={"app.ss": source_fingerprint(current)},
        )
        stale_counters = CounterSet(name="app")
        stale_counters.increment(POINTS[0], by=100)
        stale = ProfileShipper(
            stale_counters,
            agg.address,
            fingerprints={"app.ss": source_fingerprint(old)},
            policy=ProfilePolicy.WARN,
        )
        healthy.flush()
        stale.flush()
        healthy.close()
        stale.close()

        assert agg.total_counts() == 6, "stale worker's counts never merged"
        assert len(agg.quarantine.stale()) == 1
        assert stale.quarantined_deltas == 1
        assert any(
            "stale" in entry.reason for entry in stale.degradations.entries()
        )
