"""The sharded fleet: WAL durability, shard uplink, root merge, slices."""

import socket
import sys
import threading
import time

import pytest

import repro.service.delta as wire
from repro.core.counters import CounterSet, ShardedCounterSet
from repro.core.policy import ProfilePolicy
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service.delta import ProfileDelta
from repro.service import ProfileShipper
from repro.service.fleet import (
    FleetSupervisor,
    HashRing,
    RootMerger,
    ShardAggregator,
    WriteAheadLog,
)
from repro.service.shipper import fetch_ring
from repro.service.spill import SpillLog

POINTS = [
    ProfilePoint.for_location(SourceLocation("w.ss", n, n + 1)) for n in range(8)
]


def _delta_frame(seq: int, count: int = 1, shipper: str = "s") -> dict:
    return ProfileDelta(
        shipper=shipper,
        seq=seq,
        dataset="ds",
        counts={POINTS[seq % len(POINTS)].key(): count},
    ).to_json_object()


# -- write-ahead log -------------------------------------------------------


def test_wal_replays_appended_frames(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    wal.append({"a": 1})
    wal.append({"b": 2})
    wal.close()
    frames, torn = WriteAheadLog(tmp_path / "wal").replay()
    assert frames == [{"a": 1}, {"b": 2}]
    assert torn == 0


def test_wal_tolerates_a_torn_tail(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    wal.append({"a": 1})
    wal.close()
    segments = sorted((tmp_path / "wal").glob("wal-*.jsonl"))
    with open(segments[-1], "a", encoding="utf-8") as handle:
        handle.write('{"b": 2, "trunc')  # the crash mid-write
    frames, torn = WriteAheadLog(tmp_path / "wal").replay()
    assert frames == [{"a": 1}]
    assert torn == 1


def test_wal_rotate_and_prune_drop_sealed_segments(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    wal.append({"a": 1})
    sealed = wal.rotate()
    assert len(sealed) == 1
    wal.append({"b": 2})  # lands in the new live segment
    wal.prune(sealed)
    frames, _ = wal.replay()
    assert frames == [{"b": 2}], "pruned segment no longer replays"
    wal.close()


# -- shard aggregator: WAL durability --------------------------------------


def test_shard_recovers_unacked_counts_from_wal(tmp_path):
    shard = ShardAggregator(
        "127.0.0.1:0",
        shard_id="0",
        wal_path=tmp_path / "wal",
        state_path=str(tmp_path / "state.json"),
    )
    for seq in (1, 2, 3):
        ack = shard.handle_frame(_delta_frame(seq, count=5))
        assert ack["status"] == "applied"
    assert shard.total_counts() == 15
    # Crash: no final checkpoint, state.json never written.
    shard.stop(checkpoint=False)

    revived = ShardAggregator(
        "127.0.0.1:0",
        shard_id="0",
        wal_path=tmp_path / "wal",
        state_path=str(tmp_path / "state.json"),
    )
    assert revived.total_counts() == 15, "WAL replay restored every count"
    # Replay marked the ledger too: the shipper's resend is a duplicate.
    ack = revived.handle_frame(_delta_frame(2, count=5))
    assert ack["status"] == "duplicate"
    assert revived.total_counts() == 15
    revived.stop(checkpoint=False)


def test_shard_checkpoint_prunes_wal(tmp_path):
    shard = ShardAggregator(
        "127.0.0.1:0",
        shard_id="0",
        wal_path=tmp_path / "wal",
        state_path=str(tmp_path / "state.json"),
    )
    shard.handle_frame(_delta_frame(1, count=5))
    assert shard._wal.size_bytes() > 0
    assert shard.checkpoint()
    assert shard._wal.size_bytes() == 0, "checkpointed frames leave the WAL"
    shard.stop()


def test_checkpoint_racing_a_wal_append_keeps_the_acked_frame(
    tmp_path, monkeypatch
):
    """A checkpoint between a frame's WAL append and its apply would seal
    and prune the segment holding it while snapshotting state without
    it: every frame in a pruned segment must be in the snapshot."""

    def open_shard():
        return ShardAggregator(
            "127.0.0.1:0",
            shard_id="0",
            wal_path=tmp_path / "wal",
            state_path=str(tmp_path / "state.json"),
        )

    shard = open_shard()
    real = WriteAheadLog.append
    racers = []

    def racing_append(self, frame, encoded=None):
        real(self, frame, encoded)
        if not racers:
            racers.append(threading.Thread(target=shard.checkpoint))
            racers[0].start()
            racers[0].join(timeout=0.2)

    monkeypatch.setattr(WriteAheadLog, "append", racing_append)
    assert shard.handle_frame(_delta_frame(1, count=5))["status"] == "applied"
    racers[0].join(timeout=5.0)
    assert not racers[0].is_alive()
    shard.stop(checkpoint=False)  # crash right after the racing checkpoint
    monkeypatch.undo()

    revived = open_shard()
    assert revived.total_counts() == 5
    revived.stop(checkpoint=False)


# -- shard -> root uplink --------------------------------------------------


@pytest.fixture
def root(tmp_path):
    with RootMerger(
        "127.0.0.1:0", state_path=str(tmp_path / "root-state.json")
    ) as merger:
        yield merger


def _shard(tmp_path, root, shard_id="0", **kwargs):
    return ShardAggregator(
        "127.0.0.1:0",
        shard_id=shard_id,
        uplink=root.address,
        wal_path=tmp_path / f"wal-{shard_id}",
        state_path=str(tmp_path / f"state-{shard_id}.json"),
        **kwargs,
    )


def test_checkpoint_uplinks_merged_counts_to_root(tmp_path, root):
    shard = _shard(tmp_path, root)
    shard.handle_frame(_delta_frame(1, count=5, shipper="w1"))
    shard.handle_frame(_delta_frame(1, count=7, shipper="w2"))
    assert shard.checkpoint()
    assert root.total_counts() == 12
    # The root saw ONE uplink identity, not the two leaf shippers.
    stats = root.handle_frame({"type": "stats"})
    assert list(stats["shippers"]) == ["shard-0"]
    # Idempotence: a second checkpoint with no new counts sends nothing.
    assert shard.checkpoint()
    assert root.total_counts() == 12
    shard.stop()


def test_uplink_survives_crash_without_double_count(tmp_path, root):
    shard = _shard(tmp_path, root)
    shard.handle_frame(_delta_frame(1, count=5))
    assert shard.checkpoint()  # uplinked: root at 5
    shard.handle_frame(_delta_frame(2, count=3))  # WALed, not yet uplinked
    shard.stop(checkpoint=False)  # crash

    revived = _shard(tmp_path, root)
    assert revived.total_counts() == 8, "state + WAL replay"
    assert revived.checkpoint()
    assert root.total_counts() == 8, "only the unsent 3 arrived"
    revived.stop()
    assert root.total_counts() == 8


def test_uplink_buffers_while_root_is_down(tmp_path):
    with RootMerger("127.0.0.1:0") as merger:
        address = merger.address
    # Root is now down; the shard checkpoints into its pending buffer.
    shard = ShardAggregator(
        "127.0.0.1:0",
        shard_id="0",
        uplink=address,
        wal_path=tmp_path / "wal",
        state_path=str(tmp_path / "state.json"),
    )
    shard.handle_frame(_delta_frame(1, count=5))
    assert shard.checkpoint(), "checkpoint succeeds; the uplink just waits"
    assert len(shard._uplink_pending) == 1
    # Root returns on the same address; the next checkpoint delivers
    # (after the uplink's retry backoff has expired).
    with RootMerger(address) as merger:
        time.sleep(0.2)
        shard.handle_frame(_delta_frame(2, count=2))
        assert shard.checkpoint()
        assert merger.total_counts() == 7
        assert not shard._uplink_pending
    shard.stop(checkpoint=False)


def test_uplink_backlog_past_the_frame_limit_drains_exactly_once(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 2048)
    points = [
        ProfilePoint.for_location(SourceLocation("backlog.ss", n, n + 1))
        for n in range(10)
    ]
    with RootMerger("127.0.0.1:0") as merger:
        address = merger.address
    shard = ShardAggregator(
        "127.0.0.1:0",
        shard_id="0",
        uplink=address,
        wal_path=tmp_path / "wal",
        state_path=str(tmp_path / "state.json"),
    )
    for seq in range(1, 21):  # one ~600-byte uplink delta per checkpoint
        shard.handle_frame(
            ProfileDelta(
                shipper="s",
                seq=seq,
                dataset="ds",
                counts={point.key(): 1 for point in points},
            ).to_json_object()
        )
        assert shard.checkpoint()
    assert len(shard._uplink_pending) == 20
    with RootMerger(address) as merger:
        frames = []
        handle = merger.handle_frame

        def recording(frame, **kwargs):
            frames.append(frame)
            return handle(frame, **kwargs)

        monkeypatch.setattr(merger, "handle_frame", recording)
        shard.uplink.retarget(address)
        assert shard.checkpoint()
        assert merger.total_counts() == 200, "each count exactly once"
        assert not shard._uplink_pending
        assert sum(frame["type"] == "batch" for frame in frames) > 1
    shard.stop(checkpoint=False)


# -- root merger -----------------------------------------------------------


def test_root_tracks_shard_registry(root):
    root.note_shard("0", "127.0.0.1:1111")
    root.note_shard("1", "127.0.0.1:2222")
    ring = root.handle_frame({"type": "ring"})
    assert ring["type"] == "ring"
    assert ring["shards"]["0"] == {"address": "127.0.0.1:1111", "up": True}
    root.mark_shard_down("1")
    ring = root.handle_frame({"type": "ring"})
    assert ring["shards"]["1"]["up"] is False
    assert "shards_up=1/2" in root._healthz_body()


def test_register_frame_updates_the_registry(root):
    ack = root.handle_frame(
        {"type": "register", "shard": "3", "address": "127.0.0.1:3333"}
    )
    assert ack["type"] == "ack"
    assert root.shard_map()["3"].address == "127.0.0.1:3333"
    assert root.metrics.labeled_gauge("fleet_shard_up", {"shard": "3"}) == 1.0


def test_fetch_ring_over_the_wire(root):
    root.note_shard("0", "127.0.0.1:1111")
    shards = fetch_ring(root.address)
    assert shards == {"0": {"address": "127.0.0.1:1111", "up": True}}


# -- shard-map shipper -----------------------------------------------------


def _dead_address() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


def test_shard_slices_partition_the_counter_set_exactly():
    """One flush's increments split over the lanes: the parts are
    disjoint, cover every increment, and each key sits on the shard the
    ring routes it to."""
    counters = CounterSet(name="ds")
    for n, point in enumerate(POINTS):
        counters.increment(point, by=n + 1)
    shards = {member: _dead_address() for member in ("0", "1", "2")}
    shipper = ProfileShipper(
        counters,
        shards,
        shipper_id="w",
        policy=ProfilePolicy.IGNORE,
        backoff_base=30.0,
    )
    whole = shipper.flush()
    assert whole is not None and whole.shipper == "w"
    ring = HashRing(shards)
    merged: dict[str, int] = {}
    for lane in shipper.lanes:
        for delta in lane.queue:
            assert delta.shipper == f"w.{lane.shard}"
            assert not set(merged) & set(delta.counts), "parts must be disjoint"
            assert all(ring.route(key) == lane.shard for key in delta.counts)
            merged.update(delta.counts)
    assert sum(1 for lane in shipper.lanes if lane.queue) > 1
    assert merged == counters.as_key_mapping() == dict(whole.counts)


def test_fleet_shipper_ships_everything_once(tmp_path, root):
    shards = {
        shard_id: _shard(tmp_path, root, shard_id=shard_id)
        for shard_id in ("0", "1")
    }
    for shard in shards.values():
        shard.start()
    try:
        counters = CounterSet(name="ds")
        total = 0
        for n, point in enumerate(POINTS):
            counters.increment(point, by=n + 1)
            total += n + 1
        fleet = ProfileShipper(
            counters,
            {shard_id: str(s.address) for shard_id, s in shards.items()},
            shipper_id="worker",
        )
        delta = fleet.flush()
        assert fleet.shipped_counts == total
        assert delta is not None and delta.total() == total
        fleet.close()
        shard_total = sum(s.total_counts() for s in shards.values())
        assert shard_total == total
        for shard in shards.values():
            assert shard.checkpoint()
        assert root.total_counts() == total
    finally:
        for shard in shards.values():
            shard.stop(checkpoint=False)


def test_shard_lanes_spill_per_shard_and_replay(tmp_path, root):
    """Each lane spills to ``<shard>.spill`` under its ``<id>.<shard>``
    identity, and a spill log already on disk replays to its shard."""
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    SpillLog(spill_dir / "0.spill").append(
        ProfileDelta(
            shipper="earlier.0", seq=1, dataset="ds", counts={POINTS[0].key(): 5}
        ).to_json_object()
    )
    counters = CounterSet(name="ds")
    for point in POINTS:
        counters.increment(point, by=2)
    shards = {"0": _dead_address(), "1": _dead_address()}
    down = ProfileShipper(
        counters,
        shards,
        shipper_id="w",
        spill_path=spill_dir,
        policy=ProfilePolicy.IGNORE,
        backoff_base=30.0,
    )
    down.flush()
    down.close()
    assert sorted(path.name for path in spill_dir.iterdir()) == ["0.spill", "1.spill"]
    frames = {
        shard: SpillLog(spill_dir / f"{shard}.spill").replay()[0] for shard in shards
    }
    assert [frame["shipper"] for frame in frames["0"]] == ["earlier.0", "w.0"]
    assert [frame["shipper"] for frame in frames["1"]] == ["w.1"]

    live = {shard_id: _shard(tmp_path, root, shard_id=shard_id).start() for shard_id in shards}
    try:
        up = ProfileShipper(
            CounterSet(name="ds"),
            {shard_id: str(shard.address) for shard_id, shard in live.items()},
            spill_path=spill_dir,
        )
        up.flush()
        up.close()
        assert sum(shard.total_counts() for shard in live.values()) == 5 + 2 * len(POINTS)
        assert up.replayed_deltas == 3
    finally:
        for shard in live.values():
            shard.stop(checkpoint=False)


def test_fleet_shipper_reresolves_in_place(tmp_path, root):
    shard = _shard(tmp_path, root).start()
    root.note_shard("0", str(shard.address))
    counters = CounterSet(name="ds")
    fleet = ProfileShipper(
        counters, {"0": str(shard.address)}, root=root.address
    )
    lane = fleet.lanes[0]
    counters.increment(POINTS[0], by=4)
    fleet.flush()
    assert fleet.shipped_counts == 4

    # The shard dies and comes back on a different port.
    shard.stop(checkpoint=False)
    revived = _shard(tmp_path, root).start()
    try:
        root.note_shard("0", str(revived.address))
        changed = fleet.re_resolve()
        assert changed == ["0"]
        assert fleet.lanes[0] is lane, "same lane object"
        assert lane.client.address == revived.address
        counters.increment(POINTS[0], by=2)
        fleet.flush()
        assert fleet.shipped_counts == 6
        assert revived.total_counts() == 6, "restored slice + new delta"
        fleet.close()
    finally:
        revived.stop(checkpoint=False)


def test_started_shipper_follows_a_restarted_shard(tmp_path, root):
    """The background flush re-resolves too: a shard that restarts on a
    new port gets every later count without a flush by hand."""
    shard = _shard(tmp_path, root).start()
    root.note_shard("0", str(shard.address))
    counters = CounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        {"0": str(shard.address)},
        root=root.address,
        flush_interval=0.05,
        policy=ProfilePolicy.IGNORE,
    ).start()
    revived = None
    try:
        counters.increment(POINTS[0], by=3)
        assert _wait_for(lambda: shard.total_counts() == 3)
        shard.stop(checkpoint=False)
        revived = _shard(tmp_path, root).start()
        root.note_shard("0", str(revived.address))
        counters.increment(POINTS[1], by=4)
        assert _wait_for(lambda: revived.total_counts() == 7), (
            f"restarted shard holds {revived.total_counts()} of 7"
        )
    finally:
        shipper.close()
        (revived or shard).stop(checkpoint=False)


def test_concurrent_flushes_ship_every_count_once(tmp_path, root):
    """The flush thread and hand flushes from many workers share one cut
    and the lanes: no count is lost or shipped twice."""
    shards = {
        shard_id: _shard(tmp_path, root, shard_id=shard_id).start()
        for shard_id in ("0", "1")
    }
    counters = ShardedCounterSet(name="ds")
    shipper = ProfileShipper(
        counters,
        {shard_id: str(shard.address) for shard_id, shard in shards.items()},
        flush_interval=0.001,
    ).start()

    def work():
        for n in range(200):
            counters.increment(POINTS[n % len(POINTS)])
            if n % 20 == 0:
                shipper.flush()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        shipper.close()
        for shard in shards.values():
            shard.stop(checkpoint=False)
    assert shipper.shipped_counts == 8 * 200
    assert sum(shard.total_counts() for shard in shards.values()) == 8 * 200


def _wait_for(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


# -- supervisor (in-process mode) ------------------------------------------


def test_supervisor_runs_a_fleet_in_process(tmp_path):
    with FleetSupervisor(2, tmp_path / "fleet", in_process=True) as fleet:
        assert fleet.wait_all_up(timeout=5.0)
        addresses = fleet.shard_addresses()
        assert set(addresses) == {"0", "1"}
        counters = CounterSet(name="ds")
        for n, point in enumerate(POINTS):
            counters.increment(point, by=n + 1)
        shipper = ProfileShipper(
            counters, addresses, root=fleet.root.address
        )
        shipper.flush()
        shipper.close()
        for slot in fleet._slots.values():
            assert slot.aggregator.checkpoint()
        assert fleet.root.total_counts() == sum(
            n + 1 for n in range(len(POINTS))
        )
        stats = fleet.stats()
        assert set(stats["shard_stats"]) == {"0", "1"}
        assert stats["fleet"]["up"] == 2


def test_supervisor_restart_preserves_shard_state(tmp_path):
    with FleetSupervisor(
        2, tmp_path / "fleet", in_process=True, checkpoint_interval=60.0
    ) as fleet:
        addresses = fleet.shard_addresses()
        counters = CounterSet(name="ds")
        for point in POINTS:
            counters.increment(point, by=3)
        shipper = ProfileShipper(counters, addresses, root=fleet.root.address)
        shipper.flush()
        before = {
            shard_id: slot.aggregator.total_counts()
            for shard_id, slot in fleet._slots.items()
        }
        fleet.kill_shard("0")
        assert fleet.root.shard_map()["0"].up is False
        fleet.restart_shard("0")
        assert fleet.root.shard_map()["0"].up is True
        slot = fleet._slots["0"]
        assert slot.aggregator.total_counts() == before["0"], "WAL restore"
        assert slot.restarts == 1
        shipper.close()
