"""A state model of the service's one job: every count lands exactly once.

The paper merges data sets additively (§3.2), so a count applied twice or
never is a wrong profile. Hypothesis drives one shipper and one
aggregator through flushes, resends, torn frames, crashes, checkpoints
and outages, while the model tracks which deltas the aggregator must
hold. After every step the aggregated total must not exceed the model's
(no double count); after each rule that drains the shipper it must equal
it (no loss). A plain aggregator keeps only what its last checkpoint
saved across a crash; a WAL-backed shard keeps every acked delta.

The fleet model lifts the same job to the two-tier topology: two
shard-map shippers, two WAL-backed shards uplinking to a root merger,
shard crashes with a restart on a new port, and outages. The root never
holds more than the shippers cut, and once every lane has drained and
both shards have checkpointed it holds exactly that.

Sequential rules cannot interleave a checkpoint with an apply; those
races have their own deterministic tests.
"""

import os
import shutil
import socket
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.counters import CounterSet
from repro.core.policy import ProfilePolicy
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service import ProfileAggregator, ProfileShipper
from repro.service.delta import DeltaBatch, ProfileDelta, encode_frame
from repro.service.fleet import RootMerger, ShardAggregator
from repro.service.transport import connect, request

POINTS = [
    ProfilePoint.for_location(SourceLocation("m.ss", n, n + 1)) for n in range(4)
]

SHARD_IDS = ("0", "1")
WORKERS = ("a", "b")

MODEL_SETTINGS = settings(max_examples=25, stateful_step_count=20, deadline=None)


def _dead_address() -> str:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


class ServiceModel(RuleBasedStateMachine):
    """One shipper against one aggregator, and the deltas it must hold."""

    #: whether a crash keeps every acked delta (a WAL) or only the last
    #: checkpoint's
    crash_keeps_acked = False

    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="pgmp-model-")
        self.aggregator = self.open_aggregator("127.0.0.1:0").start()
        self.address = self.aggregator.address  # restarts reuse the port
        self.counters = CounterSet(name="ds")
        self.spill_path = os.path.join(self.dir, "spill.bin")
        self.shipper = ProfileShipper(
            self.counters,
            self.address,
            shipper_id="model",
            spill_path=self.spill_path,
            policy=ProfilePolicy.IGNORE,
        )
        #: every delta the shipper cut, by seq
        self.cut: dict[int, ProfileDelta] = {}
        #: seqs whose counts the aggregator holds
        self.landed: set[int] = set()
        #: seqs the last checkpoint saved
        self.checkpointed: set[int] = set()

    def open_aggregator(self, listen):
        return ProfileAggregator(
            listen,
            state_path=os.path.join(self.dir, "state.json"),
            checkpoint_interval=3600.0,
        )

    def expected(self) -> int:
        return sum(self.cut[seq].total() for seq in self.landed)

    def drain(self) -> None:
        """Deliver everything the shipper holds to the live aggregator.

        The first attempt after a crash may trip over the connection the
        crash severed; reopening the backoff gate lets the next one in.
        """
        for _ in range(3):
            self.shipper.lanes[0].client.retry_at = 0.0
            self.shipper.flush()
            if not self.shipper.lanes[0].queue and not os.path.exists(self.spill_path):
                break
        assert self.aggregator.total_counts() == self.expected(), "lost counts"

    def cut_delta(self, point: ProfilePoint, by: int) -> ProfileDelta:
        self.counters.increment(point, by=by)
        delta = self.shipper.flush()
        assert delta is not None
        self.cut[delta.seq] = delta
        return delta

    @rule(point=st.sampled_from(POINTS), by=st.integers(1, 9))
    def flush(self, point, by):
        delta = self.cut_delta(point, by)
        self.landed.add(delta.seq)
        self.drain()

    @rule(point=st.sampled_from(POINTS), by=st.integers(1, 9))
    def flush_through_an_outage(self, point, by):
        """Flush to a dead address, spill at close, replay on return."""
        self.shipper.lanes[0].client.retarget(_dead_address())
        delta = self.cut_delta(point, by)
        self.shipper.close()
        assert os.path.exists(self.spill_path), "the undelivered delta spilled"
        self.shipper.lanes[0].client.retarget(self.address)
        self.landed.add(delta.seq)
        self.drain()

    @precondition(lambda self: self.cut)
    @rule(data=st.data(), lone=st.booleans())
    def resend(self, data, lone):
        """A frame sent again: a retry, or a replay after a lost ack."""
        delta = self.cut[data.draw(st.sampled_from(sorted(self.cut)))]
        frame = (
            delta.to_json_object()
            if lone
            else DeltaBatch(deltas=(delta,)).to_json_object()
        )
        assert request(self.address, frame) is not None
        # Re-applied only if a crash lost it; a duplicate otherwise.
        self.landed.add(delta.seq)

    @rule(cut_at=st.integers(1, 40))
    def torn_frame(self, cut_at):
        """A client dies mid-frame; nothing of that frame may apply."""
        torn = ProfileDelta(
            shipper="torn", seq=1, dataset="ds", counts={POINTS[0].key(): 1000}
        )
        raw = encode_frame(DeltaBatch(deltas=(torn,)).to_json_object())
        with connect(self.address) as sock:
            sock.sendall(raw[: min(cut_at, len(raw) - 1)])

    @rule()
    def crash_and_restart(self):
        self.aggregator.stop(checkpoint=False)
        self.aggregator = self.open_aggregator(self.address).start()
        if not self.crash_keeps_acked:
            self.landed = set(self.checkpointed)

    @rule()
    def checkpoint(self):
        assert self.aggregator.checkpoint()
        self.checkpointed = set(self.landed)

    @invariant()
    def never_double_counted(self):
        assert self.aggregator.total_counts() <= self.expected()

    def teardown(self) -> None:
        self.shipper.close()
        self.aggregator.stop(checkpoint=False)
        shutil.rmtree(self.dir, ignore_errors=True)


class ShardModel(ServiceModel):
    crash_keeps_acked = True

    def open_aggregator(self, listen):
        return ShardAggregator(
            listen,
            shard_id="0",
            wal_path=os.path.join(self.dir, "wal"),
            state_path=os.path.join(self.dir, "state.json"),
            checkpoint_interval=3600.0,
        )


class FleetModel(RuleBasedStateMachine):
    """Two shard-map shippers, two WAL-backed shards, one root."""

    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="pgmp-fleet-model-")
        self.root = RootMerger("127.0.0.1:0", checkpoint_interval=3600.0).start()
        self.shards = {shard_id: self.open_shard(shard_id) for shard_id in SHARD_IDS}
        addresses = {shard_id: str(shard.address) for shard_id, shard in self.shards.items()}
        self.counters = {worker: CounterSet(name="ds") for worker in WORKERS}
        self.shippers = {
            worker: ProfileShipper(
                self.counters[worker],
                addresses,
                root=self.root.address,
                shipper_id=worker,
                spill_path=os.path.join(self.dir, f"spill-{worker}"),
                policy=ProfilePolicy.IGNORE,
                backoff_base=30.0,  # the rules reopen the gates themselves
            )
            for worker in WORKERS
        }
        #: every count the shippers cut
        self.cut = 0

    def open_shard(self, shard_id: str) -> ShardAggregator:
        shard = ShardAggregator(
            "127.0.0.1:0",
            shard_id=shard_id,
            uplink=self.root.address,
            wal_path=os.path.join(self.dir, f"wal-{shard_id}"),
            state_path=os.path.join(self.dir, f"state-{shard_id}.json"),
            checkpoint_interval=3600.0,
        ).start()
        self.root.note_shard(shard_id, str(shard.address))
        return shard

    def cut_delta(self, worker: str, point: ProfilePoint, by: int) -> None:
        self.counters[worker].increment(point, by=by)
        delta = self.shippers[worker].flush()
        assert delta is not None and delta.total() == by
        self.cut += by

    @rule(worker=st.sampled_from(WORKERS), point=st.sampled_from(POINTS), by=st.integers(1, 9))
    def flush(self, worker, point, by):
        self.cut_delta(worker, point, by)

    @rule(worker=st.sampled_from(WORKERS), point=st.sampled_from(POINTS), by=st.integers(1, 9))
    def flush_through_an_outage(self, worker, point, by):
        """Every lane loses its shard: spill at close, replay on return."""
        shipper = self.shippers[worker]
        for lane in shipper.lanes:
            lane.client.retarget(_dead_address())
        spilled = shipper.spilled_deltas
        self.cut_delta(worker, point, by)
        shipper.close()
        assert shipper.spilled_deltas > spilled, "the undelivered parts spilled"
        assert sorted(shipper.re_resolve()) == list(SHARD_IDS)

    @rule(shard_id=st.sampled_from(SHARD_IDS))
    def crash_and_restart(self, shard_id):
        """A shard dies and comes back on a new port; shippers re-resolve."""
        self.shards[shard_id].stop(checkpoint=False)
        self.shards[shard_id] = self.open_shard(shard_id)
        for shipper in self.shippers.values():
            assert shipper.re_resolve() == [shard_id]

    @rule(shard_id=st.sampled_from(SHARD_IDS))
    def checkpoint(self, shard_id):
        assert self.shards[shard_id].checkpoint()

    @rule()
    def settle(self):
        """Drain every lane and checkpoint both shards: nothing is lost."""
        for shipper in self.shippers.values():
            for _ in range(3):
                for lane in shipper.lanes:
                    lane.client.retry_at = 0.0
                shipper.flush()
                if not any(
                    lane.queue or (lane.spill is not None and lane.spill.size_bytes())
                    for lane in shipper.lanes
                ):
                    break
        for shard in self.shards.values():
            assert shard.checkpoint()
        assert self.root.total_counts() == self.cut, "lost counts"

    @invariant()
    def never_double_counted(self):
        assert self.root.total_counts() <= self.cut
        assert sum(shard.total_counts() for shard in self.shards.values()) <= self.cut

    def teardown(self) -> None:
        for shipper in self.shippers.values():
            shipper.close()
        for shard in self.shards.values():
            shard.stop(checkpoint=False)
        self.root.stop(checkpoint=False)
        shutil.rmtree(self.dir, ignore_errors=True)


TestAggregatorModel = ServiceModel.TestCase
TestAggregatorModel.settings = MODEL_SETTINGS
TestShardModel = ShardModel.TestCase
TestShardModel.settings = MODEL_SETTINGS
TestFleetModel = FleetModel.TestCase
TestFleetModel.settings = MODEL_SETTINGS
