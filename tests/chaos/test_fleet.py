"""Fleet chaos: shard kills must lose nothing.

The acceptance property for the sharded service is exactly the one the
single aggregator already guarantees, lifted to the fleet: every count a
worker records is reflected at the root exactly once, no matter which
shard dies when.
"""

import time

import pytest

from repro.core.counters import CounterSet
from repro.core.policy import ProfilePolicy
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service import ProfileShipper
from repro.service.fleet import FleetSupervisor

POINTS = [
    ProfilePoint.for_location(SourceLocation("c.ss", n, n + 1))
    for n in range(16)
]


def _pump(counters, by=1):
    total = 0
    for point in POINTS:
        counters.increment(point, by=by)
        total += by
    return total


def _await_root_total(fleet, expected, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if fleet.root.total_counts() == expected:
            return True
        # Nudge the shards: in-process mode lets us checkpoint directly,
        # which cuts + flushes their uplink deltas without waiting for
        # the housekeeping interval.
        for slot in fleet._slots.values():
            if slot.aggregator is not None:
                try:
                    slot.aggregator.checkpoint()
                except Exception:
                    pass
        time.sleep(0.1)
    return fleet.root.total_counts() == expected


def test_kill_one_shard_loses_zero_counts(tmp_path):
    """The headline failover drill: a shard dies mid-stream with unsent
    state, restarts from its WAL, and the root converges on the exact
    total — nothing lost, nothing counted twice."""
    with FleetSupervisor(
        3, tmp_path / "fleet", in_process=True, checkpoint_interval=60.0
    ) as fleet:
        counters = CounterSet(name="ds")
        shipper = ProfileShipper(
            counters,
            fleet.shard_addresses(),
            root=fleet.root.address,
            policy=ProfilePolicy.IGNORE,
            spill_path=tmp_path / "spill",
            backoff_base=0.05,
        )
        expected = _pump(counters, by=5)
        shipper.flush()
        assert _await_root_total(fleet, expected), "pre-kill baseline"

        # Crash a shard with counts it has NOT yet uplinked.
        expected += _pump(counters, by=3)
        shipper.flush()  # lands on the shards, not yet at the root
        fleet.kill_shard("1")

        # Keep shipping while the shard is down: its slice buffers
        # (queue + spill) while the other shards flow normally.
        expected += _pump(counters, by=2)
        shipper.flush()

        fleet.restart_shard("1")
        assert shipper.re_resolve() == ["1"], "new address picked up"

        # Drain the buffered slice (cut deltas sit in the shard's lane
        # queue, not in pending_counts) and let every shard uplink.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            lane.queue for lane in shipper.lanes
        ):
            shipper.flush()
            time.sleep(0.05)
        assert _await_root_total(fleet, expected), (
            f"root={fleet.root.total_counts()} expected={expected}"
        )
        assert shipper.dropped_deltas == 0
        shipper.close()


def test_killed_shard_resends_are_deduplicated(tmp_path):
    """A restarted shard re-uplinks everything it cannot prove was sent;
    the root's ledger must absorb the overlap."""
    with FleetSupervisor(
        2, tmp_path / "fleet", in_process=True, checkpoint_interval=60.0
    ) as fleet:
        counters = CounterSet(name="ds")
        shipper = ProfileShipper(
            counters, fleet.shard_addresses(), root=fleet.root.address
        )
        expected = _pump(counters, by=7)
        shipper.flush()
        assert _await_root_total(fleet, expected)

        # Kill + restart BOTH shards after they uplinked. Their restored
        # uplink cuts start from the persisted baselines, so the resends
        # carry nothing new — the root total must not move.
        for shard_id in ("0", "1"):
            fleet.kill_shard(shard_id)
            fleet.restart_shard(shard_id)
        for slot in fleet._slots.values():
            assert slot.aggregator.checkpoint()
        assert fleet.root.total_counts() == expected
        shipper.close()


@pytest.mark.slow
def test_subprocess_shard_kill_and_monitor_restart(tmp_path):
    """The real thing: shards as OS processes, SIGKILL one, and let the
    monitor thread bring it back with the same identity."""
    with FleetSupervisor(
        2,
        tmp_path / "fleet",
        in_process=False,
        checkpoint_interval=0.3,
        spawn_timeout=30.0,
    ) as fleet:
        assert fleet.wait_all_up(timeout=30.0)
        counters = CounterSet(name="ds")
        shipper = ProfileShipper(
            counters,
            fleet.shard_addresses(),
            root=fleet.root.address,
            policy=ProfilePolicy.IGNORE,
            backoff_base=0.05,
        )
        expected = _pump(counters, by=9)
        shipper.flush()
        deadline = time.monotonic() + 20.0
        while (
            fleet.root.total_counts() < expected
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        assert fleet.root.total_counts() == expected

        old_address = fleet.shard_addresses()["0"]
        fleet.kill_shard("0")
        expected += _pump(counters, by=2)

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            shipper.flush()  # re-resolves once the monitor respawned it
            if (
                fleet.shard_addresses().get("0") not in (None, old_address)
                and not shipper.pending_counts()
                and fleet.root.total_counts() == expected
            ):
                break
            time.sleep(0.2)
        assert fleet.shard_addresses()["0"] != old_address, "shard respawned"
        assert fleet.root.total_counts() == expected, "no loss, no double"
        assert fleet._slots["0"].restarts == 1
        shipper.close()
