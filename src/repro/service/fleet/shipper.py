"""The worker-side fleet client: one counter set, N shard shippers.

A :class:`FleetShipper` partitions a worker's counter set over the
fleet's hash ring and runs one ordinary
:class:`~repro.service.shipper.ProfileShipper` per shard, each reading a
:class:`_ShardSlice` — a live, read-only view of the parent counters
filtered to the points that ring-route to that shard. All the hard-won
shipper machinery (bounded queue, spill log, backoff, idempotent
delivery) is reused per slice, unchanged.

When a shard restarts at a new address, the fleet shipper **re-resolves**
through the root's ``ring`` frame and retargets the affected shipper's
client in place. In place matters: a fresh ``ProfileShipper`` would
restart sequence numbers at 1 under a new identity while the restarted
shard's restored ledger still remembers the old one — retargeting
preserves the (shipper id, seq) continuity that makes the dedup story
airtight.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping

from repro.core.counters import BaseCounterSet
from repro.core.errors import ServiceError
from repro.core.policy import DegradationLog, ProfilePolicy, degrade
from repro.core.profile_point import ProfilePoint
from repro.obs.logs import get_logger
from repro.service.delta import ProfileDelta
from repro.service.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.service.shipper import ProfileShipper, _default_shipper_id
from repro.service.transport import ServiceAddress, parse_address, request

logger = get_logger(__name__)

__all__ = ["FleetShipper", "fetch_ring"]


class _ShardSlice(BaseCounterSet):
    """A read-only view of one shard's slice of a parent counter set.

    The slice is computed at snapshot time, so it is always live — the
    parent keeps being incremented by instrumented code, and each
    per-shard :class:`ProfileShipper` diffs its own slice exactly as it
    would a whole counter set. Mutation is refused: the parent is the
    single writable store.
    """

    __slots__ = ("_parent", "_ring", "_member")

    def __init__(
        self, parent: BaseCounterSet, ring: HashRing, member: str
    ) -> None:
        super().__init__(name=parent.name)
        self._parent = parent
        self._ring = ring
        self._member = member

    def snapshot(self) -> dict[ProfilePoint, int]:
        return {
            point: count
            for point, count in self._parent.snapshot().items()
            if self._ring.route(point.key()) == self._member
        }

    def count(self, point: ProfilePoint) -> int:
        if self._ring.route(point.key()) != self._member:
            return 0
        return self._parent.count(point)

    def increment(self, point: ProfilePoint, by: int = 1) -> None:
        raise ServiceError("a shard slice is read-only; increment the parent")

    def incrementer(self, point: ProfilePoint):
        raise ServiceError("a shard slice is read-only; increment the parent")

    def clear(self) -> None:
        raise ServiceError("a shard slice is read-only; clear the parent")


def fetch_ring(root: "str | ServiceAddress", timeout: float = 5.0) -> dict:
    """Ask the root merger for the current shard map.

    Returns ``{shard_id: {"address": str, "up": bool}}``; raises
    :class:`ServiceError` when the root's answer is not a ring frame.
    """
    response = request(root, {"type": "ring"}, timeout=timeout)
    if not isinstance(response, dict) or response.get("type") != "ring":
        raise ServiceError(f"root sent no ring frame (got {response!r})")
    shards = response.get("shards")
    if not isinstance(shards, dict):
        raise ServiceError("ring frame carries no shard map")
    return shards


class FleetShipper:
    """Ship one counter set to a sharded fleet (see module docs).

    ``shards`` maps shard ids to addresses; ``root`` (optional) enables
    re-resolution of restarted shards via the root's ring frame.
    Per-shard spill logs land in ``spill_dir`` (one file per shard), so
    a down shard buffers durably without affecting its siblings.
    """

    #: consecutive failures on one shard before a re-resolve is attempted
    RERESOLVE_AFTER_FAILURES = 2
    #: minimum seconds between re-resolve attempts
    RERESOLVE_COOLDOWN = 1.0

    def __init__(
        self,
        counters: BaseCounterSet,
        shards: Mapping[str, "str | ServiceAddress"],
        *,
        root: "str | ServiceAddress | None" = None,
        replicas: int = DEFAULT_REPLICAS,
        dataset: str | None = None,
        fingerprints: Mapping[str, str] | None = None,
        shipper_id: str | None = None,
        spill_dir: "str | os.PathLike[str] | None" = None,
        policy: ProfilePolicy | str = ProfilePolicy.WARN,
        degradations: DegradationLog | None = None,
        **shipper_kwargs,
    ) -> None:
        if not shards:
            raise ServiceError("a fleet shipper needs at least one shard")
        self.counters = counters
        self.ring = HashRing(shards.keys(), replicas=replicas)
        self.root = parse_address(root) if root is not None else None
        self.policy = ProfilePolicy.coerce(policy)
        self.degradations = (
            degradations if degradations is not None else DegradationLog()
        )
        self.shipper_id = shipper_id or _default_shipper_id()
        self._last_reresolve = 0.0
        if spill_dir is not None:
            os.makedirs(os.fspath(spill_dir), exist_ok=True)
        self.shippers: dict[str, ProfileShipper] = {}
        for shard_id in sorted(shards):
            spill_path = (
                os.path.join(os.fspath(spill_dir), f"{shard_id}.spill")
                if spill_dir is not None
                else None
            )
            self.shippers[shard_id] = ProfileShipper(
                _ShardSlice(counters, self.ring, shard_id),
                shards[shard_id],
                dataset=dataset if dataset is not None else counters.name,
                fingerprints=fingerprints,
                shipper_id=f"{self.shipper_id}.{shard_id}",
                spill_path=spill_path,
                policy=self.policy,
                degradations=self.degradations,
                **shipper_kwargs,
            )

    # -- shipping ----------------------------------------------------------

    def flush(self) -> list[ProfileDelta]:
        """Flush every shard slice; returns the deltas that were cut."""
        self._maybe_reresolve()
        deltas = []
        for shipper in self.shippers.values():
            delta = shipper.flush()
            if delta is not None:
                deltas.append(delta)
        return deltas

    def maybe_flush(self) -> list[ProfileDelta]:
        self._maybe_reresolve()
        deltas = []
        for shipper in self.shippers.values():
            delta = shipper.maybe_flush()
            if delta is not None:
                deltas.append(delta)
        return deltas

    def start(self) -> "FleetShipper":
        for shipper in self.shippers.values():
            shipper.start()
        return self

    def close(self) -> None:
        for shipper in self.shippers.values():
            shipper.close()

    def __enter__(self) -> "FleetShipper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- failover ----------------------------------------------------------

    def _maybe_reresolve(self) -> None:
        """Re-resolve shard addresses when one looks down (rate-limited)."""
        if self.root is None:
            return
        struggling = [
            shard_id
            for shard_id, shipper in self.shippers.items()
            # The client's own backoff counter keeps failover reactive
            # without a second health probe.
            if shipper.client.failures >= self.RERESOLVE_AFTER_FAILURES
        ]
        if not struggling:
            return
        now = time.monotonic()
        if now - self._last_reresolve < self.RERESOLVE_COOLDOWN:
            return
        self._last_reresolve = now
        try:
            self.re_resolve()
        except (OSError, ServiceError) as exc:
            degrade(
                "ship",
                f"ring re-resolve via root {self.root} failed: {exc}",
                "keeping the current shard addresses",
                policy=self.policy,
                log=self.degradations,
            )

    def re_resolve(self) -> list[str]:
        """Refresh shard addresses from the root's ring frame.

        Retargets each changed shipper **in place** (see the module docs
        for why a rebuild would break dedup), which also drops its
        connection and backoff. Returns the shard ids whose address
        changed.
        """
        if self.root is None:
            raise ServiceError("no root address configured for re-resolve")
        shards = fetch_ring(self.root)
        changed = []
        for shard_id, shipper in self.shippers.items():
            info = shards.get(shard_id)
            if not isinstance(info, dict):
                continue
            address = info.get("address")
            if not isinstance(address, str):
                continue
            parsed = parse_address(address)
            if parsed != shipper.address:
                shipper.client.retarget(parsed)
                changed.append(shard_id)
                logger.info(
                    "shipper %s re-resolved shard %s to %s",
                    self.shipper_id, shard_id, parsed,
                )
        return changed

    # -- aggregate accounting ----------------------------------------------

    @property
    def shipped_counts(self) -> int:
        return sum(s.shipped_counts for s in self.shippers.values())

    @property
    def shipped_deltas(self) -> int:
        return sum(s.shipped_deltas for s in self.shippers.values())

    @property
    def dropped_deltas(self) -> int:
        return sum(s.dropped_deltas for s in self.shippers.values())

    @property
    def spilled_deltas(self) -> int:
        return sum(s.spilled_deltas for s in self.shippers.values())

    @property
    def quarantined_deltas(self) -> int:
        return sum(s.quarantined_deltas for s in self.shippers.values())

    def pending_counts(self) -> int:
        return sum(s.pending_counts() for s in self.shippers.values())

    def __repr__(self) -> str:
        return (
            f"<FleetShipper {self.shipper_id!r} shards="
            f"{sorted(self.shippers)} shipped={self.shipped_counts}>"
        )
