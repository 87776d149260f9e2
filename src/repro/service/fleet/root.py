"""The root of the fleet: merge shard uplinks, own the public checkpoint.

A :class:`RootMerger` is a :class:`~repro.service.aggregator.
ProfileAggregator` that additionally knows the fleet: shards register
themselves (or the supervisor registers them), their uplink batches
arrive tagged with the shard id (feeding the ``fleet_deltas_total{shard=}``
labeled counters the base aggregator already records), and two extra
frame types serve fleet coordination:

* ``register`` — a shard announces its id and serving address;
* ``ring`` — a ring-aware shipper asks for the current shard map, which
  is how it re-resolves a restarted shard's new address.

Everything downstream of the merge is the existing single-aggregator
machinery, untouched: the public profile checkpoint, the
``RecompileController``/``RolloutGuard`` pipeline, ``/metrics`` and
``/healthz`` (extended with per-shard liveness), the stats frame.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs.logs import get_logger
from repro.service.aggregator import ProfileAggregator
from repro.service.delta import WIRE_VERSION

logger = get_logger(__name__)

__all__ = ["RootMerger", "ShardRecord"]


@dataclass
class ShardRecord:
    """What the root knows about one shard."""

    shard_id: str
    address: str
    up: bool = True
    last_seen: float = 0.0


class RootMerger(ProfileAggregator):
    """The fleet's merge point and public face (see module docs)."""

    def __init__(self, listen, **kwargs) -> None:
        self._fleet_lock = threading.Lock()
        self._shards: dict[str, ShardRecord] = {}
        super().__init__(listen, **kwargs)

    # -- metrics -----------------------------------------------------------

    def _describe_metrics(self) -> None:
        super()._describe_metrics()
        self.metrics.describe(
            "fleet_shard_up",
            "Per-shard liveness (1 = registered and serving, 0 = down)",
        )
        self.metrics.describe(
            "fleet_shards_registered", "Shards that have ever registered"
        )

    # -- fleet membership --------------------------------------------------

    def note_shard(self, shard_id: str, address: str, up: bool = True) -> None:
        """Record (or update) a shard's address and liveness."""
        with self._fleet_lock:
            record = self._shards.get(shard_id)
            if record is None:
                record = self._shards[shard_id] = ShardRecord(
                    shard_id=shard_id, address=address
                )
            record.address = address
            record.up = up
            record.last_seen = time.monotonic()
            registered = len(self._shards)
        self.metrics.set_labeled_gauge(
            "fleet_shard_up", {"shard": shard_id}, 1.0 if up else 0.0
        )
        self.metrics.set_gauge("fleet_shards_registered", registered)
        logger.info(
            "shard %s %s at %s", shard_id, "up" if up else "down", address
        )

    def mark_shard_down(self, shard_id: str) -> None:
        """Flag a shard as down (the supervisor calls this on a crash).

        The shard stays in the map — its slice of the ring is still its
        slice; a restart re-registers the same id at a fresh address.
        """
        with self._fleet_lock:
            record = self._shards.get(shard_id)
            if record is None:
                return
            record.up = False
        self.metrics.set_labeled_gauge(
            "fleet_shard_up", {"shard": shard_id}, 0.0
        )
        logger.warning("shard %s marked down", shard_id)

    def shard_map(self) -> dict[str, ShardRecord]:
        with self._fleet_lock:
            return {
                shard_id: ShardRecord(
                    shard_id=record.shard_id,
                    address=record.address,
                    up=record.up,
                    last_seen=record.last_seen,
                )
                for shard_id, record in self._shards.items()
            }

    # -- frame dispatch ----------------------------------------------------

    def handle_frame(
        self,
        frame: object,
        wire_bytes: int | None = None,
        raw: bytes | None = None,
    ) -> dict | None:
        if isinstance(frame, dict):
            kind = frame.get("type")
            if kind == "register":
                return self._handle_register(frame)
            if kind == "ring":
                return self._ring_frame()
        return super().handle_frame(frame, wire_bytes=wire_bytes, raw=raw)

    def _handle_register(self, frame: dict) -> dict:
        shard_id = frame.get("shard")
        address = frame.get("address")
        if not isinstance(shard_id, str) or not shard_id:
            self.metrics.inc("deltas_rejected_total")
            return {
                "type": "ack",
                "status": "rejected",
                "error": "register frame needs a 'shard' id",
            }
        if not isinstance(address, str) or not address:
            self.metrics.inc("deltas_rejected_total")
            return {
                "type": "ack",
                "status": "rejected",
                "error": "register frame needs an 'address'",
            }
        self.note_shard(shard_id, address, up=True)
        return {"type": "ack", "status": "registered", "shard": shard_id}

    def _ring_frame(self) -> dict:
        shards = self.shard_map()
        return {
            "type": "ring",
            "v": WIRE_VERSION,
            "shards": {
                shard_id: {"address": record.address, "up": record.up}
                for shard_id, record in sorted(shards.items())
            },
        }

    def _stats_frame(self) -> dict:
        stats = super()._stats_frame()
        shards = self.shard_map()
        stats["fleet"] = {
            "shards": {
                shard_id: {"address": record.address, "up": record.up}
                for shard_id, record in sorted(shards.items())
            },
            "up": sum(1 for record in shards.values() if record.up),
        }
        return stats

    # -- health ------------------------------------------------------------

    def _healthz_body(self) -> str:
        shards = self.shard_map()
        up = sum(1 for record in shards.values() if record.up)
        base = super()._healthz_body().rstrip("\n")
        return f"{base} shards_up={up}/{len(shards)}\n"
