"""One shard of the fleet: a durable aggregator owning a ring slice.

A :class:`ShardAggregator` is a :class:`~repro.service.aggregator.
ProfileAggregator` with two additions:

* a **write-ahead log**: every delta/batch frame is appended (and
  fsynced) *before* it is applied and acked, so an ack really means
  durable. The WAL is segmented: a checkpoint seals the live segment,
  snapshots state, and prunes sealed segments only once the snapshot is
  safely on disk. Append-and-apply is atomic with respect to the seal,
  so every frame in a pruned segment is in the snapshot; frames that
  race the snapshot end up in both, which is harmless because the
  ledger deduplicates on replay;
* an **uplink** to the root merger using *persist-cut-then-send*: uplink
  deltas are cut from the merged counters only at checkpoint time, and
  the cut (sequence number, per-dataset baselines, the pending deltas
  themselves) is persisted in the same atomic state write **before**
  anything is sent. A restarted shard therefore resends exactly the
  frames it already cut — never a re-cut of a sent sequence number with
  different contents — and the root's ledger (keyed by the shard's
  *stable* ``shard-<id>`` shipper identity) drops the duplicates. That
  is the whole zero-loss, zero-double-count story across failover.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Sequence

from repro.core.errors import DeltaFormatError, ServiceError
from repro.core.policy import degrade
from repro.obs.logs import get_logger
from repro.service.aggregator import ProfileAggregator, StopResult
from repro.service.delta import WIRE_VERSION, ProfileDelta
from repro.service.transport import FrameClient, ServiceAddress

logger = get_logger(__name__)

__all__ = ["ShardAggregator", "WriteAheadLog"]


class WriteAheadLog:
    """Segmented JSONL write-ahead log for ingest frames.

    ``append`` writes one frame per line and fsyncs, so an acked frame
    survives a crash. ``rotate`` seals the live segment (new appends go
    to a fresh one) and returns the sealed paths; the caller prunes them
    only after the state snapshot covering them is durable. ``replay``
    yields every frame in every segment in write order, tolerating a
    torn final line (the frame it held was never acked).
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = None
        existing = self._segments()
        self._next_index = (
            int(existing[-1].rsplit("-", 1)[1].split(".")[0]) + 1
            if existing
            else 1
        )

    def _segments(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        return sorted(
            name
            for name in names
            if name.startswith("wal-") and name.endswith(".jsonl")
        )

    def _open_segment(self):
        path = os.path.join(
            self.directory, f"wal-{self._next_index:08d}.jsonl"
        )
        self._next_index += 1
        return open(path, "ab")

    def append(self, frame: dict, encoded: bytes | None = None) -> None:
        """Durably append one frame (fsync before returning).

        ``encoded`` is the frame's JSON bytes when the caller already has
        them (the transport's decompressed payload) — appending them
        verbatim skips a re-serialization on the ingest hot path.
        """
        if encoded is None or b"\n" in encoded:
            # (Valid JSON may contain newline whitespace, which would
            # tear the JSONL segment — re-serialize those rare frames.)
            encoded = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        line = encoded + b"\n"
        with self._lock:
            if self._handle is None:
                self._handle = self._open_segment()
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def rotate(self) -> list[str]:
        """Seal the live segment; returns every sealed segment's path."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            return [
                os.path.join(self.directory, name)
                for name in self._segments()
            ]

    def prune(self, sealed: list[str]) -> None:
        """Delete sealed segments whose frames a durable snapshot covers."""
        for path in sealed:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def replay(self) -> tuple[list[dict], bool]:
        """``(frames, torn)`` across all segments, oldest first."""
        frames: list[dict] = []
        torn = False
        for name in self._segments():
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                torn = True
                continue
            for line in data.split(b"\n"):
                if not line:
                    continue
                try:
                    frame = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    torn = True  # a torn tail; the frame was never acked
                    continue
                if isinstance(frame, dict):
                    frames.append(frame)
        return frames, torn

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def size_bytes(self) -> int:
        total = 0
        for name in self._segments():
            try:
                total += os.path.getsize(os.path.join(self.directory, name))
            except OSError:
                pass
        return total


class ShardAggregator(ProfileAggregator):
    """A durable, uplinked aggregator for one ring slice (see module docs).

    ``uplink`` is the root merger's address; without one the shard is a
    standalone durable aggregator (WAL and all), which is how the WAL
    semantics are unit-tested. ``shard_id`` must be stable across
    restarts of the same slice — it keys the uplink's shipper identity
    and the root's per-shard metrics.
    """

    def __init__(
        self,
        listen: "str | ServiceAddress",
        *,
        shard_id: str,
        uplink: "str | ServiceAddress | None" = None,
        wal_path: "str | os.PathLike[str] | None" = None,
        **kwargs,
    ) -> None:
        if not shard_id:
            raise ServiceError("shard_id must be non-empty")
        self.shard_id = str(shard_id)
        #: the connection to the root merger (None: a standalone shard)
        self.uplink = (
            FrameClient(uplink, greeting=self._register_frame)
            if uplink is not None
            else None
        )
        self._wal = WriteAheadLog(wal_path) if wal_path is not None else None
        #: held across each frame's WAL append + apply, and by
        #: checkpoint() across the seal (see handle_frame)
        self._wal_gate = threading.Lock()

        # Uplink cursor — persisted via _state_extra, restored before use.
        self._uplink_seq = 0
        #: dataset key -> the counts already cut into uplink deltas
        self._uplink_baselines: dict[str, dict[str, int]] = {}
        #: cut-but-unacked uplink deltas, as wire objects, in seq order
        self._uplink_pending: list[dict] = []

        super().__init__(listen, **kwargs)  # runs _load_state/_restore_extra
        if self._wal is not None:
            self._replay_wal()

    @property
    def uplink_shipper_id(self) -> str:
        """The *stable* identity the root's ledger dedups this shard by."""
        return f"shard-{self.shard_id}"

    # -- metrics -----------------------------------------------------------

    def _describe_metrics(self) -> None:
        super()._describe_metrics()
        m = self.metrics
        m.describe("wal_frames_total", "Ingest frames appended to the WAL")
        m.describe(
            "wal_replayed_frames_total",
            "WAL frames re-applied after a restart (ledger drops duplicates)",
        )
        m.describe(
            "uplink_deltas_total", "Uplink deltas acked by the root merger"
        )
        m.describe(
            "uplink_pending", "Uplink deltas cut but not yet acked by the root"
        )
        m.describe(
            "uplink_failures_total", "Failed attempts to reach the root merger"
        )

    # -- durable ingest ----------------------------------------------------

    def handle_frame(
        self,
        frame: object,
        wire_bytes: int | None = None,
        raw: bytes | None = None,
    ) -> dict | None:
        if self._wal is None or not (
            isinstance(frame, dict) and frame.get("type") in ("delta", "batch")
        ):
            return super().handle_frame(frame, wire_bytes=wire_bytes, raw=raw)
        # Append and apply as one step with respect to checkpoint()'s
        # seal: a frame in a sealed segment is then already applied, so
        # the snapshot that lets the segment be pruned holds its counts.
        with self._wal_gate:
            try:
                self._wal.append(frame, encoded=raw)
                self.metrics.inc("wal_frames_total")
            except OSError as exc:
                degrade(
                    "aggregate",
                    f"WAL append failed: {exc}",
                    "frame applied without durability (a crash may lose it)",
                    policy=self.policy,
                    log=self.degradations,
                )
            return super().handle_frame(frame, wire_bytes=wire_bytes, raw=raw)

    def _replay_wal(self) -> None:
        """Re-apply WAL frames the last state snapshot may not cover.

        Over-replay is by design: any frame already in the snapshot is
        recognized by the restored ledger as a duplicate. A torn tail is
        safe to drop — its frame was appended but never acked, so the
        shipper still holds (and will resend) it.
        """
        assert self._wal is not None
        frames, torn = self._wal.replay()
        if torn:
            degrade(
                "restore",
                f"WAL in {self._wal.directory} has a torn tail",
                "dropping it; the unacked frame will be resent by its shipper",
                policy=self.policy,
                log=self.degradations,
            )
        for frame in frames:
            # Straight to the apply path (not handle_frame) so replay does
            # not re-append the frames to the WAL they came from.
            if frame.get("type") in ("delta", "batch"):
                self._handle_batch(frame)
            self.metrics.inc("wal_replayed_frames_total")
        if frames:
            logger.info(
                "shard %s replayed %d WAL frame(s)", self.shard_id, len(frames)
            )

    # -- persist-cut-then-send uplink --------------------------------------

    def _cut_uplink_locked(self) -> None:
        """Cut the counter growth since the last cut into pending uplink
        deltas. Caller holds ``self._lock``."""
        for key, slot in self._datasets.items():
            current = slot.counters.as_key_mapping()
            baseline = self._uplink_baselines.get(key, {})
            increments = {
                point: count - baseline.get(point, 0)
                for point, count in current.items()
                if count > baseline.get(point, 0)
            }
            if not increments:
                continue
            self._uplink_seq += 1
            delta = ProfileDelta(
                shipper=self.uplink_shipper_id,
                seq=self._uplink_seq,
                dataset=slot.counters.name,
                counts=increments,
                fingerprints=slot.fingerprints,
            )
            self._uplink_pending.append(delta.to_json_object())
            self._uplink_baselines[key] = current
        self.metrics.set_gauge("uplink_pending", len(self._uplink_pending))

    def _state_extra(self) -> dict:
        with self._lock:
            return {
                "uplink": {
                    "seq": self._uplink_seq,
                    "baselines": {
                        key: dict(counts)
                        for key, counts in self._uplink_baselines.items()
                    },
                    "pending": [dict(obj) for obj in self._uplink_pending],
                }
            }

    def _restore_extra(self, obj: dict) -> None:
        uplink = obj.get("uplink")
        if uplink is None:
            return
        if not isinstance(uplink, dict):
            raise DeltaFormatError("state 'uplink' must be an object")
        seq = uplink.get("seq", 0)
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
            raise DeltaFormatError("state uplink 'seq' malformed")
        baselines = uplink.get("baselines", {})
        pending = uplink.get("pending", [])
        if not isinstance(baselines, dict) or not isinstance(pending, list):
            raise DeltaFormatError("state uplink cursor malformed")
        for frame in pending:
            ProfileDelta.from_json_object(frame)  # validate before trusting
        self._uplink_seq = seq
        self._uplink_baselines = {
            str(key): {str(p): int(c) for p, c in counts.items()}
            for key, counts in baselines.items()
            if isinstance(counts, dict)
        }
        self._uplink_pending = [dict(frame) for frame in pending]

    def checkpoint(self) -> bool:
        """Seal WAL → cut uplink deltas → persist → prune → send.

        The persist happens *between* the cut and the send: a crash at
        any point either resends persisted frames verbatim (root dedups)
        or re-cuts counts that were never assigned a sent seq. Sealed
        WAL segments are pruned only on a successful snapshot.
        """
        sealed: list[str] = []
        if self._wal is not None:
            with self._wal_gate:
                sealed = self._wal.rotate()
        if self.uplink is not None or self._uplink_baselines:
            with self._lock:
                self._cut_uplink_locked()
        ok = super().checkpoint()
        if ok and sealed and self._wal is not None:
            self._wal.prune(sealed)
        if ok:
            self._flush_uplink()
        return ok

    def _register_frame(self) -> dict:
        """The uplink's greeting: announce this shard's serving address."""
        return {
            "type": "register",
            "shard": self.shard_id,
            "address": str(self.address),
        }

    def _uplink_batch(self, deltas: Sequence[dict]) -> dict:
        return {
            "type": "batch",
            "v": WIRE_VERSION,
            "deltas": list(deltas),
            "shard": self.shard_id,
        }

    def _flush_uplink(self) -> bool:
        """Send every pending uplink delta to the root (best effort).

        Pending frames are resent *verbatim* — they were persisted before
        any send, so a resend after restart carries identical bytes and
        the root's ledger settles the duplicates.
        """
        if self.uplink is None:
            return True
        with self._lock:
            pending = list(self._uplink_pending)
        if not pending:
            return True
        if not self.uplink.ready():
            return False
        sent: list[dict] = []
        try:
            for run, response in self.uplink.request_batches(
                pending, self._uplink_batch
            ):
                if (
                    not isinstance(response, dict)
                    or response.get("type") != "ack"
                    or response.get("status") != "batch"
                ):
                    raise ServiceError(
                        f"root sent no batch ack (got {response!r})"
                    )
                sent.extend(run)
        except (OSError, ServiceError) as exc:
            delay = self.uplink.back_off()
            self.metrics.inc("uplink_failures_total")
            degrade(
                "ship",
                f"root merger {self.uplink.address} unreachable: {exc}",
                f"uplink deltas stay pending; retrying in {delay:.2f}s",
                policy=self.policy,
                log=self.degradations,
            )
            return False
        finally:
            if sent:
                with self._lock:
                    acked = {id(obj) for obj in sent}
                    self._uplink_pending = [
                        obj
                        for obj in self._uplink_pending
                        if id(obj) not in acked
                    ]
                self.metrics.inc("uplink_deltas_total", len(sent))
                self.metrics.set_gauge(
                    "uplink_pending", len(self._uplink_pending)
                )
        return True

    def stop(
        self, join_timeout: float = 10.0, *, checkpoint: bool = True
    ) -> StopResult:
        result = super().stop(join_timeout, checkpoint=checkpoint)
        if self.uplink is not None:
            self.uplink.close()
        if self._wal is not None:
            self._wal.close()
        return result

    def __repr__(self) -> str:
        return (
            f"<ShardAggregator {self.shard_id!r} {self.address} "
            f"uplink={self.uplink.address if self.uplink else None} "
            f"pending={len(self._uplink_pending)}>"
        )
