"""The aggregation server: many shippers in, one merged profile out.

A :class:`ProfileAggregator` accepts framed connections from any number
of :class:`~repro.service.shipper.ProfileShipper`s (all of them on one
:class:`~repro.service.transport.AsyncFrameServer` event loop) and
maintains:

* one **live counter set per (dataset, fingerprint) key** — deltas apply
  additively, so N workers shipping the same dataset merge into exactly
  the totals a single worker would have counted;
* a **delta ledger** making application idempotent across retries,
  reconnects, and spill replays;
* a **quarantine** for deltas whose source fingerprints disagree with the
  source the aggregator serves (reusing
  :class:`~repro.core.database.QuarantineReport` — stale profile data is
  the same failure whether it arrives in a file or a frame);
* periodic **checkpoints**: the merged profile goes through the existing
  atomic :meth:`ProfileDatabase.store` (so ``pgmp report``/``optimize``
  and the batch workflow read it like any stored profile), and a private
  state file (raw counts + ledger) lets a restarted aggregator resume
  exactly — replayed deltas are recognized as duplicates;
* an optional :class:`~repro.service.controller.RecompileController`
  evaluated after each checkpoint, closing the continuous loop:
  ingest → merge → drift → re-expand → swap;
* :class:`~repro.obs.metrics.ServiceMetrics` and an optional plain
  ``http.server`` endpoint exposing ``/metrics`` and ``/healthz``.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.counters import CounterSet
from repro.core.database import (
    ProfileDatabase,
    QuarantineReport,
    atomic_write_text,
    source_fingerprint,
)
from repro.core.errors import DeltaFormatError
from repro.core.policy import DegradationLog, ProfilePolicy, degrade
from repro.core.profile_point import ProfilePoint
from repro.obs.logs import get_logger
from repro.profiling.confidence import DatasetConfidence, merge_confidences
from repro.service.controller import RecompilationDecision, RecompileController
from repro.obs.metrics import ServiceMetrics
from repro.service.delta import DeltaBatch, DeltaLedger, ProfileDelta
from repro.service.transport import AsyncFrameServer, ServiceAddress, parse_address

logger = get_logger(__name__)

__all__ = ["ProfileAggregator", "StopResult", "STATE_FORMAT_VERSION"]

#: Version tag of the aggregator's private state file.
STATE_FORMAT_VERSION = 1


@dataclass
class StopResult:
    """What :meth:`ProfileAggregator.stop` managed to shut down.

    A thread that does not join within the timeout is *abandoned*, not
    ignored: it is named here and logged as an error, and the CLI turns
    a dirty stop into a non-zero exit code — a handler wedged on a dead
    peer must not look like a clean shutdown.
    """

    stuck_threads: list[str] = field(default_factory=list)
    checkpoint_ok: bool = True

    @property
    def clean(self) -> bool:
        """No thread was abandoned. The final checkpoint's outcome is
        reported separately (``checkpoint_ok``) because checkpoint
        failures already degrade per policy during normal operation."""
        return not self.stuck_threads

    def __str__(self) -> str:
        if self.clean:
            return "stopped cleanly"
        parts = []
        if self.stuck_threads:
            parts.append(
                "stuck thread(s): " + ", ".join(self.stuck_threads)
            )
        if not self.checkpoint_ok:
            parts.append("final checkpoint failed")
        return "; ".join(parts)


class _DatasetSlot:
    """One live dataset: a threadsafe counter set plus its provenance."""

    __slots__ = ("counters", "fingerprints", "confidence")

    def __init__(self, name: str, fingerprints: Mapping[str, str]) -> None:
        self.counters = CounterSet(name=name, threadsafe=True)
        self.fingerprints = dict(fingerprints)
        #: merged sampling confidence across every shipper that fed this
        #: slot; ``None`` while only exact deltas have arrived
        self.confidence: DatasetConfidence | None = None


def _dataset_key(dataset: str, fingerprints: Mapping[str, str]) -> str:
    """Stable key for a (dataset name, source fingerprints) pair.

    Deltas from workers running *different* source versions must not be
    summed into one counter set — they describe different code. Keying by
    name + a digest of the fingerprint mapping keeps them separate.
    """
    if not fingerprints:
        return dataset
    blob = json.dumps(sorted(fingerprints.items()), separators=(",", ":"))
    return f"{dataset}@{hashlib.sha256(blob.encode('utf-8')).hexdigest()[:12]}"


class ProfileAggregator:
    """Merge profile deltas from a fleet of workers (see module docs)."""

    def __init__(
        self,
        listen: str | ServiceAddress,
        *,
        checkpoint_path: str | None = None,
        state_path: str | None = None,
        checkpoint_interval: float = 10.0,
        sources: Mapping[str, str] | None = None,
        expected_fingerprints: Mapping[str, str] | None = None,
        controller: RecompileController | None = None,
        policy: ProfilePolicy | str = ProfilePolicy.WARN,
        degradations: DegradationLog | None = None,
        metrics: ServiceMetrics | None = None,
        metrics_port: int | None = None,
        read_timeout: float | None = 30.0,
        name: str = "profile-information",
    ) -> None:
        self.listen = parse_address(listen)
        self.checkpoint_path = checkpoint_path
        self.state_path = state_path
        self.checkpoint_interval = float(checkpoint_interval)
        self.controller = controller
        #: seconds a connection may take to complete a frame (None = never)
        self.read_timeout = float(read_timeout) if read_timeout else None
        self.policy = ProfilePolicy.coerce(policy)
        self.degradations = (
            degradations if degradations is not None else DegradationLog()
        )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.metrics_port = metrics_port
        self.name = name
        #: current source fingerprints deltas are checked against; a delta
        #: fingerprinting one of these files differently is quarantined.
        self.expected_fingerprints: dict[str, str] = dict(
            expected_fingerprints or {}
        )
        if sources:
            for filename, text in sources.items():
                self.expected_fingerprints[filename] = source_fingerprint(text)

        self._lock = threading.Lock()
        self._datasets: dict[str, _DatasetSlot] = {}
        self._ledger = DeltaLedger()
        self.quarantine = QuarantineReport()
        self._quarantine_index = 0

        self._server: AsyncFrameServer | None = None
        self._housekeeper: threading.Thread | None = None
        self._metrics_server: http.server.ThreadingHTTPServer | None = None
        self._metrics_thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: set when a shutdown frame arrives (the CLI waits on this)
        self.shutdown_requested = threading.Event()

        self._describe_metrics()
        if self.state_path:
            self._load_state()

    # -- metrics boilerplate ----------------------------------------------

    def _describe_metrics(self) -> None:
        m = self.metrics
        m.describe("deltas_applied_total", "Profile deltas applied")
        m.describe("deltas_duplicate_total", "Deltas ignored as already applied")
        m.describe(
            "deltas_quarantined_total", "Deltas quarantined (stale fingerprints)"
        )
        m.describe("deltas_rejected_total", "Deltas rejected as malformed")
        m.describe("bytes_ingested_total", "Payload bytes carried by applied deltas")
        m.describe("counts_ingested_total", "Counter increments applied")
        m.describe("checkpoints_total", "Successful checkpoints written")
        m.describe("checkpoint_failures_total", "Checkpoints that failed to write")
        m.describe("recompilations_total", "Controller recompile-and-swaps")
        m.describe(
            "recompile_generation",
            "Generation number of the deployed artifact",
        )
        m.describe(
            "recompile_decisions_changed",
            "Meta-program decision sites that changed in the last swap",
        )
        m.describe("connections_total", "Shipper connections accepted")
        m.describe("protocol_errors_total", "Connections dropped on torn frames")
        m.describe(
            "handler_read_timeouts_total",
            "Connections dropped because a client sent no frame in time",
        )
        m.describe("datasets", "Live (dataset, fingerprint) counter sets")
        m.describe("ingest_latency", "Per-delta apply latency")
        m.describe(
            "batch_latency",
            "Per-frame apply latency (a lone delta is a batch of one)",
        )
        m.describe("recompile_pause", "Recompile-and-swap pause")
        m.describe(
            "fleet_deltas_total",
            "Deltas applied at the root, broken down by originating shard",
        )
        m.describe(
            "fleet_counts_total",
            "Counter increments applied at the root, by originating shard",
        )
        m.describe(
            "sampled_deltas_total",
            "Deltas applied that carried (or were assigned) sampling "
            "confidence",
        )

    # -- frame dispatch ----------------------------------------------------

    def handle_frame(
        self,
        frame: object,
        wire_bytes: int | None = None,
        raw: bytes | None = None,
    ) -> dict | None:
        """Process one request frame; returns the response frame.

        Returns ``None`` for a shutdown frame (the handler then closes the
        connection). Never raises on malformed input — bad frames are
        counted and answered with a rejection, because a profile service
        must not be crashable by one confused worker.

        ``wire_bytes`` is the frame's on-the-wire size when the caller
        read it off a socket; without it, byte accounting falls back to
        re-serializing the frame. ``raw`` is the frame's decompressed
        JSON payload — unused here, but durable subclasses persist it
        verbatim instead of re-serializing ``frame``.
        """
        if not isinstance(frame, dict):
            self.metrics.inc("deltas_rejected_total")
            return {"type": "ack", "status": "rejected", "error": "not an object"}
        kind = frame.get("type")
        if kind == "batch" or kind == "delta":
            return self._handle_batch(frame, wire_bytes=wire_bytes)
        if kind == "stats":
            return self._stats_frame()
        if kind == "metrics":
            return {"type": "metrics", "text": self.metrics.render()}
        if kind == "ping":
            return {"type": "pong"}
        if kind == "rollback":
            return self._handle_rollback(frame)
        if kind == "observe":
            return self._handle_observe(frame)
        if kind == "shutdown":
            self.shutdown_requested.set()
            return None
        self.metrics.inc("deltas_rejected_total")
        return {
            "type": "ack",
            "status": "rejected",
            "error": f"unknown frame type {kind!r}",
        }

    def _handle_batch(self, frame: dict, wire_bytes: int | None = None) -> dict:
        """Apply a ``batch`` frame, or a lone ``delta`` as a batch of one.

        Batching is pure framing — the per-delta semantics (ledger dedup,
        quarantine, rejection) are the same for every delta, so a batch
        is never partially retried into double counts. What IS batched
        is the bookkeeping: counter increments merge into one application
        per dataset and the metrics update once per frame, which is where
        the fleet's ingest throughput comes from. The ack carries a
        per-delta ``acks`` list only when some delta did *not* apply;
        ``applied == len(deltas)`` with no list means all clear. A lone
        delta (spill logs and older WAL segments hold them) gets its own
        ack instead.
        """
        started = time.perf_counter()
        lone = frame.get("type") == "delta"
        try:
            if lone:
                shard = frame.get("shard")
                batch = DeltaBatch(
                    deltas=(ProfileDelta.from_json_object(frame),),
                    shard=shard if isinstance(shard, str) else None,
                )
            else:
                batch = DeltaBatch.from_json_object(frame)
        except DeltaFormatError as exc:
            self.metrics.inc("deltas_rejected_total")
            degrade(
                "aggregate",
                f"malformed {frame.get('type')} frame: {exc}",
                "frame rejected",
                policy=self.policy,
                log=self.degradations,
            )
            return {"type": "ack", "status": "rejected", "error": str(exc)}
        acks, applied, counts_total = self._apply_deltas(batch.deltas)
        if applied:
            self.metrics.inc("deltas_applied_total", applied)
            self.metrics.inc("counts_ingested_total", counts_total)
            if batch.shard is not None:
                # The shard → root uplink tags its frames; the root
                # exposes a per-shard ingest breakdown from them.
                self.metrics.inc_labeled(
                    "fleet_deltas_total", {"shard": batch.shard}, applied
                )
                self.metrics.inc_labeled(
                    "fleet_counts_total", {"shard": batch.shard}, counts_total
                )
            self.metrics.inc(
                "bytes_ingested_total", self._frame_bytes(frame, wire_bytes)
            )
        elapsed = time.perf_counter() - started
        self.metrics.observe_latency("batch_latency", elapsed)
        # The amortized per-delta apply cost, so ingest_latency stays
        # comparable across batch sizes.
        self.metrics.observe_latency(
            "ingest_latency", elapsed / len(batch.deltas)
        )
        if lone:
            return acks[0]
        response: dict = {
            "type": "ack",
            "status": "batch",
            "applied": applied,
        }
        if applied != len(batch.deltas):
            response["acks"] = [
                {k: v for k, v in ack.items() if k != "type"} for ack in acks
            ]
        return response

    def _apply_deltas(
        self, deltas: tuple[ProfileDelta, ...]
    ) -> tuple[list[dict], int, int]:
        """Apply each delta at most once: ``(acks, applied, counts)``.

        A delta fingerprinting stale source is quarantined; one whose
        ``(shipper, seq)`` the ledger holds is a duplicate; one whose
        point keys do not parse is rejected with its seq still marked, so
        the sender's retry cannot loop forever.
        """
        acks: dict[int, dict] = {}  # delta index -> its ack
        # Merging is keyed by the *string* key — str hashes are cached by
        # the interpreter, while hashing a ProfilePoint walks the whole
        # dataclass chain — and each unique key is parsed (and validated)
        # exactly once, outside the lock.
        parsed: dict[str, ProfilePoint] = {}
        # delta index -> (dataset key, confidence it contributes)
        accepted: dict[int, tuple[str, DatasetConfidence | None]] = {}
        unparseable: dict[int, Exception] = {}
        stale_cache: dict[tuple, list[str]] = {}
        for index, delta in enumerate(deltas):
            fps_key = tuple(sorted(delta.fingerprints.items()))
            stale = stale_cache.get(fps_key)
            if stale is None:
                stale = stale_cache[fps_key] = self._stale_files(
                    delta.fingerprints
                )
            if stale:
                acks[index] = self._quarantine_delta(delta, stale)
                continue
            try:
                for point_key in delta.counts:
                    if point_key not in parsed:
                        parsed[point_key] = ProfilePoint.from_key(point_key)
            except Exception as exc:
                unparseable[index] = exc
                continue
            accepted[index] = (
                _dataset_key(delta.dataset, delta.fingerprints),
                self._delta_confidence(delta),
            )
        # dataset key -> (slot, merged {point key: by})
        merged: dict[str, tuple[_DatasetSlot, dict[str, int]]] = {}
        applied = counts_total = duplicates = sampled = 0
        created = False
        # Ledger marks and counter applies are one critical section: a
        # checkpoint snapshotting between them would persist "seq applied"
        # without its counts, and the restarted aggregator would ack the
        # shipper's resend as a duplicate.
        with self._lock:
            for index, delta in enumerate(deltas):
                if index in acks:
                    continue
                if not self._ledger.mark(delta.shipper, delta.seq):
                    duplicates += 1
                    acks[index] = {
                        "type": "ack", "seq": delta.seq, "status": "duplicate"
                    }
                    continue
                if index in unparseable:
                    acks[index] = {
                        "type": "ack",
                        "seq": delta.seq,
                        "status": "rejected",
                        "error": str(unparseable[index]),
                    }
                    continue
                key, confidence = accepted[index]
                entry = merged.get(key)
                if entry is None:
                    slot = self._datasets.get(key)
                    if slot is None:
                        slot = self._datasets[key] = _DatasetSlot(
                            delta.dataset, delta.fingerprints
                        )
                        created = True
                    entry = merged[key] = (slot, {})
                slot, bucket = entry
                for point_key, by in delta.counts.items():
                    bucket[point_key] = bucket.get(point_key, 0) + by
                    counts_total += by
                if confidence is not None:
                    slot.confidence = merge_confidences(
                        [slot.confidence, confidence]
                    )
                    sampled += 1
                applied += 1
                acks[index] = {"type": "ack", "seq": delta.seq, "status": "applied"}
            for slot, increments in merged.values():
                slot.counters.apply_increments(
                    {parsed[k]: by for k, by in increments.items()}
                )
            datasets = len(self._datasets)
        if created:
            self.metrics.set_gauge("datasets", datasets)
        if duplicates:
            self.metrics.inc("deltas_duplicate_total", duplicates)
        if sampled:
            self.metrics.inc("sampled_deltas_total", sampled)
        for index, exc in unparseable.items():
            delta = deltas[index]
            if acks[index]["status"] != "rejected":
                continue  # a duplicate: its first copy was judged already
            self.metrics.inc("deltas_rejected_total")
            degrade(
                "aggregate",
                f"delta seq={delta.seq} from {delta.shipper!r} carried "
                f"unparseable counts: {exc}",
                "delta rejected",
                policy=self.policy,
                log=self.degradations,
            )
        return [acks[i] for i in range(len(deltas))], applied, counts_total

    @staticmethod
    def _frame_bytes(frame: dict, wire_bytes: int | None) -> int:
        if wire_bytes is not None:
            return wire_bytes
        return len(json.dumps(frame, separators=(",", ":")))

    def _quarantine_delta(self, delta: ProfileDelta, stale: list[str]) -> dict:
        with self._lock:
            self._quarantine_index += 1
            index = self._quarantine_index
        reason = (
            f"delta seq={delta.seq} from {delta.shipper!r} was collected "
            f"against different source for {', '.join(stale)}"
        )
        self.quarantine.add(index, delta.dataset, "stale", reason)
        self.metrics.inc("deltas_quarantined_total")
        degrade(
            "aggregate",
            reason,
            "delta quarantined; healthy shippers keep merging",
            policy=self.policy,
            log=self.degradations,
        )
        return {"type": "ack", "seq": delta.seq, "status": "stale"}

    def _handle_rollback(self, frame: dict) -> dict:
        """``pgmp rollback`` over the wire: force a manual rollback."""
        if self.controller is None:
            return {
                "type": "rollback",
                "status": "unavailable",
                "error": "no recompile controller configured",
            }
        reason = str(frame.get("reason", "manual rollback (wire request)"))
        try:
            decision = self.controller.rollback(reason=reason)
        except Exception as exc:
            degrade(
                "rollback",
                f"rollback raised: {exc}",
                "keeping the currently-deployed artifact",
                policy=self.policy,
                log=self.degradations,
            )
            return {"type": "rollback", "status": "failed", "error": str(exc)}
        return {
            "type": "rollback",
            "status": "ok" if decision.recompiled else "unavailable",
            "generation": decision.generation,
            "reason": decision.reason,
        }

    def _handle_observe(self, frame: dict) -> dict:
        """A serving-path health sample for the rollout watch window."""
        if self.controller is None:
            return {
                "type": "ack",
                "status": "ignored",
                "error": "no recompile controller configured",
            }
        ok = frame.get("ok")
        if not isinstance(ok, bool):
            self.metrics.inc("deltas_rejected_total")
            return {
                "type": "ack",
                "status": "rejected",
                "error": "observe frame needs a boolean 'ok'",
            }
        latency = frame.get("latency")
        if latency is not None and not isinstance(latency, (int, float)):
            self.metrics.inc("deltas_rejected_total")
            return {
                "type": "ack",
                "status": "rejected",
                "error": "observe frame 'latency' must be a number",
            }
        decision = self.controller.observe_health(
            ok, float(latency) if latency is not None else None
        )
        response: dict = {"type": "ack", "status": "observed",
                          "rolled_back": decision is not None}
        if decision is not None:
            response["generation"] = decision.generation
            response["reason"] = decision.reason
        return response

    def _delta_confidence(self, delta: ProfileDelta) -> DatasetConfidence | None:
        """The confidence an applied delta contributes to its slot: its
        own record when sampled; an untagged delta is exact."""
        confidence = delta.confidence
        return confidence if confidence is not None and confidence.is_sampled else None

    def _stale_files(self, fingerprints: Mapping[str, str]) -> list[str]:
        return sorted(
            filename
            for filename, digest in fingerprints.items()
            if filename in self.expected_fingerprints
            and self.expected_fingerprints[filename] != digest
        )

    def _stats_frame(self) -> dict:
        with self._lock:
            datasets = {}
            for key, slot in self._datasets.items():
                entry = {
                    "name": slot.counters.name,
                    "total": slot.counters.total(),
                    "points": len(slot.counters),
                    "fingerprints": dict(slot.fingerprints),
                }
                if slot.confidence is not None and slot.confidence.is_sampled:
                    entry["confidence"] = slot.confidence.to_json_object()
                datasets[key] = entry
            shippers = {
                shipper: self._ledger.applied_count(shipper)
                for shipper in self._ledger.shippers()
            }
        stats: dict = {
            "type": "stats",
            "datasets": datasets,
            "shippers": shippers,
            "quarantined": len(self.quarantine),
            "metrics": self.metrics.snapshot(),
        }
        if self.controller is not None:
            rollout = self.controller.rollout_status()
            if rollout is not None:
                stats["rollout"] = rollout
        return stats

    # -- merged views ------------------------------------------------------

    def total_counts(self) -> int:
        """Sum of every applied increment (the zero-loss check)."""
        with self._lock:
            slots = list(self._datasets.values())
        return sum(slot.counters.total() for slot in slots)

    def merged_database(self) -> ProfileDatabase:
        """The merged profile as a standard :class:`ProfileDatabase`.

        One data set per live (dataset, fingerprint) counter set — the
        same weighted Figure-3 merge the batch workflow computes.
        """
        with self._lock:
            slots = list(self._datasets.values())
        return ProfileDatabase.from_counter_sets(
            [slot.counters for slot in slots],
            name=self.name,
            fingerprints=[slot.fingerprints for slot in slots],
            confidences=[slot.confidence for slot in slots],
        )

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> bool:
        """Atomically persist the merged profile (and private state).

        Returns whether both writes succeeded; failures degrade per
        policy (an unwritable disk must not take the ingest path down).
        """
        ok = True
        if self.checkpoint_path:
            try:
                self.merged_database().store(self.checkpoint_path)
            except OSError as exc:
                ok = False
                self.metrics.inc("checkpoint_failures_total")
                degrade(
                    "checkpoint",
                    f"{self.checkpoint_path}: {exc}",
                    "profile checkpoint skipped; counts remain in memory",
                    policy=self.policy,
                    log=self.degradations,
                )
        if self.state_path:
            try:
                atomic_write_text(self.state_path, self._state_payload())
            except OSError as exc:
                ok = False
                self.metrics.inc("checkpoint_failures_total")
                degrade(
                    "checkpoint",
                    f"{self.state_path}: {exc}",
                    "state checkpoint skipped; a restart would lose counts",
                    policy=self.policy,
                    log=self.degradations,
                )
        if ok and (self.checkpoint_path or self.state_path):
            self.metrics.inc("checkpoints_total")
        return ok

    def _state_payload(self) -> str:
        with self._lock:
            datasets = []
            for key, slot in self._datasets.items():
                entry: dict = {
                    "key": key,
                    "name": slot.counters.name,
                    "fingerprints": dict(slot.fingerprints),
                    "counts": slot.counters.as_key_mapping(),
                }
                if slot.confidence is not None and slot.confidence.is_sampled:
                    entry["confidence"] = slot.confidence.to_json_object()
                datasets.append(entry)
            ledger = self._ledger.to_json_object()
        payload = {
            "format": "pgmp-service-state",
            "version": STATE_FORMAT_VERSION,
            "name": self.name,
            "datasets": datasets,
            "ledger": ledger,
        }
        payload.update(self._state_extra())
        return json.dumps(payload, indent=2, sort_keys=True)

    def _state_extra(self) -> dict:
        """Extra keys a subclass persists in the state file.

        The fleet's shard aggregator stores its uplink cursor here so a
        restarted shard resumes the shard → root stream without loss or
        double-count. The base aggregator has nothing to add.
        """
        return {}

    def _restore_extra(self, obj: dict) -> None:
        """Counterpart of :meth:`_state_extra` on restore (may raise —
        the caller degrades to a cold start on any failure)."""

    def _load_state(self) -> None:
        """Resume counts + ledger from a state checkpoint, if present.

        Corrupt or torn state degrades to a cold start (per policy) — the
        aggregator serves either way; with the v2 checkpoint written
        atomically, a *well-formed-but-old* state is the worst non-fault
        case, and shipper spill replay + the ledger close the gap.
        """
        try:
            with open(self.state_path, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
                obj = json.load(handle)
            if not isinstance(obj, dict) or obj.get("format") != "pgmp-service-state":
                raise DeltaFormatError(
                    f"not a pgmp service state file "
                    f"(format={obj.get('format') if isinstance(obj, dict) else None!r})"
                )
            if obj.get("version") != STATE_FORMAT_VERSION:
                raise DeltaFormatError(
                    f"unsupported state version {obj.get('version')!r}"
                )
            datasets = obj.get("datasets")
            if not isinstance(datasets, list):
                raise DeltaFormatError("state file missing 'datasets' list")
            restored: dict[str, _DatasetSlot] = {}
            for entry in datasets:
                if not isinstance(entry, dict):
                    raise DeltaFormatError("malformed state dataset entry")
                slot = _DatasetSlot(
                    str(entry.get("name", "dataset")),
                    entry.get("fingerprints", {}),
                )
                slot.counters.apply_key_increments(entry.get("counts", {}))
                raw_conf = entry.get("confidence")
                if raw_conf is not None:
                    slot.confidence = DatasetConfidence.from_json_object(
                        raw_conf
                    )
                restored[str(entry["key"])] = slot
            ledger = DeltaLedger.from_json_object(obj.get("ledger", {}))
            self._restore_extra(obj)
        except FileNotFoundError:
            return
        except Exception as exc:
            degrade(
                "restore",
                f"{self.state_path}: {exc}",
                "starting with empty counters (cold start)",
                policy=self.policy,
                log=self.degradations,
            )
            return
        with self._lock:
            self._datasets = restored
            self._ledger = ledger
            self.metrics.set_gauge("datasets", len(restored))

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> ServiceAddress:
        """The bound address (with the real port once started)."""
        return self._server.address if self._server is not None else self.listen

    def start(self) -> "ProfileAggregator":
        """Bind, start the transport + housekeeping (+ metrics HTTP)."""
        if self._server is not None:
            return self
        self._server = AsyncFrameServer(
            self, self.listen, self.read_timeout
        ).start()
        self._stop.clear()
        self._housekeeper = threading.Thread(
            target=self._housekeeping, name="pgmp-aggregator-housekeeping",
            daemon=True,
        )
        self._housekeeper.start()
        if self.metrics_port is not None:
            self._start_metrics_server(self.metrics_port)
        logger.info("aggregator %s listening on %s", self.name, self.address)
        return self

    def _housekeeping(self) -> None:
        while not self._stop.wait(self.checkpoint_interval):
            self.checkpoint()
            self.run_controller()

    def run_controller(self) -> RecompilationDecision | None:
        """One controller evaluation over the current merged profile."""
        if self.controller is None:
            return None
        try:
            return self.controller.maybe_recompile(self.merged_database())
        except Exception as exc:
            degrade(
                "recompile",
                f"controller raised: {exc}",
                "keeping the previously-deployed artifact",
                policy=self.policy,
                log=self.degradations,
            )
            return None

    def stop(
        self, join_timeout: float = 10.0, *, checkpoint: bool = True
    ) -> StopResult:
        """Stop serving, final checkpoint, release the port/socket.

        Returns a :class:`StopResult`; a thread still alive after
        ``join_timeout`` is reported there (and logged as an error)
        instead of being silently abandoned. ``checkpoint=False`` skips
        the final checkpoint — the chaos suite uses it to model a crash
        that never got to flush state.
        """
        result = StopResult()
        self._stop.set()
        if self._server is not None:
            self._join_or_report(self._server.stop(), join_timeout, result)
            self._server = None
        self._housekeeper = self._join_or_report(
            self._housekeeper, join_timeout, result
        )
        if self._metrics_server is not None:
            self._metrics_server.shutdown()
            self._metrics_server.server_close()
            self._metrics_server = None
        self._metrics_thread = self._join_or_report(
            self._metrics_thread, join_timeout, result
        )
        result.checkpoint_ok = self.checkpoint() if checkpoint else True
        logger.info("aggregator %s stopped (%s)", self.name, result)
        return result

    def _join_or_report(
        self,
        thread: threading.Thread | None,
        join_timeout: float,
        result: StopResult,
    ) -> threading.Thread | None:
        if thread is None:
            return None
        thread.join(timeout=join_timeout)
        if thread.is_alive():
            result.stuck_threads.append(thread.name)
            logger.error(
                "thread %r did not stop within %.1fs; abandoning it "
                "(daemon thread, dies with the process)",
                thread.name, join_timeout,
            )
        return None

    def __enter__(self) -> "ProfileAggregator":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- metrics HTTP endpoint ---------------------------------------------

    def _healthz_body(self) -> str:
        """The ``/healthz`` response body (the fleet root appends the
        per-shard liveness summary by overriding this)."""
        rollout = (
            self.controller.rollout_status()
            if self.controller is not None
            else None
        )
        if rollout is not None:
            return (
                f"ok generation={rollout['generation']} "
                f"breaker={rollout['breaker']}\n"
            )
        return "ok\n"

    def _start_metrics_server(self, port: int) -> None:
        aggregator = self

        class MetricsHandler(http.server.BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path == "/metrics":
                    body = aggregator.metrics.render().encode("utf-8")
                    self.send_response(200)
                    self.send_header(
                        "Content-Type", "text/plain; version=0.0.4"
                    )
                elif self.path == "/healthz":
                    body = aggregator._healthz_body().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain")
                else:
                    body = b"not found\n"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # metrics scrapes must not spam the server's stderr

        server = http.server.ThreadingHTTPServer(("127.0.0.1", port), MetricsHandler)
        server.daemon_threads = True
        self._metrics_server = server
        self._metrics_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="pgmp-aggregator-metrics",
            daemon=True,
        )
        self._metrics_thread.start()

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        if self._metrics_server is None:
            return None
        host, port = self._metrics_server.server_address[:2]
        return str(host), int(port)

    def __repr__(self) -> str:
        return (
            f"<ProfileAggregator {self.address} "
            f"datasets={len(self._datasets)} "
            f"applied={int(self.metrics.counter('deltas_applied_total'))}>"
        )
