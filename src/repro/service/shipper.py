"""The worker-side client: ship counter deltas to an aggregator.

A :class:`ProfileShipper` wraps the counter set an instrumented worker is
already bumping (typically a lock-free
:class:`~repro.core.counters.ShardedCounterSet`) and periodically flushes
the *increments since the last flush* as :class:`ProfileDelta`s to the
aggregation service. Design invariants:

* **The hot path is untouched** — instrumented code keeps incrementing
  its counter set; the shipper only ever *reads* snapshots.
* **Profile loss degrades, never crashes.** Every failure (unreachable
  aggregator, full queue, quarantined delta) routes through the standard
  :func:`repro.core.policy.degrade` choke point: ``strict`` raises,
  ``warn``/``ignore`` record the reason and keep the worker serving.
* **Delivery is at-least-once, counted exactly once.** Undeliverable
  deltas go to a bounded in-memory queue, overflow to a
  :class:`~repro.service.spill.SpillLog`, and are replayed after
  reconnecting; the aggregator's ledger drops duplicates.
* **Reconnects back off exponentially, with jitter** — the
  :class:`~repro.service.transport.FrameClient` de-correlates the retries
  of workers that lost the same aggregator.
* **Every send is a compressed batch frame** — queued deltas, and the
  spill log on replay, go out many deltas to a round trip and one ack,
  in as many frames as the frame-size limit needs.
"""

from __future__ import annotations

import os
import random
import socket
import threading
from collections import deque
from collections.abc import Mapping, Sequence

from repro.core.counters import BaseCounterSet
from repro.core.errors import BackpressureError, DeltaFormatError, ServiceError
from repro.core.policy import DegradationLog, ProfilePolicy, degrade
from repro.obs.logs import get_logger
from repro.profiling.reconstruct import confidence_for_counts
from repro.service.delta import DeltaBatch, ProfileDelta
from repro.service.spill import SpillLog
from repro.service.transport import FrameClient, ServiceAddress

logger = get_logger(__name__)

__all__ = ["ProfileShipper"]


def _default_shipper_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{os.urandom(4).hex()}"


def _batch_frame(deltas: Sequence[ProfileDelta]) -> dict:
    return DeltaBatch(deltas=tuple(deltas)).to_json_object()


def _batch_statuses(response: object, count: int) -> list[str]:
    """Each delta's status from the ack of a ``count``-delta batch."""
    if (
        not isinstance(response, dict)
        or response.get("type") != "ack"
        or response.get("status") != "batch"
    ):
        raise ServiceError(f"aggregator sent no batch ack (got {response!r})")
    acks = response.get("acks")
    if acks is None and response.get("applied") == count:
        return ["applied"] * count  # condensed ack: every delta applied
    if not isinstance(acks, list) or len(acks) != count:
        raise ServiceError(
            f"batch ack carries {len(acks) if isinstance(acks, list) else 0}"
            f" statuses for {count} deltas"
        )
    statuses = []
    for ack in acks:
        status = ack.get("status") if isinstance(ack, dict) else None
        if status not in ("applied", "duplicate", "stale", "rejected"):
            raise ServiceError(f"batch ack carries unknown status {status!r}")
        statuses.append(str(status))
    return statuses


class ProfileShipper:
    """Flush counter increments to an aggregator as idempotent deltas.

    May be driven manually (:meth:`flush` after each unit of work, or
    :meth:`maybe_flush` on the fast path) or as a background daemon
    (:meth:`start` / :meth:`close`) flushing every ``flush_interval``
    seconds and whenever ``flush_threshold`` new counts have accumulated.

    ``shipper_id`` names one *incarnation* of a worker: sequence numbers
    restart at 1 with every new shipper object, so a restarted worker must
    use a fresh id (the default includes random bytes). Spilled frames
    embed the id they were cut under, which keeps spill replay idempotent
    across restarts without any id coordination.
    """

    def __init__(
        self,
        counters: BaseCounterSet,
        address: str | ServiceAddress,
        *,
        dataset: str | None = None,
        fingerprints: Mapping[str, str] | None = None,
        shipper_id: str | None = None,
        flush_interval: float = 1.0,
        flush_threshold: int = 10_000,
        max_pending: int = 64,
        spill_path: str | os.PathLike[str] | None = None,
        policy: ProfilePolicy | str = ProfilePolicy.WARN,
        degradations: DegradationLog | None = None,
        backoff_base: float = 0.05,
        backoff_max: float = 5.0,
        backoff_jitter: float = 0.5,
        rng: random.Random | None = None,
        timeout: float = 5.0,
        sample_scale: float | None = None,
    ) -> None:
        self.counters = counters
        #: the aggregator connection, its backoff and its retry gate
        self.client = FrameClient(
            address,
            timeout=timeout,
            backoff_base=backoff_base,
            backoff_max=backoff_max,
            backoff_jitter=backoff_jitter,
            rng=rng,
        )
        self.dataset = dataset if dataset is not None else counters.name
        self.fingerprints = dict(fingerprints) if fingerprints else {}
        self.shipper_id = shipper_id or _default_shipper_id()
        self.flush_interval = float(flush_interval)
        self.flush_threshold = int(flush_threshold)
        self.max_pending = int(max_pending)
        self.policy = ProfilePolicy.coerce(policy)
        self.degradations = (
            degradations if degradations is not None else DegradationLog()
        )
        self.spill = SpillLog(spill_path) if spill_path is not None else None
        #: when the wrapped counters hold *sampled* data reconstructed at
        #: this scaling factor, every cut delta carries a matching
        #: confidence record so the aggregator can merge error bars.
        #: ``None`` (the default) ships plain exact deltas.
        self.sample_scale = None if sample_scale is None else float(sample_scale)
        if self.sample_scale is not None and self.sample_scale < 1.0:
            raise ServiceError(
                f"sample_scale must be >= 1, got {self.sample_scale}"
            )

        self._lock = threading.RLock()
        self._seq = 0
        self._baseline: dict[str, int] = {}
        self._queue: deque[ProfileDelta] = deque()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

        # -- delivery stats (for tests and ship-side reporting) ------------
        self.shipped_deltas = 0
        self.shipped_counts = 0
        self.duplicate_deltas = 0
        self.quarantined_deltas = 0
        self.rejected_deltas = 0
        self.spilled_deltas = 0
        self.replayed_deltas = 0
        self.dropped_deltas = 0

    @property
    def address(self) -> ServiceAddress:
        """The aggregator's address (``client.retarget`` moves it)."""
        return self.client.address

    # -- delta construction ------------------------------------------------

    def _diff_since_baseline(self) -> dict[str, int]:
        """Per-key increments between the baseline and a fresh snapshot."""
        now = self.counters.as_key_mapping()
        increments: dict[str, int] = {}
        rewound = []
        for key, count in now.items():
            before = self._baseline.get(key, 0)
            if count > before:
                increments[key] = count - before
            elif count < before:
                rewound.append(key)
        if rewound:
            # The counter set was cleared/replaced under us. Re-baseline on
            # the new values (shipping them as fresh increments) instead of
            # silently wedging on an impossible negative delta.
            degrade(
                "ship",
                f"counter set {self.counters.name!r} went backwards for "
                f"{len(rewound)} point(s) (cleared mid-flight?)",
                "re-baselining on the current counts",
                policy=self.policy,
                log=self.degradations,
            )
            for key in rewound:
                increments[key] = now[key]
        self._baseline = now
        return increments

    def pending_counts(self) -> int:
        """How many counts have accumulated since the last flush."""
        with self._lock:
            baseline_total = sum(self._baseline.values())
        return max(0, self.counters.total() - baseline_total)

    def flush(self) -> ProfileDelta | None:
        """Cut a delta from the counter increments since the last flush,
        queue it, and attempt delivery. Returns the delta (or ``None`` if
        nothing accumulated)."""
        with self._lock:
            increments = self._diff_since_baseline()
            delta = None
            if increments:
                self._seq += 1
                confidence = None
                if self.sample_scale is not None:
                    confidence = confidence_for_counts(
                        increments, self.sample_scale
                    )
                delta = ProfileDelta(
                    shipper=self.shipper_id,
                    seq=self._seq,
                    dataset=self.dataset,
                    counts=increments,
                    fingerprints=self.fingerprints,
                    confidence=confidence,
                )
                self._enqueue(delta)
            self._drain()
            return delta

    def maybe_flush(self) -> ProfileDelta | None:
        """Flush only once ``flush_threshold`` new counts accumulated."""
        if self.pending_counts() >= self.flush_threshold:
            return self.flush()
        with self._lock:
            self._drain()
        return None

    # -- queueing and backpressure ----------------------------------------

    def _enqueue(self, delta: ProfileDelta) -> None:
        self._queue.append(delta)
        while len(self._queue) > self.max_pending:
            overflow = self._queue.popleft()
            if self.spill is not None:
                try:
                    self.spill.append(overflow.to_json_object())
                    self.spilled_deltas += 1
                    continue
                except OSError as exc:
                    degrade(
                        "ship",
                        f"spill to {self.spill.path} failed: {exc}",
                        f"dropping delta seq={overflow.seq} "
                        f"({overflow.total()} counts)",
                        error=BackpressureError(
                            f"delta queue overflowed ({self.max_pending}) and "
                            f"spilling failed: {exc}"
                        ),
                        policy=self.policy,
                        log=self.degradations,
                    )
            else:
                degrade(
                    "ship",
                    f"delta queue overflowed ({self.max_pending} pending, "
                    f"no spill path configured)",
                    f"dropping oldest delta seq={overflow.seq} "
                    f"({overflow.total()} counts)",
                    error=BackpressureError(
                        f"delta queue overflowed ({self.max_pending} pending) "
                        "and no spill path is configured"
                    ),
                    policy=self.policy,
                    log=self.degradations,
                )
            self.dropped_deltas += 1

    # -- delivery ----------------------------------------------------------

    def _note_failure(self, reason: str) -> None:
        delay = self.client.back_off()
        degrade(
            "ship",
            f"aggregator {self.address} unreachable: {reason}",
            f"buffering deltas; retrying in {delay:.2f}s "
            f"(attempt {self.client.failures})",
            policy=self.policy,
            log=self.degradations,
        )

    def _send(self, deltas: list[ProfileDelta], replayed: bool) -> int:
        """Send ``deltas`` as batch frames and account each one's status.

        Returns how many of them, from the front, were acked. After a
        failure the client backs off and the rest stays with the caller;
        the aggregator's ledger settles the resend of a batch that was
        applied after all.
        """
        acked = 0
        try:
            for run, response in self.client.request_batches(deltas, _batch_frame):
                statuses = _batch_statuses(response, len(run))
                for delta, status in zip(run, statuses):
                    self._account(status, delta, replayed)
                acked += len(run)
        except (OSError, ServiceError) as exc:
            self._note_failure(str(exc))
        return acked

    def _account(self, status: str, delta: ProfileDelta, replayed: bool) -> None:
        if status == "applied":
            self.shipped_deltas += 1
            self.shipped_counts += delta.total()
            if replayed:
                self.replayed_deltas += 1
        elif status == "duplicate":
            self.duplicate_deltas += 1
        elif status == "stale":
            self.quarantined_deltas += 1
            degrade(
                "ship",
                f"aggregator quarantined delta seq={delta.seq} as stale "
                "(source fingerprint mismatch)",
                "delta dropped; profile for the changed source is not merged",
                policy=self.policy,
                log=self.degradations,
            )
        else:  # rejected
            self.rejected_deltas += 1
            degrade(
                "ship",
                f"aggregator rejected delta seq={delta.seq} as malformed",
                "delta dropped",
                policy=self.policy,
                log=self.degradations,
            )

    def _replay_spill(self) -> bool:
        """Deliver every spilled delta; returns True when the spill is clear.

        The log is cleared only after every batch is acked, so a failed
        replay leaves it whole and the next one resends it all; the
        aggregator's ledger acks the already-applied part as duplicates.
        """
        if self.spill is None:
            return True
        frames, torn = self.spill.replay()
        if torn:
            degrade(
                "ship",
                f"spill log {self.spill.path} has a torn tail",
                f"recovered {len(frames)} complete delta(s); the torn tail "
                "is lost",
                policy=self.policy,
                log=self.degradations,
            )
        deltas = []
        for frame in frames:
            try:
                deltas.append(ProfileDelta.from_json_object(frame))
            except DeltaFormatError as exc:
                # One bad frame must not poison the batch around it.
                degrade(
                    "ship",
                    f"spill log {self.spill.path} held a corrupt frame: {exc}",
                    "discarding that frame",
                    policy=self.policy,
                    log=self.degradations,
                )
        if self._send(deltas, replayed=True) < len(deltas):
            return False
        self.spill.clear()
        return True

    def _drain(self) -> None:
        """Push spilled then queued deltas to the aggregator (best effort)."""
        if not self._queue and (self.spill is None or not self.spill.size_bytes()):
            return
        if not self.client.ready():
            return
        if not self._replay_spill():
            return
        for _ in range(self._send(list(self._queue), replayed=False)):
            self._queue.popleft()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProfileShipper":
        """Start the background flush thread (daemon)."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name=f"pgmp-shipper-{self.shipper_id}", daemon=True
            )
            self._thread.start()
        logger.info(
            "shipper %s started (flush every %.1fs -> %s)",
            self.shipper_id, self.flush_interval, self.address,
        )
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.flush_interval):
            self.flush()

    def close(self) -> None:
        """Final flush + drain; spill whatever could not be delivered."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=max(5.0, self.flush_interval * 2))
            self._thread = None
        with self._lock:
            try:
                self.flush()
            finally:
                if self._queue and self.spill is not None:
                    while self._queue:
                        delta = self._queue.popleft()
                        try:
                            self.spill.append(delta.to_json_object())
                            self.spilled_deltas += 1
                        except OSError:
                            self.dropped_deltas += 1
                elif self._queue:
                    undelivered = len(self._queue)
                    self._queue.clear()
                    self.dropped_deltas += undelivered
                    degrade(
                        "ship",
                        f"{undelivered} delta(s) undelivered at close "
                        "(no spill path configured)",
                        "profile data for those deltas is lost",
                        policy=self.policy,
                        log=self.degradations,
                    )
                self.client.close()
        logger.info(
            "shipper %s closed (shipped=%d spilled=%d dropped=%d)",
            self.shipper_id, self.shipped_deltas, self.spilled_deltas,
            self.dropped_deltas,
        )

    def __enter__(self) -> "ProfileShipper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ProfileShipper {self.shipper_id!r} -> {self.address} "
            f"seq={self._seq} queued={len(self._queue)}>"
        )
