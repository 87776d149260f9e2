"""The worker-side client: ship counter deltas to an aggregator or a fleet.

A :class:`ProfileShipper` wraps the counter set an instrumented worker is
already bumping (typically a lock-free
:class:`~repro.core.counters.ShardedCounterSet`) and periodically flushes
the *increments since the last flush* as :class:`ProfileDelta`s to the
aggregation service: one aggregator, or the shards of a fleet
(:mod:`repro.service.fleet`). The paper's §3.2 merge is additive and
commutative, so splitting a flush by profile-point key is only routing: a
single aggregator is a ring of one. Each destination has a :class:`Lane`
— its connection, bounded queue, spill log and sequence numbers. Design
invariants:

* **The hot path is untouched** — instrumented code keeps incrementing
  its counter set; the shipper only ever *reads* snapshots.
* **One cut per flush.** A flush takes one snapshot, diffs it against
  one baseline, and routes each changed key to its shard's lane once
  (the key's shard is remembered: ring membership never changes).
* **Profile loss degrades, never crashes.** Every failure (unreachable
  aggregator, full queue, failed spill, quarantined delta) routes
  through the standard :func:`repro.core.policy.degrade` choke point:
  ``strict`` raises, ``warn``/``ignore`` record the reason and keep the
  worker serving.
* **Delivery is at-least-once, counted exactly once.** Undeliverable
  deltas go to a lane's bounded in-memory queue, overflow to its
  :class:`~repro.service.spill.SpillLog`, and are replayed after
  reconnecting; the aggregator's ledger drops duplicates.
* **Reconnects back off exponentially, with jitter** — the
  :class:`~repro.service.transport.FrameClient` de-correlates the retries
  of workers that lost the same aggregator.
* **Every send is a compressed batch frame** — queued deltas, and the
  spill log on replay, go out many deltas to a round trip and one ack,
  in as many frames as the frame-size limit needs.
* **A restarted shard is re-resolved in place.** When a lane keeps
  failing, the flush asks the fleet root for its ``ring`` frame and
  retargets that lane's client. In place matters: a fresh lane would
  restart sequence numbers at 1 under a new identity while the restarted
  shard's restored ledger still remembers the old one.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.counters import BaseCounterSet
from repro.core.errors import BackpressureError, DeltaFormatError, PgmpError, ServiceError
from repro.core.policy import DegradationLog, ProfilePolicy, degrade
from repro.obs.logs import get_logger
from repro.profiling.reconstruct import confidence_for_counts
from repro.service.delta import DeltaBatch, ProfileDelta
from repro.service.fleet.ring import HashRing
from repro.service.spill import SpillLog
from repro.service.transport import FrameClient, ServiceAddress, parse_address, request

logger = get_logger(__name__)

__all__ = ["ProfileShipper", "fetch_ring"]


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


def fetch_ring(root: "str | ServiceAddress", timeout: float = 5.0) -> dict:
    """Ask the fleet root merger for the current shard map.

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


@dataclass(eq=False)
class Lane:
    """One destination's delivery state.

    ``shard`` is ``None`` for a single aggregator. ``seq`` is the last
    sequence number cut under ``shipper_id``.
    """

    shard: str | None
    shipper_id: str
    client: FrameClient
    spill: SpillLog | None
    queue: deque[ProfileDelta] = field(default_factory=deque)
    seq: int = 0


class ProfileShipper:
    """Flush counter increments to an aggregator as idempotent deltas.

    ``address`` is one aggregator's address, or a ``{shard id: address}``
    map of a fleet's shards. One address gives one lane shipping under
    ``shipper_id``, spilling to the file ``spill_path``. A shard map gives
    one lane per shard, shipping as ``<shipper_id>.<shard>`` and spilling
    to ``<shard>.spill`` in the directory ``spill_path``; ``root`` is the
    fleet root merger a failing lane re-resolves its shard through.

    :meth:`flush` returns the delta it cut, or ``None`` if nothing
    accumulated. With one address that is exactly the delta it queued;
    with a shard map it is the flush's whole increment under
    ``shipper_id``, of which each lane ships its own part.

    May be driven manually (:meth:`flush` after each unit of work, or
    :meth:`maybe_flush` on the fast path) or as a background daemon
    (:meth:`start` / :meth:`close`) flushing every ``flush_interval``
    seconds.

    ``shipper_id`` names one *incarnation* of a worker: sequence numbers
    restart at 1 with every new shipper object, so a restarted worker must
    use a fresh id (the default includes random bytes). Spilled frames
    embed the id they were cut under, which keeps spill replay idempotent
    across restarts without any id coordination.
    """

    #: consecutive failures on one lane before a re-resolve is attempted
    RERESOLVE_AFTER_FAILURES = 2
    #: minimum seconds between re-resolve attempts
    RERESOLVE_COOLDOWN = 1.0

    def __init__(
        self,
        counters: BaseCounterSet,
        address: "str | ServiceAddress | Mapping[str, str | ServiceAddress]",
        *,
        root: "str | ServiceAddress | None" = None,
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
        #: when the wrapped counters hold *sampled* data reconstructed at
        #: this scaling factor, every cut delta carries a matching
        #: confidence record so the aggregator can merge error bars.
        #: ``None`` (the default) ships plain exact deltas.
        self.sample_scale = None if sample_scale is None else float(sample_scale)
        if self.sample_scale is not None and self.sample_scale < 1.0:
            raise ServiceError(
                f"sample_scale must be >= 1, got {self.sample_scale}"
            )

        def client(destination: "str | ServiceAddress") -> FrameClient:
            return FrameClient(
                destination,
                timeout=timeout,
                backoff_base=backoff_base,
                backoff_max=backoff_max,
                backoff_jitter=backoff_jitter,
                rng=rng,
            )

        #: the fleet's hash ring, or ``None`` for a single aggregator
        self.ring: HashRing | None = None
        #: shard id -> its lane (empty for a single aggregator)
        self._shard_lanes: dict[str, Lane] = {}
        self.lanes: tuple[Lane, ...]
        if isinstance(address, Mapping):
            if not address:
                raise ServiceError("a shard map needs at least one shard")
            if spill_path is not None:
                os.makedirs(spill_path, exist_ok=True)
            self.ring = HashRing(address)
            for shard in sorted(address):
                spill = None
                if spill_path is not None:
                    spill = SpillLog(os.path.join(spill_path, f"{shard}.spill"))
                self._shard_lanes[shard] = Lane(
                    shard, f"{self.shipper_id}.{shard}", client(address[shard]), spill
                )
            self.lanes = tuple(self._shard_lanes.values())
        else:
            if root is not None:
                raise ServiceError("root= re-resolves shards; it needs a shard map")
            spill = None if spill_path is None else SpillLog(spill_path)
            self.lanes = (Lane(None, self.shipper_id, client(address), spill),)
        self.root = parse_address(root) if root is not None else None

        self._lock = threading.RLock()
        #: the last sequence number of a whole cut under ``shipper_id``
        #: (a shard map's lanes number their parts themselves)
        self._seq = 0
        self._baseline: dict[str, int] = {}
        #: point key -> its shard's lane, filled as keys first change
        self._routes: dict[str, Lane] = {}
        self._last_reresolve = 0.0
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

    def _delta(self, shipper: str, seq: int, counts: dict[str, int]) -> ProfileDelta:
        confidence = None
        if self.sample_scale is not None:
            confidence = confidence_for_counts(counts, self.sample_scale)
        return ProfileDelta(
            shipper=shipper,
            seq=seq,
            dataset=self.dataset,
            counts=counts,
            fingerprints=self.fingerprints,
            confidence=confidence,
        )

    def _split(self, increments: dict[str, int]) -> dict[Lane, dict[str, int]]:
        """Each lane's part of a flush's increments."""
        if self.ring is None or len(self.lanes) == 1:
            return {self.lanes[0]: increments}  # a ring of one routes nothing
        parts: dict[Lane, dict[str, int]] = {}
        for key, count in increments.items():
            lane = self._routes.get(key)
            if lane is None:
                lane = self._routes[key] = self._shard_lanes[self.ring.route(key)]
            part = parts.get(lane)
            if part is None:
                part = parts[lane] = {}
            part[key] = count
        return parts

    def _cut(self, increments: dict[str, int]) -> ProfileDelta:
        """Queue each lane's part of ``increments`` as its next delta;
        returns the one delta of a single aggregator, else the whole."""
        for lane, counts in self._split(increments).items():
            lane.seq += 1
            delta = self._delta(lane.shipper_id, lane.seq, counts)
            self._enqueue(lane, delta)
        if self.ring is not None:
            self._seq += 1
            delta = self._delta(self.shipper_id, self._seq, increments)
        return delta

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
            delta = self._cut(increments) if increments else None
            self._deliver()
            return delta

    def maybe_flush(self) -> ProfileDelta | None:
        """Flush only once ``flush_threshold`` new counts accumulated."""
        if self.pending_counts() >= self.flush_threshold:
            return self.flush()
        with self._lock:
            self._deliver()
        return None

    # -- queueing and backpressure ----------------------------------------

    def _enqueue(self, lane: Lane, delta: ProfileDelta) -> None:
        lane.queue.append(delta)
        while len(lane.queue) > self.max_pending:
            self._spill(
                lane,
                [lane.queue.popleft()],
                f"delta queue overflowed ({self.max_pending} pending)",
            )

    def _spill(self, lane: Lane, deltas: list[ProfileDelta], why: str) -> None:
        """Append undeliverable deltas to the lane's spill log; what cannot
        be spilled is dropped through :func:`degrade`."""
        lost = []
        cause = "no spill path configured"
        for delta in deltas:
            if lane.spill is not None:
                try:
                    lane.spill.append(delta.to_json_object())
                    self.spilled_deltas += 1
                    continue
                except OSError as exc:
                    cause = f"spill to {lane.spill.path} failed: {exc}"
            lost.append(delta)
        if not lost:
            return
        self.dropped_deltas += len(lost)
        degrade(
            "ship",
            f"{why}; {cause}",
            f"dropping {len(lost)} delta(s) from seq={lost[0].seq} "
            f"({sum(delta.total() for delta in lost)} counts)",
            error=BackpressureError(f"{why} and {cause}"),
            policy=self.policy,
            log=self.degradations,
        )

    # -- delivery ----------------------------------------------------------

    def _note_failure(self, lane: Lane, reason: str) -> None:
        delay = lane.client.back_off()
        degrade(
            "ship",
            f"aggregator {lane.client.address} unreachable: {reason}",
            f"buffering deltas; retrying in {delay:.2f}s "
            f"(attempt {lane.client.failures})",
            policy=self.policy,
            log=self.degradations,
        )

    def _send(self, lane: Lane, deltas: list[ProfileDelta], replayed: bool) -> int:
        """Send ``deltas`` as batch frames and account each one's status.

        Returns how many of them, from the front, were acked. After a
        failure the client backs off and the rest stays with the caller;
        the aggregator's ledger settles the resend of a batch that was
        applied after all.
        """
        acked = 0
        try:
            for run, response in lane.client.request_batches(deltas, _batch_frame):
                statuses = _batch_statuses(response, len(run))
                for delta, status in zip(run, statuses):
                    self._account(status, delta, replayed)
                acked += len(run)
        except (OSError, ServiceError) as exc:
            self._note_failure(lane, str(exc))
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

    def _replay_spill(self, lane: Lane) -> bool:
        """Deliver every spilled delta; returns True when the spill is clear.

        The log is cleared only after every batch is acked, so a failed
        replay leaves it whole and the next one resends it all; the
        aggregator's ledger acks the already-applied part as duplicates.
        """
        if lane.spill is None:
            return True
        frames, torn = lane.spill.replay()
        if torn:
            degrade(
                "ship",
                f"spill log {lane.spill.path} has a torn tail",
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
                    f"spill log {lane.spill.path} held a corrupt frame: {exc}",
                    "discarding that frame",
                    policy=self.policy,
                    log=self.degradations,
                )
        if self._send(lane, deltas, replayed=True) < len(deltas):
            return False
        lane.spill.clear()
        return True

    def _drain(self, lane: Lane) -> None:
        """Push the lane's spilled then queued deltas (best effort)."""
        if not lane.queue and (lane.spill is None or not lane.spill.size_bytes()):
            return
        if not lane.client.ready():
            return
        if not self._replay_spill(lane):
            return
        for _ in range(self._send(lane, list(lane.queue), replayed=False)):
            lane.queue.popleft()

    def _deliver(self) -> None:
        self._maybe_reresolve()
        for lane in self.lanes:
            self._drain(lane)

    # -- failover ----------------------------------------------------------

    def _maybe_reresolve(self) -> None:
        """Re-resolve shard addresses when a lane looks down (rate-limited)."""
        if self.root is None:
            return
        # The client's own backoff counter keeps failover reactive without
        # a second health probe.
        if not any(
            lane.client.failures >= self.RERESOLVE_AFTER_FAILURES
            for lane in self.lanes
        ):
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

        Retargets each changed lane's client **in place** (see the module
        docs for why a new lane would break dedup), which also drops its
        connection and backoff. Returns the shard ids whose address
        changed.
        """
        if self.root is None:
            raise ServiceError("no root address configured for re-resolve")
        shards = fetch_ring(self.root)
        changed = []
        with self._lock:
            for shard, lane in self._shard_lanes.items():
                info = shards.get(shard)
                if not isinstance(info, dict):
                    continue
                address = info.get("address")
                if not isinstance(address, str):
                    continue
                parsed = parse_address(address)
                if parsed != lane.client.address:
                    lane.client.retarget(parsed)
                    changed.append(shard)
                    logger.info(
                        "shipper %s re-resolved shard %s to %s",
                        self.shipper_id, shard, parsed,
                    )
        return changed

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
            self.shipper_id, self.flush_interval, self._destinations(),
        )
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.flush_interval):
            try:
                self.flush()
            except PgmpError as exc:  # strict: log, retry at the next interval
                logger.warning("shipper %s: flush failed: %s", self.shipper_id, exc)

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
                try:
                    for lane in self.lanes:
                        undelivered = list(lane.queue)
                        lane.queue.clear()
                        self._spill(lane, undelivered, "delta(s) undelivered at close")
                finally:
                    for lane in self.lanes:
                        lane.client.close()
        logger.info(
            "shipper %s closed (shipped=%d spilled=%d dropped=%d)",
            self.shipper_id, self.shipped_deltas, self.spilled_deltas,
            self.dropped_deltas,
        )

    def __enter__(self) -> "ProfileShipper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _destinations(self) -> str:
        return ", ".join(str(lane.client.address) for lane in self.lanes)

    def __repr__(self) -> str:
        return (
            f"<ProfileShipper {self.shipper_id!r} -> {self._destinations()} "
            f"queued={sum(len(lane.queue) for lane in self.lanes)}>"
        )
