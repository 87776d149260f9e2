"""The profile-delta wire protocol.

Workers do not ship whole profiles: they ship **deltas** — the counter
increments accumulated since their last flush, tagged with the dataset
name, the v2 source fingerprints of the code being profiled, and a
monotonic per-shipper sequence number. Deltas are:

* **additive** — applying a delta to an aggregator-side counter set yields
  the same totals as if the worker had incremented that set directly;
* **idempotent** — the ``(shipper, seq)`` pair identifies a delta, and a
  :class:`DeltaLedger` refuses re-application, so at-least-once transports
  (retry after a lost ack, replay from a spill file) never double-count;
* **out-of-order tolerant** — addition commutes and the ledger tracks
  applied sequence numbers individually (watermark + sparse set), so
  deltas may arrive in any order.

Wire format (``encode_frame`` / :class:`FrameDecoder`): a 4-byte
big-endian unsigned length prefix followed by that many bytes of compact
UTF-8 JSON. Length-prefixing makes torn writes detectable (a short tail
simply never completes a frame) and keeps the parser incremental — no
sentinel bytes that payload text could collide with.

Wire version 2 adds two things on top of the v1 frames:

* **batching** — a ``batch`` frame carries many deltas and is answered by
  one ack listing a per-delta status, amortizing the round trip (and, on
  a durable shard, the fsync) over the whole batch. It is the only frame
  shippers and shard uplinks send. The lone ``delta`` frame stays
  readable: spill logs store one per spilled delta, and WAL segments
  written before batching was the only wire hold them;
* **compression** — a frame whose length prefix has the top bit set
  carries a zlib-compressed payload. The flag lives outside the payload,
  so each frame's sender chooses per frame and the decoder needs no
  heuristics.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import IO

from repro.core.errors import DeltaFormatError
from repro.profiling.confidence import DatasetConfidence

__all__ = [
    "ProfileDelta",
    "DeltaBatch",
    "DeltaLedger",
    "FrameDecoder",
    "encode_frame",
    "decode_frame_payload",
    "decode_frame_payload_ex",
    "read_frame",
    "write_frame",
    "WIRE_VERSION",
    "SUPPORTED_WIRE_VERSIONS",
    "MAX_FRAME_BYTES",
    "MAX_BATCH_DELTAS",
]

#: Version tag carried in every frame this library emits. Bumped when the
#: frame schema grows; the decoder keeps accepting every version in
#: :data:`SUPPORTED_WIRE_VERSIONS` so old shippers are never locked out.
WIRE_VERSION = 2

#: Frame versions the decoder accepts. v1 is the original lone-delta
#: protocol; v2 adds ``batch`` frames and compressed payloads. WAL, spill
#: and state files on disk may hold either.
SUPPORTED_WIRE_VERSIONS = frozenset({1, 2})

#: Upper bound on a single frame. A delta frame is one flush of one
#: worker's counters — far below this; anything larger is a corrupt or
#: hostile length prefix and must not trigger a giant allocation. The
#: limit applies to the *decompressed* payload of a compressed frame too.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Deltas one ``batch`` frame may carry.
MAX_BATCH_DELTAS = 4096

#: Top bit of the length prefix: the payload is zlib-compressed. The
#: remaining 31 bits are the (compressed) payload length; MAX_FRAME_BYTES
#: is far below 2**31, so flag and length never collide.
_COMPRESSED_FLAG = 0x8000_0000

_LENGTH = struct.Struct(">I")


@dataclass(frozen=True)
class ProfileDelta:
    """Counter increments since one shipper's last flush.

    ``counts`` maps serialized profile-point keys (the storage form used
    by :meth:`repro.core.counters.BaseCounterSet.as_key_mapping`) to
    non-negative increments.
    """

    #: unique id of the emitting shipper (stable across its reconnects)
    shipper: str
    #: monotonic per-shipper sequence number, starting at 1
    seq: int
    #: the data-set name the counts belong to
    dataset: str
    #: point key -> increment since the previous flush
    counts: Mapping[str, int]
    #: {filename: source_fingerprint} of the profiled source (v2 format)
    fingerprints: Mapping[str, str] = field(default_factory=dict)
    #: how the counts were collected; ``None`` means exact (fully
    #: instrumented), so v1 deltas keep their meaning unchanged
    confidence: DatasetConfidence | None = None

    def total(self) -> int:
        """Sum of all increments carried by this delta."""
        return sum(self.counts.values())

    def to_json_object(self) -> dict:
        obj: dict = {
            "type": "delta",
            "v": WIRE_VERSION,
            "shipper": self.shipper,
            "seq": self.seq,
            "dataset": self.dataset,
            "counts": dict(self.counts),
        }
        if self.fingerprints:
            obj["fingerprints"] = dict(self.fingerprints)
        if self.confidence is not None and self.confidence.is_sampled:
            obj["confidence"] = self.confidence.to_json_object()
        return obj

    @classmethod
    def from_json_object(cls, obj: object) -> "ProfileDelta":
        """Validate and rebuild a delta from its wire form.

        Every malformation raises :class:`DeltaFormatError` naming the
        offending field — the aggregator rejects the frame and keeps
        serving, it never crashes on bad input.
        """
        if not isinstance(obj, dict):
            raise DeltaFormatError("delta frame must be a JSON object")
        if obj.get("type") != "delta":
            raise DeltaFormatError(
                f"not a delta frame (type={obj.get('type')!r})"
            )
        if obj.get("v") not in SUPPORTED_WIRE_VERSIONS:
            raise DeltaFormatError(
                f"unsupported delta wire version {obj.get('v')!r} "
                f"(supported: {sorted(SUPPORTED_WIRE_VERSIONS)})"
            )
        shipper = obj.get("shipper")
        if not isinstance(shipper, str) or not shipper:
            raise DeltaFormatError("delta 'shipper' must be a non-empty string")
        seq = obj.get("seq")
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            raise DeltaFormatError(
                f"delta 'seq' must be a positive integer, got {seq!r}"
            )
        dataset = obj.get("dataset")
        if not isinstance(dataset, str) or not dataset:
            raise DeltaFormatError("delta 'dataset' must be a non-empty string")
        counts = obj.get("counts")
        if not isinstance(counts, dict):
            raise DeltaFormatError("delta 'counts' must be an object")
        for key, value in counts.items():
            # Exact-type probe first: this loop runs for every count of
            # every delta in every batch, and json.loads only ever
            # produces exact str/int, so the fallback checks are reached
            # only for hand-built frames (or actual malformations).
            if type(key) is str and type(value) is int and value >= 0:
                continue
            if not isinstance(key, str):
                raise DeltaFormatError(
                    f"delta count key must be a string, got {key!r}"
                )
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise DeltaFormatError(
                    f"delta count for {key!r} must be a non-negative "
                    f"integer, got {value!r}"
                )
        fps = obj.get("fingerprints", {})
        if not isinstance(fps, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in fps.items()
        ):
            raise DeltaFormatError(
                "delta 'fingerprints' must map filenames to digests"
            )
        confidence: DatasetConfidence | None = None
        raw_conf = obj.get("confidence")
        if raw_conf is not None:
            try:
                confidence = DatasetConfidence.from_json_object(raw_conf)
            except ValueError as exc:
                raise DeltaFormatError(
                    f"delta 'confidence' is malformed: {exc}"
                ) from exc
        return cls(
            shipper=shipper,
            seq=seq,
            dataset=dataset,
            counts=dict(counts),
            fingerprints=dict(fps),
            confidence=confidence,
        )


@dataclass(frozen=True)
class DeltaBatch:
    """Many deltas in one wire frame (v2).

    A batch is pure framing: applying its deltas one by one is exactly
    equivalent to receiving them as lone frames, and the ack carries one
    status per delta so the sender's accounting stays per-delta. The
    optional ``shard`` tag names the emitting shard on the shard → root
    uplink, feeding the root's per-shard labeled metrics.
    """

    deltas: tuple[ProfileDelta, ...]
    shard: str | None = None

    def total(self) -> int:
        return sum(delta.total() for delta in self.deltas)

    def to_json_object(self) -> dict:
        obj: dict = {
            "type": "batch",
            "v": WIRE_VERSION,
            "deltas": [delta.to_json_object() for delta in self.deltas],
        }
        if self.shard is not None:
            obj["shard"] = self.shard
        return obj

    @classmethod
    def from_json_object(cls, obj: object) -> "DeltaBatch":
        if not isinstance(obj, dict):
            raise DeltaFormatError("batch frame must be a JSON object")
        if obj.get("type") != "batch":
            raise DeltaFormatError(
                f"not a batch frame (type={obj.get('type')!r})"
            )
        if obj.get("v") not in SUPPORTED_WIRE_VERSIONS:
            raise DeltaFormatError(
                f"unsupported batch wire version {obj.get('v')!r}"
            )
        deltas = obj.get("deltas")
        if not isinstance(deltas, list) or not deltas:
            raise DeltaFormatError("batch 'deltas' must be a non-empty list")
        if len(deltas) > MAX_BATCH_DELTAS:
            raise DeltaFormatError(
                f"batch carries {len(deltas)} deltas; the limit is "
                f"{MAX_BATCH_DELTAS}"
            )
        shard = obj.get("shard")
        if shard is not None and not isinstance(shard, str):
            raise DeltaFormatError("batch 'shard' must be a string")
        return cls(
            deltas=tuple(ProfileDelta.from_json_object(d) for d in deltas),
            shard=shard,
        )


class DeltaLedger:
    """Which ``(shipper, seq)`` pairs have been applied — the idempotency
    record.

    Per shipper it keeps a *watermark* (every seq ≤ watermark is applied)
    plus a sparse set of applied seqs above it, compacting the set into
    the watermark whenever the gap closes. Out-of-order arrival therefore
    costs memory proportional to the reordering window, not the history.

    The ledger serializes to JSON so the aggregator's checkpoint can
    restore it — after a restart, replayed deltas (from shipper spill
    files) are recognized as duplicates instead of double-counting.
    """

    def __init__(self) -> None:
        self._watermark: dict[str, int] = {}
        self._pending: dict[str, set[int]] = {}

    def seen(self, shipper: str, seq: int) -> bool:
        if seq <= self._watermark.get(shipper, 0):
            return True
        return seq in self._pending.get(shipper, ())

    def mark(self, shipper: str, seq: int) -> bool:
        """Record ``(shipper, seq)`` as applied.

        Returns ``False`` (and changes nothing) when it already was — the
        caller must then skip the apply.
        """
        if self.seen(shipper, seq):
            return False
        watermark = self._watermark.get(shipper, 0)
        pending = self._pending.setdefault(shipper, set())
        pending.add(seq)
        while watermark + 1 in pending:
            watermark += 1
            pending.remove(watermark)
        self._watermark[shipper] = watermark
        if not pending:
            del self._pending[shipper]
        return True

    def applied_count(self, shipper: str) -> int:
        """How many distinct deltas from ``shipper`` have been applied."""
        return self._watermark.get(shipper, 0) + len(
            self._pending.get(shipper, ())
        )

    def shippers(self) -> list[str]:
        return sorted(set(self._watermark) | set(self._pending))

    def to_json_object(self) -> dict:
        return {
            "watermark": dict(self._watermark),
            "pending": {k: sorted(v) for k, v in self._pending.items()},
        }

    @classmethod
    def from_json_object(cls, obj: object) -> "DeltaLedger":
        if not isinstance(obj, dict):
            raise DeltaFormatError("ledger must be a JSON object")
        ledger = cls()
        watermark = obj.get("watermark", {})
        pending = obj.get("pending", {})
        if not isinstance(watermark, dict) or not isinstance(pending, dict):
            raise DeltaFormatError("ledger watermark/pending must be objects")
        for shipper, seq in watermark.items():
            if not isinstance(shipper, str) or not isinstance(seq, int):
                raise DeltaFormatError("ledger watermark entries malformed")
            ledger._watermark[shipper] = seq
        for shipper, seqs in pending.items():
            if not isinstance(shipper, str) or not isinstance(seqs, list):
                raise DeltaFormatError("ledger pending entries malformed")
            ledger._pending[shipper] = {int(s) for s in seqs}
        return ledger

    def __repr__(self) -> str:
        return f"<DeltaLedger: {len(self.shippers())} shippers>"


# -- framing -------------------------------------------------------------------


def encode_frame(obj: object, *, compress: bool = False) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON payload.

    With ``compress=True`` the payload is zlib-compressed and the length
    prefix carries the compressed-payload flag, which every decoder in
    this module reads.
    """
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise DeltaFormatError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    if compress:
        packed = zlib.compress(payload, 6)
        return _LENGTH.pack(len(packed) | _COMPRESSED_FLAG) + packed
    return _LENGTH.pack(len(payload)) + payload


def _split_length_prefix(raw: int) -> tuple[int, bool]:
    """``(payload_length, compressed)`` from a raw length-prefix word."""
    compressed = bool(raw & _COMPRESSED_FLAG)
    length = raw & ~_COMPRESSED_FLAG
    if length > MAX_FRAME_BYTES:
        raise DeltaFormatError(
            f"frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt length prefix?)"
        )
    return length, compressed


def decode_frame_payload(payload: bytes, *, compressed: bool = False) -> object:
    return decode_frame_payload_ex(payload, compressed=compressed)[0]


def decode_frame_payload_ex(
    payload: bytes, *, compressed: bool = False
) -> tuple[object, bytes]:
    """:func:`decode_frame_payload` plus the decompressed JSON bytes.

    The raw bytes let a durable receiver (the shard WAL) persist the
    frame verbatim instead of re-serializing the decoded object.
    """
    if compressed:
        # Bounded decompression: a hostile tiny frame must not be able to
        # inflate into gigabytes (zip bomb). Anything over the frame
        # limit, or with trailing compressed data, is rejected.
        decompressor = zlib.decompressobj()
        try:
            payload = decompressor.decompress(payload, MAX_FRAME_BYTES + 1)
        except zlib.error as exc:
            raise DeltaFormatError(
                f"compressed frame payload is not valid zlib data: {exc}"
            ) from exc
        if len(payload) > MAX_FRAME_BYTES or decompressor.unconsumed_tail:
            raise DeltaFormatError(
                f"compressed frame decompresses past the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
    try:
        return json.loads(payload.decode("utf-8")), payload
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DeltaFormatError(f"frame payload is not valid JSON: {exc}") from exc


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    Feed it whatever the socket produced; it yields each complete frame's
    decoded JSON object and buffers the rest. A torn stream simply leaves
    an incomplete frame buffered — :attr:`partial` reports whether bytes
    are pending, so spill-replay and tests can distinguish "clean end"
    from "torn tail".
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[object]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LENGTH.size:
                return
            (raw,) = _LENGTH.unpack_from(self._buffer)
            length, compressed = _split_length_prefix(raw)
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_LENGTH.size : end])
            del self._buffer[:end]
            yield decode_frame_payload(payload, compressed=compressed)

    @property
    def partial(self) -> bool:
        """Whether an incomplete frame is buffered (a torn tail)."""
        return bool(self._buffer)


def write_frame(stream: IO[bytes], obj: object, *, compress: bool = False) -> int:
    """Write one frame to a binary stream; returns the bytes written.

    Flushes, because the protocol is request/response: a frame sitting in
    a buffered ``socket.makefile`` stream would deadlock both peers.
    """
    frame = encode_frame(obj, compress=compress)
    stream.write(frame)
    flush = getattr(stream, "flush", None)
    if flush is not None:
        flush()
    return len(frame)


def read_frame(stream: IO[bytes]) -> object | None:
    """Read exactly one frame from a binary stream.

    Returns ``None`` on a clean end-of-stream (zero bytes where the length
    prefix would start); raises :class:`DeltaFormatError` on a torn frame
    (EOF mid-prefix or mid-payload).
    """
    header = _read_exactly(stream, _LENGTH.size)
    if header is None:
        return None
    if len(header) < _LENGTH.size:
        raise DeltaFormatError("stream ended mid frame-length prefix")
    (raw,) = _LENGTH.unpack(header)
    length, compressed = _split_length_prefix(raw)
    payload = _read_exactly(stream, length)
    if payload is None or len(payload) < length:
        raise DeltaFormatError(
            f"stream ended mid frame payload ({0 if payload is None else len(payload)}"
            f" of {length} bytes)"
        )
    return decode_frame_payload(payload, compressed=compressed)


def _read_exactly(stream: IO[bytes], n: int) -> bytes | None:
    """Up to ``n`` bytes, looping over short reads; ``None`` on clean EOF."""
    if n == 0:
        return b""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    if not chunks:
        return None
    return b"".join(chunks)
