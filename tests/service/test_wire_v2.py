"""Wire protocol v2: batches and compression."""

import io
import zlib

import pytest

from repro.core.counters import CounterSet
from repro.core.errors import DeltaFormatError
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service import ProfileAggregator, ProfileShipper
from repro.service.delta import (
    MAX_BATCH_DELTAS,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    DeltaBatch,
    ProfileDelta,
    encode_frame,
    read_frame,
    write_frame,
)

POINTS = [
    ProfilePoint.for_location(SourceLocation("w.ss", n, n + 1)) for n in range(4)
]


def _delta(seq: int, count: int = 1, shipper: str = "s") -> ProfileDelta:
    return ProfileDelta(
        shipper=shipper,
        seq=seq,
        dataset="ds",
        counts={POINTS[0].key(): count},
    )


# -- framing ---------------------------------------------------------------


def test_compressed_frame_roundtrips_and_sets_the_flag():
    obj = {"type": "delta", "payload": "x" * 10_000}
    raw = encode_frame(obj, compress=True)
    assert raw[0] & 0x80, "top bit of the length prefix marks compression"
    assert len(raw) < 10_000, "compression actually shrank the frame"
    assert read_frame(io.BytesIO(raw)) == obj


def test_uncompressed_frame_is_plain_v1_framing():
    obj = {"type": "delta", "n": 1}
    raw = encode_frame(obj)
    assert not raw[0] & 0x80
    assert read_frame(io.BytesIO(raw)) == obj


def test_write_frame_compress_flag_is_readable_by_read_frame():
    stream = io.BytesIO()
    write_frame(stream, {"a": 1}, compress=True)
    write_frame(stream, {"b": 2})
    stream.seek(0)
    assert read_frame(stream) == {"a": 1}
    assert read_frame(stream) == {"b": 2}
    assert read_frame(stream) is None


def test_decompression_bomb_is_rejected():
    # A tiny compressed frame claiming to inflate past MAX_FRAME_BYTES
    # must be refused without the giant allocation.
    bomb = zlib.compress(b"[" + b"0," * (MAX_FRAME_BYTES // 2) + b"0]", 9)
    assert len(bomb) < MAX_FRAME_BYTES  # the bomb itself passes the prefix
    framed = (
        int.to_bytes(len(bomb) | 0x8000_0000, 4, "big") + bomb
    )
    with pytest.raises(DeltaFormatError):
        read_frame(io.BytesIO(framed))


def test_corrupt_compressed_payload_is_a_format_error():
    framed = int.to_bytes(4 | 0x8000_0000, 4, "big") + b"\x00\x01\x02\x03"
    with pytest.raises(DeltaFormatError):
        read_frame(io.BytesIO(framed))


# -- batch frames ----------------------------------------------------------


def test_batch_roundtrips_with_shard_tag():
    batch = DeltaBatch(deltas=(_delta(1), _delta(2)), shard="3")
    rebuilt = DeltaBatch.from_json_object(batch.to_json_object())
    assert rebuilt == batch
    assert rebuilt.total() == 2
    assert batch.to_json_object()["v"] == WIRE_VERSION


def test_batch_rejects_empty_and_oversized():
    with pytest.raises(DeltaFormatError):
        DeltaBatch.from_json_object(
            {"type": "batch", "v": 2, "deltas": []}
        )
    too_many = [_delta(n + 1).to_json_object() for n in range(2)]
    frame = {"type": "batch", "v": 2, "deltas": too_many * (MAX_BATCH_DELTAS)}
    with pytest.raises(DeltaFormatError):
        DeltaBatch.from_json_object(frame)


def test_delta_emits_v2_but_accepts_v1():
    delta = _delta(1)
    assert delta.to_json_object()["v"] == WIRE_VERSION
    v1 = delta.to_json_object()
    v1["v"] = 1
    assert ProfileDelta.from_json_object(v1) == delta


# -- aggregator integration ------------------------------------------------


def test_aggregator_answers_hello_and_accepts_a_batch():
    with ProfileAggregator("127.0.0.1:0") as aggregator:
        # A client from before batch-only shipping still opens with a
        # hello; it gets a well-formed rejection, not a dropped connection.
        hello_ack = aggregator.handle_frame(
            {"type": "hello", "v": 2, "features": ["batch", "zlib"]}
        )
        assert hello_ack["type"] == "ack"
        assert hello_ack["status"] == "rejected"
        batch = DeltaBatch(deltas=(_delta(1, 5), _delta(2, 7)))
        ack = aggregator.handle_frame(batch.to_json_object())
        assert ack["type"] == "ack"
        assert ack["status"] == "batch"
        assert ack["applied"] == 2
        # All-applied batches get the condensed ack: no per-delta list.
        assert "acks" not in ack
        assert aggregator.total_counts() == 12


def test_batch_acks_are_per_delta_and_idempotent():
    with ProfileAggregator("127.0.0.1:0") as aggregator:
        batch = DeltaBatch(deltas=(_delta(1, 5), _delta(1, 5), _delta(2, 7)))
        ack = aggregator.handle_frame(batch.to_json_object())
        statuses = [a["status"] for a in ack["acks"]]
        assert statuses == ["applied", "duplicate", "applied"]
        assert aggregator.total_counts() == 12, "duplicate seq not re-counted"


def test_v2_shipper_negotiates_batches_over_the_wire():
    """A shipper sends its whole queue as one compressed batch frame."""
    counters = CounterSet(name="ds")
    with ProfileAggregator("127.0.0.1:0") as aggregator:
        with ProfileShipper(counters, aggregator.address) as shipper:
            # Pre-load a queue of deltas (as if cut while disconnected)
            # so the first drain has something to batch.
            deltas = [
                _delta(n + 1, n + 1, shipper=shipper.shipper_id)
                for n in range(5)
            ]
            lane = shipper.lanes[0]
            lane.queue.extend(deltas)
            lane.seq = 5
            shipper.flush()
            assert shipper.shipped_deltas == 5
        assert aggregator.total_counts() == 15
        assert aggregator.metrics.counter("deltas_applied_total") == 5
        # one batch frame carried all five deltas
        assert aggregator.metrics.latency_count("batch_latency") == 1
        # bytes_ingested_total counts wire bytes: the frame was compressed
        plain = encode_frame(DeltaBatch(deltas=tuple(deltas)).to_json_object())
        assert aggregator.metrics.counter("bytes_ingested_total") < len(plain)
