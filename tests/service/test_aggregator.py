"""The aggregation server: merge semantics, idempotency, quarantine,
checkpoint/restart, and the observability surface."""

import json
import socket
import struct
import threading
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core.counters import CounterSet
from repro.core.database import ProfileDatabase, source_fingerprint
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.service import (
    ProfileAggregator,
    ProfileShipper,
    RecompileController,
    connect,
    parse_address,
    read_frame,
    write_frame,
)
from repro.service.transport import request

POINTS = [
    ProfilePoint.for_location(SourceLocation("a.ss", n, n + 1)) for n in range(4)
]


def _delta_frame(shipper="w1", seq=1, dataset="ds", counts=None, fingerprints=None):
    frame = {
        "type": "delta",
        "v": 1,
        "shipper": shipper,
        "seq": seq,
        "dataset": dataset,
        "counts": counts if counts is not None else {POINTS[0].key(): 5},
    }
    if fingerprints:
        frame["fingerprints"] = fingerprints
    return frame


# -- in-process frame handling --------------------------------------------------


def test_applies_deltas_additively_across_shippers():
    agg = ProfileAggregator("127.0.0.1:0")
    for shipper in ("w1", "w2", "w3"):
        ack = agg.handle_frame(
            _delta_frame(shipper=shipper, counts={POINTS[0].key(): 4})
        )
        assert ack == {"type": "ack", "seq": 1, "status": "applied"}
    assert agg.total_counts() == 12


def test_duplicate_delta_is_acked_but_not_recounted():
    agg = ProfileAggregator("127.0.0.1:0")
    frame = _delta_frame()
    assert agg.handle_frame(frame)["status"] == "applied"
    assert agg.handle_frame(frame)["status"] == "duplicate"
    assert agg.total_counts() == 5
    assert agg.metrics.counter("deltas_duplicate_total") == 1


def test_out_of_order_deltas_all_apply():
    agg = ProfileAggregator("127.0.0.1:0")
    for seq in (3, 1, 2):
        ack = agg.handle_frame(
            _delta_frame(seq=seq, counts={POINTS[0].key(): 1})
        )
        assert ack["status"] == "applied"
    assert agg.total_counts() == 3


def test_malformed_delta_rejected_not_crashed():
    agg = ProfileAggregator("127.0.0.1:0", policy="ignore")
    ack = agg.handle_frame(_delta_frame(seq=-1))
    assert ack["status"] == "rejected"
    assert "seq" in ack["error"]
    assert agg.handle_frame("not even an object")["status"] == "rejected"
    assert agg.handle_frame({"type": "mystery"})["status"] == "rejected"
    assert agg.metrics.counter("deltas_rejected_total") == 3


def test_unparseable_count_keys_rejected_but_marked():
    agg = ProfileAggregator("127.0.0.1:0", policy="ignore")
    bad = _delta_frame(counts={"not a point key": 3})
    assert agg.handle_frame(bad)["status"] == "rejected"
    # Retrying the same bad delta must not loop: the ledger marked it.
    assert agg.handle_frame(bad)["status"] == "duplicate"
    assert agg.total_counts() == 0


def test_stale_fingerprints_are_quarantined():
    source = "(define x 1)\n"
    agg = ProfileAggregator(
        "127.0.0.1:0", sources={"a.ss": source}, policy="warn"
    )
    good = _delta_frame(
        seq=1, fingerprints={"a.ss": source_fingerprint(source)}
    )
    stale = _delta_frame(
        seq=2, fingerprints={"a.ss": source_fingerprint("(define x 2)\n")}
    )
    assert agg.handle_frame(good)["status"] == "applied"
    assert agg.handle_frame(stale)["status"] == "stale"
    assert agg.total_counts() == 5, "stale counts never merged"
    assert len(agg.quarantine) == 1
    assert "different source" in str(agg.quarantine.entries[0])
    assert agg.metrics.counter("deltas_quarantined_total") == 1
    assert any(
        "quarantined" in entry.fallback for entry in agg.degradations.entries()
    )


def test_unknown_fingerprints_pass_through():
    agg = ProfileAggregator(
        "127.0.0.1:0", expected_fingerprints={"a.ss": "aaaa"}
    )
    ack = agg.handle_frame(
        _delta_frame(fingerprints={"other.ss": "bbbb"})
    )
    assert ack["status"] == "applied"


def test_different_fingerprints_key_different_datasets():
    agg = ProfileAggregator("127.0.0.1:0")
    agg.handle_frame(
        _delta_frame(shipper="w1", fingerprints={"a.ss": "v1"})
    )
    agg.handle_frame(
        _delta_frame(shipper="w2", fingerprints={"a.ss": "v2"})
    )
    stats = agg.handle_frame({"type": "stats"})
    assert len(stats["datasets"]) == 2, "mixed source versions stay separate"
    db = agg.merged_database()
    assert db.dataset_count == 2


def test_merged_database_matches_direct_counting():
    agg = ProfileAggregator("127.0.0.1:0")
    agg.handle_frame(
        _delta_frame(counts={POINTS[0].key(): 10, POINTS[1].key(): 5})
    )
    agg.handle_frame(
        _delta_frame(seq=2, counts={POINTS[1].key(): 5})
    )

    direct = CounterSet(name="ds")
    direct.increment(POINTS[0], by=10)
    direct.increment(POINTS[1], by=10)
    expected = ProfileDatabase()
    expected.record_counters(direct)

    merged = agg.merged_database()
    for point in (POINTS[0], POINTS[1]):
        assert merged.query(point) == expected.query(point)


# -- checkpoint + restart -------------------------------------------------------


def test_state_checkpoint_resumes_counts_and_ledger(tmp_path):
    state = str(tmp_path / "state.json")
    checkpoint = str(tmp_path / "profile.json")
    agg = ProfileAggregator(
        "127.0.0.1:0", state_path=state, checkpoint_path=checkpoint
    )
    agg.handle_frame(_delta_frame(seq=1))
    agg.handle_frame(_delta_frame(seq=2, counts={POINTS[1].key(): 3}))
    assert agg.checkpoint()

    resumed = ProfileAggregator("127.0.0.1:0", state_path=state)
    assert resumed.total_counts() == 8
    # A replayed (retried) delta is recognized across the restart.
    assert resumed.handle_frame(_delta_frame(seq=2))["status"] == "duplicate"
    assert resumed.handle_frame(_delta_frame(seq=3))["status"] == "applied"

    # The public checkpoint is an ordinary stored profile.
    db = ProfileDatabase.load(checkpoint)
    assert db.query(POINTS[0]) == pytest.approx(1.0)


def _race_checkpoint_into_next_apply(monkeypatch, checkpoint):
    """Start ``checkpoint`` on another thread just before the next counter
    apply, and give it time to finish before the apply goes on."""
    real = CounterSet.apply_increments
    racers = []

    def racing(self, increments):
        if not racers:
            racers.append(threading.Thread(target=checkpoint))
            racers[0].start()
            racers[0].join(timeout=0.2)
        real(self, increments)

    monkeypatch.setattr(CounterSet, "apply_increments", racing)
    return racers


@pytest.mark.parametrize("batched", [False, True])
def test_checkpoint_racing_an_apply_keeps_the_acked_counts(
    tmp_path, monkeypatch, batched
):
    """A checkpoint between the ledger mark and the counter apply would
    persist "seq applied" without its counts: the restart would hold
    neither the counts nor a way to get them back (the resend is acked
    as a duplicate)."""
    state = str(tmp_path / "state.json")
    agg = ProfileAggregator("127.0.0.1:0", state_path=state)
    racers = _race_checkpoint_into_next_apply(monkeypatch, agg.checkpoint)
    frame = _delta_frame(counts={POINTS[0].key(): 5})
    if batched:
        frame = {"type": "batch", "v": 2, "deltas": [frame]}
    assert agg.handle_frame(frame)["status"] in ("applied", "batch")
    racers[0].join(timeout=5.0)
    assert not racers[0].is_alive()
    agg.stop(checkpoint=False)  # crash right after the racing checkpoint
    monkeypatch.undo()

    restarted = ProfileAggregator("127.0.0.1:0", state_path=state)
    assert restarted.total_counts() == 5


def test_missing_state_file_is_a_cold_start(tmp_path):
    agg = ProfileAggregator(
        "127.0.0.1:0", state_path=str(tmp_path / "absent.json")
    )
    assert agg.total_counts() == 0
    assert not agg.degradations.entries()


def test_corrupt_state_file_degrades_to_cold_start(tmp_path):
    state = tmp_path / "state.json"
    state.write_text("{ not json")
    agg = ProfileAggregator("127.0.0.1:0", state_path=str(state), policy="warn")
    assert agg.total_counts() == 0
    assert any(
        "cold start" in entry.fallback for entry in agg.degradations.entries()
    )


def test_wrong_state_version_degrades_to_cold_start(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(
        json.dumps({"format": "pgmp-service-state", "version": 999, "datasets": []})
    )
    agg = ProfileAggregator("127.0.0.1:0", state_path=str(state), policy="warn")
    assert agg.total_counts() == 0
    assert any(
        "unsupported state version" in entry.reason
        for entry in agg.degradations.entries()
    )


# -- controller wiring ----------------------------------------------------------


def test_run_controller_swaps_on_fresh_data():
    controller = RecompileController(lambda db: ("artifact", db), threshold=0.05)
    agg = ProfileAggregator("127.0.0.1:0", controller=controller)
    agg.handle_frame(_delta_frame())
    decision = agg.run_controller()
    assert decision is not None and decision.recompiled
    assert controller.artifact() is not None


def test_controller_failure_degrades_and_keeps_serving():
    def explode(db):
        raise RuntimeError("compiler on fire")

    controller = RecompileController(explode, threshold=0.05)
    agg = ProfileAggregator("127.0.0.1:0", controller=controller, policy="warn")
    agg.handle_frame(_delta_frame())
    assert agg.run_controller() is None
    assert any(
        "controller raised" in entry.reason
        for entry in agg.degradations.entries()
    )
    # Ingest still works after the failed recompile.
    assert agg.handle_frame(_delta_frame(seq=2))["status"] == "applied"


# -- the live server ------------------------------------------------------------


def test_live_server_round_trip_and_stats():
    counters = CounterSet(name="live")
    counters.increment(POINTS[0], by=9)
    with ProfileAggregator("127.0.0.1:0") as agg:
        with ProfileShipper(counters, agg.address, shipper_id="w1") as shipper:
            shipper.flush()
        sock = connect(agg.address)
        stream = sock.makefile("rwb")
        write_frame(stream, {"type": "ping"})
        assert read_frame(stream) == {"type": "pong"}
        write_frame(stream, {"type": "stats"})
        stats = read_frame(stream)
        assert stats["shippers"] == {"w1": 1}
        assert stats["datasets"]["live"]["total"] == 9
        write_frame(stream, {"type": "metrics"})
        metrics = read_frame(stream)
        assert "pgmp_deltas_applied_total 1" in metrics["text"]
        sock.close()


def test_live_server_survives_torn_client_stream():
    with ProfileAggregator("127.0.0.1:0") as agg:
        raw = socket.create_connection(
            (agg.address.host, agg.address.port), timeout=5.0
        )
        # A length prefix promising bytes that never arrive: torn frame.
        raw.sendall(struct.pack(">I", 100) + b"short")
        raw.close()
        deadline = __import__("time").monotonic() + 5.0
        while (
            agg.metrics.counter("protocol_errors_total") < 1
            and __import__("time").monotonic() < deadline
        ):
            __import__("time").sleep(0.02)
        assert agg.metrics.counter("protocol_errors_total") == 1
        # And the server still accepts a healthy connection afterwards.
        sock = connect(agg.address)
        stream = sock.makefile("rwb")
        write_frame(stream, {"type": "ping"})
        assert read_frame(stream) == {"type": "pong"}
        sock.close()


def test_a_slow_rollback_does_not_stall_other_connections():
    """Rollback re-expands the program; it runs off the event loop, so
    ingest on other connections keeps being answered meanwhile."""
    entered, release = threading.Event(), threading.Event()

    class SlowController:
        def rollback(self, reason):
            entered.set()
            release.wait(timeout=10.0)
            return SimpleNamespace(recompiled=True, generation=1, reason=reason)

        def rollout_status(self):
            return None

    replies = []
    with ProfileAggregator("127.0.0.1:0", controller=SlowController()) as agg:
        rollback = threading.Thread(
            target=lambda: replies.append(
                request(agg.address, {"type": "rollback"}, timeout=15.0)
            )
        )
        rollback.start()
        try:
            assert entered.wait(timeout=5.0)
            ack = request(agg.address, _delta_frame(), timeout=2.0)
            assert ack["status"] == "applied"
        finally:
            release.set()
            rollback.join(timeout=15.0)
        assert not rollback.is_alive()
    assert replies[0]["status"] == "ok"


def test_shutdown_frame_sets_the_event():
    with ProfileAggregator("127.0.0.1:0") as agg:
        sock = connect(agg.address)
        stream = sock.makefile("rwb")
        write_frame(stream, {"type": "shutdown"})
        assert agg.shutdown_requested.wait(timeout=5.0)
        sock.close()


def test_metrics_http_endpoint():
    with ProfileAggregator("127.0.0.1:0", metrics_port=0) as agg:
        agg.handle_frame(_delta_frame())
        host, port = agg.metrics_address
        with urllib.request.urlopen(f"http://{host}:{port}/metrics") as resp:
            body = resp.read().decode("utf-8")
            assert resp.headers["Content-Type"].startswith("text/plain")
        assert "pgmp_deltas_applied_total 1" in body
        assert "# TYPE pgmp_counts_ingested_total counter" in body
        with urllib.request.urlopen(f"http://{host}:{port}/healthz") as resp:
            assert resp.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"http://{host}:{port}/nope")


def test_unix_socket_round_trip(tmp_path):
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("platform lacks unix-domain sockets")
    path = str(tmp_path / "pgmp.sock")
    counters = CounterSet(name="unix-ds")
    counters.increment(POINTS[0], by=2)
    with ProfileAggregator(f"unix:{path}") as agg:
        with ProfileShipper(counters, parse_address(f"unix:{path}")) as shipper:
            shipper.flush()
        assert agg.total_counts() == 2
