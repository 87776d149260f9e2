"""The rollout guard: canary, journal, breaker, and controller wiring."""

import socket
import time
import urllib.request

import pytest

from repro.core.counters import CounterSet
from repro.core.database import ProfileDatabase
from repro.core.profile_point import ProfilePoint
from repro.core.srcloc import SourceLocation
from repro.scheme.pipeline import SchemeSystem
from repro.service import (
    ProfileAggregator,
    RecompileController,
    ServiceMetrics,
    connect,
    read_frame,
    scheme_canary,
    scheme_recompiler,
    write_frame,
)
from repro.service.rollout import (
    CanaryResult,
    CircuitBreaker,
    GenerationJournal,
    RolloutGuard,
)
from repro.testing.faults import poison_compiled_program


def _point(n: int) -> ProfilePoint:
    return ProfilePoint.for_location(SourceLocation("r.ss", n, n + 1))


def _db(counts: dict) -> ProfileDatabase:
    counters = CounterSet(name="rollout")
    for n, count in counts.items():
        counters.increment(_point(n), by=count)
    db = ProfileDatabase()
    db.record_counters(counters)
    return db


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- CircuitBreaker -----------------------------------------------------------


def test_breaker_closed_allows_and_success_resets():
    breaker = CircuitBreaker(failure_threshold=3)
    assert breaker.allow() == (True, 0.0)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    assert breaker.consecutive_failures == 0
    assert breaker.state == "closed"


def test_breaker_opens_after_threshold_with_backoff():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, backoff_base=10.0, clock=clock)
    assert not breaker.record_failure()
    assert breaker.record_failure()
    assert breaker.state == "open"
    allowed, retry_in = breaker.allow()
    assert not allowed
    assert retry_in == pytest.approx(10.0)


def test_breaker_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, backoff_base=10.0, clock=clock)
    breaker.record_failure()
    clock.advance(10.0)
    assert breaker.allow() == (True, 0.0)
    assert breaker.state == "half-open"
    allowed, _ = breaker.allow()
    assert not allowed, "only one probe per half-open period"
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow() == (True, 0.0)


def test_breaker_probe_failure_doubles_the_backoff():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, backoff_base=10.0, clock=clock)
    breaker.record_failure()  # open, 10s
    clock.advance(10.0)
    assert breaker.allow()[0]  # half-open probe
    breaker.record_failure()  # reopen, 20s
    assert breaker.state == "open"
    _, retry_in = breaker.allow()
    assert retry_in == pytest.approx(20.0)


def test_breaker_backoff_is_capped():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, backoff_base=10.0, backoff_max=25.0, clock=clock
    )
    for _ in range(4):
        breaker.record_failure()
        clock.advance(breaker.allow()[1])
        breaker.allow()  # half-open
    breaker.record_failure()
    assert breaker.allow()[1] == pytest.approx(25.0)


def test_breaker_meters_state_and_opens(tmp_path):
    metrics = ServiceMetrics()
    breaker = CircuitBreaker(failure_threshold=1, metrics=metrics)
    assert metrics.gauge("breaker_state") == 0
    breaker.record_failure()
    assert metrics.gauge("breaker_state") == 1
    assert metrics.counter("breaker_opens_total") == 1


# -- GenerationJournal --------------------------------------------------------


def test_journal_records_and_supersedes():
    journal = GenerationJournal()
    journal.record(1, _db({1: 4}), {"a": 1.0})
    journal.record(2, _db({2: 4}), {"b": 1.0})
    live = journal.live()
    assert live is not None and live.generation == 2
    target = journal.rollback_target()
    assert target is not None and target.generation == 1
    assert [r.status for r in journal.generations()] == ["superseded", "live"]


def test_journal_roll_back_moves_live_pointer():
    journal = GenerationJournal()
    journal.record(1, _db({1: 4}), {})
    journal.record(2, _db({2: 4}), {})
    journal.roll_back(2, 1)
    live = journal.live()
    assert live is not None and live.generation == 1
    assert journal.generations()[-1].status == "rolled-back"
    # A rolled-back generation is never a rollback target again.
    assert journal.rollback_target() is None


def test_journal_snapshot_round_trips_the_merged_profile():
    journal = GenerationJournal()
    db = _db({1: 3, 2: 1})
    record = journal.record(1, db, {})
    restored = journal.load_snapshot(record)
    assert (
        restored.merged().as_key_mapping() == db.merged().as_key_mapping()
    )
    assert restored.merged_fingerprint() == db.merged_fingerprint()


def test_journal_persists_and_reloads(tmp_path):
    directory = tmp_path / "journal"
    journal = GenerationJournal(directory)
    journal.record(1, _db({1: 5}), {"k": 0.5})
    journal.record(2, _db({2: 5}), {"k": 1.0})
    journal.quarantine("fp-bad", 2, "test reason")

    reloaded = GenerationJournal(directory)
    live = reloaded.live()
    assert live is not None and live.generation == 2
    assert live.baseline == {"k": 1.0}
    assert reloaded.is_quarantined("fp-bad")
    target = reloaded.rollback_target()
    assert target is not None and target.generation == 1
    snapshot = reloaded.load_snapshot(target)
    assert snapshot.merged_fingerprint() == _db({1: 5}).merged_fingerprint()


def test_journal_prunes_old_generations(tmp_path):
    journal = GenerationJournal(tmp_path / "j", max_generations=2)
    for generation in (1, 2, 3, 4):
        journal.record(generation, _db({generation: 1}), {})
    records = journal.generations()
    assert [r.generation for r in records] == [3, 4]
    remaining = sorted(
        p.name for p in (tmp_path / "j").glob("gen-*.profile.json")
    )
    assert remaining == ["gen-00003.profile.json", "gen-00004.profile.json"]


def test_corrupt_journal_degrades_to_empty(tmp_path):
    directory = tmp_path / "j"
    journal = GenerationJournal(directory)
    journal.record(1, _db({1: 1}), {})
    (directory / "journal.json").write_text("{not json", encoding="utf-8")
    reloaded = GenerationJournal(directory)
    assert reloaded.live() is None
    # Still usable after the bad load.
    reloaded.record(1, _db({1: 1}), {})
    assert reloaded.live() is not None


def test_journal_quarantine_clear():
    journal = GenerationJournal()
    journal.quarantine("fp", 1, "why")
    journal.quarantine("fp", 1, "why again")  # deduplicated
    assert len(journal.quarantine_entries()) == 1
    assert journal.clear_quarantine("fp") == 1
    assert not journal.is_quarantined("fp")


def test_journal_needs_room_to_roll_back():
    with pytest.raises(ValueError):
        GenerationJournal(max_generations=1)


# -- scheme_canary ------------------------------------------------------------

PROGRAM = """
(define (double n) (* n 2))
(display (double 20))
(double 21)
"""


def _system() -> SchemeSystem:
    return SchemeSystem(policy="warn")


def test_canary_passes_a_healthy_candidate():
    system = _system()
    candidate = system.compile(PROGRAM, "canary.ss")
    validate = scheme_canary(system)
    result = validate(candidate)
    assert result.passed, result.failures
    assert result.probes == 1
    assert result.latencies


def test_canary_catches_a_misbehaving_artifact():
    system = _system()
    candidate = system.compile(PROGRAM, "canary.ss")
    poison_compiled_program(candidate, value=999)
    result = scheme_canary(system)(candidate)
    assert not result.passed
    assert any("diverged" in failure for failure in result.failures)


def test_canary_budget_sanity_check():
    system = _system()
    candidate = system.compile(PROGRAM, "canary.ss")
    result = scheme_canary(system, budget=1)(candidate)
    assert not result.passed
    assert any("budget" in failure for failure in result.failures)


def test_canary_runs_extra_probes():
    system = _system()
    candidate = system.compile(PROGRAM, "canary.ss")
    probe = "(+ 1 2)"
    result = scheme_canary(system, probes=[(probe, "probe.ss")])(candidate)
    assert result.passed, result.failures
    assert result.probes == 2


# -- RolloutGuard -------------------------------------------------------------


def test_guard_without_validator_trivially_passes():
    guard = RolloutGuard()
    result = guard.validate(object())
    assert result.passed and result.probes == 0


def test_guard_counts_canary_failures():
    metrics = ServiceMetrics()
    guard = RolloutGuard(
        validator=lambda candidate: CanaryResult(
            passed=False, probes=1, failures=("nope",)
        ),
        metrics=metrics,
    )
    assert not guard.validate(object()).passed
    assert metrics.counter("canary_failures_total") == 1


def test_guard_watch_window_blows_error_budget():
    clock = FakeClock()
    guard = RolloutGuard(rollback_window=30.0, error_budget=2, clock=clock)
    guard.begin_watch(1)
    assert guard.observe(True) is None
    assert guard.observe(False) is None
    trigger = guard.observe(False)
    assert trigger is not None and "error budget" in trigger


def test_guard_watch_window_expires_quietly():
    clock = FakeClock()
    guard = RolloutGuard(rollback_window=30.0, error_budget=1, clock=clock)
    guard.begin_watch(1)
    clock.advance(31.0)
    assert guard.observe(False) is None, "window over: rollout is confirmed"
    assert not guard.watching


def test_guard_latency_slo_breaches():
    clock = FakeClock()
    guard = RolloutGuard(
        rollback_window=30.0,
        error_budget=100,
        latency_slo=0.1,
        latency_breach_limit=2,
        clock=clock,
    )
    guard.begin_watch(1)
    assert guard.observe(True, latency=0.5) is None
    assert guard.observe(True, latency=0.05) is None  # resets the streak
    assert guard.observe(True, latency=0.5) is None
    trigger = guard.observe(True, latency=0.5)
    assert trigger is not None and "latency SLO" in trigger


# -- controller wiring --------------------------------------------------------


def _controller(metrics=None, guard=None, **kwargs):
    system = _system()
    controller = RecompileController(
        scheme_recompiler(system, PROGRAM, "rollout.ss"),
        threshold=0.05,
        metrics=metrics,
        guard=guard,
        **kwargs,
    )
    return system, controller


def test_guarded_swap_journals_and_watches():
    metrics = ServiceMetrics()
    guard = RolloutGuard(metrics=metrics)
    _, controller = _controller(metrics=metrics, guard=guard)
    decision = controller.maybe_recompile(_db({1: 10}))
    assert decision.recompiled
    live = guard.journal.live()
    assert live is not None and live.generation == 1
    assert guard.watching
    assert metrics.counter("rollouts_total") == 1
    assert metrics.gauge("rollout_generation") == 1


def test_canary_failure_keeps_the_deployed_artifact():
    metrics = ServiceMetrics()
    system = _system()
    guard = RolloutGuard(validator=scheme_canary(system), metrics=metrics)
    controller = RecompileController(
        scheme_recompiler(system, PROGRAM, "rollout.ss"),
        threshold=0.05,
        metrics=metrics,
        guard=guard,
    )
    first = controller.maybe_recompile(_db({1: 10}))
    assert first.recompiled
    deployed = controller.artifact()

    from repro.testing.faults import poisoned_recompiles

    with poisoned_recompiles(controller):
        decision = controller.maybe_recompile(_db({2: 10}))
    assert not decision.recompiled
    assert decision.reason.startswith("canary failed")
    assert controller.artifact() is deployed
    assert controller.generation == 1
    assert metrics.counter("canary_failures_total") == 1
    live = guard.journal.live()
    assert live is not None and live.generation == 1


def test_recompile_exception_counts_against_the_breaker():
    guard = RolloutGuard(
        breaker=CircuitBreaker(failure_threshold=1, backoff_base=60.0)
    )

    def explode(db):
        raise RuntimeError("codegen bug")

    controller = RecompileController(explode, guard=guard)
    with pytest.raises(RuntimeError):
        controller.maybe_recompile(_db({1: 10}))
    assert guard.breaker.state == "open"
    decision = controller.maybe_recompile(_db({1: 10}))
    assert not decision.recompiled
    assert decision.reason.startswith("circuit breaker open")


def test_quarantined_fingerprint_blocks_recompiles():
    guard = RolloutGuard()
    _, controller = _controller(guard=guard)
    db = _db({1: 10})
    guard.journal.quarantine(db.merged_fingerprint(), 0, "known bad")
    decision = controller.maybe_recompile(db)
    assert not decision.recompiled
    assert "quarantined" in decision.reason
    assert controller.artifact() is None


def test_manual_rollback_restores_previous_generation():
    metrics = ServiceMetrics()
    guard = RolloutGuard(metrics=metrics)
    _, controller = _controller(metrics=metrics, guard=guard)
    controller.maybe_recompile(_db({1: 10}))
    first_artifact = controller.artifact()
    controller.maybe_recompile(_db({1: 10, 2: 40}))
    assert controller.generation == 2

    decision = controller.rollback(reason="operator says so")
    assert decision.recompiled
    assert decision.generation == 1
    assert "rolled back generation 2 -> 1" in decision.reason
    assert controller.artifact() is first_artifact
    assert metrics.counter("rollbacks_total") == 1
    live = guard.journal.live()
    assert live is not None and live.generation == 1
    # The offending generation's profile is quarantined.
    assert guard.journal.is_quarantined(
        _db({1: 10, 2: 40}).merged_fingerprint()
    )


def test_rollback_without_history_is_a_noop():
    guard = RolloutGuard()
    _, controller = _controller(guard=guard)
    decision = controller.rollback()
    assert not decision.recompiled
    assert decision.reason == "nothing to roll back to"


def test_rollback_without_guard_is_a_noop():
    _, controller = _controller()
    decision = controller.rollback()
    assert not decision.recompiled
    assert decision.reason == "no rollout guard configured"


def test_observe_health_triggers_automatic_rollback():
    guard = RolloutGuard(rollback_window=60.0, error_budget=2)
    _, controller = _controller(guard=guard)
    controller.maybe_recompile(_db({1: 10}))
    controller.maybe_recompile(_db({2: 10}))
    assert controller.observe_health(True) is None
    assert controller.observe_health(False) is None
    decision = controller.observe_health(False)
    assert decision is not None and decision.recompiled
    assert decision.generation == 1
    assert "error budget" in decision.reason


def test_resume_from_journal(tmp_path):
    journal_dir = tmp_path / "journal"
    guard = RolloutGuard(journal=GenerationJournal(journal_dir))
    _, controller = _controller(guard=guard)
    controller.maybe_recompile(_db({1: 10}))
    baseline = controller.baseline_weights()

    # A fresh process: new system, new controller, same journal.
    guard2 = RolloutGuard(journal=GenerationJournal(journal_dir))
    _, restarted = _controller(guard=guard2)
    decision = restarted.resume_from_journal()
    assert decision is not None and decision.recompiled
    assert decision.reason == "resumed generation 1 from journal"
    assert restarted.generation == 1
    assert restarted.artifact() is not None
    assert restarted.baseline_weights() == baseline
    # Same profile again: nothing drifted, nothing recompiles.
    follow_up = restarted.maybe_recompile(_db({1: 10}))
    assert follow_up.reason == "drift within threshold"


def test_resume_is_a_noop_once_deployed():
    guard = RolloutGuard()
    _, controller = _controller(guard=guard)
    controller.maybe_recompile(_db({1: 10}))
    assert controller.resume_from_journal() is None


# -- aggregator integration ---------------------------------------------------


def _guarded_aggregator(**kwargs):
    metrics = ServiceMetrics()
    system = _system()
    guard = RolloutGuard(metrics=metrics)
    controller = RecompileController(
        scheme_recompiler(system, PROGRAM, "rollout.ss"),
        threshold=0.05,
        metrics=metrics,
        guard=guard,
    )
    return ProfileAggregator(
        "127.0.0.1:0", controller=controller, metrics=metrics, **kwargs
    )


def test_stats_frame_reports_rollout_state():
    with _guarded_aggregator() as agg:
        agg.controller.maybe_recompile(_db({1: 10}))
        stats = agg.handle_frame({"type": "stats"})
        assert stats["rollout"]["generation"] == 1
        assert stats["rollout"]["breaker"] == "closed"
        assert stats["rollout"]["quarantined"] == 0


def test_stats_frame_without_guard_has_no_rollout_section():
    controller = RecompileController(lambda db: "artifact")
    with ProfileAggregator("127.0.0.1:0", controller=controller) as agg:
        assert "rollout" not in agg.handle_frame({"type": "stats"})


def test_rollback_frame_over_the_wire():
    with _guarded_aggregator() as agg:
        agg.controller.maybe_recompile(_db({1: 10}))
        agg.controller.maybe_recompile(_db({2: 10}))
        sock = connect(agg.address)
        stream = sock.makefile("rwb")
        write_frame(stream, {"type": "rollback", "reason": "wire test"})
        stream.flush()
        response = read_frame(stream)
        sock.close()
        assert response["type"] == "rollback"
        assert response["status"] == "ok"
        assert response["generation"] == 1
        assert agg.controller.guard.journal.live().generation == 1
        # Nothing left to roll back to now.
        again = agg.handle_frame({"type": "rollback"})
        assert again["status"] == "unavailable"


def test_rollback_frame_without_controller():
    with ProfileAggregator("127.0.0.1:0") as agg:
        response = agg.handle_frame({"type": "rollback"})
        assert response["status"] == "unavailable"


def test_observe_frame_feeds_the_watch_window():
    with _guarded_aggregator() as agg:
        agg.controller.guard.error_budget = 1
        agg.controller.maybe_recompile(_db({1: 10}))
        agg.controller.maybe_recompile(_db({2: 10}))
        ack = agg.handle_frame({"type": "observe", "ok": True})
        assert ack["status"] == "observed" and not ack["rolled_back"]
        ack = agg.handle_frame({"type": "observe", "ok": False})
        assert ack["rolled_back"]
        assert ack["generation"] == 1
        bad = agg.handle_frame({"type": "observe", "ok": "yes"})
        assert bad["status"] == "rejected"


def test_healthz_reports_generation_and_breaker():
    with _guarded_aggregator(metrics_port=0) as agg:
        agg.controller.maybe_recompile(_db({1: 10}))
        host, port = agg.metrics_address
        with urllib.request.urlopen(f"http://{host}:{port}/healthz") as resp:
            assert resp.read() == b"ok generation=1 breaker=closed\n"


# -- read timeout + stop result ----------------------------------------------


def test_stalled_client_is_dropped_after_read_timeout():
    with ProfileAggregator("127.0.0.1:0", read_timeout=0.2) as agg:
        raw = socket.create_connection(
            (agg.address.host, agg.address.port), timeout=5.0
        )
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if agg.metrics.counter("handler_read_timeouts_total") >= 1:
                    break
                time.sleep(0.05)
            assert agg.metrics.counter("handler_read_timeouts_total") >= 1
        finally:
            raw.close()
        # Healthy clients are still served.
        sock = connect(agg.address)
        stream = sock.makefile("rwb")
        write_frame(stream, {"type": "ping"})
        assert read_frame(stream) == {"type": "pong"}
        sock.close()


def test_zero_read_timeout_disables_the_deadline():
    agg = ProfileAggregator("127.0.0.1:0", read_timeout=0)
    assert agg.read_timeout is None


def test_stop_returns_a_clean_result():
    agg = ProfileAggregator("127.0.0.1:0").start()
    result = agg.stop()
    assert result.clean
    assert result.stuck_threads == []
    assert str(result) == "stopped cleanly"


def test_stop_reports_a_stuck_thread():
    import threading

    agg = ProfileAggregator("127.0.0.1:0").start()
    release = threading.Event()
    wedged = threading.Thread(
        target=release.wait, name="pgmp-test-wedged", daemon=True
    )
    wedged.start()
    # Simulate a handler/housekeeper that ignores the stop signal.
    agg._housekeeper = wedged
    try:
        result = agg.stop(join_timeout=0.1)
        assert not result.clean
        assert "pgmp-test-wedged" in result.stuck_threads
        assert "stuck thread" in str(result)
    finally:
        release.set()


def test_stop_names_a_wedged_transport_thread():
    import threading

    entered, release = threading.Event(), threading.Event()

    class WedgedAggregator(ProfileAggregator):
        def handle_frame(self, frame, wire_bytes=None, raw=None):
            if frame == {"type": "ping"}:
                entered.set()
                release.wait(timeout=10.0)  # a handler stuck on the loop
            return super().handle_frame(frame, wire_bytes=wire_bytes, raw=raw)

    agg = WedgedAggregator("127.0.0.1:0").start()
    with connect(agg.address) as sock, sock.makefile("wb") as stream:
        write_frame(stream, {"type": "ping"})
        try:
            assert entered.wait(timeout=5.0)
            result = agg.stop(join_timeout=0.1)
            assert "pgmp-aggregator-transport" in result.stuck_threads
        finally:
            release.set()


# -- static verification (pre-canary) ------------------------------------------


def test_static_verifier_passes_a_healthy_candidate():
    from repro.service import scheme_static_verifier

    system = _system()
    candidate = system.compile(PROGRAM, "rollout.ss")
    verify = scheme_static_verifier()
    result = verify(candidate)
    assert result.passed
    assert result.artifacts == 4
    assert "static verify passed" in str(result)


def test_static_verifier_rejects_a_poisoned_candidate():
    from repro.service import scheme_static_verifier

    system = _system()
    candidate = system.compile(PROGRAM, "rollout.ss")
    poison_compiled_program(candidate)
    result = scheme_static_verifier()(candidate)
    assert not result.passed
    assert result.findings
    assert "PGMP" in result.findings[0]
    assert "static verify FAILED" in str(result)


def test_guard_without_static_verifier_passes_vacuously():
    guard = RolloutGuard()
    result = guard.verify(object())
    assert result.passed
    assert result.artifacts == 0


def test_guard_verify_records_metrics():
    from repro.service import scheme_static_verifier

    metrics = ServiceMetrics()
    system = _system()
    guard = RolloutGuard(static_verifier=scheme_static_verifier(), metrics=metrics)
    healthy = system.compile(PROGRAM, "rollout.ss")
    assert guard.verify(healthy).passed
    assert metrics.counter("artifact_verify_passes_total") == 4
    poisoned = SchemeSystem(policy="warn").compile(PROGRAM, "rollout.ss")
    poison_compiled_program(poisoned)
    assert not guard.verify(poisoned).passed
    assert metrics.counter("artifact_verify_failures_total") == 1


def test_poisoned_candidate_is_rejected_statically_before_the_canary():
    """The mutation gate: a tampered artifact must die at the static
    verifier — the canary (disabled here: it would fail the test if it
    ever ran) never spends a probe on it."""
    from repro.service import scheme_static_verifier

    def canary_must_not_run(candidate):
        raise AssertionError("canary ran on a statically-invalid candidate")

    metrics = ServiceMetrics()
    system = _system()
    guard = RolloutGuard(
        static_verifier=scheme_static_verifier(),
        validator=canary_must_not_run,
        metrics=metrics,
        breaker=CircuitBreaker(failure_threshold=2, backoff_base=60.0),
    )
    controller = RecompileController(
        scheme_recompiler(system, PROGRAM, "rollout.ss"),
        threshold=0.05,
        metrics=metrics,
        guard=guard,
    )

    from repro.testing.faults import poisoned_recompiles

    with poisoned_recompiles(controller):
        decision = controller.maybe_recompile(_db({1: 10}))
    assert not decision.recompiled
    assert decision.reason.startswith("static verify failed")
    assert controller.artifact() is None, "nothing was deployed"
    assert controller.generation == 0
    assert metrics.counter("artifact_verify_failures_total") == 1
    assert metrics.counter("canary_failures_total") == 0
    assert guard.breaker.consecutive_failures == 1, "static failure strikes"
    assert guard.journal.live() is None


def test_static_pass_hands_off_to_the_canary():
    from repro.service import scheme_static_verifier

    metrics = ServiceMetrics()
    system = _system()
    canary_ran = []

    def tracking_canary(candidate):
        canary_ran.append(candidate)
        return scheme_canary(system)(candidate)

    guard = RolloutGuard(
        static_verifier=scheme_static_verifier(),
        validator=tracking_canary,
        metrics=metrics,
    )
    controller = RecompileController(
        scheme_recompiler(system, PROGRAM, "rollout.ss"),
        threshold=0.05,
        metrics=metrics,
        guard=guard,
    )
    decision = controller.maybe_recompile(_db({1: 10}))
    assert decision.recompiled
    assert len(canary_ran) == 1, "static pass then canary, in that order"
    assert metrics.counter("artifact_verify_passes_total") == 4
    assert metrics.counter("artifact_verify_failures_total") == 0
