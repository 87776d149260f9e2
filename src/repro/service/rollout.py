"""The rollout guard: canary validation, generation journal, breaker.

PR 6 made the controller hot-swap compiled artifacts on profile drift.
That turned every drift-triggered recompile into an unreviewed
deployment: a poisoned merged profile, a codegen edge case, or an
artifact that loads but misbehaves would ship straight into the serving
path with no gate and no way back. This module is the gate and the way
back — cooperating pieces composed by :class:`RolloutGuard` and
wired into :class:`~repro.service.controller.RecompileController`:

**Static verification** (pre-canary). Before any probe runs, the
candidate's compiled artifacts are translation-validated against their
core forms (the PGMP5xx passes of ``pgmp verify``): instrumentation and
budget-charge sites in interpreter order, lexical scoping, tail-loop
rebinding safety, primitive identity guards. Static, so it covers every
branch of the generated code — including ones the canary's probe inputs
never reach — and costs no candidate execution at all.

**Canary validation** (pre-swap). Before a candidate artifact goes
live it must pass a differential smoke battery: the candidate program
runs under the compiled backend *and* the interpreter on a probe set,
and the externally-written datum + captured output must agree
byte-for-byte (the same parity contract the compile backend's
differential suite enforces offline). Both runs carry a
:class:`~repro.core.policy.StepBudget` — a candidate that suddenly
burns through its fuel fails the canary — and the compiled run is held
to a wall-clock ceiling.

**Generation journal** (the way back). Every committed rollout is
journaled *before* the in-memory swap: the generation number, the
merged-profile snapshot it was compiled against (stored through the
ordinary atomic + fsynced :meth:`ProfileDatabase.store`), and the
baseline weights. Because expansion is deterministic and the artifact
cache is keyed on the merged-profile fingerprint, re-running the
recompiler against a journaled snapshot reproduces the journaled
artifact — so "roll back to generation N" is "recompile from N's
snapshot", which is a cache hit. A crash between the journal write and
the swap is safe in both directions: the journal names a generation
the next process can deterministically rebuild and resume.

**Quarantine** (don't do it again). Rolling back does not un-drift the
merged profile — the very next controller evaluation would see the
same drift and re-trigger the same bad recompile, a ping-pong loop.
The journal therefore quarantines the offending snapshot's
merged-profile fingerprint; the controller refuses to recompile
against a quarantined fingerprint until an operator clears it (or the
profile genuinely moves on, changing the fingerprint).

**Circuit breaker** (stop digging). Recompile/canary failures are
counted; past a consecutive-failure threshold the breaker *opens* and
recompilation is suspended for an exponentially-growing backoff. After
the backoff one *half-open* probe recompile is admitted: success
closes the breaker, failure re-opens it with a doubled backoff. All
transitions are traced (``rollout`` events) and metered
(``breaker_state`` gauge: closed=0, open=1, half-open=2).
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.database import ProfileDatabase, atomic_write_text
from repro.obs.logs import get_logger
from repro.obs.metrics import ServiceMetrics
from repro.obs.tracer import active_tracer, maybe_span

__all__ = [
    "CanaryResult",
    "CircuitBreaker",
    "GenerationJournal",
    "GenerationRecord",
    "RolloutGuard",
    "StaticVerifyResult",
    "describe_rollout_metrics",
    "scheme_canary",
    "scheme_static_verifier",
]

logger = get_logger(__name__)

#: Version tag of the on-disk journal file.
JOURNAL_FORMAT_VERSION = 1

#: ``breaker_state`` gauge encoding.
BREAKER_STATES = {"closed": 0, "open": 1, "half-open": 2}


def describe_rollout_metrics(metrics: ServiceMetrics) -> None:
    """Register HELP text for every metric the rollout guard emits."""
    metrics.describe("rollouts_total", "Artifact rollouts committed and swapped")
    metrics.describe(
        "rollbacks_total", "Automatic or manual rollbacks to a previous generation"
    )
    metrics.describe(
        "canary_failures_total", "Candidate artifacts rejected by canary validation"
    )
    metrics.describe("canary_probes_total", "Canary probe executions")
    metrics.describe(
        "breaker_state",
        "Recompile circuit breaker state (0=closed, 1=open, 2=half-open)",
    )
    metrics.describe(
        "breaker_opens_total", "Times the recompile circuit breaker opened"
    )
    metrics.describe(
        "rollout_generation", "Generation currently live per the rollout journal"
    )
    metrics.describe("canary_latency", "Compiled-backend canary probe latency")
    metrics.describe(
        "artifact_verify_passes_total",
        "Candidate artifacts that passed static translation validation",
    )
    metrics.describe(
        "artifact_verify_failures_total",
        "Candidate artifacts rejected by static translation validation",
    )


# -- canary validation -------------------------------------------------------


@dataclass(frozen=True)
class CanaryResult:
    """Outcome of pre-swap validation of one candidate artifact."""

    passed: bool
    probes: int
    failures: tuple[str, ...] = ()
    latencies: tuple[float, ...] = ()

    def summary(self) -> str:
        if self.passed:
            return f"{self.probes} probe(s) passed"
        head = "; ".join(self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            head += f"; +{more} more"
        return head

    def __str__(self) -> str:
        verdict = "passed" if self.passed else "FAILED"
        return f"canary {verdict}: {self.summary()}"


def scheme_canary(
    system: Any,
    probes: Sequence[tuple[str, str]] = (),
    *,
    budget: int = 1_000_000,
    latency_ceiling: float = 5.0,
) -> Callable[[Any], CanaryResult]:
    """A canary validator for Scheme candidates (expanded ``Program``\\ s).

    The differential battery: the candidate — and each extra probe
    program, given as ``(source, filename)`` pairs — runs under the
    compiled backend *and* the reference interpreter; the written datum
    and the captured output must agree byte-for-byte. Both runs are
    fueled by a fresh :class:`StepBudget` of ``budget`` steps (a
    candidate that exhausts it fails the sanity check) and the compiled
    run must finish within ``latency_ceiling`` seconds. Artifacts the
    candidate has already materialized are also :meth:`self-checked
    <repro.scheme.compile_py.artifact.CompiledArtifact.self_check>`; an
    artifact that ran is checked against the compile that ran it, so only
    one that nothing ran is compiled here.
    """
    from repro.core.policy import StepBudget
    from repro.scheme.datum import write_datum

    probe_sources = [(str(src), str(name)) for src, name in probes]

    def validate(candidate: Any) -> CanaryResult:
        failures: list[str] = []
        latencies: list[float] = []
        programs: list[tuple[Any, str]] = [(candidate, "<candidate>")]
        for source, name in probe_sources:
            try:
                programs.append((system.compile(source, name), name))
            except Exception as exc:
                failures.append(f"{name}: probe failed to compile: {exc}")
        for program, name in programs:
            try:
                reference = system.run(
                    program, backend="interp", budget=StepBudget(budget)
                )
            except Exception as exc:
                failures.append(
                    f"{name}: reference run failed: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            started = time.perf_counter()
            try:
                compiled = system.run(
                    program, backend="compile", budget=StepBudget(budget)
                )
            except Exception as exc:
                failures.append(
                    f"{name}: candidate run failed: "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            elapsed = time.perf_counter() - started
            latencies.append(elapsed)
            expected = write_datum(reference.value)
            got = write_datum(compiled.value)
            if got != expected:
                failures.append(
                    f"{name}: value diverged: {got} != {expected}"
                )
            if compiled.output != reference.output:
                failures.append(
                    f"{name}: output diverged "
                    f"({len(compiled.output)} vs {len(reference.output)} bytes)"
                )
            if elapsed > latency_ceiling:
                failures.append(
                    f"{name}: compiled run took {elapsed:.3f}s "
                    f"(ceiling {latency_ceiling:.3f}s)"
                )
        artifacts = getattr(candidate, "artifacts", None)
        if isinstance(artifacts, dict):
            for flavor, artifact in sorted(artifacts.items()):
                check = getattr(artifact, "self_check", None)
                if check is None:
                    continue
                for problem in check():
                    failures.append(f"artifact[{flavor}]: {problem}")
        return CanaryResult(
            passed=not failures,
            probes=len(programs),
            failures=tuple(failures),
            latencies=tuple(latencies),
        )

    return validate


# -- static verification (pre-canary) ----------------------------------------


@dataclass(frozen=True)
class StaticVerifyResult:
    """Outcome of static translation validation of one candidate."""

    passed: bool
    artifacts: int
    findings: tuple[str, ...] = ()

    def summary(self) -> str:
        if self.passed:
            return f"{self.artifacts} artifact(s) verified"
        head = "; ".join(self.findings[:3])
        more = len(self.findings) - 3
        if more > 0:
            head += f"; +{more} more"
        return head

    def __str__(self) -> str:
        verdict = "passed" if self.passed else "FAILED"
        return f"static verify {verdict}: {self.summary()}"


def scheme_static_verifier() -> Callable[[Any], StaticVerifyResult]:
    """A static translation validator for Scheme candidates.

    Runs the PGMP5xx pass family (:mod:`repro.analysis.verify`) over
    every artifact flavor of the candidate program — no probe inputs, no
    execution of the candidate — so a miscompiled branch the canary's
    probes never reach is still caught. The candidate's one generated
    text is parsed once; see :func:`~repro.analysis.verify.verify_program`.
    Only ERROR-severity findings fail the candidate; PGMP506 fallback
    infos are recorded as findings text but do not block (an
    interpreter-fallback program is slower, not wrong).
    """

    def verify(candidate: Any) -> StaticVerifyResult:
        from repro.analysis.verify import ALL_FLAVORS, verify_program

        report = verify_program(candidate, "<candidate>")
        errors = report.errors()
        return StaticVerifyResult(
            passed=not errors,
            artifacts=len(ALL_FLAVORS),
            findings=tuple(str(diag) for diag in errors),
        )

    return verify


# -- generation journal ------------------------------------------------------


@dataclass
class GenerationRecord:
    """One journaled rollout: a generation plus how to rebuild it."""

    generation: int
    profile_fingerprint: str
    baseline: dict[str, float]
    status: str = "live"  # "live" | "superseded" | "rolled-back"
    #: snapshot filename relative to the journal directory ("" = in-memory)
    snapshot: str = ""

    def to_json_object(self) -> dict:
        return {
            "generation": self.generation,
            "profile_fingerprint": self.profile_fingerprint,
            "baseline": self.baseline,
            "status": self.status,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_json_object(cls, obj: dict) -> "GenerationRecord":
        return cls(
            generation=int(obj["generation"]),
            profile_fingerprint=str(obj["profile_fingerprint"]),
            baseline={
                str(k): float(v) for k, v in dict(obj["baseline"]).items()
            },
            status=str(obj.get("status", "superseded")),
            snapshot=str(obj.get("snapshot", "")),
        )


class GenerationJournal:
    """Fsynced on-disk record of the last N rollouts (see module docs).

    With ``directory=None`` the journal is in-memory only — same API,
    no crash safety — which is what unit tests and the default
    ``RolloutGuard()`` use. With a directory, ``journal.json`` and the
    per-generation profile snapshots are written through
    :func:`atomic_write_text` / :meth:`ProfileDatabase.store`, both
    atomic-rename + fsync, so a reader (or a restart) only ever sees
    complete state.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str] | None = None,
        *,
        max_generations: int = 5,
    ) -> None:
        if max_generations < 2:
            raise ValueError(
                f"a journal needs >= 2 generations to roll back, "
                f"got {max_generations}"
            )
        self.directory = os.fspath(directory) if directory is not None else None
        self.max_generations = int(max_generations)
        self._lock = threading.Lock()
        self._records: list[GenerationRecord] = []
        self._quarantine: list[dict] = []
        self._snapshots: dict[int, str] = {}  # in-memory mode only
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            self._load()

    # -- persistence -------------------------------------------------------

    @property
    def journal_path(self) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, "journal.json")

    def _load(self) -> None:
        path = self.journal_path
        assert path is not None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
            if not isinstance(obj, dict) or obj.get("format") != "pgmp-rollout-journal":
                raise ValueError("not a pgmp rollout journal")
            if obj.get("version") != JOURNAL_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported journal version {obj.get('version')!r}"
                )
            self._records = [
                GenerationRecord.from_json_object(entry)
                for entry in obj.get("generations", [])
            ]
            self._quarantine = [dict(entry) for entry in obj.get("quarantine", [])]
        except FileNotFoundError:
            return
        except Exception as exc:
            # A corrupt journal must not keep the service from starting;
            # it only costs the rollback history.
            logger.error("rollout journal %s unreadable (%s); starting empty",
                         path, exc)
            self._records = []
            self._quarantine = []

    def _persist_locked(self) -> None:
        path = self.journal_path
        if path is None:
            return
        payload = json.dumps(
            {
                "format": "pgmp-rollout-journal",
                "version": JOURNAL_FORMAT_VERSION,
                "generations": [r.to_json_object() for r in self._records],
                "quarantine": list(self._quarantine),
            },
            indent=2,
            sort_keys=True,
        )
        atomic_write_text(path, payload)

    # -- recording ---------------------------------------------------------

    def record(
        self,
        generation: int,
        db: ProfileDatabase,
        baseline: Mapping[str, float],
    ) -> GenerationRecord:
        """Journal a rollout *before* it is swapped live.

        Stores the merged-profile snapshot (the recompiler input —
        deterministic expansion makes it sufficient to rebuild the
        artifact), supersedes the previous live record, and prunes
        history beyond ``max_generations``.
        """
        fingerprint = db.merged_fingerprint()
        with self._lock:
            snapshot_name = ""
            if self.directory is not None:
                snapshot_name = f"gen-{generation:05d}.profile.json"
                db.store(os.path.join(self.directory, snapshot_name))
            else:
                buffer = io.StringIO()
                db.store(buffer)
                self._snapshots[generation] = buffer.getvalue()
            for record in self._records:
                if record.status == "live":
                    record.status = "superseded"
            record = GenerationRecord(
                generation=generation,
                profile_fingerprint=fingerprint,
                baseline=dict(baseline),
                status="live",
                snapshot=snapshot_name,
            )
            self._records.append(record)
            self._prune_locked()
            self._persist_locked()
            return record

    def _prune_locked(self) -> None:
        while len(self._records) > self.max_generations:
            oldest = self._records[0]
            if oldest.status == "live":  # pragma: no cover - defensive
                break
            del self._records[0]
            self._snapshots.pop(oldest.generation, None)
            if self.directory is not None and oldest.snapshot:
                try:
                    os.unlink(os.path.join(self.directory, oldest.snapshot))
                except OSError:
                    pass

    # -- queries -----------------------------------------------------------

    def generations(self) -> list[GenerationRecord]:
        with self._lock:
            return list(self._records)

    def live(self) -> GenerationRecord | None:
        with self._lock:
            for record in reversed(self._records):
                if record.status == "live":
                    return record
            return None

    def rollback_target(self) -> GenerationRecord | None:
        """The newest non-rolled-back generation before the live one."""
        with self._lock:
            live_index = None
            for index in range(len(self._records) - 1, -1, -1):
                if self._records[index].status == "live":
                    live_index = index
                    break
            if live_index is None:
                return None
            for index in range(live_index - 1, -1, -1):
                if self._records[index].status == "superseded":
                    return self._records[index]
            return None

    def load_snapshot(self, record: GenerationRecord) -> ProfileDatabase:
        """Rebuild the merged-profile database a generation was compiled
        against."""
        if self.directory is not None and record.snapshot:
            return ProfileDatabase.load(
                os.path.join(self.directory, record.snapshot)
            )
        text = self._snapshots.get(record.generation)
        if text is None:
            raise KeyError(
                f"no profile snapshot for generation {record.generation}"
            )
        return ProfileDatabase.load(io.StringIO(text))

    # -- rollback + quarantine ---------------------------------------------

    def roll_back(self, offending: int, target: int) -> None:
        """Move the live pointer from ``offending`` back to ``target``."""
        with self._lock:
            for record in self._records:
                if record.generation == offending:
                    record.status = "rolled-back"
                elif record.generation == target:
                    record.status = "live"
            self._persist_locked()

    def quarantine(self, fingerprint: str, generation: int, reason: str) -> None:
        with self._lock:
            if any(e.get("fingerprint") == fingerprint for e in self._quarantine):
                return
            self._quarantine.append(
                {
                    "fingerprint": fingerprint,
                    "generation": generation,
                    "reason": reason,
                }
            )
            self._persist_locked()

    def is_quarantined(self, fingerprint: str) -> bool:
        with self._lock:
            return any(
                e.get("fingerprint") == fingerprint for e in self._quarantine
            )

    def quarantine_entries(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._quarantine]

    def clear_quarantine(self, fingerprint: str | None = None) -> int:
        """Drop one quarantined fingerprint (or all); returns how many."""
        with self._lock:
            before = len(self._quarantine)
            if fingerprint is None:
                self._quarantine = []
            else:
                self._quarantine = [
                    e for e in self._quarantine
                    if e.get("fingerprint") != fingerprint
                ]
            dropped = before - len(self._quarantine)
            if dropped:
                self._persist_locked()
            return dropped

    def __repr__(self) -> str:
        live = self.live()
        return (
            f"<GenerationJournal live="
            f"{live.generation if live else None} "
            f"records={len(self.generations())} "
            f"quarantined={len(self.quarantine_entries())}>"
        )


# -- circuit breaker ---------------------------------------------------------


class CircuitBreaker:
    """Consecutive-failure breaker around the recompile path.

    ``closed`` (normal) → ``open`` after ``failure_threshold``
    consecutive failures, suspending recompilation for
    ``backoff_base * 2**(opens-1)`` seconds (capped at ``backoff_max``)
    → ``half-open`` after the backoff, admitting exactly one probe
    recompile → ``closed`` on probe success, re-``open`` with a doubled
    backoff on probe failure. The clock is injectable so chaos tests
    drive the backoff deterministically.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        backoff_base: float = 30.0,
        backoff_max: float = 600.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = int(failure_threshold)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.metrics = metrics
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opens = 0
        self._open_until = 0.0
        if metrics is not None:
            metrics.set_gauge("breaker_state", BREAKER_STATES["closed"])

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def current_backoff(self) -> float:
        """The backoff the *next* open would impose."""
        with self._lock:
            return self._backoff_locked(max(1, self._opens))

    def _backoff_locked(self, opens: int) -> float:
        return min(self.backoff_max, self.backoff_base * (2.0 ** (opens - 1)))

    def allow(self) -> tuple[bool, float]:
        """May a recompile proceed? Returns ``(allowed, retry_in_seconds)``.

        While open, returns ``False`` with the remaining backoff; once
        the backoff elapses the call itself transitions to half-open and
        admits the single probe.
        """
        with self._lock:
            if self._state == "closed":
                return (True, 0.0)
            now = self._clock()
            if self._state == "open":
                if now >= self._open_until:
                    self._transition_locked("half-open")
                    return (True, 0.0)
                return (False, self._open_until - now)
            # half-open: the probe is already in flight.
            return (False, 0.0)

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opens = 0
            if self._state != "closed":
                self._transition_locked("closed")

    def record_failure(self) -> bool:
        """Count one failure; returns whether the breaker is now open."""
        with self._lock:
            if self._state == "half-open":
                self._failures += 1
                self._open_locked()
                return True
            self._failures += 1
            if self._state == "closed" and self._failures >= self.failure_threshold:
                self._open_locked()
                return True
            return self._state == "open"

    def _open_locked(self) -> None:
        self._opens += 1
        backoff = self._backoff_locked(self._opens)
        self._open_until = self._clock() + backoff
        self._transition_locked("open", backoff=backoff)
        if self.metrics is not None:
            self.metrics.inc("breaker_opens_total")

    def _transition_locked(self, new_state: str, **attrs: object) -> None:
        old_state = self._state
        self._state = new_state
        if self.metrics is not None:
            self.metrics.set_gauge("breaker_state", BREAKER_STATES[new_state])
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "rollout",
                f"breaker {old_state}->{new_state}",
                failures=self._failures,
                **attrs,
            )
        logger.info(
            "recompile circuit breaker %s -> %s (%d consecutive failure(s))",
            old_state, new_state, self._failures,
        )

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.state} "
            f"failures={self.consecutive_failures}/{self.failure_threshold}>"
        )


# -- the guard ---------------------------------------------------------------


@dataclass
class _WatchState:
    generation: int
    until: float
    errors: int = 0
    latency_breaches: int = 0
    observations: int = 0
    samples: list[float] = field(default_factory=list)


class RolloutGuard:
    """Compose canary + journal + breaker into one swap-path gate.

    The controller drives it in this order:

    1. ``breaker.allow()`` / :meth:`is_quarantined` — may we recompile?
    2. recompile (a raise is a breaker failure);
    3. :meth:`verify` — static translation validation of the candidate's
       artifacts (cheap, no execution), *before* any probe runs;
    4. :meth:`validate` — the canary battery over the candidate;
    5. :meth:`commit` — journal the generation *before* the swap;
    6. swap, then :meth:`begin_watch` — post-swap observations stream in
       through :meth:`observe`, which answers with a rollback trigger
       reason when the error budget or latency SLO is blown within the
       watch window.
    """

    def __init__(
        self,
        *,
        validator: Callable[[Any], CanaryResult] | None = None,
        static_verifier: Callable[[Any], StaticVerifyResult] | None = None,
        journal: GenerationJournal | None = None,
        breaker: CircuitBreaker | None = None,
        rollback_window: float = 30.0,
        error_budget: int = 3,
        latency_slo: float | None = None,
        latency_breach_limit: int = 3,
        metrics: ServiceMetrics | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        #: public so fault injection can swap a deterministic failure in
        self.validator = validator
        #: static gate ahead of the canary; public for the same reason
        self.static_verifier = static_verifier
        self.journal = journal if journal is not None else GenerationJournal()
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(metrics=metrics)
        )
        self.rollback_window = float(rollback_window)
        self.error_budget = int(error_budget)
        self.latency_slo = latency_slo
        self.latency_breach_limit = int(latency_breach_limit)
        self.metrics = metrics
        self._clock = clock
        self._lock = threading.Lock()
        self._watch: _WatchState | None = None
        if metrics is not None:
            describe_rollout_metrics(metrics)

    # -- pre-swap ----------------------------------------------------------

    def is_quarantined(self, fingerprint: str) -> bool:
        return self.journal.is_quarantined(fingerprint)

    def verify(self, candidate: Any) -> StaticVerifyResult:
        """Statically verify the candidate's artifacts; never executes them.

        Runs *before* :meth:`validate`: a candidate whose generated code
        provably breaks a translation invariant is rejected without
        spending a single canary probe on it.
        """
        if self.static_verifier is None:
            return StaticVerifyResult(passed=True, artifacts=0)
        with maybe_span("verify", "candidate-static-verification"):
            result = self.static_verifier(candidate)
        if self.metrics is not None:
            if result.passed:
                self.metrics.inc("artifact_verify_passes_total", result.artifacts)
            else:
                self.metrics.inc("artifact_verify_failures_total")
        if not result.passed:
            logger.warning(
                "static verification rejected candidate: %s", result.summary()
            )
        return result

    def validate(self, candidate: Any) -> CanaryResult:
        """Run the canary battery; counts failures, never swaps."""
        if self.validator is None:
            return CanaryResult(passed=True, probes=0)
        with maybe_span("canary", "candidate-validation"):
            result = self.validator(candidate)
        if self.metrics is not None:
            self.metrics.inc("canary_probes_total", result.probes)
            for latency in result.latencies:
                self.metrics.observe_latency("canary_latency", latency)
            if not result.passed:
                self.metrics.inc("canary_failures_total")
        if not result.passed:
            logger.warning("canary rejected candidate: %s", result.summary())
        return result

    def commit(
        self,
        generation: int,
        db: ProfileDatabase,
        baseline: Mapping[str, float],
    ) -> GenerationRecord:
        """Journal ``generation`` (fsynced) ahead of the in-memory swap."""
        record = self.journal.record(generation, db, baseline)
        if self.metrics is not None:
            self.metrics.set_gauge("rollout_generation", generation)
        return record

    # -- post-swap watch ---------------------------------------------------

    def begin_watch(self, generation: int) -> None:
        """Start the post-swap watch window for ``generation``."""
        with self._lock:
            self._watch = _WatchState(
                generation=generation,
                until=self._clock() + self.rollback_window,
            )
        if self.metrics is not None:
            self.metrics.inc("rollouts_total")

    def end_watch(self) -> None:
        with self._lock:
            self._watch = None

    @property
    def watching(self) -> bool:
        with self._lock:
            watch = self._watch
            return watch is not None and self._clock() <= watch.until

    def observe(self, ok: bool, latency: float | None = None) -> str | None:
        """Feed one serving-path health observation to the watch window.

        Returns a rollback trigger reason when the watched generation
        blew its error budget or latency SLO, ``None`` otherwise.
        Observations outside a watch window are ignored — steady-state
        noise must not trigger rollbacks of long-settled artifacts.
        """
        with self._lock:
            watch = self._watch
            if watch is None:
                return None
            if self._clock() > watch.until:
                # The window closed with the budget intact: the rollout
                # is confirmed good.
                self._watch = None
                return None
            watch.observations += 1
            if not ok:
                watch.errors += 1
                if watch.errors >= self.error_budget:
                    return (
                        f"error budget blown in watch window: "
                        f"{watch.errors} error(s) in "
                        f"{watch.observations} observation(s) "
                        f"(budget {self.error_budget})"
                    )
            if latency is not None:
                watch.samples.append(latency)
                if self.latency_slo is not None and latency > self.latency_slo:
                    watch.latency_breaches += 1
                    if watch.latency_breaches >= self.latency_breach_limit:
                        return (
                            f"latency SLO blown in watch window: "
                            f"{watch.latency_breaches} consecutive "
                            f"sample(s) over {self.latency_slo:.3f}s"
                        )
                else:
                    watch.latency_breaches = 0
            return None

    # -- status ------------------------------------------------------------

    def status(self) -> dict:
        live = self.journal.live()
        return {
            "generation": live.generation if live is not None else 0,
            "breaker": self.breaker.state,
            "breaker_failures": self.breaker.consecutive_failures,
            "watching": self.watching,
            "journaled": len(self.journal.generations()),
            "rolled_back": sum(
                1
                for record in self.journal.generations()
                if record.status == "rolled-back"
            ),
            "quarantined": len(self.journal.quarantine_entries()),
        }

    def __repr__(self) -> str:
        status = self.status()
        return (
            f"<RolloutGuard gen={status['generation']} "
            f"breaker={status['breaker']} watching={status['watching']}>"
        )
