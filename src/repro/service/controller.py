"""The online recompilation controller.

The batch workflow re-expands a program when a human re-runs the
compiler. In continuous operation the decision must be automatic: as the
aggregator merges fresh deltas, the merged weights *drift* away from the
weights the currently-deployed expansion was optimized against. The
controller measures that drift and, past a configurable threshold,
re-runs the meta-program optimization and atomically swaps the compiled
artifact.

Drift metric: **L∞ distance** over the union of point keys between the
merged weight mapping now and the mapping used for the last expansion.
Profile weights live in ``[0, 1]``, so drift does too; the threshold is
directly interpretable ("recompile when any point's weight moved by more
than X"). Against an empty baseline the drift of any non-empty profile is
1.0 (the hottest point went from 0 to 1), so the first profile data
always triggers the first optimization.

Every decision — recompile or not — is recorded in a
:class:`RecompilationLog`, so "why is production still running the old
expansion?" is always answerable.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.core.database import ProfileDatabase
from repro.obs.logs import get_logger
from repro.obs.metrics import ServiceMetrics, get_global_metrics
from repro.obs.tracer import DecisionRecord, Tracer, using_tracer
from repro.service.rollout import CanaryResult, RolloutGuard, StaticVerifyResult

__all__ = [
    "weight_drift",
    "decision_diff",
    "RecompilationDecision",
    "RecompilationLog",
    "RecompileController",
    "scheme_recompiler",
    "pyast_recompiler",
]

logger = get_logger(__name__)


def decision_diff(
    previous: list[DecisionRecord] | None, current: list[DecisionRecord]
) -> tuple[str, int]:
    """Summarize how this recompile's meta-program decisions differ from
    the previous artifact's: ``(summary, changed_count)``.

    Decisions are keyed by ``(construct, location)``; a decision *changed*
    when the chosen alternative at that site differs. ``previous=None``
    (the first recompile) reports every decision as new.
    """

    def keyed(records: list[DecisionRecord]) -> dict:
        return {
            (record.construct, record.location): record.chosen
            for record in records
        }

    now = keyed(current)
    if previous is None:
        return (f"first artifact: {len(now)} decision site(s)", len(now))
    before = keyed(previous)
    changed = [
        f"{construct}@{location}"
        for (construct, location), chosen in sorted(now.items())
        if (construct, location) in before
        and before[(construct, location)] != chosen
    ]
    new = sum(1 for key in now if key not in before)
    gone = sum(1 for key in before if key not in now)
    unchanged = sum(
        1
        for key, chosen in now.items()
        if key in before and before[key] == chosen
    )
    parts = [f"{len(changed)} changed", f"{unchanged} unchanged"]
    if new:
        parts.append(f"{new} new")
    if gone:
        parts.append(f"{gone} gone")
    summary = ", ".join(parts)
    if changed:
        summary += " [" + "; ".join(changed) + "]"
    return (summary, len(changed) + new + gone)


def weight_drift(
    before: Mapping[str, float], after: Mapping[str, float]
) -> float:
    """L∞ distance between two merged weight mappings (point key → weight).

    A point missing from a mapping has weight 0.0 — the same convention
    ``profile-query`` uses — so newly-hot and gone-cold points both count.
    """
    keys = before.keys() | after.keys()
    return max(
        (abs(before.get(k, 0.0) - after.get(k, 0.0)) for k in keys),
        default=0.0,
    )


@dataclass(frozen=True)
class RecompilationDecision:
    """One controller evaluation: the drift seen and what was done."""

    #: how many recompilations had happened before this decision
    generation: int
    #: L∞ drift of the merged weights against the last-compiled baseline
    drift: float
    #: the threshold in force
    threshold: float
    #: whether a recompile-and-swap was performed
    recompiled: bool
    #: human-readable explanation
    reason: str
    #: wall-clock seconds the recompile + swap took (0.0 when skipped)
    pause_seconds: float = 0.0
    #: how the meta-program decisions differ from the previous artifact's
    #: (empty when no recompile happened)
    decision_diff: str = ""
    #: decision sites whose outcome changed/appeared/disappeared vs the
    #: previous artifact
    decisions_changed: int = 0

    def __str__(self) -> str:
        verb = "recompiled" if self.recompiled else "kept"
        return (
            f"gen {self.generation}: drift {self.drift:.4f} "
            f"(threshold {self.threshold:.4f}) -> {verb} ({self.reason})"
        )

    def to_json_object(self) -> dict:
        return {
            "generation": self.generation,
            "drift": self.drift,
            "threshold": self.threshold,
            "recompiled": self.recompiled,
            "reason": self.reason,
            "pause_seconds": self.pause_seconds,
            "decision_diff": self.decision_diff,
            "decisions_changed": self.decisions_changed,
        }


class RecompilationLog:
    """Thread-safe append-only record of controller decisions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: list[RecompilationDecision] = []

    def record(self, entry: RecompilationDecision) -> RecompilationDecision:
        with self._lock:
            self._entries.append(entry)
        return entry

    def entries(self) -> list[RecompilationDecision]:
        with self._lock:
            return list(self._entries)

    def recompilations(self) -> list[RecompilationDecision]:
        return [e for e in self.entries() if e.recompiled]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self):
        return iter(self.entries())

    def __repr__(self) -> str:
        return (
            f"<RecompilationLog: {len(self)} decisions, "
            f"{len(self.recompilations())} recompilations>"
        )


class RecompileController:
    """Drift-triggered optimization with an atomically-swapped artifact.

    ``recompile`` is the substrate-specific compile step: given the merged
    :class:`ProfileDatabase`, produce a new compiled artifact (a Scheme
    :class:`~repro.scheme.core_forms.Program`, a recompiled Python
    function, …). The controller guarantees:

    * :meth:`artifact` readers never observe a half-swapped state — the
      swap is a single reference assignment under the controller lock;
    * the baseline weights and the artifact move together: a decision to
      recompile updates both or (if ``recompile`` raises) neither;
    * decisions are serialized — concurrent :meth:`maybe_recompile` calls
      cannot both recompile for the same drift.

    With a :class:`~repro.service.rollout.RolloutGuard` attached, every
    swap additionally passes the guard's gates: quarantine check and
    circuit breaker before the recompile, canary validation after it,
    and a fsynced journal write *before* the in-memory swap — so
    :meth:`rollback` (manual, or automatic via :meth:`observe_health`)
    can restore the previous generation, and
    :meth:`resume_from_journal` can rebuild the journaled live
    generation after a crash.
    """

    def __init__(
        self,
        recompile: Callable[[ProfileDatabase], Any],
        *,
        threshold: float = 0.05,
        log: RecompilationLog | None = None,
        metrics: ServiceMetrics | None = None,
        guard: RolloutGuard | None = None,
    ) -> None:
        if not 0.0 <= float(threshold) <= 1.0:
            raise ValueError(
                f"drift threshold must be in [0, 1], got {threshold!r}"
            )
        self._recompile = recompile
        self.threshold = float(threshold)
        self.log = log if log is not None else RecompilationLog()
        self.metrics = metrics
        self.guard = guard
        self._lock = threading.Lock()
        self._artifact: Any = None
        self._baseline: dict[str, float] | None = None
        self._generation = 0
        #: decision records of the currently-deployed artifact's expansion
        self._last_decisions: list[DecisionRecord] | None = None

    @property
    def generation(self) -> int:
        """How many recompile-and-swaps have happened."""
        with self._lock:
            return self._generation

    def artifact(self) -> Any:
        """The currently-deployed compiled artifact (``None`` before the
        first recompilation)."""
        with self._lock:
            return self._artifact

    def baseline_weights(self) -> dict[str, float] | None:
        """The merged weights the current artifact was optimized against."""
        with self._lock:
            return dict(self._baseline) if self._baseline is not None else None

    def maybe_recompile(self, db: ProfileDatabase) -> RecompilationDecision:
        """Evaluate drift of ``db``'s merged weights; recompile if needed."""
        merged = db.merged().as_key_mapping()
        with self._lock:
            if not merged and self._baseline is None:
                decision = RecompilationDecision(
                    generation=self._generation,
                    drift=0.0,
                    threshold=self.threshold,
                    recompiled=False,
                    reason="no profile data yet",
                )
                return self.log.record(decision)
            baseline = self._baseline if self._baseline is not None else {}
            drift = weight_drift(baseline, merged)
            if drift <= self.threshold:
                decision = RecompilationDecision(
                    generation=self._generation,
                    drift=drift,
                    threshold=self.threshold,
                    recompiled=False,
                    reason="drift within threshold",
                )
                return self.log.record(decision)
            guard = self.guard
            if guard is not None:
                fingerprint = db.merged_fingerprint()
                if guard.is_quarantined(fingerprint):
                    decision = RecompilationDecision(
                        generation=self._generation,
                        drift=drift,
                        threshold=self.threshold,
                        recompiled=False,
                        reason=(
                            f"profile snapshot quarantined "
                            f"({fingerprint[:12]})"
                        ),
                    )
                    return self.log.record(decision)
                allowed, retry_in = guard.breaker.allow()
                if not allowed:
                    state = guard.breaker.state
                    reason = f"circuit breaker {state}"
                    if retry_in > 0:
                        reason += f" (retry in {retry_in:.1f}s)"
                    else:
                        reason += " (probe recompile in flight)"
                    decision = RecompilationDecision(
                        generation=self._generation,
                        drift=drift,
                        threshold=self.threshold,
                        recompiled=False,
                        reason=reason,
                    )
                    return self.log.record(decision)
            started = time.perf_counter()
            next_generation = self._generation + 1
            # Trace the recompile's expansion so this decision can be
            # tagged with how the meta-programs' choices moved relative to
            # the previous artifact (the decision-provenance diff).
            tracer = Tracer()
            canary: CanaryResult | None = None
            static: StaticVerifyResult | None = None
            try:
                with using_tracer(tracer), tracer.span(
                    "rollout" if guard is not None else "recompile",
                    f"generation-{next_generation}",
                ):
                    if guard is not None:
                        with tracer.span(
                            "recompile", f"generation-{next_generation}"
                        ):
                            artifact = self._recompile(db)
                        # Static gate first: a candidate that provably
                        # breaks a translation invariant never gets a
                        # canary probe spent on it.
                        static = guard.verify(artifact)
                        if static.passed:
                            canary = guard.validate(artifact)
                    else:
                        artifact = self._recompile(db)
            except Exception:
                if guard is not None:
                    guard.breaker.record_failure()
                raise
            pause = time.perf_counter() - started
            get_global_metrics().inc("traces_total")
            if static is not None and not static.passed:
                assert guard is not None
                guard.breaker.record_failure()
                decision = RecompilationDecision(
                    generation=self._generation,
                    drift=drift,
                    threshold=self.threshold,
                    recompiled=False,
                    reason=f"static verify failed: {static.summary()}",
                    pause_seconds=pause,
                )
                logger.warning(
                    "candidate generation %d rejected by static verification: %s",
                    next_generation, static.summary(),
                )
                return self.log.record(decision)
            if canary is not None and not canary.passed:
                # The candidate never goes live: keep the deployed
                # artifact, count the strike against the breaker.
                assert guard is not None
                guard.breaker.record_failure()
                decision = RecompilationDecision(
                    generation=self._generation,
                    drift=drift,
                    threshold=self.threshold,
                    recompiled=False,
                    reason=f"canary failed: {canary.summary()}",
                    pause_seconds=pause,
                )
                logger.warning(
                    "candidate generation %d rejected by canary: %s",
                    next_generation, canary.summary(),
                )
                return self.log.record(decision)
            decisions = tracer.decisions()
            diff, changed = decision_diff(self._last_decisions, decisions)
            if guard is not None:
                # Journal before the swap: a crash after this point
                # resumes on the new generation, a crash before it on
                # the old one — never on a half-deployed mixture.
                guard.commit(next_generation, db, merged)
            self._artifact = artifact
            self._baseline = dict(merged)
            self._last_decisions = decisions
            self._generation = next_generation
            if guard is not None:
                guard.breaker.record_success()
                guard.begin_watch(next_generation)
            decision = RecompilationDecision(
                generation=self._generation,
                drift=drift,
                threshold=self.threshold,
                recompiled=True,
                reason=(
                    "first optimization"
                    if not baseline
                    else "drift exceeded threshold"
                ),
                pause_seconds=pause,
                decision_diff=diff,
                decisions_changed=changed,
            )
        logger.info(
            "recompiled generation %d (drift %.4f): %s",
            decision.generation, decision.drift, decision.decision_diff,
        )
        if self.metrics is not None:
            self.metrics.inc("recompilations_total")
            self.metrics.observe_latency("recompile_pause", pause)
            self.metrics.set_gauge("recompile_generation", decision.generation)
            self.metrics.set_gauge(
                "recompile_decisions_changed", decision.decisions_changed
            )
        return self.log.record(decision)

    def rollback(self, reason: str = "manual rollback") -> RecompilationDecision:
        """Restore the previous journaled generation and quarantine the
        offending profile snapshot.

        Rebuilds the target artifact by re-running the recompiler
        against the journaled merged-profile snapshot — deterministic
        expansion plus the profile-keyed artifact cache make that
        reproduce (usually just re-fetch) the artifact that generation
        deployed. The offending generation's fingerprint is quarantined
        so the still-drifted merged profile cannot immediately
        re-trigger the same bad recompile (the ping-pong loop).
        Skips the canary and the breaker: the target generation already
        proved itself in production, and rolling back must work
        precisely when recompiles are failing.
        """
        with self._lock:
            guard = self.guard
            if guard is None:
                decision = RecompilationDecision(
                    generation=self._generation,
                    drift=0.0,
                    threshold=self.threshold,
                    recompiled=False,
                    reason="no rollout guard configured",
                )
                return self.log.record(decision)
            live = guard.journal.live()
            target = guard.journal.rollback_target()
            if live is None or target is None:
                decision = RecompilationDecision(
                    generation=self._generation,
                    drift=0.0,
                    threshold=self.threshold,
                    recompiled=False,
                    reason="nothing to roll back to",
                )
                return self.log.record(decision)
            started = time.perf_counter()
            snapshot = guard.journal.load_snapshot(target)
            tracer = Tracer()
            with using_tracer(tracer), tracer.span(
                "rollback",
                f"generation-{live.generation}->generation-{target.generation}",
                reason=reason,
            ):
                artifact = self._recompile(snapshot)
            pause = time.perf_counter() - started
            get_global_metrics().inc("traces_total")
            decisions = tracer.decisions()
            diff, changed = decision_diff(self._last_decisions, decisions)
            self._artifact = artifact
            self._baseline = dict(target.baseline)
            self._last_decisions = decisions
            guard.journal.quarantine(
                live.profile_fingerprint, live.generation, reason
            )
            guard.journal.roll_back(live.generation, target.generation)
            guard.end_watch()
            decision = RecompilationDecision(
                generation=target.generation,
                drift=0.0,
                threshold=self.threshold,
                recompiled=True,
                reason=(
                    f"rolled back generation {live.generation} -> "
                    f"{target.generation}: {reason}"
                ),
                pause_seconds=pause,
                decision_diff=diff,
                decisions_changed=changed,
            )
        logger.warning(
            "rolled back generation %d -> %d (%s); quarantined profile %s",
            live.generation, target.generation, reason,
            live.profile_fingerprint[:12],
        )
        if self.metrics is not None:
            self.metrics.inc("rollbacks_total")
            self.metrics.set_gauge("recompile_generation", target.generation)
            self.metrics.set_gauge("rollout_generation", target.generation)
        return self.log.record(decision)

    def observe_health(
        self, ok: bool, latency: float | None = None
    ) -> RecompilationDecision | None:
        """Feed one serving-path health sample to the guard's watch
        window; performs the automatic rollback when the window's error
        budget or latency SLO is blown. Returns the rollback decision
        when one happened."""
        if self.guard is None:
            return None
        trigger = self.guard.observe(ok, latency)
        if trigger is None:
            return None
        return self.rollback(reason=trigger)

    def resume_from_journal(self) -> RecompilationDecision | None:
        """Rebuild the journaled live generation after a restart.

        A crash between the journal write and the swap — or any crash
        after a rollout — leaves the journal naming a generation this
        process no longer holds in memory. Recompiling from that
        generation's profile snapshot reproduces its artifact (the
        journal write preceded the swap, so the journal is never behind
        the artifact that was serving). No-op without a guard, without
        journal history, or once an artifact is already deployed.
        """
        with self._lock:
            guard = self.guard
            if guard is None or self._artifact is not None:
                return None
            live = guard.journal.live()
            if live is None:
                return None
            started = time.perf_counter()
            snapshot = guard.journal.load_snapshot(live)
            tracer = Tracer()
            with using_tracer(tracer), tracer.span(
                "recompile", f"generation-{live.generation}-resume"
            ):
                artifact = self._recompile(snapshot)
            pause = time.perf_counter() - started
            get_global_metrics().inc("traces_total")
            decisions = tracer.decisions()
            diff, changed = decision_diff(None, decisions)
            self._artifact = artifact
            self._baseline = dict(live.baseline)
            self._last_decisions = decisions
            self._generation = live.generation
            decision = RecompilationDecision(
                generation=live.generation,
                drift=0.0,
                threshold=self.threshold,
                recompiled=True,
                reason=f"resumed generation {live.generation} from journal",
                pause_seconds=pause,
                decision_diff=diff,
                decisions_changed=changed,
            )
        logger.info(
            "resumed generation %d from the rollout journal",
            decision.generation,
        )
        if self.metrics is not None:
            self.metrics.set_gauge("recompile_generation", decision.generation)
            self.metrics.set_gauge("rollout_generation", decision.generation)
        return self.log.record(decision)

    def rollout_status(self) -> dict | None:
        """The guard's status block for ``stats``/``/healthz`` (``None``
        without a guard)."""
        if self.guard is None:
            return None
        return self.guard.status()

    def __repr__(self) -> str:
        return (
            f"<RecompileController gen={self.generation} "
            f"threshold={self.threshold}>"
        )


def scheme_recompiler(
    system: Any, source: str, filename: str = "<service>"
) -> Callable[[ProfileDatabase], Any]:
    """A ``recompile`` step re-expanding Scheme ``source`` on a
    :class:`~repro.scheme.pipeline.SchemeSystem`.

    Each call hot-swaps the merged database into the system and goes
    through the profile-keyed artifact cache: a genuinely drifted profile
    changes the merged fingerprint and misses (meta-programs re-decide
    against the fresh weights — exactly the offline ``pgmp optimize``
    path, minus the restart), while a swap that didn't change effective
    weights — or a flap back to weights already compiled under — swaps
    the precompiled artifact in without re-expanding anything.
    """

    def recompile(db: ProfileDatabase) -> Any:
        system.hot_swap_profile(db)
        artifact = system.compile_cached(source, filename)
        if artifact.program is not None:
            return artifact.program
        # Disk-tier hit from an earlier process: the artifact is runnable
        # but carries no expanded Program object, which the controller's
        # artifact() contract requires — re-expand for it.
        return system.compile(source, filename)

    return recompile


def pyast_recompiler(
    system: Any,
    fn: Callable,
    registry: Any = None,
    extra_globals: dict | None = None,
) -> Callable[[ProfileDatabase], Any]:
    """A ``recompile`` step re-expanding a Python function on a
    :class:`~repro.pyast.system.PyAstSystem`."""

    def recompile(db: ProfileDatabase) -> Any:
        system.hot_swap_profile(db)
        return system.expand(fn, registry, extra_globals)

    return recompile
