"""The profile → optimize workflow driver for the Python substrate."""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping

from repro.core.api import using_profile_information
from repro.core.counters import BaseCounterSet, CounterSet
from repro.core.database import ProfileDatabase
from repro.core.errors import ProfileError, ProfileFormatError
from repro.core.policy import (
    DegradationLog,
    ProfilePolicy,
    degrade,
    using_profile_policy,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import get_global_metrics
from repro.obs.tracer import maybe_span
from repro.profiling.confidence import annotate_profile_load_span
from repro.profiling.reconstruct import confidence_for_counts
from repro.profiling.sampler import SamplingCollector
from repro.pyast.macros import MacroRegistry, expand_function
from repro.pyast.profiler import collecting_counters

__all__ = ["PyAstSystem"]

logger = get_logger(__name__)


class PyAstSystem:
    """One compile/profile/recompile cycle manager, like
    :class:`repro.scheme.SchemeSystem` but for Python functions."""

    def __init__(
        self,
        profile_db: ProfileDatabase | None = None,
        policy: ProfilePolicy | str = ProfilePolicy.STRICT,
        degradations: DegradationLog | None = None,
    ) -> None:
        self.profile_db = profile_db if profile_db is not None else ProfileDatabase()
        self.policy = ProfilePolicy.coerce(policy)
        self.degradations = (
            degradations if degradations is not None else DegradationLog()
        )

    def _policy_scope(self):
        return using_profile_policy(self.policy, self.degradations)

    def expand(
        self,
        fn: Callable,
        registry: MacroRegistry | None = None,
        extra_globals: dict | None = None,
    ) -> Callable:
        """Expand ``fn``'s macros against the current profile database.

        Before any profiling this emits instrumented code; after
        :meth:`profile` has recorded data, the same call emits optimized
        code — the two compiles of the paper's workflow. ``extra_globals``
        are injected into the recompiled function's globals (for runtime
        helpers the expansion references).

        Under a non-strict :attr:`policy`, a profile-data failure during
        expansion falls back to re-expanding against an empty database (the
        unoptimized expansion), with the reason recorded in
        :attr:`degradations`.
        """
        name = getattr(fn, "__name__", "<function>")
        get_global_metrics().inc("pyast_expansions_total")
        logger.debug("expanding %s", name)
        with self._policy_scope(), maybe_span("program", name, substrate="pyast"):
            try:
                with using_profile_information(self.profile_db):
                    return expand_function(fn, registry, extra_globals)
            except ProfileError as exc:
                if self.policy is ProfilePolicy.STRICT:
                    raise
                degrade(
                    "expand",
                    f"profile data unusable during expansion: {exc}",
                    "re-expanding without profile data (unoptimized)",
                    error=exc,
                )
                with using_profile_information(ProfileDatabase()):
                    return expand_function(fn, registry, extra_globals)

    def profile(
        self,
        expanded_fn: Callable,
        inputs: Iterable[tuple],
        importance: float = 1.0,
        counters: BaseCounterSet | None = None,
        fingerprints: Mapping[str, str] | None = None,
    ) -> BaseCounterSet:
        """Run ``expanded_fn`` over representative inputs, collecting one
        data set of counters and recording its weights.

        Pass a :class:`~repro.core.counters.ShardedCounterSet` as
        ``counters`` when the representative run itself is multi-threaded,
        and ``fingerprints`` (filename → :func:`source_fingerprint` digest)
        to make the data set staleness-checkable on later loads.
        """
        return self._collect(
            expanded_fn, inputs, 1, importance, counters, fingerprints
        )

    def profile_sampled(
        self,
        expanded_fn: Callable,
        inputs: Iterable[tuple],
        sample_stride: int = 10,
        importance: float = 1.0,
        counters: BaseCounterSet | None = None,
        fingerprints: Mapping[str, str] | None = None,
        engine: str = "gate",
    ) -> BaseCounterSet:
        """Like :meth:`profile`, but through the per-point stride gate.

        A point's every ``sample_stride``-th hook event is recorded, as a
        bump by the stride; the recorded data set carries a
        :class:`~repro.profiling.confidence.DatasetConfidence` record. At
        stride 1 this is :meth:`profile`. ``engine`` names the sampling
        engine; ``"gate"`` is the only one.
        """
        if engine != "gate":
            raise ValueError(f"unknown sampling engine {engine!r}")
        return self._collect(
            expanded_fn, inputs, sample_stride, importance, counters, fingerprints
        )

    def _collect(
        self,
        expanded_fn: Callable,
        inputs: Iterable[tuple],
        stride: int,
        importance: float,
        counters: BaseCounterSet | None,
        fingerprints: Mapping[str, str] | None,
    ) -> BaseCounterSet:
        """The one body of :meth:`profile` (stride 1) and
        :meth:`profile_sampled`; neither calls the other, so a timing span
        around one never contains the other."""
        name = getattr(expanded_fn, "__name__", "pyast-run")
        if counters is None:
            counters = CounterSet(name=name)
        gate = SamplingCollector(counters, stride)
        if gate is counters:
            span = maybe_span("instrument", name)
        else:
            span = maybe_span("sample", name, stride=stride, engine="gate")
        with span, collecting_counters(gate):
            for args in inputs:
                expanded_fn(*args)
        confidence = confidence_for_counts(counters, stride)
        if confidence is not None:
            metrics = get_global_metrics()
            metrics.inc("samples_total", confidence.samples)
            metrics.inc("sampled_datasets_total")
        self.profile_db.record_counters(
            counters, importance, fingerprints, confidence
        )
        return counters

    def analyze(
        self,
        fn: Callable,
        registry: MacroRegistry | None = None,
    ):
        """Opt-in static analysis of ``fn`` (the ``pgmp lint`` passes).

        Runs the effects/exclusivity and coverage passes over ``fn``'s
        source, then expands it twice through :meth:`expand` for the
        profile-point hygiene and determinism passes, and checks
        :attr:`profile_db` for staleness. Returns an
        :class:`repro.analysis.AnalysisReport`; ``fn`` itself is never
        called.
        """
        from repro.analysis.pyast_passes import analyze_python_function

        return analyze_python_function(
            fn,
            db=self.profile_db,
            expand=lambda target: self.expand(target, registry),
        )

    def hot_swap_profile(self, db: ProfileDatabase) -> ProfileDatabase:
        """Atomically replace the ambient database; returns the old one.

        Mirrors :meth:`repro.scheme.SchemeSystem.hot_swap_profile` — the
        seam the online recompilation controller uses to re-expand against
        freshly merged weights without rebuilding the system.
        """
        previous = self.profile_db
        self.profile_db = db
        return previous

    def store_profile(self, path: str | os.PathLike[str]) -> None:
        self.profile_db.store(path)

    def load_profile(
        self,
        path: str | os.PathLike[str],
        sources: dict[str, str] | None = None,
    ) -> None:
        """Replace this system's database from a file, honoring
        :attr:`policy` exactly like
        :meth:`repro.scheme.SchemeSystem.load_profile`."""
        with maybe_span("profile_load", str(path)) as span:
            if self.policy is ProfilePolicy.STRICT:
                self.profile_db = ProfileDatabase.load(path, sources=sources)
                annotate_profile_load_span(span, self.profile_db)
                return
            try:
                db = ProfileDatabase.load(path, on_error="skip", sources=sources)
            except (ProfileFormatError, OSError) as exc:
                degrade(
                    "load-profile",
                    f"{path}: {exc}",
                    "continuing with an empty profile database (unoptimized)",
                    policy=self.policy,
                    log=self.degradations,
                )
                self.profile_db = ProfileDatabase()
                return
            for entry in db.quarantine:
                degrade(
                    "load-profile",
                    f"{path}: {entry}",
                    "quarantined the data set; loaded the rest",
                    policy=self.policy,
                    log=self.degradations,
                )
            self.profile_db = db
            annotate_profile_load_span(span, db)
        logger.info("loaded profile %s", path)
