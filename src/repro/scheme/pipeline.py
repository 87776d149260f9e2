"""The profile → optimize → re-run workflow for the Scheme substrate.

A :class:`SchemeSystem` bundles everything one "compiler instance" needs:
an expander (with its binding table and expand-time environment), a run-time
environment, and an ambient profile database. Its methods implement the
paper's workflow:

1. :meth:`profile_run` — compile with instrumentation, run on representative
   input, normalize the counters into a data set of profile weights and
   record it (Section 3.2's Figure 3 merge applies across repeated calls);
2. :meth:`store_profile` / :meth:`load_profile` — the Figure-4 persistence;
3. :meth:`compile` / :meth:`run` — recompile: meta-programs re-expand, now
   seeing the recorded weights through ``profile-query``, and the optimized
   program runs without instrumentation (zero profiling overhead).

``load_library`` installs case-study macro libraries (written in Scheme,
exactly as in the paper's figures) so user programs can use them.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

from repro.core.api import register_substrate, using_profile_information
from repro.core.counters import BaseCounterSet, CounterSet
from repro.core.database import ProfileDatabase, source_fingerprint
from repro.core.errors import ProfileError, ProfileFormatError
from repro.core.policy import (
    DegradationLog,
    ProfilePolicy,
    StepBudget,
    degrade,
    using_profile_policy,
)
from repro.core.profile_point import ProfilePoint
from repro.obs.logs import get_logger
from repro.obs.metrics import get_global_metrics
from repro.obs.tracer import maybe_span
from repro.profiling.confidence import annotate_profile_load_span
from repro.profiling.reconstruct import confidence_for_counts
from repro.scheme.compile_py import (
    CODEGEN_VERSION,
    ArtifactCache,
    CompiledArtifact,
    compile_program,
    flavor_for,
)
from repro.scheme.core_forms import Program, unparse_string
from repro.scheme.datum import UNSPECIFIED
from repro.scheme.env import GlobalEnvironment
from repro.scheme.expander import Expander
from repro.scheme.instrument import Instrumenter, ProfileMode
from repro.scheme.interpreter import Interpreter
from repro.scheme.primitives import (
    OutputPort,
    make_expand_env,
    make_global_env,
    set_current_output,
)
from repro.scheme.reader import read_string
from repro.scheme.syntax import Syntax

__all__ = [
    "SchemeSystem",
    "RunResult",
    "SchemeSubstrate",
    "fallback_reason_slug",
]

logger = get_logger(__name__)

_BACKENDS = ("interp", "compile")


def _coerce_backend(name: str) -> str:
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {', '.join(_BACKENDS)}"
        )
    return name


def fallback_reason_slug(reason: str) -> str:
    """A stable, low-cardinality label value for one fallback reason.

    ``backend_fallbacks_total`` breaks down by these slugs; the full
    human-readable reason stays in the debug log and in ``pgmp verify``'s
    PGMP506 diagnostics (one slug covers e.g. every unsupported constant
    type, so label cardinality stays bounded).
    """
    if reason.startswith("nested define"):
        return "nested-define"
    if reason.startswith("expand-time form"):
        return "expand-time-form"
    if reason.startswith("cannot translate constant"):
        return "untranslatable-constant"
    if reason.startswith("core form"):
        return "unsupported-core-form"
    return "other"


class SchemeSubstrate:
    """Plugs Scheme syntax objects into the generic Figure-4 API."""

    def handles(self, expr: object) -> bool:
        return isinstance(expr, Syntax)

    def point_of(self, expr: object) -> ProfilePoint | None:
        assert isinstance(expr, Syntax)
        return expr.profile_point

    def with_point(self, expr: object, point: ProfilePoint) -> object:
        assert isinstance(expr, Syntax)
        return expr.with_point(point)


register_substrate(SchemeSubstrate())


@dataclass
class RunResult:
    """Everything a (possibly instrumented) run produced."""

    value: object
    output: str
    counters: BaseCounterSet | None = None
    program: Program | None = None

    @property
    def expanded(self) -> str:
        """The expanded core program, pretty-printed (for figure tests)."""
        assert self.program is not None
        return unparse_string(self.program)


class SchemeSystem:
    """A Scheme compiler + runtime with profile-guided meta-programming."""

    def __init__(
        self,
        profile_db: ProfileDatabase | None = None,
        mode: ProfileMode = ProfileMode.EXPR,
        policy: ProfilePolicy | str = ProfilePolicy.STRICT,
        degradations: DegradationLog | None = None,
        backend: str | None = None,
        artifact_cache: ArtifactCache | None = None,
    ) -> None:
        self.profile_db = profile_db if profile_db is not None else ProfileDatabase()
        self.mode = mode
        #: how profile-lifecycle failures behave (strict raises; warn/ignore
        #: fall back to unoptimized behaviour with a recorded reason)
        self.policy = ProfilePolicy.coerce(policy)
        #: every degradation this system took (shared with the caller's log
        #: when one is passed in)
        self.degradations = (
            degradations if degradations is not None else DegradationLog()
        )
        self.expand_env: GlobalEnvironment = make_expand_env()
        self.expander = Expander(self.expand_env)
        self.runtime_env: GlobalEnvironment = make_global_env()
        self._library_sources: list[tuple[str, str]] = []
        #: expand-time output (compile-time warnings) of the last compile().
        self.last_compile_output: str = ""
        #: how programs execute: ``"interp"`` (the closure-compiling
        #: interpreter) or ``"compile"`` (the Python backend of
        #: :mod:`repro.scheme.compile_py`, with interpreter fallback for
        #: untranslatable programs). Overridable per call on :meth:`run`.
        self.backend = _coerce_backend(
            backend
            if backend is not None
            else os.environ.get("PGMP_BACKEND", "interp")
        )
        #: artifact store for :meth:`compile_cached`; in-memory unless the
        #: caller provides a directory-backed cache.
        self.artifact_cache = (
            artifact_cache if artifact_cache is not None else ArtifactCache()
        )

    def _policy_scope(self):
        return using_profile_policy(self.policy, self.degradations)

    # -- building blocks ---------------------------------------------------------

    def read(self, source: str, filename: str = "<string>") -> list[Syntax]:
        return read_string(source, filename)

    def compile(self, source: str, filename: str = "<string>") -> Program:
        """Read and expand ``source``; meta-programs see the ambient profile
        database through ``profile-query``.

        Output produced *at expand time* (e.g. the Perflint-style warnings
        of Section 6.3) is captured in :attr:`last_compile_output`.

        Under a non-strict :attr:`policy`, a profile-data failure during
        expansion (corrupt data surfacing at merge time, a strict query
        miss) falls back to re-expanding against an *empty* database — the
        unoptimized expansion the meta-programs would have produced before
        any profiling — with the reason recorded in :attr:`degradations`.
        """
        port = OutputPort()
        previous = set_current_output(port)
        try:
            with self._policy_scope(), maybe_span(
                "program", filename, substrate="scheme"
            ):
                try:
                    with using_profile_information(self.profile_db):
                        program = self.expander.expand_program(
                            self.read(source, filename)
                        )
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
                        program = self.expander.expand_program(
                            self.read(source, filename)
                        )
        finally:
            set_current_output(previous)
        self.last_compile_output = port.getvalue()
        get_global_metrics().inc("expansions_total")
        logger.debug("expanded %s (%d forms)", filename, len(program.forms))
        return program

    def run(
        self,
        program: Program,
        instrument: ProfileMode | None = None,
        echo: bool = False,
        counters: BaseCounterSet | None = None,
        backend: str | None = None,
        budget: StepBudget | None = None,
        sample_stride: int | None = None,
    ) -> RunResult:
        """Evaluate a compiled program, optionally instrumented.

        ``counters`` lets callers supply the counter sink — e.g. one
        :class:`~repro.core.counters.ShardedCounterSet` shared by several
        interpreter threads executing the same instrumented program.

        ``backend`` overrides the system backend for this run; under
        ``"compile"`` the program runs as a compiled artifact (memoized on
        the Program, per flavor) with identical values, output, counters,
        and budget charges, falling back to the interpreter — counted in
        ``backend_fallbacks_total`` — when it cannot be translated.

        ``sample_stride`` sets the per-point sampling gate's stride for
        ``ProfileMode.SAMPLE`` runs (ignored under other modes); sampled
        runs are traced with ``sample`` spans instead of ``instrument``.
        At stride 1 the gate is the counter set and the run is exact.
        """
        instrumenter: Instrumenter | None = None
        if instrument is not None:
            if counters is None:
                counters = CounterSet(name="run")
            instrumenter = Instrumenter(
                counters,
                instrument,
                sample_stride=sample_stride if sample_stride is not None else 10,
            )
        else:
            counters = None
        port = OutputPort()
        port.echo = echo
        previous = set_current_output(port)
        if instrument is None:
            span = contextlib.nullcontext()
        elif instrument is ProfileMode.SAMPLE and sample_stride != 1:
            span = maybe_span(
                "sample",
                "sampled-run",
                mode=instrument.value,
                stride=instrumenter.sample_stride if instrumenter else 0,
            )
        else:
            span = maybe_span("instrument", "instrumented-run", mode=instrument.value)
        try:
            with self._policy_scope(), using_profile_information(
                self.profile_db
            ), span:
                value = self._execute(
                    program,
                    instrumenter,
                    budget,
                    _coerce_backend(backend) if backend is not None else self.backend,
                )
        finally:
            set_current_output(previous)
        return RunResult(value=value, output=port.getvalue(), counters=counters, program=program)

    def _execute(
        self,
        program: Program,
        instrumenter: Instrumenter | None,
        budget: StepBudget | None,
        backend: str,
    ) -> object:
        if backend == "compile":
            artifact = self._artifact_for(
                program, instrumenter is not None, budget is not None
            )
            if artifact.runnable:
                return artifact.execute(self.runtime_env, instrumenter, budget)
            metrics = get_global_metrics()
            metrics.inc("backend_fallbacks_total")
            metrics.inc_labeled(
                "backend_fallbacks_total",
                {"reason": fallback_reason_slug(artifact.unsupported_reason)},
            )
            logger.debug(
                "compiled backend fell back to the interpreter: %s",
                artifact.unsupported_reason,
            )
        return Interpreter(self.runtime_env, instrumenter, budget).run_program(
            program
        )

    def _artifact_for(
        self, program: Program, instrumented: bool, budgeted: bool
    ) -> CompiledArtifact:
        """The per-Program, per-flavor artifact memo (no cross-run keying —
        a Program object's forms never change once expanded)."""
        flavor = flavor_for(instrumented, budgeted)
        artifact = program.artifacts.get(flavor)
        if artifact is None:
            artifact = compile_program(program, "<program>", flavor)
            if artifact.runnable:
                get_global_metrics().inc("artifact_compiles_total")
            program.artifacts[flavor] = artifact
        return artifact

    # -- the profile-keyed artifact cache -----------------------------------------

    def artifact_key(
        self, source: str, flavor: str = "plain"
    ) -> tuple[str, str, str, int]:
        """What a cached artifact's validity depends on, and nothing else:

        * the fingerprint of every input to expansion (loaded libraries,
          in order, plus the program source);
        * the merged-profile fingerprint, which moves with the database's
          generation counter — any record/clear/hot-swap that changes
          effective weights changes the key, because meta-programs may
          expand differently under the new profile;
        * the artifact flavor and codegen version.
        """
        texts = [text for text, _ in self._library_sources]
        texts.append(source)
        return (
            source_fingerprint("\x00".join(texts)),
            self.profile_db.merged_fingerprint(),
            flavor,
            CODEGEN_VERSION,
        )

    def compile_cached(
        self,
        source: str,
        filename: str = "<string>",
        flavor: str = "plain",
        cache: ArtifactCache | None = None,
    ) -> CompiledArtifact:
        """Expand + translate ``source``, reusing a cached artifact when the
        ``(source fingerprint, profile generation)`` world is unchanged.

        A hit performs **zero** re-expansions (``expansions_total`` does
        not move); a miss compiles and populates the cache. Both outcomes
        are traced (``artifact_cache`` spans) and counted
        (``artifact_cache_{hits,misses}_total``).
        """
        cache = cache if cache is not None else self.artifact_cache
        key = self.artifact_key(source, flavor)
        metrics = get_global_metrics()
        artifact = cache.get(key)
        if artifact is not None:
            metrics.inc("artifact_cache_hits_total")
            with maybe_span(
                "artifact_cache",
                filename,
                outcome="hit",
                flavor=flavor,
                source_fp=key[0],
                profile_fp=key[1],
            ):
                pass
            return artifact
        metrics.inc("artifact_cache_misses_total")
        with maybe_span(
            "artifact_cache",
            filename,
            outcome="miss",
            flavor=flavor,
            source_fp=key[0],
            profile_fp=key[1],
        ):
            program = self.compile(source, filename)
            artifact = compile_program(
                program,
                filename,
                flavor,
                expansion_text=unparse_string(program),
                compile_output=self.last_compile_output,
                key=key,
            )
            if artifact.runnable:
                metrics.inc("artifact_compiles_total")
            program.artifacts.setdefault(flavor, artifact)
            cache.put(artifact)
        return artifact

    # -- user-facing workflow ------------------------------------------------------

    def load_library(self, source: str, filename: str = "<library>") -> None:
        """Install a macro/procedure library: expand it (macros persist in
        the binding table) and evaluate its definitions into both the
        run-time and expand-time environments."""
        self._library_sources.append((source, filename))
        program = self.compile(source, filename)
        # Library procedures are on the hot path of every later run, so
        # they go through the configured backend too: under "compile" a
        # library's defines become real Python functions instead of
        # interpreted closures.
        with self._policy_scope(), using_profile_information(self.profile_db):
            self._execute(program, None, None, self.backend)
        # Library procedures are frequently also needed at expand time
        # (e.g. helpers used by transformers); mirror their definitions.
        from repro.scheme.core_forms import Define

        for form in program.forms:
            if isinstance(form, Define):
                self.expand_env.define(
                    form.unique, self.runtime_env.lookup(form.unique)
                )

    def run_source(
        self,
        source: str,
        filename: str = "<string>",
        instrument: ProfileMode | None = None,
        echo: bool = False,
        counters: BaseCounterSet | None = None,
        sample_stride: int | None = None,
    ) -> RunResult:
        return self.run(
            self.compile(source, filename),
            instrument,
            echo,
            counters,
            sample_stride=sample_stride,
        )

    def profile_run(
        self,
        source: str,
        filename: str = "<string>",
        mode: ProfileMode | None = None,
        importance: float = 1.0,
        counters: BaseCounterSet | None = None,
        sample_stride: int | None = None,
    ) -> RunResult:
        """One instrumented run on representative input: compile with
        instrumentation, run, normalize counters to weights, and record the
        data set in the ambient database.

        The data set is fingerprinted against ``source``, so a later
        ``load_profile(..., sources=...)`` can tell when the profile was
        collected against code that has since changed. Under
        ``ProfileMode.SAMPLE`` above stride 1 the recorded data set
        carries a :class:`~repro.profiling.confidence.DatasetConfidence`
        record (the counts are already stride-scaled), and the run is
        counted in ``samples_total``/``sampled_datasets_total``.
        """
        effective_mode = mode or self.mode
        result = self.run_source(
            source,
            filename,
            instrument=effective_mode,
            counters=counters,
            sample_stride=sample_stride,
        )
        assert result.counters is not None
        confidence = None
        if effective_mode is ProfileMode.SAMPLE:
            stride = sample_stride if sample_stride is not None else 10
            confidence = confidence_for_counts(result.counters, stride)
        if confidence is not None:
            metrics = get_global_metrics()
            metrics.inc("samples_total", confidence.samples)
            metrics.inc("sampled_datasets_total")
        self.profile_db.record_counters(
            result.counters,
            importance,
            fingerprints={filename: source_fingerprint(source)},
            confidence=confidence,
        )
        return result

    def store_profile(self, path: str | os.PathLike[str]) -> None:
        """``(store-profile f)`` for this system's database."""
        self.profile_db.store(path)

    def load_profile(
        self,
        path: str | os.PathLike[str],
        sources: dict[str, str] | None = None,
    ) -> None:
        """``(load-profile f)``: replace this system's database from a file.

        ``sources`` maps filenames to their current source text for
        staleness detection. Under a strict :attr:`policy` any malformed or
        stale data set raises; under ``warn``/``ignore`` bad data sets are
        quarantined (or, if the file is corrupt beyond salvage, the system
        continues with an empty database) and the reason is recorded in
        :attr:`degradations`.
        """
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

    def hot_swap_profile(self, db: ProfileDatabase) -> ProfileDatabase:
        """Atomically replace the ambient database; returns the old one.

        The online-recompilation entry point
        (:mod:`repro.service.controller`): a single reference assignment,
        so compiles racing with the swap see either the old or the new
        database in full — never a mixture. In-flight expansions keep the
        database they started with (they read it through
        ``using_profile_information`` scopes).
        """
        previous = self.profile_db
        self.profile_db = db
        return previous

    def analyze(
        self,
        source: str,
        filename: str = "<string>",
        sources: dict[str, str] | None = None,
    ):
        """Opt-in static analysis of ``source`` (the ``pgmp lint`` passes).

        Runs the effects/exclusivity and coverage passes over the read
        syntax, the profile-point hygiene and determinism passes over the
        expansion (against this system's loaded libraries and ambient
        database), and the staleness pass over :attr:`profile_db`. Returns
        an :class:`repro.analysis.AnalysisReport`; nothing is executed and
        no state of this system is modified.
        """
        from repro.analysis.scheme_passes import analyze_scheme_source

        return analyze_scheme_source(
            source, filename, system=self, db=self.profile_db, sources=sources
        )

    def fresh_runtime(self) -> None:
        """Discard run-time state (top-level definitions) between runs,
        then re-install loaded libraries."""
        self.runtime_env = make_global_env()
        libraries = list(self._library_sources)
        self._library_sources.clear()
        for source, filename in libraries:
            self.load_library(source, filename)
