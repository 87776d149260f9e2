"""Compiled artifacts: generated Python source plus its executable form.

An artifact is the unit the cache stores and the pipeline swaps in for
interpretation. It always keeps the *generated source* (debuggability: a
cached artifact on disk is a readable Python module) and, when the
program is translatable, compiles it to the ``_pgmp_main`` entry point on
first use: an artifact nothing runs is never compiled.

Codegen emits one text per program, with every hook and every charge;
:func:`project` derives a flavor's text from it by deleting whole
``H[i] += 1`` and/or ``C()`` lines. An instrumented run binds ``H`` to a
fresh list of zeros, one slot per hook site, and folds it into the
instrumenter's counters when the run returns or raises.

Programs the backend cannot translate still produce an artifact — not
runnable, with only the expansion text — so a warm cache can answer
``pgmp optimize`` without re-expanding even for interpreter-only programs.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from types import CodeType

from repro.core.errors import SchemeRecursionError
from repro.core.policy import StepBudget
from repro.scheme.compile_py.codegen import (
    CODEGEN_VERSION,
    UnsupportedFormError,
    generate_unit,
)
from repro.scheme.core_forms import Program
from repro.scheme.env import GlobalEnvironment
from repro.scheme.instrument import Instrumenter

__all__ = [
    "ArtifactKey",
    "CompiledArtifact",
    "artifact_checksum",
    "compile_program",
    "flavor_artifact",
    "flavor_for",
    "project",
]


#: (source fingerprint, profile fingerprint, flavor, codegen version)
ArtifactKey = tuple[str, str, str, int]


def flavor_for(instrumented: bool, budgeted: bool) -> str:
    """The artifact flavor matching a run configuration.

    Instrumentation hooks and budget charges are compiled *into* the
    generated code (that's what makes them free when absent, exactly like
    the interpreter's wrapper scheme), so each combination is a distinct
    artifact.
    """
    if instrumented and budgeted:
        return "instr+budget"
    if instrumented:
        return "instr"
    if budgeted:
        return "budget"
    return "plain"


#: The lines each flavor deletes from the full text: a flavor keeps hooks
#: iff it is instrumented, and charges iff it is budgeted.
_DELETED_LINES = {
    "instr": re.compile(r"^ *C\(\)\n", re.MULTILINE),
    "budget": re.compile(r"^ *H\[\d+\] \+= 1\n", re.MULTILINE),
    "plain": re.compile(r"^ *(?:C\(\)|H\[\d+\] \+= 1)\n", re.MULTILINE),
}


def project(source: str, flavor: str) -> str:
    """``flavor``'s text: the full text without the lines it deletes."""
    deleted = _DELETED_LINES.get(
        flavor_for("instr" in flavor, "budget" in flavor)
    )
    return source if deleted is None else deleted.sub("", source)


@dataclass(slots=True)
class CompiledArtifact:
    """One compiled (or expansion-only) program, ready to execute."""

    python_source: str
    filename: str
    flavor: str
    #: ordered (profile point, is_app) per generated ``H[i] += 1`` site
    hook_sites: list
    expansion_text: str
    compile_output: str
    key: ArtifactKey | None = None
    #: the expanded Program, when this artifact was built in-process
    #: (disk-loaded artifacts don't carry one)
    program: Program | None = None
    #: the ``_pgmp_main`` entry point; None until the first execute
    #: compiles ``python_source``, or for an untranslatable program
    main: object = None
    #: why the program is untranslatable, for fallback diagnostics
    unsupported_reason: str = ""
    codegen_version: int = CODEGEN_VERSION
    #: C() charges codegen emitted (0 for non-budget flavors); -1 means
    #: unknown (e.g. artifacts predating the metadata)
    charge_count: int = -1
    #: ``(text, code)`` of the one compile of ``python_source``, shared
    #: by ``execute`` and ``self_check``
    _compiled: tuple[str, CodeType] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def runnable(self) -> bool:
        return self.main is not None or (
            bool(self.python_source) and not self.unsupported_reason
        )

    def _code(self) -> CodeType:
        """``python_source`` compiled, at most once per text (raises
        ``SyntaxError``). A text replaced after the compile is compiled
        afresh, so a tampered source cannot hide behind an old compile."""
        compiled = self._compiled
        if compiled is None or compiled[0] is not self.python_source:
            source = self.python_source
            code = compile(source, f"<pgmp-compiled {self.filename}>", "exec")
            compiled = self._compiled = (source, code)
        return compiled[1]

    def self_check(self) -> list[str]:
        """Integrity problems with this artifact (empty = healthy).

        The rollout guard runs this before a swap: a misrendered or
        tampered artifact must be caught at the canary, not in the
        serving path. Checks are structural — the *behavioral* check is
        the canary's differential battery.
        """
        problems: list[str] = []
        if self.flavor not in ("plain", "instr", "budget", "instr+budget"):
            problems.append(f"unknown flavor {self.flavor!r}")
        if self.codegen_version != CODEGEN_VERSION:
            problems.append(
                f"codegen version {self.codegen_version} != "
                f"current {CODEGEN_VERSION}"
            )
        if self.main is not None and not callable(self.main):
            problems.append("main entry point is not callable")
        if self.python_source:
            try:
                self._code()
            except SyntaxError as exc:
                problems.append(f"generated source does not parse: {exc}")
        elif self.main is not None and "instr" not in self.flavor:
            problems.append("runnable artifact carries no generated source")
        return problems

    def execute(
        self,
        global_env: GlobalEnvironment,
        instrumenter: Instrumenter | None = None,
        budget: StepBudget | None = None,
    ) -> object:
        """Run the artifact; the compiled twin of ``run_program``.

        The caller must pass a configuration matching this artifact's
        flavor: hooks and charges exist only where they were compiled in.
        The first call compiles the generated source. An instrumented
        run's counts reach the counter set when it returns or raises.
        """
        if not self.runnable:
            raise UnsupportedFormError(
                self.unsupported_reason or "artifact is expansion-only"
            )
        expected = flavor_for(instrumenter is not None, budget is not None)
        if expected != self.flavor:
            raise ValueError(
                f"artifact flavor {self.flavor!r} cannot run a "
                f"{expected!r} configuration"
            )
        main = self.main
        if main is None:
            namespace: dict = {}
            exec(self._code(), namespace)
            main = self.main = namespace["_pgmp_main"]
        slots = [0] * len(self.hook_sites)
        charge = budget.charge if budget is not None else None
        try:
            return main(global_env, slots, charge)
        except RecursionError:
            # Backstop, mirroring Interpreter.run_top_form: call sites
            # inside the generated code convert first and carry a srcloc.
            raise SchemeRecursionError.at(None) from None
        finally:
            if instrumenter is not None:
                instrumenter.fold(self.hook_sites, slots)


def _exec_module(source: str, filename: str) -> dict:
    namespace: dict = {}
    code = compile(source, f"<pgmp-compiled {filename}>", "exec")
    exec(code, namespace)
    return namespace


def flavor_artifact(
    unit: tuple[str, list, int],
    filename: str,
    flavor: str,
    expansion_text: str = "",
    compile_output: str = "",
    key: ArtifactKey | None = None,
    program: Program | None = None,
) -> CompiledArtifact:
    """The ``flavor`` artifact of a :func:`generate_unit` result: its
    text projected, with the hook sites and charges that text keeps."""
    source, hook_sites, charge_count = unit
    return CompiledArtifact(
        python_source=project(source, flavor),
        filename=filename,
        flavor=flavor,
        hook_sites=hook_sites if "instr" in flavor else [],
        expansion_text=expansion_text,
        compile_output=compile_output,
        key=key,
        program=program,
        charge_count=charge_count if "budget" in flavor else 0,
    )


def compile_program(
    program: Program,
    filename: str,
    flavor: str = "plain",
    expansion_text: str = "",
    compile_output: str = "",
    key: ArtifactKey | None = None,
) -> CompiledArtifact:
    """Translate an expanded program into an artifact of ``flavor``.

    Generates the program's one text and projects the flavor from it;
    nothing is compiled until the artifact first executes. Returns an
    expansion-only artifact (``runnable`` false) instead of raising when
    the program uses untranslatable forms, so callers decide between
    fallback and error uniformly.
    """
    try:
        unit = generate_unit(program)
    except UnsupportedFormError as exc:
        return CompiledArtifact(
            python_source="",
            filename=filename,
            flavor=flavor,
            hook_sites=[],
            expansion_text=expansion_text,
            compile_output=compile_output,
            key=key,
            program=program,
            main=None,
            unsupported_reason=str(exc),
        )
    return flavor_artifact(
        unit, filename, flavor, expansion_text, compile_output, key, program
    )


#: Marker separating the generated module body from its metadata literal.
_META_MARKER = "\n__pgmp_meta__ = "


def artifact_checksum(body: str) -> str:
    """Content digest of an artifact module body (the part above the
    ``__pgmp_meta__`` literal)."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def load_artifact_source(
    text: str, filename: str, key: ArtifactKey
) -> CompiledArtifact | None:
    """Rebuild an artifact from a cached on-disk module.

    Returns None — a cache miss — when the module doesn't exec, carries no
    metadata, fails its checksum (bit rot or tampering between store and
    load), or was written for a different key (stale or corrupt file).
    Only ``plain``-flavor artifacts live on disk (hook sites reference
    in-memory profile points), so ``hook_sites`` is always empty here.
    """
    try:
        marker = text.rfind(_META_MARKER)
        if marker < 0:
            return None
        body = text[: marker + 1]  # include the trailing newline
        namespace = _exec_module(text, filename)
        meta = namespace["__pgmp_meta__"]
        if meta.get("checksum") != artifact_checksum(body):
            return None
        if list(meta["key"]) != list(key):
            return None
        return CompiledArtifact(
            python_source=text,
            filename=filename,
            flavor="plain",
            hook_sites=[],
            expansion_text=meta["expansion_text"],
            compile_output=meta["compile_output"],
            key=key,
            program=None,
            main=namespace.get("_pgmp_main"),
            unsupported_reason=meta.get("unsupported_reason", ""),
            charge_count=int(meta.get("charge_count", -1)),
        )
    except Exception:
        return None


def render_artifact_module(artifact: CompiledArtifact) -> str:
    """The self-contained on-disk form: generated source + metadata.

    ``__pgmp_meta__`` is a literal dict appended after the code, carrying
    everything ``pgmp optimize`` prints on a warm hit — so a hit performs
    zero re-expansions.
    """
    source = artifact.python_source
    if not source:
        source = (
            "# Expansion-only artifact (program not translatable); cached\n"
            "# so warm pipelines still skip re-expansion.\n"
            "_pgmp_main = None\n"
        )
    body = f"{source}\n"
    meta = {
        "key": list(artifact.key) if artifact.key is not None else None,
        "expansion_text": artifact.expansion_text,
        "compile_output": artifact.compile_output,
        "unsupported_reason": artifact.unsupported_reason,
        "charge_count": artifact.charge_count,
        "checksum": artifact_checksum(body),
    }
    return f"{body}__pgmp_meta__ = {meta!r}\n"
