"""File- and cache-level driver for ``pgmp verify``.

Mirrors :mod:`repro.analysis.runner` (the ``pgmp lint`` driver), but
instead of analyzing source it *compiles* each program through the
backend and translation-validates every artifact flavor:

* Scheme files expand + compile in a throwaway
  :class:`~repro.scheme.pipeline.SchemeSystem` (same library loading as
  lint);
* ``.py`` files are scanned for embedded Scheme programs, each verified
  under a ``file.py#L<line>`` pseudo-filename;
* cache directories are verified module-by-module, checksums first —
  a tampered artifact body is refused *before* it is ever executed.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from collections.abc import Iterable, Sequence
from typing import cast

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.pyast_passes import _embedded_scheme_strings
from repro.analysis.runner import _guess_kind, expand_source_paths
from repro.analysis.verify.passes import (
    PASS_NAME,
    derive_expected,
    verify_artifact,
    verify_projections,
)
from repro.core.database import ProfileDatabase
from repro.core.srcloc import SourceLocation
from repro.scheme.compile_py.artifact import (
    _META_MARKER,
    CompiledArtifact,
    artifact_checksum,
    compile_program,
    flavor_artifact,
)
from repro.scheme.compile_py.codegen import CODEGEN_VERSION
from repro.scheme.core_forms import Program

__all__ = [
    "ALL_FLAVORS",
    "verify_cache_dir",
    "verify_path",
    "verify_paths",
    "verify_program",
    "verify_source",
]

#: Every artifact flavor the pipeline can request.
ALL_FLAVORS: tuple[str, ...] = ("plain", "instr", "budget", "instr+budget")


def verify_program(program: Program, filename: str = "<program>") -> AnalysisReport:
    """Translation-validate every flavor of one expanded program.

    Generates the program's full text, with every hook and charge,
    and parses and checks it once. Each flavor is then the artifact
    memoized on ``program.artifacts`` — so a poisoned in-memory artifact
    is *verified as-is*, not silently recompiled into innocence — or else
    the full text's projection that ``compile_program`` would build. A
    flavor that is exactly a projection
    :func:`~repro.analysis.verify.passes.verify_projections` vouches for
    is clean without a parse of its own; any other flavor is verified in
    full, so codes, messages and lines are those of
    :func:`verify_artifact` on each flavor in turn. The expected events
    are derived from the core forms once, for all flavors. Nothing is
    compiled, executed or memoized.
    """
    report = AnalysisReport()
    derived = derive_expected(program)
    full = compile_program(program, filename, "instr+budget")
    full_report, clean = verify_projections(full, filename, derived)
    unit = (full.python_source, full.hook_sites, full.charge_count)
    for flavor in ALL_FLAVORS:
        if full.runnable:
            projected = flavor_artifact(unit, filename, flavor, program=program)
        else:
            projected = dataclasses.replace(full, flavor=flavor)
        artifact = program.artifacts.get(flavor, projected)
        same = artifact is projected or _same_inputs(artifact, projected)
        if same and clean.get(flavor) == projected.python_source:
            continue
        if same and flavor == full.flavor:
            report.extend(full_report)
        else:
            report.extend(verify_artifact(artifact, filename=filename, derived=derived))
    return report


def _same_inputs(artifact: CompiledArtifact, projected: CompiledArtifact) -> bool:
    """Whether :func:`verify_artifact` reads the same fields of both."""
    return (
        artifact.runnable
        and projected.runnable
        and artifact.flavor == projected.flavor
        and artifact.python_source == projected.python_source
        and list(artifact.hook_sites) == projected.hook_sites
        and artifact.charge_count == projected.charge_count
    )


def _verify_unit(
    report: AnalysisReport,
    source: str,
    filename: str,
    library_sources: Sequence[tuple[str, str]],
    db: ProfileDatabase | None,
    policy: str,
) -> None:
    from repro.scheme.pipeline import SchemeSystem

    system = SchemeSystem(profile_db=db, policy=policy)
    try:
        for lib_source, lib_filename in library_sources:
            system.load_library(lib_source, lib_filename)
        program = system.compile(source, filename)
    except Exception as exc:
        report.emit(
            "PGMP001",
            f"program could not be expanded; artifact verification "
            f"skipped ({type(exc).__name__}: {exc})",
            SourceLocation(filename, 0, 0),
            PASS_NAME,
        )
        return
    report.extend(verify_program(program, filename))


def verify_source(
    source: str,
    filename: str,
    kind: str | None = None,
    library_sources: Sequence[tuple[str, str]] = (),
    db: ProfileDatabase | None = None,
    policy: str = "strict",
) -> AnalysisReport:
    """Verify one program given as text (``kind`` as in ``lint_source``)."""
    if kind is None:
        kind = _guess_kind(filename, source)
    report = AnalysisReport()
    if kind == "python":
        try:
            tree = ast.parse(source, filename)
        except SyntaxError as exc:
            report.emit(
                "PGMP001",
                f"could not parse Python source: {exc}",
                SourceLocation(filename, 0, 0),
                PASS_NAME,
            )
            return report
        for text, constant in _embedded_scheme_strings(tree):
            pseudo = f"{filename}#L{constant.lineno}"
            _verify_unit(report, text, pseudo, library_sources, db, policy)
        return report
    _verify_unit(report, source, filename, library_sources, db, policy)
    return report


def verify_path(
    path: str | os.PathLike[str],
    library_sources: Sequence[tuple[str, str]] = (),
    db: ProfileDatabase | None = None,
    policy: str = "strict",
) -> AnalysisReport:
    """Verify one file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return verify_source(
        source,
        str(path),
        library_sources=library_sources,
        db=db,
        policy=policy,
    )


def verify_paths(
    paths: Iterable[str | os.PathLike[str]],
    library_sources: Sequence[tuple[str, str]] = (),
    db: ProfileDatabase | None = None,
    policy: str = "strict",
) -> AnalysisReport:
    """Verify several files, concatenating diagnostics in path order.

    Directories recurse over their ``*.py`` and Scheme files (see
    :func:`repro.analysis.runner.expand_source_paths`).
    """
    combined = AnalysisReport()
    for path in expand_source_paths(paths):
        combined.extend(
            verify_path(
                path, library_sources=library_sources, db=db, policy=policy
            )
        )
    return combined


def _verify_cached_module(text: str, filename: str) -> AnalysisReport:
    """Verify one on-disk cache module without trusting its loader.

    Unlike ``load_artifact_source`` this checks the checksum *before*
    executing anything: the metadata literal is parsed with
    ``ast.literal_eval``, so a module whose body was modified after it
    was written is rejected without ever running the tampered code.
    """
    from repro.scheme.compile_py.artifact import _exec_module

    report = AnalysisReport()
    anchor = SourceLocation(filename, 0, 0)
    marker = text.rfind(_META_MARKER)
    if marker < 0:
        report.emit(
            "PGMP503",
            "not a pgmp artifact module (no __pgmp_meta__ literal)",
            anchor,
            PASS_NAME,
        )
        return report
    body = text[: marker + 1]  # include the trailing newline
    try:
        meta = ast.literal_eval(text[marker + len(_META_MARKER) :].strip())
        if not isinstance(meta, dict):
            raise ValueError("metadata is not a dict")
    except Exception as exc:
        report.emit(
            "PGMP503",
            f"unreadable __pgmp_meta__ literal: {exc}",
            anchor,
            PASS_NAME,
        )
        return report
    if meta.get("checksum") != artifact_checksum(body):
        report.emit(
            "PGMP503",
            "artifact checksum mismatch: module body was modified after "
            "it was written (refusing to execute it)",
            anchor,
            PASS_NAME,
        )
        return report
    key = meta.get("key")
    flavor = key[2] if isinstance(key, list) and len(key) == 4 else "plain"
    version = key[3] if isinstance(key, list) and len(key) == 4 else CODEGEN_VERSION
    try:
        namespace = _exec_module(text, filename)
    except Exception as exc:
        report.emit(
            "PGMP503",
            f"artifact module failed to execute: {type(exc).__name__}: {exc}",
            anchor,
            PASS_NAME,
        )
        return report
    artifact = CompiledArtifact(
        python_source=text,
        filename=filename,
        flavor=str(flavor),
        hook_sites=[],
        expansion_text=str(meta.get("expansion_text", "")),
        compile_output=str(meta.get("compile_output", "")),
        key=cast(
            "tuple[str, str, str, int] | None",
            tuple(key) if isinstance(key, list) and len(key) == 4 else None,
        ),
        program=None,
        main=namespace.get("_pgmp_main"),
        unsupported_reason=str(meta.get("unsupported_reason", "")),
        codegen_version=int(version),
        charge_count=int(meta.get("charge_count", -1)),
    )
    if artifact.codegen_version != CODEGEN_VERSION:
        report.emit(
            "PGMP503",
            f"artifact was generated by codegen version "
            f"{artifact.codegen_version}, current is {CODEGEN_VERSION}; "
            "its invariants cannot be validated",
            anchor,
            PASS_NAME,
        )
        return report
    report.extend(verify_artifact(artifact, filename=filename))
    return report


def verify_cache_dir(directory: str | os.PathLike[str]) -> AnalysisReport:
    """Verify every artifact module in an ``ArtifactCache`` directory."""
    report = AnalysisReport()
    root = os.fspath(directory)
    names = sorted(
        name
        for name in os.listdir(root)
        if name.endswith(".py") and not name.startswith(".")
    )
    for name in names:
        path = os.path.join(root, name)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        report.extend(_verify_cached_module(text, path))
    return report
