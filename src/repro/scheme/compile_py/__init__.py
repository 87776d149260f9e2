"""The compiled backend: expanded core forms → Python source → artifacts.

Submodules:

* :mod:`~repro.scheme.compile_py.codegen` — the core-form → Python
  translation (semantics-preserving, including profile hooks and fuel),
  one text per program;
* :mod:`~repro.scheme.compile_py.runtime` — the small ``RT`` module
  generated code runs against;
* :mod:`~repro.scheme.compile_py.artifact` — compiled artifacts, each
  flavor a line projection of that text, and their on-disk form;
* :mod:`~repro.scheme.compile_py.cache` — the ``(source fingerprint,
  profile generation)``-keyed artifact cache.

Backend selection lives in :class:`repro.scheme.pipeline.SchemeSystem`
(``backend="interp" | "compile"``) and the ``--backend`` CLI flag.
"""

from repro.scheme.compile_py.artifact import (
    ArtifactKey,
    CompiledArtifact,
    compile_program,
    flavor_for,
)
from repro.scheme.compile_py.cache import ArtifactCache, artifact_filename
from repro.scheme.compile_py.codegen import (
    CODEGEN_VERSION,
    UnsupportedFormError,
    generate_unit,
)

__all__ = [
    "ArtifactCache",
    "ArtifactKey",
    "CODEGEN_VERSION",
    "CompiledArtifact",
    "UnsupportedFormError",
    "artifact_filename",
    "compile_program",
    "flavor_for",
    "generate_unit",
]
