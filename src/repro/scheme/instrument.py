"""Profiling instrumentation for the Scheme interpreter.

The paper's two implementations differ in *what* their profilers count:

* **Chez Scheme** "effectively profiles every source expression" via precise
  block-level counters (Section 4.1) — our ``EXPR`` mode: every core node
  that has a profile point gets a counter bump.
* **Racket's errortrace** "profiles only function calls" (Section 4.2) — our
  ``CALL`` mode: only application nodes are counted. Under this mode,
  ``annotate-expr`` must wrap the annotated expression in a generated
  function call (see :func:`repro.scheme.expand_prims` ``annotate-expr`` and
  the paper's key Racket difference); the counters still come out the same,
  only the run-time overhead differs — a claim benchmarked in
  ``benchmarks/bench_sec44_overhead.py``.

An :class:`Instrumenter` is handed to the interpreter at compile time; for
each core node it either returns a pre-bound zero-argument counter bump or
``None`` (not profiled). When a program is *not* instrumented, no
instrumenter exists and profile points cost nothing — the paper's "when the
program is not instrumented … profile points need not introduce any
overhead".
"""

from __future__ import annotations

import enum

from repro.core.counters import BaseCounterSet
from repro.profiling.sampler import SamplingCollector, _validated_stride
from repro.scheme.core_forms import App, CoreExpr

__all__ = ["ProfileMode", "Instrumenter"]


class ProfileMode(enum.Enum):
    """Which expressions the active profiler counts, and how."""

    #: Chez-style: every source expression with a profile point.
    EXPR = "expr"
    #: errortrace-style: only procedure applications.
    CALL = "call"
    #: Sampling: every expression, but only every ``sample_stride``-th
    #: execution of a point bumps (by the stride, so counts stay within
    #: one stride of exact). The design claims to work for any *point*
    #: profiling system — this is a third, cheaper one, and all the
    #: meta-programs run unchanged over it.
    SAMPLE = "sample"


class Instrumenter:
    """Decides, per core node, whether and how to count its executions."""

    def __init__(
        self,
        counters: BaseCounterSet,
        mode: ProfileMode = ProfileMode.EXPR,
        sample_stride: int = 10,
    ) -> None:
        self.counters = counters
        self.mode = mode
        self.sample_stride = _validated_stride(sample_stride)
        #: where bumps land: under SAMPLE the stride gate, which is the
        #: counter set itself at stride 1
        self._sink = (
            SamplingCollector(counters, self.sample_stride)
            if mode is ProfileMode.SAMPLE
            else counters
        )

    def hook(self, expr: CoreExpr):
        """A pre-bound counter bump for ``expr``, or None when not profiled."""
        return self.hook_for(expr.profile_point, isinstance(expr, App))

    def hook_for(self, point, is_app: bool):
        """A pre-bound counter bump for a profile point at a known site.

        The seam the compiled backend shares with the interpreter: both
        describe a site as ``(point, is-it-an-application)`` and get back
        the identical bump (or ``None``), so per-mode filtering and the
        per-point sampling state behave the same under either backend.
        Every site of one point shares that point's residue in the gate.
        """
        if point is None:
            return None
        if self.mode is ProfileMode.CALL and not is_app:
            return None
        return self._sink.incrementer(point)
