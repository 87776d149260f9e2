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

An :class:`Instrumenter` serves one run on either backend. The run counts
each counted site's events in a plain list, one slot per site; when it
returns or raises, :meth:`Instrumenter.fold` adds the list to the counter
set on the thread that ran it. When a program is *not* instrumented, no
instrumenter exists and profile points cost nothing — the paper's "when
the program is not instrumented … profile points need not introduce any
overhead".
"""

from __future__ import annotations

import enum

from repro.core.counters import BaseCounterSet
from repro.profiling.sampler import SamplingCollector, _validated_stride

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
        #: whether a site that is not an application counts: every site
        #: with a point under EXPR and SAMPLE, only applications under CALL
        self.every_site = mode is not ProfileMode.CALL
        #: where bumps land: under SAMPLE the stride gate, which is the
        #: counter set itself at stride 1
        self._sink = (
            SamplingCollector(counters, self.sample_stride)
            if mode is ProfileMode.SAMPLE
            else counters
        )

    def fold(self, sites, slots) -> None:
        """Add one run's slot counts, slot ``i`` counting site ``sites[i]``
        (a ``(point, is_app)``), as one ``increment(point, n)`` per counted
        non-zero slot. Under SAMPLE the sink is the stride gate, where ``n``
        events leave what ``n`` single bumps leave, so all the sites of one
        point share its residue."""
        sink = self._sink
        every = self.every_site
        for (point, is_app), n in zip(sites, slots):
            if n and (every or is_app):
                sink.increment(point, n)
