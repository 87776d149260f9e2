"""Timing spans around the public entry points of each layer.

The traced pass installs a wrapper around every entry point in
:data:`ENTRY_POINTS`, runs the workload, then puts the originals back. A
wrapper records one span per call — name, start, end, parent, op id and
thread — in memory; nothing is written until the pass ends.

Spans nest per thread. A span opened on another thread while the caller
thread is inside a span (the aggregator applying a delta while the worker
waits in ``ProfileShipper.flush``) takes the caller's innermost span as its
parent, so the waiting span's self time excludes the work done for it.

A span's self time is its duration minus its children's durations. Summed
over one op, the self times cover exactly the time spent inside top-level
spans; the rest of the op is reported as unattributed.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from typing import Any, Callable

# Span record fields (lists, not objects: the recorder sits on hot paths).
NAME, START, END, PARENT, OP, THREAD, SIZE = range(7)


class Recorder:
    """In-memory store of the spans and ops of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: [cls, family, start, end] per op, indexed by op id
        self.ops: list[list] = []
        self.op: int | None = None
        self.family: str | None = None
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.op, threading.get_ident(), 0]
        )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def innermost(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return self.spans[stack[-1]][NAME] if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextlib.contextmanager
    def operation(self, cls: str, family: str | None):
        """Scope one op: spans opened inside carry its id."""
        self.op = len(self.ops)
        self.family = family
        record = [cls, family, time.perf_counter(), 0.0]
        self.ops.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self.op = None
            self.family = None

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[dict[str, float]]:
        """Per op: span name → summed self seconds."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]] += span[END] - span[START]
        per_op: list[dict[str, float]] = [{} for _ in self.ops]
        for index, span in enumerate(self.spans):
            if span[OP] is None:
                continue
            own = span[END] - span[START] - children[index]
            bucket = per_op[span[OP]]
            bucket[span[NAME]] = bucket.get(span[NAME], 0.0) + own
        return per_op

    def durations(self, name: str) -> list[float]:
        """Per op: summed inclusive duration of spans called ``name``."""
        totals = [0.0] * len(self.ops)
        for span in self.spans:
            if span[OP] is not None and span[NAME] == name:
                totals[span[OP]] += span[END] - span[START]
        return totals

    def sizes(self, name: str) -> list[int]:
        """Per op: summed recorded sizes of spans called ``name``."""
        totals = [0] * len(self.ops)
        for span in self.spans:
            if span[OP] is not None and span[NAME] == name:
                totals[span[OP]] += span[SIZE]
        return totals

    def chrome_trace(self) -> dict:
        """The spans as Chrome ``trace_event`` JSON (loads in Perfetto).

        Each op is a complete event on the caller thread; each span carries
        its op id, its own id and its parent's id in ``args``.
        """
        origin = min((op[2] for op in self.ops), default=0.0)
        threads: dict[int, int] = {self._main: 1}
        events = []
        for index, (cls, family, start, end) in enumerate(self.ops):
            events.append({
                "name": cls,
                "cat": "op",
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": index, "family": family},
            })
        for index, span in enumerate(self.spans):
            tid = threads.setdefault(span[THREAD], len(threads) + 1)
            events.append({
                "name": span[NAME],
                "cat": span[NAME].split(".")[0],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": index, "parent": span[PARENT], "op": span[OP]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- the wrapped entry points ---------------------------------------------------


def _run_span(recorder: Recorder, args: tuple) -> str:
    return f"scheme.compile_py.run.{recorder.family}"


def _interpreter_span(recorder: Recorder, args: tuple) -> str:
    instrumenter = args[0].instrumenter
    if instrumenter is None:
        return "scheme.interpreter"
    if instrumenter.mode.value == "sample":
        return "scheme.instrument.sampled"
    return "scheme.instrument.exact"


def _compile_cached_span(recorder: Recorder, args: tuple) -> str:
    # The controller's recompile step is the service's recompile; the same
    # call from `pgmp optimize` is plain cache work.
    if recorder.innermost() == "service.controller_other":
        return "service.recompile"
    return "scheme.compile_cached"


def _source_bytes(artifact: Any) -> int:
    return len(artifact.python_source)


#: (module, class or None for a module function, attribute, span name or
#: a function of (recorder, args) giving it, size of the result or None)
ENTRY_POINTS: list[tuple[str, str | None, str, Any, Callable | None]] = [
    ("repro.tools.cli", None, "build_parser", "cli.build_parser", None),
    ("repro.scheme.pipeline", "SchemeSystem", "load_library", "scheme.load_library", None),
    ("repro.scheme.pipeline", None, "read_string", "scheme.reader", None),
    ("repro.scheme.expander", "Expander", "expand_program", "scheme.expander", None),
    ("repro.scheme.pipeline", None, "compile_program", "scheme.compile_py.codegen", _source_bytes),
    ("repro.scheme.pipeline", "SchemeSystem", "compile_cached", _compile_cached_span, None),
    ("repro.scheme.compile_py.artifact", "CompiledArtifact", "execute", _run_span, None),
    ("repro.scheme.interpreter", "Interpreter", "run_program", _interpreter_span, None),
    ("repro.core.database", "ProfileDatabase", "load", "core.profile_load", None),
    ("repro.core.database", "ProfileDatabase", "record_counters", "core.record_counters", None),
    ("repro.core.database", "ProfileDatabase", "store", "core.store", None),
    ("repro.pyast.system", "PyAstSystem", "expand", "pyast.expand", None),
    ("repro.pyast.system", "PyAstSystem", "profile", "pyast.profile_exact", None),
    ("repro.pyast.system", "PyAstSystem", "profile_sampled", "pyast.profile_sampled", None),
    ("repro.service.shipper", "ProfileShipper", "flush", "service.flush", None),
    ("repro.service.aggregator", "ProfileAggregator", "handle_frame", "service.apply", None),
    ("repro.service.aggregator", "ProfileAggregator", "checkpoint", "service.checkpoint", None),
    ("repro.service.aggregator", "ProfileAggregator", "merged_database", "service.merge", None),
    ("repro.service.controller", "RecompileController", "maybe_recompile", "service.controller_other", None),
    ("repro.service.rollout", "RolloutGuard", "verify", "service.static_verify", None),
    ("repro.service.rollout", "RolloutGuard", "validate", "service.canary", None),
    ("repro.service.rollout", "RolloutGuard", "commit", "service.journal", None),
]


def _wrap(recorder: Recorder, fn: Callable, name: Any, size: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        index = recorder.begin(name(recorder, args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if size is not None:
            recorder.spans[index][SIZE] = size(result)
        return result

    return traced


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every entry point for the duration of the block."""
    originals = []
    try:
        for module_name, class_name, attr, name, size in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr] if class_name else getattr(module, attr)
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(_wrap(recorder, original.__func__, name, size))
            else:
                wrapped = _wrap(recorder, original, name, size)
            setattr(owner, attr, wrapped)
            originals.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
