"""Re-derive the interpreter-order instrumentation events of a program.

The compiled backend's contract pins *where* budget charges (``C()``) and
profile bumps (``H[i] += 1``) appear in the generated Python: one prologue
per evaluated core-form node, in the exact order the interpreter's
wrapper scheme would fire them (charge, then bump, then the node's
effect). ``pgmp verify`` needs that order *independently* of codegen —
re-running codegen and diffing its own output against itself would prove
nothing — so this module re-derives it by structural recursion over the
core forms alone.

The derivation exploits an invariant of the translation: although codegen
picks among several emission strategies per application (beta-inline,
direct call, guarded primitive, self-tail ``continue``, generic
``RT.app_at``), every strategy emits the *same* prologue sequence —
application node first, then the operator, then the arguments left to
right. The expected event stream therefore depends only on the core-form
tree, never on codegen's scope/purity analyses, which is exactly what
makes it an independent oracle.

One event is recorded per ``node_prologue`` the translation performs:

* for **budget** flavors, every event is one ``C()`` charge — the event
  count is the expected charge count;
* for **instr** flavors, events whose node carries a profile point are
  ``H[i] += 1`` hook sites, in order — the expected ``hook_sites`` list.
"""

from __future__ import annotations

from repro.core.profile_point import ProfilePoint
from repro.scheme.compile_py.codegen import UnsupportedFormError, _inlinable_beta
from repro.scheme.core_forms import (
    App,
    Begin,
    Const,
    CoreExpr,
    Define,
    If,
    Lambda,
    Program,
    Ref,
    SetBang,
)

__all__ = ["ExpectedEvents", "expected_events"]


class ExpectedEvents:
    """The interpreter-order prologue events of one expanded program."""

    def __init__(self, events: list[tuple[ProfilePoint | None, bool]]) -> None:
        #: one ``(profile point or None, node is an application)`` per
        #: node prologue, in emission order
        self.events = events

    @property
    def charge_count(self) -> int:
        """How many ``C()`` charges a budget-flavored artifact must emit."""
        return len(self.events)

    @property
    def hook_sites(self) -> list[tuple[ProfilePoint, bool]]:
        """The ``hook_sites`` an instr-flavored artifact must record."""
        return [
            (point, is_app) for point, is_app in self.events if point is not None
        ]


def expected_events(program: Program) -> ExpectedEvents:
    """Walk ``program`` in the translation's traversal order.

    Raises :class:`UnsupportedFormError` for programs the backend cannot
    translate (those artifacts are interpreter fallbacks — PGMP506 —
    and carry no generated code to validate).
    """
    events: list[tuple[ProfilePoint | None, bool]] = []

    def prologue(e: CoreExpr) -> None:
        events.append((e.profile_point, isinstance(e, App)))

    def walk(e: CoreExpr) -> None:
        if isinstance(e, (Const, Ref)):
            prologue(e)
        elif isinstance(e, SetBang):
            prologue(e)
            walk(e.expr)
        elif isinstance(e, If):
            # Both branches are compiled (and prologued) unconditionally;
            # at run time only the taken branch fires its events.
            prologue(e)
            walk(e.test)
            walk(e.then)
            walk(e.otherwise)
        elif isinstance(e, Begin):
            prologue(e)
            for sub in e.exprs:
                walk(sub)
        elif isinstance(e, Lambda):
            prologue(e)
            for body_expr in e.body:
                walk(body_expr)
        elif isinstance(e, App):
            prologue(e)
            if _inlinable_beta(e):
                # Beta-inlined let: the lambda never becomes a function,
                # but its prologue still fires before the arguments.
                prologue(e.fn)
                for arg in e.args:
                    walk(arg)
                assert isinstance(e.fn, Lambda)
                for body_expr in e.fn.body:
                    walk(body_expr)
            else:
                # Operator before operands — every emission strategy
                # (direct, primitive, self-tail, generic) preserves the
                # interpreter's lookup-then-evaluate order.
                walk(e.fn)
                for arg in e.args:
                    walk(arg)
        elif isinstance(e, Define):
            raise UnsupportedFormError("nested define")
        else:
            raise UnsupportedFormError(f"core form {type(e).__name__}")

    for form in program.forms:
        if isinstance(form, Define):
            walk(form.expr)
        else:
            walk(form)
    return ExpectedEvents(events)
