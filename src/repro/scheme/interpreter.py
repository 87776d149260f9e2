"""The Scheme evaluator: closure compilation of core forms, with profiling.

The interpreter compiles the typed core AST of
:mod:`repro.scheme.core_forms` into trees of Python closures ("closure
compilation" — each node becomes a ``step(env) -> value`` function), then
runs them. This keeps per-node dispatch out of the hot loop and gives the
profiler a natural seam: when instrumentation is on, a node's step is
wrapped to add one to its own slot of a list the interpreter owns, the
moral equivalent of the single memory increment Chez Scheme's
block-level counters cost. :meth:`Interpreter.run_program` folds that
list into the counter set when the run returns or raises.

Tail calls are implemented with a trampoline: a step compiled in tail
position may return a :class:`TailCall` sentinel, unwound by the nearest
:func:`apply_procedure` loop, so Scheme loops written as tail recursion run
in constant Python stack space.

The same interpreter executes *expand-time* code (macro transformers,
``syntax-case`` matching, template instantiation) and *run-time* code — the
substrate is meta-circular in the same way Chez and Racket are.
"""

from __future__ import annotations

import sys

from repro.core.errors import EvalError, SchemeRecursionError
from repro.core.policy import StepBudget
from repro.scheme import patterns, template
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
    SyntaxCaseExpr,
    TemplateExpr,
)
from repro.scheme.datum import UNSPECIFIED, Symbol, write_datum
from repro.scheme.env import Environment, GlobalEnvironment
from repro.scheme.instrument import Instrumenter
from repro.scheme.syntax import Syntax, datum_to_syntax, syntax_to_datum

__all__ = [
    "Closure",
    "TailCall",
    "Interpreter",
    "apply_procedure",
]

# Tail calls are iterative (the trampoline below), but each *non-tail*
# Scheme frame costs several Python frames, so deep non-tail recursion needs
# more headroom than CPython's default ~1000.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)


class TailCall:
    """Sentinel returned by tail-position applications."""

    __slots__ = ("proc", "args")

    def __init__(self, proc: object, args: list[object]) -> None:
        self.proc = proc
        self.args = args


class Closure:
    """A user-level Scheme procedure."""

    __slots__ = ("params", "rest", "body", "env", "name")

    def __init__(
        self,
        params: list[Symbol],
        rest: Symbol | None,
        body: list,
        env,
        name: str,
    ) -> None:
        self.params = params
        self.rest = rest
        self.body = body
        self.env = env
        self.name = name

    def bind(self, args: list[object]) -> Environment:
        nparams = len(self.params)
        if self.rest is None:
            if len(args) != nparams:
                raise EvalError(
                    f"{self.name}: expected {nparams} arguments, got {len(args)}"
                )
            frame = dict(zip(self.params, args))
        else:
            if len(args) < nparams:
                raise EvalError(
                    f"{self.name}: expected at least {nparams} arguments, "
                    f"got {len(args)}"
                )
            frame = dict(zip(self.params, args[:nparams]))
            from repro.scheme.datum import scheme_list

            frame[self.rest] = scheme_list(*args[nparams:])
        return Environment(frame, self.env)

    def __repr__(self) -> str:
        return f"#<procedure {self.name}>"


def apply_procedure(proc: object, args: list[object]) -> object:
    """Apply a Scheme or Python procedure, unwinding tail calls."""
    while True:
        if isinstance(proc, Closure):
            env = proc.bind(args)
            body = proc.body
            for step in body[:-1]:
                step(env)
            result = body[-1](env)
            if type(result) is TailCall:
                proc = result.proc
                args = result.args
                continue
            return result
        if callable(proc):
            result = proc(*args)
            if type(result) is TailCall:
                proc = result.proc
                args = result.args
                continue
            return result
        raise EvalError(f"attempt to apply non-procedure: {write_datum(proc)}")


class Interpreter:
    """Compiles and runs core programs against a global environment."""

    def __init__(
        self,
        global_env: GlobalEnvironment,
        instrumenter: Instrumenter | None = None,
        budget: StepBudget | None = None,
    ) -> None:
        self.global_env = global_env
        self.instrumenter = instrumenter
        #: optional fuel: every evaluated node charges one step, so a
        #: runaway run raises StepBudgetExceeded instead of hanging —
        #: the per-pass timeout of the resumable three-pass workflow.
        self.budget = budget
        #: one ``(point, is_app)`` and one count per instrumented node
        self._sites: list = []
        self._slots: list[int] = []

    # -- public entry points -----------------------------------------------------

    def run_program(self, program: Program) -> object:
        """Compile and evaluate each top-level form; value of the last.
        An instrumented run's counts land when it returns or raises."""
        result: object = UNSPECIFIED
        try:
            for form in program.forms:
                result = self.run_top_form(form)
        finally:
            if self.instrumenter is not None:
                slots = self._slots
                self.instrumenter.fold(self._sites, slots)
                slots[:] = [0] * len(slots)
        return result

    def run_top_form(self, form: CoreExpr) -> object:
        try:
            if isinstance(form, Define):
                step = self.compile(form.expr, tail=False)
                value = self._trampoline(step(self.global_env))
                if isinstance(value, Closure) and value.name == "lambda":
                    value.name = form.source_name or form.unique.name
                self.global_env.define(form.unique, value)
                return UNSPECIFIED
            step = self.compile(form, tail=False)
            return self._trampoline(step(self.global_env))
        except RecursionError:
            # Backstop for stack exhaustion outside any application frame
            # (e.g. compiling a pathologically deep expression). Inner
            # do_app frames convert first and carry their srcloc.
            raise SchemeRecursionError.at(None) from None

    def eval_expr(self, expr: CoreExpr, env=None) -> object:
        step = self.compile(expr, tail=False)
        return self._trampoline(step(env if env is not None else self.global_env))

    @staticmethod
    def _trampoline(result: object) -> object:
        while type(result) is TailCall:
            result = apply_procedure(result.proc, result.args)
        return result

    # -- compilation ----------------------------------------------------------------

    def compile(self, expr: CoreExpr, tail: bool):
        """Compile ``expr`` to a step function; ``tail`` marks tail position."""
        step = self._compile_node(expr, tail)
        if self.instrumenter is not None:
            point = expr.profile_point
            is_app = isinstance(expr, App)
            if point is not None and (is_app or self.instrumenter.every_site):
                slot = len(self._slots)
                self._sites.append((point, is_app))
                self._slots.append(0)

                def instrumented(env, _K=self._slots, _i=slot, _inner=step):
                    _K[_i] += 1
                    return _inner(env)

                step = instrumented
        if self.budget is not None:
            fueled = step

            def budgeted(env, _charge=self.budget.charge, _inner=fueled):
                _charge()
                return _inner(env)

            step = budgeted
        return step

    def _compile_node(self, expr: CoreExpr, tail: bool):
        if isinstance(expr, Const):
            value = expr.value
            return lambda env: value

        if isinstance(expr, Ref):
            name = expr.unique
            return lambda env: env.lookup(name)

        if isinstance(expr, SetBang):
            name = expr.unique
            value_step = self.compile(expr.expr, tail=False)

            def do_set(env):
                env.assign(name, self._trampoline(value_step(env)))
                return UNSPECIFIED

            return do_set

        if isinstance(expr, If):
            test_step = self.compile(expr.test, tail=False)
            then_step = self.compile(expr.then, tail=tail)
            else_step = self.compile(expr.otherwise, tail=tail)

            def do_if(env):
                if self._trampoline(test_step(env)) is not False:
                    return then_step(env)
                return else_step(env)

            return do_if

        if isinstance(expr, Lambda):
            body_steps = [self.compile(b, tail=False) for b in expr.body[:-1]]
            body_steps.append(self.compile(expr.body[-1], tail=True))
            params = expr.params
            rest = expr.rest
            name = expr.name

            def make_closure(env):
                return Closure(params, rest, body_steps, env, name)

            return make_closure

        if isinstance(expr, Begin):
            if not expr.exprs:
                return lambda env: UNSPECIFIED
            init_steps = [self.compile(e, tail=False) for e in expr.exprs[:-1]]
            last_step = self.compile(expr.exprs[-1], tail=tail)

            def do_begin(env):
                for step in init_steps:
                    self._trampoline(step(env))
                return last_step(env)

            return do_begin

        if isinstance(expr, App):
            fn_step = self.compile(expr.fn, tail=False)
            arg_steps = [self.compile(a, tail=False) for a in expr.args]
            trampoline = self._trampoline

            if tail:

                def do_tail_app(env):
                    proc = trampoline(fn_step(env))
                    args = [trampoline(s(env)) for s in arg_steps]
                    return TailCall(proc, args)

                return do_tail_app

            srcloc = expr.stx.srcloc if expr.stx is not None else None

            def do_app(env):
                proc = trampoline(fn_step(env))
                args = [trampoline(s(env)) for s in arg_steps]
                try:
                    return apply_procedure(proc, args)
                except EvalError as exc:
                    # Attach the innermost source location once, so run-time
                    # failures point at the offending call site.
                    if srcloc is not None and not getattr(exc, "located", False):
                        exc.located = True  # type: ignore[attr-defined]
                        exc.args = (f"{exc.args[0]} (at {srcloc})",) + exc.args[1:]
                    raise
                except RecursionError:
                    # Deep non-tail recursion: report a structured Scheme
                    # error at the innermost call site, not a raw Python
                    # RecursionError (mirrors StepBudgetExceeded).
                    raise SchemeRecursionError.at(srcloc) from None

            return do_app

        if isinstance(expr, Define):
            raise EvalError("define is only legal at top level or in bodies")

        if isinstance(expr, SyntaxCaseExpr):
            return self._compile_syntax_case(expr, tail)

        if isinstance(expr, TemplateExpr):
            return self._compile_template(expr)

        raise EvalError(f"cannot compile core form {type(expr).__name__}")

    # -- syntax-case / templates at (expand-time) runtime -----------------------------

    def _compile_syntax_case(self, expr: SyntaxCaseExpr, tail: bool):
        subject_step = self.compile(expr.subject, tail=False)
        literals = expr.literals
        compiled_clauses = []
        for clause in expr.clauses:
            fender_step = (
                self.compile(clause.fender, tail=False)
                if clause.fender is not None
                else None
            )
            body_step = self.compile(clause.body, tail=tail)
            compiled_clauses.append((clause.pattern, clause.pvars, fender_step, body_step))
        trampoline = self._trampoline

        def do_syntax_case(env):
            subject = trampoline(subject_step(env))
            if not isinstance(subject, Syntax):
                subject = datum_to_syntax(subject)
            for pattern, pvars, fender_step, body_step in compiled_clauses:
                match = patterns.match_pattern(pattern, subject, literals)
                if match is None:
                    continue
                frame = {
                    unique: (depth, match[name])
                    for name, (unique, depth) in pvars.items()
                }
                clause_env = Environment(frame, env)
                if fender_step is not None:
                    if trampoline(fender_step(clause_env)) is False:
                        continue
                return body_step(clause_env)
            raise EvalError(
                f"syntax-case: no clause matches "
                f"{write_datum(syntax_to_datum(subject))}"
            )

        return do_syntax_case

    def _compile_template(self, expr: TemplateExpr):
        tmpl = expr.template
        pvars = expr.pvars
        hole_steps = {
            name: (self.compile(hexpr, tail=False), splicing)
            for name, (hexpr, splicing) in expr.holes.items()
        }
        trampoline = self._trampoline

        def do_template(env):
            tenv: dict[str, tuple[int, object]] = {}
            for name, (unique, _depth) in pvars.items():
                depth, value = env.lookup(unique)
                tenv[name] = (depth, value)
            for name, (step, splicing) in hole_steps.items():
                value = trampoline(step(env))
                if splicing:
                    tenv[name] = (0, template.Splice(_splice_items(value)))
                else:
                    tenv[name] = (0, value)
            return template.instantiate_template(tmpl, tenv)

        return do_template


def _splice_items(value: object) -> list:
    """Coerce a ``#,@`` value to a list of elements to splice."""
    from repro.scheme.datum import NIL, Pair
    from repro.scheme.syntax import Syntax as _Syntax

    if isinstance(value, list):
        return value
    items: list[object] = []
    node = value
    while True:
        if isinstance(node, _Syntax):
            node = node.datum
            continue
        if isinstance(node, Pair):
            items.append(node.car)
            node = node.cdr
            continue
        if node is NIL:
            return items
        raise EvalError(
            f"unsyntax-splicing value is not a list: {write_datum(value)}"
        )
