"""Core-form → Python source translation.

The compiled backend's contract is *observational equality* with the
closure-compiling interpreter: identical values, identical output,
identical error messages, identical profile counters and step-budget
charges, in the same order. The translation therefore mirrors the
interpreter's evaluation strategy node for node and only changes *how*
each step runs:

* closures become nested Python ``def``s (variables resolve through real
  Python scopes instead of dict-chain environments);
* a top-level function whose body creates no residual closures runs its
  self-tail-calls as a ``while True`` loop with parameter rebinding;
* directly-applied lambdas (the expansion of ``let``) are beta-inlined
  into plain local bindings;
* two-argument arithmetic/comparison primitives get a guarded inline
  fast path (``a + b`` when both are ``int`` *and* the global still holds
  the original primitive — any redefinition falls back to the generic
  apply);
* non-self tail calls still return the interpreter's :class:`TailCall`
  sentinel, so mutual tail recursion runs in constant stack under either
  backend and compiled/interpreted procedures can call each other freely.

Fuel and instrumentation are preserved exactly: every node evaluation
emits a budget charge ``C()`` and — for nodes carrying a profile point —
a hook call ``H[i]()`` in the interpreter's wrapper order (charge, then
bump, then the node's effect), each on a line of its own. Codegen emits
this one text per program; every artifact flavor is a projection of it
that deletes the ``H[i]()`` lines, the ``C()`` lines, or both
(:func:`repro.scheme.compile_py.artifact.project`), so the flavors differ
by whole lines and nothing else. Hook sites are recorded as an ordered
``(point, is_app)`` list so the artifact can rebuild per-site bumps for
any instrumenter at run time.

``syntax-case`` and template forms (expand-time constructs that rarely
survive into run-time programs) are not translated; codegen raises
:class:`UnsupportedFormError` and the caller falls back to the
interpreter.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from repro.core.errors import SchemeError
from repro.core.profile_point import ProfilePoint
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
from repro.scheme.datum import (
    EOF_OBJECT,
    NIL,
    UNSPECIFIED,
    Char,
    Pair,
    SchemeVector,
    Symbol,
)

__all__ = [
    "CODEGEN_VERSION",
    "UnsupportedFormError",
    "generate_unit",
]

#: Part of every artifact-cache key: bump on any change to the generated
#: code's shape or semantics so stale cached artifacts never load.
CODEGEN_VERSION = 3


class UnsupportedFormError(SchemeError):
    """The program uses a core form the Python backend does not translate.

    Not a user-visible error: callers catch it and fall back to the
    interpreter (counted in ``backend_fallbacks_total``).
    """


#: Primitives with a guarded inline fast path: scheme name ->
#: (RT identity attribute, arity, guard template, fast-result template).
#: The guard is evaluated only after the looked-up value proves to be the
#: untouched primitive (``is RT.P_x``); when it fails — wrong dynamic
#: types, or a value the fast path cannot decide (e.g. ``eq?`` on
#: non-identical immediates) — the call takes the generic path, so the
#: observable result is exactly the primitive's.
_INLINE_OPS = {
    "+": ("P_add", 2, "type({a}) is int and type({b}) is int", "{a} + {b}"),
    "-": ("P_sub", 2, "type({a}) is int and type({b}) is int", "{a} - {b}"),
    "*": ("P_mul", 2, "type({a}) is int and type({b}) is int", "{a} * {b}"),
    "<": ("P_lt", 2, "type({a}) is int and type({b}) is int", "{a} < {b}"),
    "<=": ("P_le", 2, "type({a}) is int and type({b}) is int", "{a} <= {b}"),
    ">": ("P_gt", 2, "type({a}) is int and type({b}) is int", "{a} > {b}"),
    ">=": ("P_ge", 2, "type({a}) is int and type({b}) is int", "{a} >= {b}"),
    "=": ("P_eq", 2, "type({a}) is int and type({b}) is int", "{a} == {b}"),
    # list structure: plain Pairs only (Syntax wrappers take the slow path)
    "car": ("P_car", 1, "type({a}) is RT.Pair", "({a}).car"),
    "cdr": ("P_cdr", 1, "type({a}) is RT.Pair", "({a}).cdr"),
    "cons": ("P_cons", 2, None, "RT.Pair({a}, {b})"),
    "null?": ("P_nullp", 1, "{a} is RT.NIL", "True"),
    "pair?": ("P_pairp", 1, "type({a}) is RT.Pair", "True"),
    # identity implies eq? for every datum (incl. immediates); the
    # converse doesn't hold, so non-identical values go the slow way
    "eq?": ("P_eqp", 2, "{a} is {b}", "True"),
    "not": ("P_not", 1, None, "{a} is False"),
}

#: Inline ops whose templates above compare a bare operand with ``is``.
_IDENTITY_OPS = frozenset({"null?", "eq?", "not"})

#: First characters of the atoms that are Python number or string
#: literals (names, ``RT.*`` attributes, ``True`` and ``False`` are not).
_LITERAL_START = frozenset("0123456789-'\"")


def _inlinable_beta(e: App) -> bool:
    """A directly-applied fixed-arity lambda — the shape ``let`` expands to."""
    fn = e.fn
    return (
        isinstance(fn, Lambda)
        and fn.rest is None
        and len(fn.params) == len(e.args)
    )


def _has_residual_lambda(exprs: list[CoreExpr]) -> bool:
    """Whether compiling ``exprs`` materializes any closure.

    Beta-inlined applications don't count (their lambda never becomes a
    Python function). A function with no residual closures cannot leak
    its locals, so its self-tail-calls may rebind parameters in place —
    the soundness condition for the ``while`` conversion (Python closures
    capture variables, not values).
    """
    stack: list[CoreExpr] = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Lambda):
            return True
        if isinstance(e, App):
            if _inlinable_beta(e):
                stack.extend(e.fn.body)  # type: ignore[union-attr]
            else:
                stack.append(e.fn)
            stack.extend(e.args)
        elif isinstance(e, If):
            stack.extend((e.test, e.then, e.otherwise))
        elif isinstance(e, Begin):
            stack.extend(e.exprs)
        elif isinstance(e, SetBang):
            stack.append(e.expr)
        elif isinstance(e, (Const, Ref)):
            pass
        else:
            # Unsupported forms abort codegen later; stay conservative.
            return True
    return False


def _mangle(name: str) -> str:
    # Drop gensym suffixes ("x%17" -> "x"): uniqueness comes from the
    # emission counter, and the expander's process-global gensym numbers
    # would make otherwise-identical programs generate different bytes.
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name.split("%", 1)[0])
    return cleaned or "x"


class _Fn:
    """Per-function emission context."""

    __slots__ = ("cellify", "self_unique", "params", "rest", "nparams")

    def __init__(self, cellify: bool) -> None:
        self.cellify = cellify
        #: set only while emitting a while-convertible named function
        self.self_unique: Symbol | None = None
        self.params: list[str] = []
        self.rest: str | None = None
        self.nparams = 0


class _Codegen:
    def __init__(self, program: Program):
        self.program = program
        self.body: list[str] = []
        self.indent = 1
        self._counter = 0
        #: unique symbol -> ("plain" | "cell", python name) for locals
        self.scope: dict[Symbol, tuple[str, str]] = {}
        #: qualifying top-level function unique -> python def name
        self.fn_names: dict[Symbol, str] = {}
        self.current_form = -1
        #: ordered (profile point, is_app) per emitted hook call
        self.hook_sites: list[tuple[ProfilePoint, bool]] = []
        #: how many C() charges were emitted — recorded so translation
        #: validation can check charge sites without re-running codegen
        self.charge_count = 0
        self._symbols: dict[Symbol, str] = {}
        self._locs: dict[str, str] = {}
        self._kconsts: list[tuple[str, str]] = []
        self._scan()

    # -- prepass ---------------------------------------------------------------

    def _scan(self) -> None:
        self.mutated: set[Symbol] = set()
        self.def_count: dict[Symbol, int] = {}
        self.def_index: dict[Symbol, int] = {}
        def_is_lambda: dict[Symbol, bool] = {}
        stack: list[CoreExpr] = []
        for i, form in enumerate(self.program.forms):
            if isinstance(form, Define):
                u = form.unique
                self.def_count[u] = self.def_count.get(u, 0) + 1
                if u not in self.def_index:
                    self.def_index[u] = i
                    def_is_lambda[u] = isinstance(form.expr, Lambda)
                stack.append(form.expr)
            else:
                stack.append(form)
        while stack:
            e = stack.pop()
            if isinstance(e, SetBang):
                self.mutated.add(e.unique)
                stack.append(e.expr)
            elif isinstance(e, App):
                stack.append(e.fn)
                stack.extend(e.args)
            elif isinstance(e, If):
                stack.extend((e.test, e.then, e.otherwise))
            elif isinstance(e, Begin):
                stack.extend(e.exprs)
            elif isinstance(e, Lambda):
                stack.extend(e.body)
            elif isinstance(e, Define):
                stack.append(e.expr)
        #: top-level functions safe to call/reference directly: defined
        #: exactly once, never assigned, bound to a literal lambda.
        self.qualified = {
            u
            for u, count in self.def_count.items()
            if count == 1 and u not in self.mutated and def_is_lambda[u]
        }

    # -- low-level emission ----------------------------------------------------

    def w(self, line: str) -> None:
        self.body.append("    " * self.indent + line)

    def tmp(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def fresh(self, base: str) -> str:
        self._counter += 1
        return f"{base}_{self._counter}"

    def _symbol(self, sym: Symbol) -> str:
        name = self._symbols.get(sym)
        if name is None:
            name = f"S{len(self._symbols)}"
            self._symbols[sym] = name
        return name

    def _loc(self, e: CoreExpr) -> str:
        srcloc = e.stx.srcloc if e.stx is not None else None
        if srcloc is None:
            return "None"
        text = str(srcloc)
        name = self._locs.get(text)
        if name is None:
            name = f"L{len(self._locs)}"
            self._locs[text] = name
        return name

    def node_prologue(self, e: CoreExpr) -> None:
        """Budget charge and profile bump, in the interpreter's order."""
        self.charge_count += 1
        self.w("C()")
        point = e.profile_point
        if point is not None:
            self.hook_sites.append((point, isinstance(e, App)))
            self.w(f"H[{len(self.hook_sites) - 1}]()")

    # -- constants -------------------------------------------------------------

    def _const_expr(self, value: object) -> str:
        if value is True:
            return "True"
        if value is False:
            return "False"
        if value is NIL:
            return "RT.NIL"
        if value is UNSPECIFIED:
            return "RT.UNSPECIFIED"
        if value is EOF_OBJECT:
            return "RT.EOF"
        if isinstance(value, Symbol):
            return self._symbol(value)
        if isinstance(value, float) and not math.isfinite(value):
            # repr() gives the names inf and nan, which the module lacks
            return f"RT.flonum({str(value)!r})"
        if isinstance(value, (int, float, str)):
            return repr(value)
        if isinstance(value, Char):
            return f"RT.char({value.value!r})"
        if isinstance(value, Fraction):
            return f"RT.fraction({value.numerator}, {value.denominator})"
        if isinstance(value, Pair):
            items = []
            node: object = value
            while isinstance(node, Pair):
                items.append(self._const_expr(node.car))
                node = node.cdr
            tail = self._const_expr(node)
            return f"RT.slist({', '.join(items)}, tail={tail})"
        if isinstance(value, SchemeVector):
            inner = ", ".join(self._const_expr(x) for x in value.items)
            return f"RT.vector({inner})"
        raise UnsupportedFormError(
            f"cannot translate constant of type {type(value).__name__}"
        )

    def _const_atom(self, e: Const) -> str:
        value = e.value
        if isinstance(value, (Pair, SchemeVector, Char, Fraction)) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            # Hoisted: built once per execution, so repeated evaluation of
            # this node yields the same object, exactly like the
            # interpreter's shared Const value.
            name = f"K{len(self._kconsts)}"
            self._kconsts.append((name, self._const_expr(value)))
            return name
        return self._const_expr(value)

    # -- locals ----------------------------------------------------------------

    def _bind_param(self, sym: Symbol, cellify: bool) -> tuple[str, bool]:
        name = self.fresh(f"v_{_mangle(sym.name)}")
        cell = cellify and sym in self.mutated
        self.scope[sym] = ("cell" if cell else "plain", name)
        return name, cell

    # -- expressions -----------------------------------------------------------

    def expr(self, e: CoreExpr, fn: _Fn) -> str:
        """Emit statements evaluating ``e``; return a stable atom for it."""
        if isinstance(e, Const):
            self.node_prologue(e)
            return self._const_atom(e)
        if isinstance(e, Ref):
            self.node_prologue(e)
            return self._ref_atom(e)
        if isinstance(e, SetBang):
            return self._set(e, fn)
        if isinstance(e, If):
            return self._if(e, fn, tail=False)  # type: ignore[return-value]
        if isinstance(e, Begin):
            return self._begin(e, fn, tail=False)  # type: ignore[return-value]
        if isinstance(e, Lambda):
            self.node_prologue(e)
            return self._emit_function(e, self_unique=None)
        if isinstance(e, App):
            return self._app(e, fn)
        if isinstance(e, Define):
            raise UnsupportedFormError("nested define")
        if isinstance(e, (SyntaxCaseExpr, TemplateExpr)):
            raise UnsupportedFormError(
                f"expand-time form {type(e).__name__} at run time"
            )
        raise UnsupportedFormError(f"core form {type(e).__name__}")

    def expr_tail(self, e: CoreExpr, fn: _Fn) -> None:
        """Emit ``e`` in tail position; always ends in return/continue."""
        if isinstance(e, If):
            self._if(e, fn, tail=True)
            return
        if isinstance(e, Begin) and e.exprs:
            self._begin(e, fn, tail=True)
            return
        if isinstance(e, App):
            self._app_tail(e, fn)
            return
        self.w(f"return {self.expr(e, fn)}")

    def _ref_atom(self, e: Ref) -> str:
        u = e.unique
        ent = self.scope.get(u)
        if ent is not None:
            kind, name = ent
            if kind == "plain":
                return name
            t = self.tmp()
            self.w(f"{t} = {name}[0]")
            return t
        if u in self.qualified and self.def_index[u] <= self.current_form:
            return self.fn_names[u]
        t = self.tmp()
        self.w(f"{t} = GB.lookup({self._symbol(u)})")
        return t

    def _set(self, e: SetBang, fn: _Fn) -> str:
        self.node_prologue(e)
        v = self.expr(e.expr, fn)
        ent = self.scope.get(e.unique)
        if ent is not None:
            kind, name = ent
            self.w(f"{name}[0] = {v}" if kind == "cell" else f"{name} = {v}")
        else:
            self.w(f"GB.assign({self._symbol(e.unique)}, {v})")
        return "RT.UNSPECIFIED"

    def _if(self, e: If, fn: _Fn, tail: bool) -> str | None:
        self.node_prologue(e)
        test = self._unliteral(self.expr(e.test, fn))
        if tail:
            self.w(f"if {test} is not False:")
            self.indent += 1
            self.expr_tail(e.then, fn)
            self.indent -= 1
            self.w("else:")
            self.indent += 1
            self.expr_tail(e.otherwise, fn)
            self.indent -= 1
            return None
        t = self.tmp()
        self.w(f"if {test} is not False:")
        self.indent += 1
        self.w(f"{t} = {self.expr(e.then, fn)}")
        self.indent -= 1
        self.w("else:")
        self.indent += 1
        self.w(f"{t} = {self.expr(e.otherwise, fn)}")
        self.indent -= 1
        return t

    def _begin(self, e: Begin, fn: _Fn, tail: bool) -> str | None:
        self.node_prologue(e)
        if not e.exprs:
            if tail:
                self.w("return RT.UNSPECIFIED")
                return None
            return "RT.UNSPECIFIED"
        for init in e.exprs[:-1]:
            self.expr(init, fn)
        if tail:
            self.expr_tail(e.exprs[-1], fn)
            return None
        return self.expr(e.exprs[-1], fn)

    def _unliteral(self, atom: str) -> str:
        """``atom``, or a temporary bound to it when it is a number or
        string literal, for use as an operand of ``is``: ``5 is not
        False`` makes compile() warn (an error under ``-W error``). The
        binding adds no charge or hook."""
        if atom[0] in _LITERAL_START:
            t = self.tmp()
            self.w(f"{t} = {atom}")
            return t
        return atom

    # -- applications ----------------------------------------------------------

    def _app(self, e: App, fn: _Fn) -> str:
        self.node_prologue(e)
        if _inlinable_beta(e):
            return self._inline_beta(e, fn, tail=False)  # type: ignore[return-value]
        loc = self._loc(e)
        if isinstance(e.fn, Ref):
            u = e.fn.unique
            if u not in self.scope:
                if u in self.qualified and self.def_index[u] <= self.current_form:
                    self.node_prologue(e.fn)
                    return self._direct_call(self.fn_names[u], e, fn, loc)
                prim = self._inline_op(u, e)
                if prim is not None:
                    return self._inline_prim_call(u, prim, e, fn, loc)
        fatom = self.expr(e.fn, fn)
        args = [self.expr(a, fn) for a in e.args]
        t = self.tmp()
        call_args = ", ".join([loc, fatom, *args])
        self.w(f"{t} = RT.app_at({call_args})")
        return t

    def _direct_call(self, fname: str, e: App, fn: _Fn, loc: str) -> str:
        args = [self.expr(a, fn) for a in e.args]
        t = self.tmp()
        self.w("try:")
        self.w(f"    {t} = {fname}({', '.join(args)})")
        self.w(f"    if type({t}) is RT.TailCall: {t} = RT.settle({t})")
        self.w(f"except RT.EvalError as _e: raise RT.locate(_e, {loc})")
        self.w(f"except RecursionError: RT.rec_err({loc})")
        return t

    def _inline_op(self, u: Symbol, e: App) -> tuple | None:
        spec = _INLINE_OPS.get(u.name)
        if (
            spec is not None
            and len(e.args) == spec[1]
            and u not in self.def_count
            and u not in self.mutated
        ):
            return spec
        return None

    def _inline_prim_call(
        self, u: Symbol, prim: tuple, e: App, fn: _Fn, loc: str
    ) -> str:
        prim_name, _arity, guard, fast = prim
        self.node_prologue(e.fn)
        sym = self._symbol(u)
        tf = self.tmp()
        # The interpreter looks the operator up before evaluating the
        # arguments; preserve that (and its unbound-variable error).
        self.w(f"{tf} = _B.get({sym})")
        self.w(f"if {tf} is None: {tf} = GB.lookup({sym})")
        atoms = [self.expr(arg, fn) for arg in e.args]
        if u.name in _IDENTITY_OPS:
            atoms = [self._unliteral(atom) for atom in atoms]
        slots = {"a": atoms[0], "b": atoms[-1]}
        t = self.tmp()
        cond = f"{tf} is RT.{prim_name}"
        if guard is not None:
            cond += f" and {guard.format(**slots)}"
        self.w(f"if {cond}:")
        self.w(f"    {t} = {fast.format(**slots)}")
        self.w("else:")
        self.w(f"    {t} = RT.app_at({loc}, {tf}, {', '.join(atoms)})")
        return t

    def _inline_beta(self, e: App, fn: _Fn, tail: bool) -> str | None:
        L = e.fn
        assert isinstance(L, Lambda)
        self.node_prologue(L)
        args = [self.expr(a, fn) for a in e.args]
        for p, a in zip(L.params, args):
            name, cell = self._bind_param(p, fn.cellify)
            self.w(f"{name} = [{a}]" if cell else f"{name} = {a}")
        for b in L.body[:-1]:
            self.expr(b, fn)
        if tail:
            self.expr_tail(L.body[-1], fn)
            return None
        return self.expr(L.body[-1], fn)

    def _app_tail(self, e: App, fn: _Fn) -> None:
        self.node_prologue(e)
        if _inlinable_beta(e):
            self._inline_beta(e, fn, tail=True)
            return
        if self._self_tail_call(e, fn):
            return
        if isinstance(e.fn, Ref):
            u = e.fn.unique
            if u not in self.scope:
                prim = self._inline_op(u, e)
                if prim is not None:
                    # A primitive call completes immediately either way;
                    # computing it here keeps the fast path in tail position.
                    t = self._inline_prim_call(u, prim, e, fn, self._loc(e))
                    self.w(f"return {t}")
                    return
                if u in self.qualified and self.def_index[u] <= self.current_form:
                    self.node_prologue(e.fn)
                    args = [self.expr(a, fn) for a in e.args]
                    self.w(
                        f"return RT.TailCall({self.fn_names[u]}, "
                        f"[{', '.join(args)}])"
                    )
                    return
        fatom = self.expr(e.fn, fn)
        args = [self.expr(a, fn) for a in e.args]
        self.w(f"return RT.TailCall({fatom}, [{', '.join(args)}])")

    def _self_tail_call(self, e: App, fn: _Fn) -> bool:
        """Emit a self-tail-call as parameter rebinding + ``continue``."""
        if fn.self_unique is None or not isinstance(e.fn, Ref):
            return False
        if e.fn.unique is not fn.self_unique:
            return False
        if fn.rest is None:
            if len(e.args) != fn.nparams:
                return False  # arity error at run time via the generic path
        elif len(e.args) < fn.nparams:
            return False
        self.node_prologue(e.fn)
        args = [self.expr(a, fn) for a in e.args]
        targets = list(fn.params)
        values = args[: fn.nparams]
        if fn.rest is not None:
            targets.append(fn.rest)
            values.append(f"RT.slist({', '.join(args[fn.nparams:])})")
        if targets:
            # Tuple assignment: every new value is computed from the old
            # parameters before any rebinding happens.
            self.w(f"{', '.join(targets)} = {', '.join(values)}")
        self.w("continue")
        return True

    # -- functions -------------------------------------------------------------

    def _emit_function(self, L: Lambda, self_unique: Symbol | None) -> str:
        fname = self.fresh(f"f_{_mangle(L.name)}")
        if self_unique is not None:
            self.fn_names[self_unique] = fname
        cellify = _has_residual_lambda(L.body)
        in_while = self_unique is not None and not cellify
        child = _Fn(cellify=cellify)
        child.nparams = len(L.params)
        self.w(f"def {fname}(*_a):")
        self.indent += 1
        n = len(L.params)
        if L.rest is None:
            self.w(f"if len(_a) != {n}: RT.bad_arity({fname}, {n}, _a)")
        else:
            self.w(
                f"if len(_a) < {n}: RT.bad_arity_at_least({fname}, {n}, _a)"
            )
        for i, p in enumerate(L.params):
            name, cell = self._bind_param(p, cellify)
            child.params.append(name)
            self.w(f"{name} = [_a[{i}]]" if cell else f"{name} = _a[{i}]")
        if L.rest is not None:
            name, cell = self._bind_param(L.rest, cellify)
            child.rest = name
            rest_expr = f"RT.slist(*_a[{n}:])"
            self.w(f"{name} = [{rest_expr}]" if cell else f"{name} = {rest_expr}")
        if in_while:
            child.self_unique = self_unique
            self.w("while True:")
            self.indent += 1
        for b in L.body[:-1]:
            self.expr(b, child)
        self.expr_tail(L.body[-1], child)
        self.indent -= 2 if in_while else 1
        self.w(f"{fname}.scheme_name = {L.name!r}")
        return fname

    # -- top level -------------------------------------------------------------

    def generate(self) -> tuple[str, list[tuple[ProfilePoint, bool]]]:
        main = _Fn(cellify=True)
        emitted_result = False
        for i, form in enumerate(self.program.forms):
            self.current_form = i
            if isinstance(form, Define):
                u = form.unique
                if u in self.qualified and self.def_index[u] == i:
                    assert isinstance(form.expr, Lambda)
                    self.node_prologue(form.expr)
                    fname = self._emit_function(form.expr, self_unique=u)
                    self.w(f"_B[{self._symbol(u)}] = {fname}")
                else:
                    v = self.expr(form.expr, main)
                    name = form.source_name or u.name
                    self.w(
                        f"_B[{self._symbol(u)}] = "
                        f"RT.define_rename({v}, {name!r})"
                    )
            else:
                self.w(f"_result = {self.expr(form, main)}")
                emitted_result = True
        if not emitted_result:
            self.w("_result = RT.UNSPECIFIED")
        self.w("return _result")
        prologue = ["_B = GB.bindings"]
        prologue.extend(
            f"{name} = RT.sym({sym.name!r})" for sym, name in self._symbols.items()
        )
        prologue.extend(f"{name} = {text!r}" for text, name in self._locs.items())
        prologue.extend(f"{name} = {expr}" for name, expr in self._kconsts)
        lines = [
            "# Generated by repro.scheme.compile_py "
            f"(codegen v{CODEGEN_VERSION}) -- do not edit.",
            "from repro.scheme.compile_py import runtime as RT",
            "",
            "",
            "def _pgmp_main(GB, H, C):",
            *("    " + line for line in prologue),
            *self.body,
            "",
        ]
        return "\n".join(lines), self.hook_sites


def generate_unit(
    program: Program,
) -> tuple[str, list[tuple[ProfilePoint, bool]], int]:
    """Translate an expanded program to its one Python text.

    Returns ``(source, hook_sites, charge_count)``: the text carries every
    hook call and every charge, ``hook_sites`` lists the ``(point,
    is_app)`` of each ``H[i]()`` in order, and ``charge_count`` is
    codegen's own record of how many ``C()`` charges the text contains
    (translation validation, PGMP502, cross-checks it against both the
    text and the interpreter-order traversal). Deterministic for a given
    program (names come from a sequential counter over a fixed
    traversal), so artifacts are reproducible byte for byte. Raises
    :class:`UnsupportedFormError` for programs the backend cannot run.
    """
    codegen = _Codegen(program)
    source, hook_sites = codegen.generate()
    return source, hook_sites, codegen.charge_count
