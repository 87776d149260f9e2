"""Runtime support for generated Python artifacts.

Generated modules import this module as ``RT`` and nothing else. Every
helper here either *is* an interpreter object (``TailCall``,
``apply_procedure``, the datum constructors) or raises the exact error the
interpreter would raise in the same situation, so a compiled program is
observably indistinguishable from an interpreted one — same values, same
error messages, same ``write`` representations.

The ``P_*`` bindings are the registered primitive *objects* (identity,
not copies). Generated call sites guard their inline fast paths on
``looked-up-value is RT.P_x``: redefining or shadowing a primitive at the
Scheme level makes the guard fail and the call takes the generic
``apply_procedure`` path, preserving semantics.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.errors import EvalError, SchemeRecursionError
from repro.scheme.datum import (
    EOF_OBJECT,
    NIL,
    UNSPECIFIED,
    Char,
    Pair,
    SchemeVector,
    Symbol,
    scheme_list,
)
from repro.scheme.interpreter import Closure, TailCall, apply_procedure
from repro.scheme.primitives import _RUNTIME

__all__ = [
    "EOF",
    "NIL",
    "UNSPECIFIED",
    "Char",
    "EvalError",
    "Fraction",
    "Pair",
    "TailCall",
    "app",
    "app_at",
    "bad_arity",
    "bad_arity_at_least",
    "define_rename",
    "hook_table",
    "locate",
    "noop",
    "rec_err",
    "settle",
    "slist",
    "sym",
    "vector",
]

EOF = EOF_OBJECT
sym = Symbol
char = Char
fraction = Fraction
flonum = float
slist = scheme_list


def vector(*items: object) -> SchemeVector:
    return SchemeVector(items)


# Primitive identities for inline fast-path guards. Looked up once at
# import; make_global_env binds these same objects, so an untouched global
# is ``is``-identical to its P_* twin.
P_add = _RUNTIME["+"]
P_sub = _RUNTIME["-"]
P_mul = _RUNTIME["*"]
P_lt = _RUNTIME["<"]
P_le = _RUNTIME["<="]
P_gt = _RUNTIME[">"]
P_ge = _RUNTIME[">="]
P_eq = _RUNTIME["="]
P_car = _RUNTIME["car"]
P_cdr = _RUNTIME["cdr"]
P_cons = _RUNTIME["cons"]
P_nullp = _RUNTIME["null?"]
P_pairp = _RUNTIME["pair?"]
P_eqp = _RUNTIME["eq?"]
P_not = _RUNTIME["not"]


def app(proc: object, *args: object) -> object:
    """Apply with tail-call unwinding (the interpreter's own loop)."""
    return apply_procedure(proc, list(args))


def settle(tc: TailCall) -> object:
    """Unwind a TailCall returned by a directly-called compiled function."""
    return apply_procedure(tc.proc, tc.args)


def locate(exc: EvalError, loc: str | None) -> EvalError:
    """Attach the innermost call-site location once (do_app's convention)."""
    if loc is not None and not getattr(exc, "located", False):
        exc.located = True  # type: ignore[attr-defined]
        exc.args = (f"{exc.args[0]} (at {loc})",) + exc.args[1:]
    return exc


def app_at(loc: str | None, proc: object, *args: object) -> object:
    """Apply, converting errors exactly as the interpreter's do_app does."""
    try:
        # Fast path: a Python callable (primitive or compiled function)
        # needs neither the argument list copy nor the Closure dispatch.
        if callable(proc) and not isinstance(proc, Closure):
            result = proc(*args)
            if type(result) is TailCall:
                result = apply_procedure(result.proc, result.args)
            return result
        return apply_procedure(proc, list(args))
    except EvalError as exc:
        raise locate(exc, loc)
    except RecursionError:
        raise SchemeRecursionError.at(loc) from None


def rec_err(loc: str | None) -> None:
    raise SchemeRecursionError.at(loc) from None


def _proc_name(fn: object) -> str:
    return getattr(fn, "scheme_name", getattr(fn, "__name__", "procedure"))


def bad_arity(fn: object, expected: int, args: tuple) -> None:
    raise EvalError(
        f"{_proc_name(fn)}: expected {expected} arguments, got {len(args)}"
    )


def bad_arity_at_least(fn: object, expected: int, args: tuple) -> None:
    raise EvalError(
        f"{_proc_name(fn)}: expected at least {expected} arguments, "
        f"got {len(args)}"
    )


def define_rename(value: object, name: str) -> object:
    """The top-level define rename rule: anonymous procedures take the
    defined name (interpreter: ``run_top_form`` on Closure values)."""
    if isinstance(value, Closure):
        if value.name == "lambda":
            value.name = name
    elif callable(value) and getattr(value, "scheme_name", None) == "lambda":
        try:
            value.scheme_name = name  # type: ignore[attr-defined]
        except AttributeError:  # builtins without writable attributes
            pass
    return value


def noop() -> None:
    return None


def hook_table(instrumenter, sites) -> list:
    """One bump per recorded site, in emission order.

    ``sites`` is the codegen's ordered ``(profile point, is_app)`` list;
    each entry gets its bump exactly as each interpreter compile() call
    would, so under SAMPLE mode the sites of one point share its stride
    gate residue on both backends.
    """
    if instrumenter is None:
        return []
    return [
        instrumenter.hook_for(point, is_app) or noop for point, is_app in sites
    ]
