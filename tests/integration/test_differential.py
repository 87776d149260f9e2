"""Differential property tests across the reproduction's three evaluators.

Generates small random Scheme programs and checks:

1. the tree-walking interpreter and the block VM compute the same value;
2. instrumentation (any mode) never changes a program's value;
3. block-layout optimization never changes a program's value;
4. the profile→recompile cycle with the §6.1 case library is semantics-
   preserving for arbitrary generated `case` tables and key streams;
5. sampled counters are identical on the interpreter and ``compile_py``,
   and each point reads a multiple of the stride less than one stride
   below its exact count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.compiler import compile_program
from repro.blocks.pgo import optimize_layout
from repro.blocks.vm import VM
from repro.core.counters import CounterSet
from repro.core.errors import EvalError, SchemeError, VMError
from repro.scheme.datum import write_datum
from repro.scheme.instrument import ProfileMode
from repro.scheme.pipeline import SchemeSystem
from repro.scheme.primitives import make_global_env
from repro.scheme.syntax import strip_all

#: Generated programs may be ill-typed; a run-time type error is itself an
#: outcome both evaluators must agree on.
ERROR = "<error>"


def interp(source: str) -> str:
    try:
        return write_datum(strip_all(SchemeSystem().run_source(source).value))
    except (EvalError, SchemeError):
        return ERROR


def vm(source: str) -> str:
    try:
        module = compile_program(SchemeSystem().compile(source))
        return write_datum(strip_all(VM(module, make_global_env()).run()))
    except (EvalError, SchemeError, VMError):
        return ERROR


def instrumented(source: str, mode: ProfileMode) -> str:
    try:
        result = SchemeSystem().run_source(source, instrument=mode)
        return write_datum(strip_all(result.value))
    except (EvalError, SchemeError):
        return ERROR


# -- program generator -------------------------------------------------------------

_numbers = st.integers(min_value=-20, max_value=20).map(str)
_vars = st.sampled_from(["a", "b", "c"])


def _exprs(depth: int):
    if depth == 0:
        return st.one_of(_numbers, _vars, st.sampled_from(["#t", "#f", "'sym"]))
    sub = _exprs(depth - 1)
    return st.one_of(
        _numbers,
        _vars,
        st.tuples(st.sampled_from(["+", "-", "*", "max", "min"]), sub, sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub, sub).map(lambda t: f"(if {t[0]} {t[1]} {t[2]})"),
        st.tuples(_vars, sub, sub).map(lambda t: f"(let ([{t[0]} {t[1]}]) {t[2]})"),
        st.tuples(sub, sub).map(lambda t: f"(begin {t[0]} {t[1]})"),
        st.tuples(st.sampled_from(["<", "<=", "=", ">"]), sub, sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(_vars, sub, sub).map(
            lambda t: f"((lambda ({t[0]}) {t[2]}) {t[1]})"
        ),
    )


def _program(body: str) -> str:
    return f"(define a 1) (define b 2) (define c 3)\n{body}"


@given(_exprs(3))
@settings(max_examples=60, deadline=None)
def test_interpreter_vm_agree(expr):
    source = _program(expr)
    assert interp(source) == vm(source)


@given(_exprs(3), st.sampled_from(list(ProfileMode)))
@settings(max_examples=40, deadline=None)
def test_instrumentation_is_transparent(expr, mode):
    source = _program(expr)
    assert interp(source) == instrumented(source, mode)


def _counts(system, program, mode, backend, stride):
    counters = CounterSet()
    try:
        system.run(
            program,
            instrument=mode,
            counters=counters,
            backend=backend,
            sample_stride=stride,
        )
    except (EvalError, SchemeError):
        pass  # counts up to the error must still agree
    return counters.snapshot()


@given(
    _exprs(3),
    st.booleans(),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_sampled_counters_agree_and_stay_within_one_stride(expr, twice, runs, stride):
    body = f"(twice {expr})" if twice else expr
    source = _program(
        "(define-syntax twice (syntax-rules () [(_ e) (begin e e)]))\n"
        f"(define (body) {body})\n"
        "(define (repeat n) (if (= n 0) 'done (begin (body) (repeat (- n 1)))))\n"
        f"(repeat {runs})"
    )
    system = SchemeSystem()
    program = system.compile(source, "gen.ss")
    exact = _counts(system, program, ProfileMode.EXPR, "interp", None)
    sampled = _counts(system, program, ProfileMode.SAMPLE, "interp", stride)
    assert _counts(system, program, ProfileMode.SAMPLE, "compile", stride) == sampled
    assert set(sampled) <= set(exact)
    for point, count in exact.items():
        assert 0 <= count - sampled.get(point, 0) < stride
        assert sampled.get(point, 0) % stride == 0


@given(_exprs(3))
@settings(max_examples=30, deadline=None)
def test_layout_optimization_is_transparent(expr):
    source = _program(expr)
    module = compile_program(SchemeSystem().compile(source))
    profiling_vm = VM(module, make_global_env(), profile=True)
    try:
        value = write_datum(strip_all(profiling_vm.run()))
    except (EvalError, SchemeError, VMError):
        value = ERROR
    optimized, _ = optimize_layout(module, profiling_vm.profile)
    try:
        value2 = write_datum(strip_all(VM(optimized, make_global_env()).run()))
    except (EvalError, SchemeError, VMError):
        value2 = ERROR
    assert value == value2


# -- profile-guided case over random tables -----------------------------------------

_keys = st.integers(min_value=0, max_value=9)


@given(
    st.lists(
        st.tuples(st.sets(_keys, min_size=1, max_size=3), st.integers(0, 99)),
        min_size=1,
        max_size=4,
    ),
    st.lists(_keys, min_size=0, max_size=25),
)
@settings(max_examples=25, deadline=None)
def test_random_case_tables_preserve_semantics(raw_clauses, stream):
    from repro.casestudies.exclusive_cond import make_case_system

    # Make clause key sets disjoint (case requires mutual exclusivity).
    seen: set[int] = set()
    clauses = []
    for keys, result in raw_clauses:
        keys = keys - seen
        if keys:
            seen |= keys
            clauses.append((sorted(keys), result))
    if not clauses:
        return
    clause_text = "\n    ".join(
        f"[({' '.join(map(str, keys))}) {result}]" for keys, result in clauses
    )
    program = f"""
(define (lookup k)
  (case k
    {clause_text}
    [else -1]))
(map lookup (list {' '.join(map(str, stream))}))
"""
    system = make_case_system()
    first = system.profile_run(program, "prop.ss")
    second = system.run(system.compile(program, "prop.ss"))
    assert write_datum(strip_all(first.value)) == write_datum(strip_all(second.value))
