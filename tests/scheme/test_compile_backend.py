"""The compiled (Scheme → Python) backend: observational equality.

Every test here runs the same program under both backends and asserts the
observables agree: values, printed output, error messages, profile
counters (all three modes), and step-budget charges. The compiled backend
is only allowed to be *faster*.
"""

import pytest

from repro.core.errors import (
    EvalError,
    SchemeRecursionError,
    StepBudgetExceeded,
)
from repro.core.policy import StepBudget
from repro.scheme.compile_py import generate_unit
from repro.scheme.datum import write_datum
from repro.scheme.instrument import ProfileMode
from repro.scheme.pipeline import SchemeSystem

BACKENDS = ("interp", "compile")


def _run(backend: str, source: str, **kwargs):
    system = SchemeSystem(backend=backend)
    program = system.compile(source, "<test>")
    return system.run(program, **kwargs)


def _observe(backend: str, source: str, **kwargs):
    """(kind, value-as-written, output) under one backend; errors captured."""
    try:
        result = _run(backend, source, **kwargs)
    except Exception as exc:  # noqa: BLE001 — the exception IS the observation
        return ("error", type(exc).__name__, str(exc))
    return ("ok", write_datum(result.value), result.output)


PARITY_PROGRAMS = [
    # closures, higher-order functions, currying
    """(define (adder k) (lambda (x) (+ x k)))
       (define add5 (adder 5))
       (display (map add5 '(1 2 3))) (newline)
       ((adder 1) 41)""",
    # self-tail recursion (the while-loop conversion) incl. accumulator swap
    """(define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc i))))
       (loop 10000 0)""",
    """(define (swap a b n) (if (= n 0) (list a b) (swap b a (- n 1))))
       (swap 'x 'y 7)""",
    # rest arguments, incl. in a self-tail call
    """(define (f a . rest) (cons a rest)) (f 1 2 3)""",
    """(define (g n . acc) (if (= n 0) acc (apply g (- n 1) n acc)))
       (g 4)""",
    # set! on locals captured by closures (cell conversion)
    """(define (make-counter)
         (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
       (define c (make-counter))
       (c) (c) (list (c) ((make-counter)))""",
    # set! on top-level bindings, incl. a rebound primitive
    """(define (f) (+ 2 3)) (set! + -) (f)""",
    # closures created inside a tail-recursive loop capture per-iteration
    # values (the loop must NOT be while-converted here)
    """(define (collect n acc)
         (if (= n 0) acc (collect (- n 1) (cons (lambda () n) acc))))
       (map (lambda (f) (f)) (collect 3 '()))""",
    # shadowing a primitive by definition disables the inline fast path
    """(define old+ +) (define (+ a b) (* a b)) (list (+ 3 4) (old+ 3 4))""",
    # quote identity: the same quote evaluates to the same object
    """(define (f) '(a b)) (list (eq? (f) (f)) (eq? '(a b) '(a b)))""",
    # mutable constants: vectors, improper lists, chars, strings
    """(let ((v (vector 1 2 3)) (p '(a b (c . d))))
         (vector-set! v 0 'z)
         (display (list v p #\\x "s")) (newline)
         (quotient 17 5))""",
    # begin, nested let, non-int arithmetic through the guarded fast path
    """(begin (define x 1.5) (+ x 1) (* 2 (+ x x)))""",
    # mutual tail recursion stays constant-stack under both backends
    """(define (even? n) (if (= n 0) #t (odd? (- n 1))))
       (define (odd? n) (if (= n 0) #f (even? (- n 1))))
       (even? 100001)""",
    # direct call of an earlier sibling + forward reference through GB
    """(define (before x) (* x 10))
       (define (uses) (before (later)))
       (define (later) 4)
       (uses)""",
    # anonymous lambda applied directly (beta-inline), incl. tail position
    """((lambda (a b) (if (< a b) 'lt 'ge)) 1 2)""",
    # varargs primitives and comparison chains
    """(list (+ 1 2 3 4) (< 1 2 3) (max 3 1 2) (= 2 2 2))""",
    # the empty-body / empty program edges
    """(define unused 'x)""",
]


@pytest.mark.parametrize("idx", range(len(PARITY_PROGRAMS)))
def test_value_and_output_parity(idx):
    source = PARITY_PROGRAMS[idx]
    observations = {b: _observe(b, source) for b in BACKENDS}
    assert observations["interp"] == observations["compile"]
    assert observations["interp"][0] == "ok"


ERROR_PROGRAMS = [
    "(undefined-var)",
    "(+ 1 undefined-var)",
    "(define (f x) x) (f 1 2)",
    "((lambda (x) x))",
    "(define (g) (h)) (g)",
    "(car 5)",
    "(+ 'a 1)",
    "(set! nowhere 1)",
    "(define (f a . r) a) (f)",
    "(1 2 3)",
]


@pytest.mark.parametrize("idx", range(len(ERROR_PROGRAMS)))
def test_error_message_parity(idx):
    source = ERROR_PROGRAMS[idx]
    observations = {b: _observe(b, source) for b in BACKENDS}
    assert observations["interp"] == observations["compile"]
    assert observations["interp"][0] == "error"


COUNTER_PROGRAM = """
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (loop i) (if (= i 0) 'done (begin (fib 8) (loop (- i 1)))))
(loop 20)
"""


@pytest.mark.parametrize("mode", list(ProfileMode))
def test_profile_counter_parity(mode):
    snapshots = {}
    for backend in BACKENDS:
        result = _run(backend, COUNTER_PROGRAM, instrument=mode)
        assert result.counters is not None
        snapshots[backend] = {
            str(point): count
            for point, count in result.counters.snapshot().items()
        }
    assert snapshots["interp"] == snapshots["compile"]
    assert sum(snapshots["interp"].values()) > 0


def test_budget_charge_parity():
    source = "(define (loop i) (if (= i 0) 'done (loop (- i 1)))) (loop 500)"
    used = {}
    for backend in BACKENDS:
        budget = StepBudget(1_000_000)
        _run(backend, source, budget=budget)
        used[backend] = budget.initial - budget.remaining
    assert used["interp"] == used["compile"] > 0


def test_budget_exhaustion_parity():
    source = "(define (loop i) (if (= i 0) 'done (loop (- i 1)))) (loop 99999)"
    for backend in BACKENDS:
        with pytest.raises(StepBudgetExceeded):
            _run(backend, source, budget=StepBudget(1000))


def test_budget_and_instrument_compose():
    budgets = {}
    snapshots = {}
    for backend in BACKENDS:
        budget = StepBudget(1_000_000)
        result = _run(
            backend, COUNTER_PROGRAM, instrument=ProfileMode.EXPR, budget=budget
        )
        budgets[backend] = budget.remaining
        snapshots[backend] = {
            str(p): c for p, c in result.counters.snapshot().items()
        }
    assert budgets["interp"] == budgets["compile"]
    assert snapshots["interp"] == snapshots["compile"]


def test_deep_recursion_raises_scheme_error_on_both_backends():
    # Satellite regression: deep non-tail recursion must surface as a
    # SchemeError-family exception (with a source location), never as a
    # raw Python RecursionError escaping the substrate.
    source = """
    (define (depth n) (if (= n 0) 0 (+ 1 (depth (- n 1)))))
    (depth 1000000)
    """
    for backend in BACKENDS:
        with pytest.raises(SchemeRecursionError) as info:
            _run(backend, source)
        assert isinstance(info.value, EvalError), "part of the EvalError family"
        assert "recursion" in str(info.value)
        assert "(at <test>:" in str(info.value), "carries the call site"


def test_generated_source_is_deterministic():
    source = PARITY_PROGRAMS[0]
    texts = []
    for _ in range(2):
        system = SchemeSystem()
        program = system.compile(source, "<det>")
        text, sites, _ = generate_unit(program)
        texts.append((text, len(sites)))
    assert texts[0] == texts[1]


def test_unsupported_program_falls_back_to_interpreter():
    from repro.obs.metrics import get_global_metrics

    # A syntax template surviving to run time is not translatable.
    source = "(define stx #'(a b)) (pair? 1)"
    metrics = get_global_metrics()
    before = metrics.counter("backend_fallbacks_total")
    observations = {b: _observe(b, source) for b in BACKENDS}
    assert observations["interp"] == observations["compile"]
    assert observations["interp"][0] == "ok"
    assert metrics.counter("backend_fallbacks_total") == before + 1


def test_compiled_artifacts_are_memoized_per_program():
    system = SchemeSystem(backend="compile")
    program = system.compile("(define (f x) (+ x 1)) (f 41)", "<memo>")
    system.run(program)
    artifact = program.artifacts["plain"]
    assert artifact.runnable
    assert "_pgmp_main" in artifact.python_source
    system.run(program)
    assert program.artifacts["plain"] is artifact, "compiled exactly once"


def test_one_text_is_compiled_once_across_execute_and_self_check(monkeypatch):
    from repro.scheme.compile_py import artifact as artifact_module

    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(artifact_module, "compile", counting_compile, raising=False)
    system = SchemeSystem(backend="compile")
    program = system.compile("(define (f x) (+ x 1)) (f 41)", "<once>")
    artifact = artifact_module.compile_program(program, "<once>", "plain")
    assert not compiled, "building an artifact compiles nothing"
    assert write_datum(artifact.execute(system.runtime_env)) == "42"
    assert artifact.self_check() == []
    assert artifact.execute(system.runtime_env) == 42
    assert len(compiled) == 1
    fresh = artifact_module.compile_program(program, "<once>", "plain")
    assert fresh.self_check() == []
    assert fresh.execute(system.runtime_env) == 42
    assert len(compiled) == 2, "self_check before any run compiles for it"


def test_self_check_reports_a_source_tampered_after_it_ran():
    system = SchemeSystem(backend="compile")
    program = system.compile("(define (f x) (+ x 1)) (f 41)", "<tamper>")
    system.run(program)
    artifact = program.artifacts["plain"]
    assert artifact.self_check() == []
    artifact.python_source = artifact.python_source[:-10] + "\ndef ):\n"
    (problem,) = artifact.self_check()
    assert problem.startswith("generated source does not parse")


LITERAL_OPERANDS = [
    "(define (body) (if 5 1 2)) (body)",
    "(define (body) (if \"s\" 1 2)) (body)",
    "(define (body) (list (if 2.5 'a 'b) (if -3 'c 'd))) (body)",
    "(define (body x) (list (not 5) (null? 7) (eq? x 5) (eq? 'a \"a\"))) (body 5)",
    "(define (body) (not 5)) (body)",
    "(define (body) (if (begin 1 5) (if (let ([a 1]) -2) 'x 'y) 'z)) (body)",
]


@pytest.mark.parametrize("source", LITERAL_OPERANDS)
def test_literal_operands_of_is_compile_without_warning(source):
    """A literal ``if`` test or identity operand once compiled to ``5 is
    not False``, which compile() warns about (an error under -W error)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        observations = {b: _observe(b, source) for b in BACKENDS}
        counts = {
            b: _run(b, source, instrument=ProfileMode.EXPR).counters.snapshot()
            for b in BACKENDS
        }
        charged = {}
        for b in BACKENDS:
            budget = StepBudget(10_000)
            _run(b, source, budget=budget)
            charged[b] = budget.remaining
    assert observations["compile"] == observations["interp"]
    assert observations["interp"][0] == "ok"
    assert counts["compile"] == counts["interp"]
    assert charged["compile"] == charged["interp"]


def test_case_study_library_parity():
    from repro.casestudies import CASE_LIBRARY, EXCLUSIVE_COND_LIBRARY

    program = """
    (define (classify x)
      (case x
        ((1 2 3) 'small)
        ((10 20 30) 'medium)
        (else 'other)))
    (define (run xs acc)
      (if (null? xs) acc (run (cdr xs) (cons (classify (car xs)) acc))))
    (run '(1 10 99 2 20 3) '())
    """
    outcomes = {}
    for backend in BACKENDS:
        system = SchemeSystem(backend=backend, policy="warn")
        system.load_library(EXCLUSIVE_COND_LIBRARY, "exclusive-cond.ss")
        system.load_library(CASE_LIBRARY, "case.ss")
        result = system.run_source(program, "<case>")
        profiled = system.profile_run(program, "<case>")
        outcomes[backend] = (
            write_datum(result.value),
            {str(p): c for p, c in profiled.counters.snapshot().items()},
        )
    assert outcomes["interp"] == outcomes["compile"]
