"""Seeded corpus generator: the six case-study families scaled up.

Every family follows the shape of its case-study template (one small
program per library in the backend differential suite) and grows it to a
fixed number of macro use sites. Each family gets four programs with 10,
20, 30 and 40 use sites.

The seed decides the order of things, the constants, and which input
values are hot. It does not decide how much work there is: program sizes,
the mix of site kinds in a program (say, half ``area`` and half ``grow``
method calls) and the share of hot inputs are the same for every seed, so
two seeds measure the same amount of work on different data.

Inputs are skewed: a few hot values take 80% of the draws, so the
profile-guided decisions (branch negation, clause order, inline caches,
operand order, inlining, representation choice) differ from site to site.

The program under test only ever sees the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAMILIES = ("if-r", "case", "oop", "boolean", "inliner", "datastructs")
SITES = (10, 20, 30, 40)
#: the ``--quick`` corpus: one small program per family
QUICK_SITES = (10,)
#: length of each program's input list
DATA_LENGTH = 16


@dataclass(frozen=True)
class Program:
    """One generated Scheme program of a family."""

    family: str
    name: str
    source: str
    #: program-specific library text loaded after the family library
    #: (the ``oop`` class definitions), or "" for none
    library: str = ""


def _mix(rng: random.Random, kinds: tuple, count: int) -> list:
    """``count`` picks cycling through ``kinds``, in a seeded order: every
    seed gets the same proportions."""
    picks = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _skewed(rng: random.Random, count: int, span: int, hot: int = 4) -> list[int]:
    """``count`` draws from ``range(span)``: 80% of them from ``hot``
    seeded hot values, the rest uniform."""
    hot_values = rng.sample(range(span), hot)
    hot_draws = round(0.8 * count)
    values = _mix(rng, tuple(hot_values), hot_draws)
    values += [rng.randrange(span) for _ in range(count - hot_draws)]
    rng.shuffle(values)
    return values


def _driver(terms: list[str], items: str, arg: str = "n") -> str:
    """Sum every site's contribution over ``items`` and print the checksum
    (so both the value and the output are checked)."""
    body = " ".join(terms)
    return f"""
(define (score {arg}) (+ {body}))
(define (walk xs acc) (if (null? xs) acc (walk (cdr xs) (+ acc (score (car xs))))))
(define result (walk {items} 0))
(display result)
(newline)
result
"""


def _data(values: list[int]) -> str:
    return f"(define data '({' '.join(map(str, values))}))\n"


def _if_r(rng: random.Random, sites: int) -> tuple[str, str]:
    defs = [
        f"(define (f{i} n) (if-r (< n {rng.randrange(5, 95)}) "
        f"(+ n {rng.randrange(1, 9)}) (- n {rng.randrange(1, 9)})))"
        for i in range(sites)
    ]
    terms = [f"(f{i} n)" for i in range(sites)]
    return _data(_skewed(rng, DATA_LENGTH, 100)) + "\n".join(defs) + _driver(terms, "data"), ""


def _case(rng: random.Random, sites: int) -> tuple[str, str]:
    defs = []
    for i in range(sites):
        keys = list(range(12))
        rng.shuffle(keys)
        clauses = " ".join(
            f"(({' '.join(map(str, sorted(keys[j:j + 3])))}) {rng.randrange(1, 50)})"
            for j in range(0, 12, 3)
        )
        defs.append(f"(define (g{i} n) (case n {clauses} (else {rng.randrange(1, 9)})))")
    terms = [f"(g{i} n)" for i in range(sites)]
    return _data(_skewed(rng, DATA_LENGTH, 14)) + "\n".join(defs) + _driver(terms, "data"), ""


#: (class, fields, area body, grow body); constructors take one argument
#: per field
_SHAPES = (
    ("Circle", ("r",), "(* 3 (field this r) (field this r))", "(+ (field this r) k)"),
    ("Square", ("s",), "(* (field this s) (field this s))", "(* (field this s) k)"),
    ("Tri", ("b", "h"), "(quotient (* (field this b) (field this h)) 2)", "(+ (field this b) (field this h) k)"),
    ("Hex", ("a",), "(* 6 (field this a))", "(- (* 2 (field this a)) k)"),
)


def _oop(rng: random.Random, sites: int) -> tuple[str, str]:
    # The classes are the program's own library: the object system keeps
    # its class registry at expand time, so re-expanding a program that
    # defines classes would register them again on every compile.
    classes = "\n".join(
        f"(class {name} ({' '.join(f'({f} 1)' for f in fields)})\n"
        f"  (define-method (area this) {area})\n"
        f"  (define-method (grow this k) {grow}))"
        for name, fields, area, grow in _SHAPES
    )
    constructors = [
        f"(make-{name} {' '.join(str(rng.randrange(1, 7)) for _ in fields)})"
        for name, fields, _, _ in _SHAPES
    ]
    make = (
        "(define (make-shape k)\n  (cond "
        + " ".join(f"((= k {j}) {c})" for j, c in enumerate(constructors[:-1]))
        + f" (else {constructors[-1]})))\n"
    )
    defs = [
        f"(define (m{i} s) (method s area))" if kind == "area"
        else f"(define (m{i} s) (method s grow {rng.randrange(1, 5)}))"
        for i, kind in enumerate(_mix(rng, ("area", "grow"), sites))
    ]
    terms = [f"(m{i} s)" for i in range(sites)]
    source = (
        _data(_skewed(rng, DATA_LENGTH, len(_SHAPES), hot=1))
        + make
        + "(define shapes (map make-shape data))\n"
        + "\n".join(defs)
        + _driver(terms, "shapes", "s")
    )
    return source, classes


_OPERANDS = (
    lambda rng: f"(> n {rng.randrange(10, 90)})",
    lambda rng: f"(< n {rng.randrange(10, 90)})",
    lambda rng: "(odd? n)",
    lambda rng: "(even? n)",
    lambda rng: f"(= (modulo n {rng.randrange(2, 6)}) 0)",
    lambda rng: f"(not (= n {rng.randrange(100)}))",
)


def _boolean(rng: random.Random, sites: int) -> tuple[str, str]:
    defs = []
    shapes = _mix(rng, (("and-r", 2), ("or-r", 2), ("and-r", 3), ("or-r", 3)), sites)
    for i, (form, arity) in enumerate(shapes):
        operands = " ".join(rng.choice(_OPERANDS)(rng) for _ in range(arity))
        defs.append(f"(define (h{i} n) (if ({form} {operands}) {rng.randrange(1, 9)} 0))")
    terms = [f"(h{i} n)" for i in range(sites)]
    return _data(_skewed(rng, DATA_LENGTH, 100)) + "\n".join(defs) + _driver(terms, "data"), ""


_INLINABLES = """
(define-inlinable (sq n) (* n n))
(define-inlinable (cube n) (* n n n))
(define-inlinable (twice n) (+ n n))
(define-inlinable (clamp n) (if (> n 50) 50 n))
"""


def _inliner(rng: random.Random, sites: int) -> tuple[str, str]:
    callees = _mix(rng, ("sq", "cube", "twice", "clamp"), sites)
    defs = [
        f"(define (k{i} n) ({callee} (+ n {rng.randrange(1, 9)})))"
        for i, callee in enumerate(callees)
    ]
    # A third of the call sites are cold: they run only on the rare inputs
    # divisible by 7, so they stay below inline-threshold.
    terms = [
        f"(if (= (modulo n 7) 0) (k{i} n) 0)" if cold else f"(k{i} n)"
        for i, cold in enumerate(_mix(rng, (False, False, True), sites))
    ]
    source = _data(_skewed(rng, DATA_LENGTH, 100)) + _INLINABLES + "\n".join(defs)
    return source + _driver(terms, "data"), ""


def _datastructs(rng: random.Random, sites: int) -> tuple[str, str]:
    # Per sequence: random access only, head/tail only, or both. Indices
    # are constants from a fixed mix: on a list-backed sequence an
    # access costs its index, so data-driven indices would make the
    # amount of work depend on the seed.
    uses = {
        "ref": "(+ n (seq-ref s{i} {k}))",
        "rest": "(+ n (seq-first (seq-rest s{i})))",
        "both": "(+ (seq-ref s{i} {k}) (seq-first s{i}))",
    }
    kinds = _mix(rng, ("ref", "rest", "ref", "rest", "both"), sites)
    indices = _mix(rng, tuple(range(8)), sites)
    defs = []
    for i, (use, k) in enumerate(zip(kinds, indices)):
        elements = " ".join(str(rng.randrange(100)) for _ in range(8))
        defs.append(f"(define s{i} (profiled-seq {elements}))")
        defs.append(f"(define (u{i} n) {uses[use].format(i=i, k=k)})")
    terms = [f"(u{i} n)" for i in range(sites)]
    return _data(_skewed(rng, DATA_LENGTH, 100)) + "\n".join(defs) + _driver(terms, "data"), ""


_GENERATORS = {
    "if-r": _if_r,
    "case": _case,
    "oop": _oop,
    "boolean": _boolean,
    "inliner": _inliner,
    "datastructs": _datastructs,
}


def generate(seed: int, sites: tuple[int, ...] = SITES) -> list[Program]:
    """The corpus for ``seed``: one program per entry of ``sites`` for
    every family, family-major."""
    rng = random.Random(seed)
    programs = []
    for family in FAMILIES:
        sizes = list(sites)
        rng.shuffle(sizes)
        for index, size in enumerate(sizes):
            source, library = _GENERATORS[family](
                random.Random(rng.getrandbits(64)), size
            )
            programs.append(
                Program(family, f"{family}-{index}", source, library)
            )
    return programs


def service_program(seed: int) -> str:
    """The program the service loop keeps re-optimizing: a 10-site
    ``case`` program that reads its input from the global ``bench-input``,
    which each worker run binds to a fresh batch before running. It is the
    smallest corpus size because every cycle re-verifies it statically."""
    rng = random.Random(f"service-{seed}")
    source, _ = _case(rng, 10)
    # Same definitions, but the driver walks the worker's batch instead of
    # the embedded data, so each run's counts follow that batch's skew.
    return source.replace("(walk data 0)", "(walk bench-input 0)")


def service_batch(seed: int, cycle: int, run: int) -> list[int]:
    """Worker input for one run: the hot keys move every cycle, so the
    merged weights drift and every controller tick has something to do."""
    rng = random.Random(f"batch-{seed}-{cycle}-{run}")
    return _skewed(rng, DATA_LENGTH, 14)


# -- the Python-AST substrate -------------------------------------------------

PYAST_KINDS = ("pycase", "if_r")


def pyast_module(seed: int) -> str:
    """A Python module with two ``pycase`` and two ``if_r`` functions."""
    rng = random.Random(f"pyast-{seed}")
    parts = ["from repro.pyast import if_r, pycase\n"]
    for i in range(2):
        keys = list(range(16))
        rng.shuffle(keys)
        clauses = "".join(
            f"        ({tuple(sorted(keys[j:j + 4]))!r}, {rng.randrange(1, 50)}),\n"
            for j in range(0, 16, 4)
        )
        parts.append(
            f"\ndef pycase_{i}(c):\n    return pycase(\n        c,\n{clauses}"
            f"        default={rng.randrange(1, 9)},\n    )\n"
        )
    for i in range(2):
        terms = " + ".join(
            f"if_r(n < {rng.randrange(5, 95)}, {rng.randrange(1, 9)}, n)"
            for _ in range(6)
        )
        parts.append(f"\ndef if_r_{i}(n):\n    return {terms}\n")
    return "".join(parts)


def pyast_inputs(seed: int, kind: str, index: int) -> list[tuple]:
    """Skewed arguments for one generated function."""
    rng = random.Random(f"pyast-inputs-{seed}-{kind}-{index}")
    span = 18 if kind == "pycase" else 100
    return [(value,) for value in _skewed(rng, 400, span)]
