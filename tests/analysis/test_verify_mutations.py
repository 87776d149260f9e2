"""PGMP5xx on generated mutations of real artifacts.

The per-code goldens in ``test_verify.py`` each tamper with one site of
one program. Here every artifact of the compile backend's 17-program
parity battery, plus one ``case``-library program, in every flavor, is
mutated by eight operators, each applied at its first, middle and last
site (in source order). Each operator breaks one translation invariant,
and the verifier must report that invariant's code among its errors:

* drop a ``C()`` charge (budget flavors) -> PGMP502;
* swap the indices of two ``H[i] += 1`` hooks (instr flavors) -> PGMP501;
* turn one hook into ``H[i] += 2``, the call ``H[i]()``, or the store
  ``H[i] = 1`` (instr flavors) -> PGMP501;
* split a parallel loop rebinding into sequential assignments -> PGMP504;
* remove the ``tN is RT.P_x`` conjunct of a fast-path guard -> PGMP505;
* rename one read to an unbound name -> PGMP503.

Mutations edit the parsed tree and ``ast.unparse`` it: a regex cannot
split tuple assignments whose values contain commas.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Callable

import pytest

from repro.analysis.verify import ALL_FLAVORS, verify_artifact
from repro.casestudies import CASE_LIBRARY, EXCLUSIVE_COND_LIBRARY
from repro.scheme.compile_py.artifact import compile_program
from repro.scheme.pipeline import SchemeSystem
from tests.scheme.test_compile_backend import PARITY_PROGRAMS

CASE_PROGRAM = """
(define (classify x)
  (case x
    ((1 2 3) 'small)
    ((10 20 30) 'medium)
    (else 'other)))
(define (run xs acc)
  (if (null? xs) acc (run (cdr xs) (cons (classify (car xs)) acc))))
(run '(1 10 99 2 20 3) '())
"""

#: primitives whose inlined fast path PGMP505 checks (arithmetic,
#: comparisons, field access)
FAST_PATH_PRIMITIVES = frozenset(
    f"P_{name}"
    for name in ("add", "sub", "mul", "lt", "le", "gt", "ge", "eq", "car", "cdr")
)


@pytest.fixture(scope="module")
def artifacts():
    programs = [
        (f"<parity-{i}>", SchemeSystem().compile(source, f"<parity-{i}>"))
        for i, source in enumerate(PARITY_PROGRAMS)
    ]
    system = SchemeSystem(policy="warn")
    system.load_library(EXCLUSIVE_COND_LIBRARY, "exclusive-cond.ss")
    system.load_library(CASE_LIBRARY, "case.ss")
    programs.append(("<case>", system.compile(CASE_PROGRAM, "<case>")))
    built = [
        compile_program(program, filename, flavor)
        for filename, program in programs
        for flavor in ALL_FLAVORS
    ]
    assert len(built) == 72 and all(a.runnable for a in built)
    return built


# -- site finders: one mutation closure per site, in source order ------------

Mutation = Callable[[], None]


def _statements(tree: ast.Module) -> list[tuple[list[ast.stmt], int]]:
    """``(block, index)`` of every statement, in source order."""
    sites = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list):
                sites.extend((block, index) for index in range(len(block)))
    sites.sort(key=lambda s: (s[0][s[1]].lineno, s[0][s[1]].col_offset))
    return sites


def _call_stmt(stmt: ast.stmt) -> ast.Call | None:
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        return stmt.value
    return None


def drop_charge(tree: ast.Module) -> list[Mutation]:
    def drop(block: list[ast.stmt], index: int) -> Mutation:
        def mutate() -> None:
            if len(block) > 1:
                del block[index]
            else:
                block[index] = ast.Pass()

        return mutate

    return [
        drop(block, index)
        for block, index in _statements(tree)
        if (call := _call_stmt(block[index])) is not None
        and isinstance(call.func, ast.Name)
        and call.func.id == "C"
    ]


def _hooks(tree: ast.Module) -> list[tuple[list[ast.stmt], int]]:
    """``(block, index)`` of every ``H[i] += 1`` hook, in source order."""
    return [
        (block, index)
        for block, index in _statements(tree)
        if isinstance(stmt := block[index], ast.AugAssign)
        and isinstance(stmt.target, ast.Subscript)
        and isinstance(stmt.target.value, ast.Name)
        and stmt.target.value.id == "H"
    ]


def swap_hooks(tree: ast.Module) -> list[Mutation]:
    slices = [block[index].target.slice for block, index in _hooks(tree)]

    def swap(a: ast.Constant, b: ast.Constant) -> Mutation:
        def mutate() -> None:
            a.value, b.value = b.value, a.value

        return mutate

    if len(slices) < 2:
        return []
    # each site swaps with its successor; the last with its predecessor
    return [
        swap(here, slices[k + 1] if k + 1 < len(slices) else slices[k - 1])
        for k, here in enumerate(slices)
    ]


def _rewriting_hooks(name: str, rewrite: Callable[[ast.Subscript], ast.stmt]):
    """An operator that replaces one hook with ``rewrite`` of its ``H[i]``."""

    def operator(tree: ast.Module) -> list[Mutation]:
        def replace(block: list[ast.stmt], index: int) -> Mutation:
            hook = block[index]

            def mutate() -> None:
                block[index] = ast.copy_location(rewrite(hook.target), hook)

            return mutate

        return [replace(block, index) for block, index in _hooks(tree)]

    operator.__name__ = name
    return operator


bump_hook_by_two = _rewriting_hooks(
    "bump_hook_by_two",
    lambda target: ast.AugAssign(target, ast.Add(), ast.Constant(2)),
)
call_hook = _rewriting_hooks(
    "call_hook",
    lambda target: ast.Expr(
        ast.Call(ast.Subscript(target.value, target.slice, ast.Load()), [], [])
    ),
)
assign_hook = _rewriting_hooks(
    "assign_hook", lambda target: ast.Assign([target], ast.Constant(1))
)


def split_rebinding(tree: ast.Module) -> list[Mutation]:
    def split(block: list[ast.stmt], index: int) -> Mutation:
        assign = block[index]
        assert isinstance(assign, ast.Assign)
        target, value = assign.targets[0], assign.value
        assert isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)

        def mutate() -> None:
            block[index : index + 1] = [
                ast.copy_location(ast.Assign(targets=[name], value=part), assign)
                for name, part in zip(target.elts, value.elts)
            ]

        return mutate

    return [
        split(block, index)
        for block, index in _statements(tree)
        if isinstance(block[index], ast.Assign)
        and isinstance(block[index].targets[0], ast.Tuple)
        and index + 1 < len(block)
        and isinstance(block[index + 1], ast.Continue)
    ]


def strip_guard(tree: ast.Module) -> list[Mutation]:
    def is_identity(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], ast.Is)
            and isinstance(node.comparators[0], ast.Attribute)
            and node.comparators[0].attr in FAST_PATH_PRIMITIVES
        )

    def strip(stmt: ast.If, conjunct: ast.expr) -> Mutation:
        test = stmt.test
        assert isinstance(test, ast.BoolOp)

        def mutate() -> None:
            rest = [value for value in test.values if value is not conjunct]
            stmt.test = rest[0] if len(rest) == 1 else ast.BoolOp(ast.And(), rest)

        return mutate

    mutations = []
    for block, index in _statements(tree):
        stmt = block[index]
        if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.BoolOp):
            guards = [v for v in stmt.test.values if is_identity(v)]
            if guards:
                mutations.append(strip(stmt, guards[0]))
    return mutations


def unbind_read(tree: ast.Module) -> list[Mutation]:
    def rename(node: ast.Name) -> Mutation:
        def mutate() -> None:
            node.id += "_unbound_"

        return mutate

    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]
    reads.sort(key=lambda n: (n.lineno, n.col_offset))
    return [rename(node) for node in reads]


#: operator, the flavors it applies to, and the code it must provoke
OPERATORS = [
    (drop_charge, ("budget", "instr+budget"), "PGMP502"),
    (swap_hooks, ("instr", "instr+budget"), "PGMP501"),
    (bump_hook_by_two, ("instr", "instr+budget"), "PGMP501"),
    (call_hook, ("instr", "instr+budget"), "PGMP501"),
    (assign_hook, ("instr", "instr+budget"), "PGMP501"),
    (split_rebinding, ALL_FLAVORS, "PGMP504"),
    (strip_guard, ALL_FLAVORS, "PGMP505"),
    (unbind_read, ALL_FLAVORS, "PGMP503"),
]


def _mutants(artifact, operator):
    """``(site, mutated artifact)`` for the operator's first, middle and
    last site."""
    source = artifact.python_source
    tree = ast.parse(source)
    count = len(operator(tree))
    unmutated = ast.unparse(tree)
    for site in sorted({0, count // 2, count - 1}) if count else ():
        tree = ast.parse(source)
        operator(tree)[site]()
        mutated = ast.unparse(tree)
        assert mutated != unmutated, "mutation was a no-op"
        yield site, dataclasses.replace(artifact, python_source=mutated)


@pytest.mark.parametrize(
    "operator,flavors,code",
    OPERATORS,
    ids=[operator.__name__ for operator, _, _ in OPERATORS],
)
def test_mutation_is_reported(artifacts, operator, flavors, code):
    checked = 0
    for artifact in artifacts:
        if artifact.flavor not in flavors:
            continue
        for site, mutant in _mutants(artifact, operator):
            codes = [d.code for d in verify_artifact(mutant).errors()]
            assert code in codes, (
                f"{artifact.filename} [{artifact.flavor}] site {site}: "
                f"{operator.__name__} reported {codes}, expected {code}"
            )
            checked += 1
    assert checked, f"{operator.__name__} found no site in the battery"


def test_unmutated_artifacts_verify_clean(artifacts):
    for artifact in artifacts:
        round_trip = dataclasses.replace(
            artifact, python_source=ast.unparse(ast.parse(artifact.python_source))
        )
        for candidate in (artifact, round_trip):
            report = verify_artifact(candidate)
            assert not report.diagnostics, (
                f"{artifact.filename} [{artifact.flavor}]: "
                f"{[str(d) for d in report.diagnostics]}"
            )
