"""``verify_program`` parses one text per program: differential checks.

``verify_program`` verifies a program's full generated text (every hook
call and charge) once and accepts a flavor without parsing it when its
artifact is exactly a projection the full text vouches for. Any other
flavor is verified in full. The reference here is verifying every flavor
in full and concatenating the reports, flavor by flavor. The two must
agree in codes, messages, lines and columns:

* (a) on the programs as generated;
* (b) with one memoized flavor replaced by a mutant (the operators of
  ``test_verify_mutations.py``, each at its first, middle and last
  site), as a poisoned in-memory artifact would be;
* (c) with codegen returning a mutated full text, so every flavor is a
  projection of a text with a finding.

The 17-program parity battery and the ``case`` program are the inputs,
plus programs that assign a loop parameter right before its tail call,
and a full text that is clean while two of its projections are not.
"""

from __future__ import annotations

import ast
import dataclasses
import re

import pytest

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.verify import ALL_FLAVORS, verify_artifact, verify_program
from repro.analysis.verify.passes import verify_projections
from repro.casestudies import CASE_LIBRARY, EXCLUSIVE_COND_LIBRARY
from repro.scheme.compile_py import artifact as artifact_module
from repro.scheme.compile_py.artifact import compile_program, flavor_artifact
from repro.scheme.pipeline import SchemeSystem
from tests.analysis.test_verify_mutations import CASE_PROGRAM, OPERATORS, _mutants
from tests.scheme.test_compile_backend import PARITY_PROGRAMS

#: The ``set!`` assignment lands right before the tail call's rebinding
#: once the charge and hook lines between them are gone (``plain``): it
#: is the program's own assignment, not part of the rebinding.
SET_BEFORE_TAIL_CALL = [
    "(define (f x) (set! x 1) (f x)) 1",
    "(define (f x n) (if (= n 0) x (begin (set! n (- n 1)) (f x n)))) (f 0 5)",
    "(define (f n) (if (= n 0) 'done (begin (set! n (- n 1)) (f n)))) (f 3)",
]


@pytest.fixture(scope="module")
def programs():
    programs = [
        (f"<parity-{i}>", SchemeSystem().compile(source, f"<parity-{i}>"))
        for i, source in enumerate(PARITY_PROGRAMS)
    ]
    system = SchemeSystem(policy="warn")
    system.load_library(EXCLUSIVE_COND_LIBRARY, "exclusive-cond.ss")
    system.load_library(CASE_LIBRARY, "case.ss")
    programs.append(("<case>", system.compile(CASE_PROGRAM, "<case>")))
    return programs


def _rows(report: AnalysisReport) -> list[tuple]:
    return [
        (d.code, d.severity, d.message, d.location.line, d.location.column)
        for d in report.diagnostics
    ]


def _per_flavor(program, filename: str) -> list[tuple]:
    """Every flavor verified in full: the memoized artifact, or the one
    ``compile_program`` builds."""
    report = AnalysisReport()
    for flavor in ALL_FLAVORS:
        artifact = program.artifacts.get(flavor) or compile_program(
            program, filename, flavor
        )
        report.extend(verify_artifact(artifact, program=program, filename=filename))
    return _rows(report)


def _agree(program, filename: str) -> list[tuple]:
    before = dict(program.artifacts)
    got = _rows(verify_program(program, filename))
    assert program.artifacts == before, "verify_program memoized an artifact"
    assert got == _per_flavor(program, filename), filename
    return got


def test_as_generated(programs):
    for filename, program in programs:
        assert _agree(program, filename) == [], filename


def test_a_clean_program_is_parsed_once(programs, monkeypatch):
    parsed = []
    real = ast.parse

    def counting_parse(source, *args, **kwargs):
        parsed.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    for filename, program in programs:
        parsed.clear()
        assert not verify_program(program, filename).diagnostics
        assert len(parsed) == 1, filename
        full = compile_program(program, filename, "instr+budget")
        assert parsed[0] == full.python_source


def test_set_of_a_loop_parameter_before_the_tail_call_verifies_clean():
    for source in SET_BEFORE_TAIL_CALL:
        program = SchemeSystem().compile(source, "<set>")
        assert _agree(program, "<set>") == [], source


def test_clean_full_text_with_an_unclean_projection():
    """A charge between a parameter's own assignment and the ``continue``
    keeps the full text clean; deleting the charge leaves that assignment,
    which rebinds one of two parameters, last before the ``continue``."""
    program = SchemeSystem().compile(PARITY_PROGRAMS[1], "<t>")
    full = compile_program(program, "<t>", "instr+budget")
    text, count = re.subn(
        r"\n( *)(v_i_\d+), (v_acc_\d+) = (.+)\n *continue\n",
        r"\n\1\2, \3 = \4\n\1\3 = \3\n\1C()\n\1continue\n",
        full.python_source,
    )
    assert count == 1
    # no Program, so only the text's own invariants are checked
    bare = dataclasses.replace(
        full, python_source=text, program=None, charge_count=full.charge_count + 1
    )
    assert _vouched(bare) == {"instr+budget", "budget"}
    for flavor in ("instr", "plain"):
        projected = flavor_artifact((text, full.hook_sites, 0), "<t>", flavor)
        assert verify_artifact(projected).codes() == ["PGMP504"], flavor


def test_one_memoized_flavor_mutated(programs):
    checked = 0
    for filename, program in programs:
        for operator, flavors, _code in OPERATORS:
            for flavor in flavors:
                artifact = compile_program(program, filename, flavor)
                for _site, mutant in _mutants(artifact, operator):
                    program.artifacts.clear()
                    program.artifacts[flavor] = mutant
                    assert _agree(program, filename), "a mutant verified clean"
                    checked += 1
        program.artifacts.clear()
    assert checked >= 500


def test_generator_returns_a_mutated_full_text(programs, monkeypatch):
    real = artifact_module.generate_unit
    checked = 0
    for filename, program in programs:
        source, sites, charges = real(program)
        full = compile_program(program, filename, "instr+budget")
        texts = [ast.unparse(ast.parse(source))]
        for operator, _flavors, _code in OPERATORS:
            texts.extend(m.python_source for _, m in _mutants(full, operator))
        for index, text in enumerate(texts):
            monkeypatch.setattr(
                artifact_module,
                "generate_unit",
                lambda _program, text=text: (text, sites, charges),
            )
            # the round trip verifies clean, every mutant does not
            assert bool(_agree(program, filename)) == (index > 0), filename
            checked += 1
        monkeypatch.setattr(artifact_module, "generate_unit", real)
    assert checked >= 200


def _vouched(full) -> set[str]:
    report, clean = verify_projections(full, "<t>", None)
    assert not report.diagnostics
    return set(clean)


def test_a_hook_sharing_its_line_is_not_projected():
    program = SchemeSystem().compile(PARITY_PROGRAMS[1], "<t>")
    full = compile_program(program, "<t>", "instr+budget")
    assert _vouched(full) == set(ALL_FLAVORS)
    joined, count = re.subn(
        r"\n( *)(H\[\d+\] \+= 1)\n *(?=t\d+ = )",
        r"\n\1\2; ",
        full.python_source,
        count=1,
    )
    assert count == 1
    vouched = _vouched(dataclasses.replace(full, python_source=joined))
    assert vouched == {"instr+budget", "instr"}


def test_a_block_of_calls_only_is_not_projected():
    program = SchemeSystem().compile(PARITY_PROGRAMS[1], "<t>")
    full = compile_program(program, "<t>", "instr+budget")
    padded, count = re.subn(
        r"\n    _B = GB\.bindings\n",
        "\n    _B = GB.bindings\n    if _B:\n        C()\n",
        full.python_source,
    )
    assert count == 1
    # no Program, so only the text's own invariants are checked
    bare = dataclasses.replace(
        full, python_source=padded, program=None, charge_count=full.charge_count + 1
    )
    assert _vouched(bare) == set()
