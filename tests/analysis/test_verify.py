"""Static translation validation (``pgmp verify`` / PGMP5xx).

Three layers of coverage:

* per-code goldens — each PGMP5xx code is provoked by *tampering* with a
  genuinely compiled artifact's generated source (so the checks are
  demonstrated to bite on realistic code, not synthetic strawmen);
* the differential gate — every artifact from the compile backend's
  17-program parity battery, in all four flavors, and every example file
  verifies with zero PGMP5xx errors;
* the cache layer — on-disk artifact modules are verified checksum-first
  (tampering is refused before the module is ever executed), and an
  ``ArtifactCache(verify="load")`` treats a failing artifact as a miss.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import re

import pytest

from repro.analysis.diagnostics import Severity, render_json, render_text
from repro.analysis.verify import (
    ALL_FLAVORS,
    expected_events,
    verify_artifact,
    verify_cache_dir,
    verify_path,
    verify_program,
)
from repro.scheme.compile_py.artifact import (
    _META_MARKER,
    artifact_checksum,
    compile_program,
)
from repro.scheme.compile_py.cache import ArtifactCache
from repro.scheme.pipeline import SchemeSystem
from repro.testing.faults import poison_compiled_program

TAIL_LOOP = """
(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc n))))
(define (second p) (car (cdr p)))
(loop 5 0)
(second (cons 1 (cons 2 '())))
"""


def _program(source: str = TAIL_LOOP, filename: str = "<verify-test>"):
    return SchemeSystem().compile(source, filename)


def _artifact(flavor: str = "instr+budget", source: str = TAIL_LOOP):
    return compile_program(_program(source), "<verify-test>", flavor)


def _tampered(artifact, pattern: str, replacement: str):
    """The artifact with a regex edit applied to its generated source.

    Asserts the edit actually matched — a tamper that silently no-ops
    would make the test vacuously green.
    """
    edited, count = re.subn(pattern, replacement, artifact.python_source)
    assert count > 0, f"tamper pattern {pattern!r} did not match"
    return dataclasses.replace(artifact, python_source=edited)


class TestCleanArtifacts:
    @pytest.mark.parametrize("flavor", ALL_FLAVORS)
    def test_every_flavor_verifies_clean(self, flavor):
        program = _program()
        report = verify_artifact(
            compile_program(program, "<t>", flavor), program=program
        )
        assert not report.diagnostics

    def test_verify_program_leaves_artifacts_untouched(self):
        from repro.obs.metrics import get_global_metrics

        system = SchemeSystem(backend="compile")
        program = system.compile(TAIL_LOOP, "<t>")
        system.run(program)
        before = dict(program.artifacts)
        assert set(before) == {"plain"}
        metrics = get_global_metrics()
        compiles = metrics.counter("artifact_compiles_total")
        report = verify_program(program, "<t>")
        assert not report.diagnostics
        assert program.artifacts == before
        assert all(program.artifacts[f] is a for f, a in before.items())
        assert metrics.counter("artifact_compiles_total") == compiles

    def test_expected_events_match_codegen_metadata(self):
        program = _program()
        expected = expected_events(program)
        artifact = compile_program(program, "<t>", "instr+budget")
        assert expected.hook_sites == [tuple(s) for s in artifact.hook_sites]
        assert expected.charge_count == artifact.charge_count


class TestPGMP501:
    def test_swapped_hook_indices(self):
        bad = _tampered(_artifact("instr"), r"H\[1\] \+= 1", "H[99] += 1")
        bad = _tampered(bad, r"H\[2\] \+= 1", "H[1] += 1")
        bad = _tampered(bad, r"H\[99\] \+= 1", "H[2] += 1")
        report = verify_artifact(bad)
        assert report.codes() == ["PGMP501"]
        assert report.errors()

    def test_dropped_hook_call(self):
        bad = _tampered(_artifact("instr"), r" *H\[2\] \+= 1\n", "")
        report = verify_artifact(bad)
        assert "PGMP501" in report.codes()
        assert report.errors()

    def test_hook_in_non_instrumented_flavor(self):
        bad = _tampered(
            _artifact("plain"),
            r"    _B = GB\.bindings\n",
            "    _B = GB.bindings\n    H[0] += 1\n",
        )
        report = verify_artifact(bad)
        assert report.by_code("PGMP501")
        assert report.errors()

    @pytest.mark.parametrize(
        "flavor,extra", [("instr", "H[2] += 2"), ("plain", "H[0] = 1")]
    )
    def test_any_other_use_of_h(self, flavor, extra):
        # Every hook is still in place and in order: only the extra
        # statement touching ``H`` is wrong.
        bad = _tampered(
            _artifact(flavor),
            r"    _B = GB\.bindings\n",
            f"    _B = GB.bindings\n    {extra}\n",
        )
        (finding,) = verify_artifact(bad).by_code("PGMP501")
        assert "outside a hook statement" in finding.message

    def test_recorded_sites_diverge_from_interpreter_order(self):
        program = _program()
        artifact = compile_program(program, "<t>", "instr")
        swapped = dataclasses.replace(
            artifact,
            hook_sites=[artifact.hook_sites[1], artifact.hook_sites[0]]
            + artifact.hook_sites[2:],
        )
        report = verify_artifact(swapped, program=program)
        assert report.by_code("PGMP501")
        assert "diverges from interpreter order" in str(report.diagnostics[0])


class TestPGMP502:
    def test_dropped_charge(self):
        bad = _tampered(_artifact("budget"), r" *C\(\)\n", "", )
        report = verify_artifact(bad)
        assert report.codes() == ["PGMP502"]
        assert report.errors()

    def test_charge_in_non_budget_flavor(self):
        bad = _tampered(
            _artifact("plain"),
            r"    _B = GB\.bindings\n",
            "    _B = GB.bindings\n    C()\n",
        )
        report = verify_artifact(bad)
        assert report.codes() == ["PGMP502"]

    def test_bump_before_charge_breaks_interpreter_order(self):
        # Swap one C();H[5] += 1 pair: counts stay right, order does not.
        bad = _tampered(
            _artifact("instr+budget"),
            r"( *)C\(\)\n( *)H\[5\] \+= 1",
            r"\1H[5] += 1\n\2C()",
        )
        report = verify_artifact(bad)
        assert report.by_code("PGMP502")
        assert "charge, then bump" in report.by_code("PGMP502")[0].message


class TestPGMP503:
    def test_unbound_name(self):
        bad = _tampered(
            _artifact("plain"), r"_B\.get\(S0\)", "_B_oops.get(S0)"
        )
        report = verify_artifact(bad)
        assert report.codes() == ["PGMP503"]
        assert "_B_oops" in report.diagnostics[0].message

    def test_missing_entry_point(self):
        bad = _tampered(
            _artifact("plain"),
            r"def _pgmp_main\(GB, H, C\):",
            "def _pgmp_other(GB, H, C):",
        )
        report = verify_artifact(bad)
        assert report.by_code("PGMP503")
        assert "_pgmp_main" in report.by_code("PGMP503")[0].message

    def test_wrong_entry_point_signature(self):
        bad = _tampered(
            _artifact("plain"),
            r"def _pgmp_main\(GB, H, C\):",
            "def _pgmp_main(GB, H, C, X=None):",
        )
        report = verify_artifact(bad)
        assert report.by_code("PGMP503")

    def test_unparsable_source(self):
        bad = dataclasses.replace(
            _artifact("plain"), python_source="def _pgmp_main(GB, H, C:\n"
        )
        report = verify_artifact(bad)
        assert report.by_code("PGMP503")


class TestPGMP504:
    def test_sequential_rebinding(self):
        bad = _tampered(
            _artifact("plain"),
            r"( +)v_n_(\d+), v_acc_(\d+) = (.+), (.+)\n",
            r"\1v_n_\2 = \4\n\1v_acc_\3 = \5\n",
        )
        report = verify_artifact(bad)
        assert report.codes() == ["PGMP504"]
        assert "sequential" in report.diagnostics[0].message

    def test_duplicate_loop_parameter_target(self):
        bad = _tampered(
            _artifact("plain"),
            r"v_n_(\d+), v_acc_\d+ = ",
            r"v_n_\1, v_n_\1 = ",
        )
        report = verify_artifact(bad)
        assert "PGMP504" in report.codes()


class TestPGMP505:
    def test_stripped_identity_guard_on_arithmetic(self):
        bad = _tampered(
            _artifact("plain"), r"t(\d+) is RT\.P_add and type", "type"
        )
        report = verify_artifact(bad)
        assert report.codes() == ["PGMP505"]
        assert "arithmetic" in report.diagnostics[0].message

    def test_stripped_type_test_on_comparison(self):
        bad = _tampered(
            _artifact("plain"),
            r" and type\(v_n_(\d+)\) is int and type\(0\) is int",
            "",
        )
        report = verify_artifact(bad)
        assert report.by_code("PGMP505")

    def test_stripped_guard_on_field_access(self):
        bad = _tampered(
            _artifact("plain"), r"t(\d+) is RT\.P_cdr and ", ""
        )
        report = verify_artifact(bad)
        assert report.by_code("PGMP505")


class TestPGMP506:
    # A syntax template surviving to run time is not translatable, so the
    # backend falls back to the interpreter for every flavor.
    FALLBACK = "(define stx #'(a b)) (pair? 1)"

    def test_fallback_reports_info_not_error(self):
        program = _program(self.FALLBACK)
        artifact = compile_program(program, "<t>", "plain")
        assert not artifact.runnable
        report = verify_artifact(artifact, program=program)
        infos = report.by_code("PGMP506")
        assert infos and infos[0].severity is Severity.INFO
        assert artifact.unsupported_reason in infos[0].message
        assert not report.errors()

    def test_every_fallback_flavor_is_enumerated(self):
        program = _program(self.FALLBACK)
        report = verify_program(program, "<t>")
        assert len(report.by_code("PGMP506")) == len(ALL_FLAVORS)
        assert not report.errors()


class TestMutation:
    def test_poisoned_artifacts_are_rejected_statically(self):
        program = _program()
        poison_compiled_program(program)
        report = verify_program(program, "<t>")
        assert report.errors()
        # every flavor's poisoned artifact is caught, not just one
        flavors_flagged = {
            d.message.split("]")[0] for d in report.errors()
        }
        assert len(flavors_flagged) == len(ALL_FLAVORS)


class TestDifferentialGate:
    def test_parity_battery_verifies_clean(self):
        from tests.scheme.test_compile_backend import PARITY_PROGRAMS

        for i, source in enumerate(PARITY_PROGRAMS):
            program = SchemeSystem().compile(source, f"<parity-{i}>")
            report = verify_program(program, f"<parity-{i}>")
            errors = [str(d) for d in report.errors()]
            assert not errors, f"parity program {i}: {errors}"

    def test_examples_verify_without_pgmp5_errors(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "examples", "*.py")))
        assert paths, "expected example files in examples/"
        for path in paths:
            report = verify_path(path)
            errors = [str(d) for d in report.errors()]
            assert not errors, f"{path}: {errors}"


class TestRenderers:
    def test_text_golden(self):
        bad = _tampered(
            _artifact("plain"), r"_B\.get\(S0\)", "_B_oops.get(S0)"
        )
        report = verify_artifact(bad, filename="gold.ss")
        text = render_text(report, "info")
        assert "error: PGMP503: artifact[plain]:" in text
        assert text.endswith("1 error(s), 0 warning(s), 0 info")

    def test_json_golden_shares_lint_schema(self):
        bad = _tampered(_artifact("budget"), r" *C\(\)\n", "")
        report = verify_artifact(bad, filename="gold.ss")
        payload = json.loads(render_json(report, "info"))
        assert payload["format"] == "pgmp-lint"
        assert payload["version"] == 1
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "PGMP502"
        assert diag["severity"] == "error"
        assert diag["pass"] == "verify"
        assert payload["summary"]["error"] == 1


class TestCacheVerification:
    def _populate(self, tmp_path):
        system = SchemeSystem()
        artifact = system.compile_cached(
            TAIL_LOOP, "<cached>", cache=ArtifactCache(tmp_path)
        )
        paths = sorted(glob.glob(str(tmp_path / "*.py")))
        assert paths
        return paths[0]

    def test_clean_cache_dir_verifies(self, tmp_path):
        self._populate(tmp_path)
        report = verify_cache_dir(tmp_path)
        assert not report.errors()

    def test_checksum_tamper_is_refused_before_exec(self, tmp_path):
        path = self._populate(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        # Plant a module-level bomb: if verification ever executes the
        # module before checking the checksum, the test blows up loudly.
        bombed = text.replace(
            "def _pgmp_main", "raise AssertionError('executed')\ndef _pgmp_main", 1
        )
        assert bombed != text
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(bombed)
        report = verify_cache_dir(tmp_path)
        assert report.by_code("PGMP503")
        assert "checksum mismatch" in report.by_code("PGMP503")[0].message

    def test_consistent_tamper_is_caught_by_the_passes(self, tmp_path):
        path = self._populate(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        marker = text.rfind(_META_MARKER)
        body = text[: marker + 1]
        meta = eval(text[marker + len(_META_MARKER) :].strip())  # noqa: S307
        bad_body = body.replace(
            "    _B = GB.bindings\n", "    _B = GB.bindings\n    H[0] += 1\n", 1
        )
        assert bad_body != body
        meta["checksum"] = artifact_checksum(bad_body)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{bad_body}__pgmp_meta__ = {meta!r}\n")
        report = verify_cache_dir(tmp_path)
        assert report.by_code("PGMP501")

    def test_verify_load_cache_treats_failing_artifact_as_miss(self, tmp_path):
        path = self._populate(tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        marker = text.rfind(_META_MARKER)
        body = text[: marker + 1]
        meta = eval(text[marker + len(_META_MARKER) :].strip())  # noqa: S307
        bad_body = body.replace(
            "    _B = GB.bindings\n", "    _B = GB.bindings\n    H[0] += 1\n", 1
        )
        meta["checksum"] = artifact_checksum(bad_body)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{bad_body}__pgmp_meta__ = {meta!r}\n")
        key = tuple(meta["key"])
        # the plain loader still accepts it (checksum is self-consistent)...
        assert ArtifactCache(tmp_path).get(key) is not None
        # ...but the verifying cache rejects it as a miss
        assert ArtifactCache(tmp_path, verify="load").get(key) is None

    def test_verify_load_accepts_healthy_artifacts(self, tmp_path):
        self._populate(tmp_path)
        verifying = ArtifactCache(tmp_path, verify="load")
        path = sorted(glob.glob(str(tmp_path / "*.py")))[0]
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        meta = eval(  # noqa: S307
            text[text.rfind(_META_MARKER) + len(_META_MARKER) :].strip()
        )
        key = tuple(meta["key"])
        assert verifying.get(key) is not None

    def test_unknown_verify_mode_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown verify mode"):
            ArtifactCache(tmp_path, verify="always")
