"""Smoke test of the benchmark itself, on the ``--quick`` corpus.

    PYTHONPATH=src python -m pytest bench/tests -q

Not part of tier-1: it runs every workload in subprocesses (~1 minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]}


def run_bench(out: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--quick", "--out", str(out), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "result.json"
    proc = run_bench(out)
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


def test_every_metric_is_emitted_with_its_unit(quick):
    out, stdout = quick
    workloads = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in SPEC["workloads"])
    for name, block in workloads.items():
        assert block["failed_ratio"] == 0, (name, block["failures"])
        assert {n: m["unit"] for n, m in block["metrics"].items()} == UNITS
        assert block["metrics"]["unattributed.ms"]["value"] >= 0
    last = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0


def test_a_result_compares_equal_to_itself(quick):
    out, _ = quick
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    assert " worse" not in proc.stdout and " better" not in proc.stdout


def test_two_counting_passes_match(tmp_path):
    out = tmp_path / "count.json"
    proc = run_bench(out, "--count")
    assert proc.returncode == 0, proc.stderr
    for block in json.loads(out.read_text(encoding="utf-8"))["workloads"].values():
        assert block["checks"] == {"calls_repeat_exactly": True}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "result.json", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
