"""Run the benchmark and print every metric by name, with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--count]
                         [--out FILE] [--trace-out FILE]

Each workload runs in a process of its own (``bench/passes.py``), one after
another. ``--trace 0`` runs the untraced pass and reports the end-to-end
metrics; ``--trace 1`` splits ``--seconds`` between an untraced and a
traced pass, adds a counting pass, and reports the per-layer metrics;
without ``--trace`` both are reported. ``--count`` runs the counting pass
twice and checks that the two agree exactly. ``--quick`` uses a one-program-
per-family corpus and one-second passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every op's output matched its oracle and every self-check held.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import spec

ROOT = spec.ROOT
BENCH = ROOT / "bench"
WORKLOADS = ("optimize", "run-optimized", "profile", "service-loop")
#: set-ups per untraced pass; their median is ``setup_s``
SETUPS = 3
#: rounds an untraced pass runs at least, so every op has repetitions
MIN_ROUNDS = 3
QUICK_SECONDS = 1.0
#: a pass still running after this many seconds has hung (a full-size
#: pass takes well under a minute)
PASS_TIMEOUT = 170


class BenchError(Exception):
    """A pass crashed or produced no result."""


def run_pass(workload: str, kind: str, args, workdir: Path, seconds: float,
             setups: int = 1, min_rounds: int = 1, trace_out: Path | None = None) -> dict:
    passdir = workdir / f"{workload}-{kind}"
    passdir.mkdir(parents=True)
    command = [
        sys.executable, str(BENCH / "passes.py"),
        "--workload", workload, "--pass", kind, "--seed", str(args.seed),
        "--seconds", str(seconds), "--workdir", str(passdir), "--setups", str(setups),
        "--min-rounds", str(min_rounds),
    ]
    if args.quick:
        command.append("--quick")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    env = {key: value for key, value in os.environ.items() if key != "PGMP_BACKEND"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=str(passdir))
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {kind} pass timed out after {exc.timeout}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {kind} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(workload: str, args, workdir: Path, table: dict, traces: list) -> dict:
    """All passes of one workload; returns its result block."""
    passes = []
    produced: dict[str, float] = {}
    spreads: dict[str, float] = {}
    checks: dict[str, bool] = {}
    unattributed_share = None
    wanted = set()
    if args.count:
        first = run_pass(workload, "count", args, workdir / "a", args.seconds)
        second = run_pass(workload, "count", args, workdir / "b", args.seconds)
        passes += [first, second]
        checks["calls_repeat_exactly"] = first["metrics"] == second["metrics"]
        produced.update(first["metrics"])
        wanted = {name for name in table if name.startswith("calls.")}
    else:
        end_to_end = args.trace in (None, 0)
        per_layer = args.trace in (None, 1)
        seconds = args.seconds / 2 if args.trace == 1 else args.seconds
        # Only the end-to-end metrics need repeated set-ups (setup_s) and
        # repeated rounds (each op's fastest repetition).
        full = end_to_end and not args.quick
        untraced = run_pass(workload, "untraced", args, workdir, seconds,
                            setups=SETUPS if full else 1,
                            min_rounds=MIN_ROUNDS if full else 1)
        passes.append(untraced)
        produced.update(untraced["metrics"])
        spreads.update(untraced["spreads"])
        if end_to_end:
            wanted |= {n for n, m in table.items() if m["kind"] == "end_to_end"}
        if per_layer:
            trace_out = workdir / f"trace-{workload}.json" if args.trace_out else None
            traced = run_pass(workload, "traced", args, workdir, seconds, trace_out=trace_out)
            counted = run_pass(workload, "count", args, workdir, seconds)
            passes += [traced, counted]
            produced.update(traced["metrics"])
            produced.update(counted["metrics"])
            spreads.update(traced["spreads"])
            produced["trace_overhead_pct"] = 100 * (traced["op_p50_ms"] / untraced["metrics"]["op_p50_ms"] - 1)
            unattributed_share = traced["unattributed_share"]
            if trace_out is not None:
                traces.append((workload, trace_out))
            wanted |= {n for n, m in table.items() if m["kind"] == "per_layer"}
    unknown = sorted(set(produced) - set(table))
    if unknown:
        raise BenchError(f"{workload}: metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(n for n in wanted if n not in produced and table[n]["kind"] == "end_to_end")
    if missing:
        raise BenchError(f"{workload}: end-to-end metrics not measured: {missing}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "checks": checks,
        "unattributed_share": unattributed_share,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "metrics": {
            # A layer this workload never enters reads 0.
            name: {"value": produced.get(name, 0.0), "unit": table[name]["unit"],
                   "spread": spreads.get(name, 0.0)}
            for name in sorted(wanted)
        },
    }


def merge_traces(traces: list, path: str) -> None:
    """One Chrome trace, one process per workload."""
    events = []
    for pid, (workload, trace_path) in enumerate(traces, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": workload}})
        with open(trace_path, encoding="utf-8") as handle:
            for event in json.load(handle)["traceEvents"]:
                events.append({**event, "pid": pid})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def report(results: dict) -> None:
    for workload, result in results.items():
        status = "ok" if result["correct"] else "FAILED"
        print(f"{workload}: {status}  attempted={result['attempted']} failed={result['failed']} "
              f"failed_ratio={result['failed_ratio']:.4f}")
        for name, check in result["checks"].items():
            print(f"  check {name}: {'ok' if check else 'FAILED'}")
        if result["unattributed_share"] is not None:
            print(f"  unattributed share of op time: {result['unattributed_share']:.4f}")
        for failure in result["failures"]:
            print(f"  failure: {failure.strip().splitlines()[-1]}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']:6s}"
                  f" spread {100 * metric['spread']:5.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per pass (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--count", action="store_true", help="check that two counting passes agree")
    parser.add_argument("--out", help="write every result, with spreads, as JSON")
    parser.add_argument("--trace-out", help="write the traced pass's spans as a Chrome trace")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    benchmark = spec.load()
    table = spec.metric_table(benchmark)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(benchmark["run_seconds"])

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    results, traces = {}, []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            results[workload] = measure(workload, args, workdir / workload, table, traces)
        if traces:
            merge_traces(traces, args.trace_out)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    report(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
                       "trace": args.trace, "count": args.count, "workloads": results},
                      handle, indent=2)
    if args.workload:
        only = results[args.workload]
        metrics = {n: {"value": m["value"], "unit": m["unit"]} for n, m in only["metrics"].items()}
    else:
        metrics = {f"{w}/{n}": {"value": m["value"], "unit": m["unit"]}
                   for w, r in results.items() for n, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
