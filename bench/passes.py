"""One pass of one workload, in a process of its own.

    python bench/passes.py --workload NAME --pass untraced|traced|count \\
        --seed N --seconds S --workdir DIR [--setups K] [--min-rounds R]
        [--quick] [--trace-out FILE]

``bench/run.py`` starts this with ``PYTHONPATH`` pointing at the
checkout's ``src`` and ``PYTHONHASHSEED=0``. The pass prints its result as
one JSON object on the last line of standard output.

* ``untraced`` sets the workload up, runs whole rounds of ops until
  ``--seconds`` have passed, and at least ``--min-rounds``, with
  ``gc.collect()`` between rounds, outside the timed window, then sets it
  up again until it has ``--setups`` set-up times (their median is
  ``setup_s``). Nothing is installed; this pass gives the end-to-end
  metrics.
* ``traced`` sets up once and runs rounds the same way with a span
  wrapper around every layer entry point (see ``spans.py``); it reports
  where each op's time went.
* ``count`` runs one round under ``sys.setprofile`` and counts Python call
  events by the ``repro`` module of the callee: a deterministic proxy for
  the work each layer does.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

from spec import ROOT, spread

REPRO = str(ROOT / "src" / "repro") + os.sep

import repro  # noqa: E402

if not repro.__file__.startswith(REPRO):
    sys.exit(f"bench: imported repro from {repro.__file__}, not from {REPRO}")

import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

from repro.obs.metrics import get_global_metrics  # noqa: E402

#: ``repro.scheme`` modules charged to the expander layer
EXPANDER_MODULES = {"expander", "patterns", "template", "hygiene", "syntax"}
SCHEME_LAYERS = {"reader", "interpreter", "primitives", "compile_py", "instrument"}
TOP_LAYERS = {"core", "profiling", "pyast", "service", "analysis", "obs"}


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fastest(rounds: list[list[tuple]]) -> dict[tuple, float]:
    """Each op's fastest repetition across ``rounds``, keyed by
    (class, program, position in the round).

    Interference on a shared machine only ever slows an op down, and a
    burst of it rarely hits the same op in every round, so the fastest
    repetition is the estimate that repeats best from run to run.
    """
    best: dict[tuple, float] = {}
    for records in rounds:
        for position, (cls, _family, program, seconds, _ok) in enumerate(records):
            key = (cls, program, position)
            best[key] = min(best.get(key, math.inf), seconds)
    return best


def op_p50_ms(rounds: list[list[tuple]]) -> float:
    """Geometric mean over op classes of each class's median latency,
    where an op's latency is its fastest repetition."""
    by_class: dict[str, list[float]] = {}
    for (cls, _program, _position), seconds in fastest(rounds).items():
        by_class.setdefault(cls, []).append(seconds)
    return 1e3 * geomean([statistics.median(times) for times in by_class.values()])


def ops_per_s(rounds: list[list[tuple]]) -> float:
    """Ops per second of a round in which every op takes its fastest
    repetition: one slow stretch of a round does not sink the whole
    round's rate."""
    best = fastest(rounds)
    return len(best) / sum(best.values())


@contextmanager
def frozen_setup():
    """Keep what set-up allocated out of the collector's way.

    Set-up holds every system, program and artifact of the corpus: far
    more than one ``pgmp`` process does. Left in the collected heap, it
    would make every full collection scan it and charge that to whichever
    op triggered the collection.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class Pass:
    """Runs rounds of one workload and records each op's time and outcome."""

    def __init__(self, workload, recorder=None) -> None:
        self.workload = workload
        self.recorder = recorder
        #: per round: list of (cls, family, program, seconds, ok)
        self.rounds: list[list[tuple]] = []
        self.walls: list[float] = []
        self.failures: list[str] = []
        #: live objects after gc, after set-up and after each round
        self.objects: list[int] = []
        #: peak RSS once the minimum number of rounds has run: later rounds
        #: repeat the same ops, so only a leak would raise it further, and
        #: how many of those fit in the pass depends on the machine's speed
        self.rss_mb = 0.0

    def _record_failure(self, message: str) -> None:
        self.failures.append(message)
        print(message, file=sys.stderr)

    def run(self, seconds: float, min_rounds: int) -> None:
        with frozen_setup():
            self._rounds(seconds, min_rounds)

    def _rounds(self, seconds: float, min_rounds: int) -> None:
        self.objects.append(len(gc.get_objects()))
        started = time.perf_counter()
        while len(self.rounds) < min_rounds or time.perf_counter() - started < seconds:
            records = []
            round_started = time.perf_counter()
            for op in self.workload.ops():
                scope = self.recorder.operation(op.cls, op.family) if self.recorder else nullcontext()
                error = None
                with scope:
                    op_started = time.perf_counter()
                    try:
                        result = op.run()
                    except Exception:  # an op that raises counts as failed
                        result, error = None, traceback.format_exc()
                    elapsed = time.perf_counter() - op_started
                if error is None:
                    try:
                        op.check(result)
                    except CheckFailed as exc:
                        error = f"{op.cls}: {exc}"
                if error is not None:
                    self._record_failure(error)
                records.append((op.cls, op.family, op.program, elapsed, error is None))
            self.walls.append(time.perf_counter() - round_started)
            self.rounds.append(records)
            if len(self.rounds) == min_rounds:
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            gc.collect()
            self.objects.append(len(gc.get_objects()))

    @property
    def records(self) -> list[tuple]:
        return [record for records in self.rounds for record in records]

    def summary(self) -> dict:
        records = self.records
        return {
            "attempted": len(records),
            "failed": sum(not ok for *_, ok in records),
            "failures": self.failures[:5],
        }


def timed_setup(workload_cls, args, index: int):
    workload = workload_cls(args.seed, os.path.join(args.workdir, f"setup-{index}"), args.quick)
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - started


def untraced(workload_cls, args) -> dict:
    workload, first_setup = timed_setup(workload_cls, args, 0)
    measured = Pass(workload)
    try:
        measured.run(args.seconds, args.min_rounds)
        extras = workload.extra_metrics()
    finally:
        workload.close()
    # The other set-ups run after the rounds, so the pass's peak RSS
    # reflects one set-up.
    setups = [first_setup]
    for index in range(1, args.setups):
        workload, seconds = timed_setup(workload_cls, args, index)
        workload.close()
        setups.append(seconds)
    rounds = measured.rounds
    rates = [len(r) / wall for r, wall in zip(rounds, measured.walls)]
    # Growth of the live-object count per op, from the end of the first
    # round (so one-time warm-up allocations do not count) to the end.
    objects = measured.objects
    if len(rounds) >= 2:
        retained = (objects[-1] - objects[1]) / sum(len(r) for r in rounds[1:])
    else:
        retained = (objects[-1] - objects[0]) / len(rounds[0])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(rounds),
        "op_p50_ms": op_p50_ms(rounds),
        "peak_rss_mb": measured.rss_mb,
        "retained_objects_per_op": retained,
        **extras,
    }
    spreads = {
        "setup_s": spread(setups),
        "ops_per_s": spread(rates),
        "op_p50_ms": spread([op_p50_ms([r]) for r in rounds]),
    }
    return {**measured.summary(), "metrics": metrics, "spreads": spreads}


def traced(workload_cls, args) -> dict:
    workload = workload_cls(args.seed, os.path.join(args.workdir, "setup-0"), args.quick)
    workload.setup()
    recorder = spans.Recorder()
    workload.recorder = recorder
    measured = Pass(workload, recorder)
    fallbacks = get_global_metrics().counter("backend_fallbacks_total")
    try:
        with spans.installed(recorder):
            measured.run(args.seconds, args.min_rounds)
        fallbacks = get_global_metrics().counter("backend_fallbacks_total") - fallbacks
        plain = workload.plain_seconds()
    finally:
        workload.close()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(recorder.chrome_trace(), handle)

    records = measured.records
    self_times = recorder.self_times()
    flush = recorder.durations("service.flush")
    source_bytes = recorder.sizes("scheme.compile_py.codegen")
    op_seconds = [end - start for _cls, _family, start, end in recorder.ops]
    families = [family for _cls, family, _start, _end in recorder.ops]

    def layer_metrics(ops: list[int]) -> dict[str, float]:
        totals: dict[str, float] = {}
        family_ops: dict[str, int] = {}
        for i in ops:
            family_ops[families[i]] = family_ops.get(families[i], 0) + 1
            for name, seconds in self_times[i].items():
                totals[name] = totals.get(name, 0.0) + seconds
        metrics = {}
        for name, seconds in totals.items():
            if name.startswith("scheme.compile_py.run."):
                # per op of the span's own family
                count = family_ops[name.rsplit(".", 1)[1]]
            else:
                count = len(ops)
            metric = "service.wire" if name == "service.flush" else name
            metrics[f"{metric}.ms"] = 1e3 * seconds / count
        metrics["service.flush.ms"] = 1e3 * sum(flush[i] for i in ops) / len(ops)
        metrics["scheme.compile_py.python_source_bytes"] = sum(source_bytes[i] for i in ops) / len(ops)
        attributed = sum(sum(self_times[i].values()) for i in ops)
        metrics["unattributed.ms"] = 1e3 * (sum(op_seconds[i] for i in ops) - attributed) / len(ops)
        return metrics

    all_ops = list(range(len(recorder.ops)))
    metrics = layer_metrics(all_ops)
    metrics["scheme.compile_py.fallbacks_per_op"] = fallbacks / len(records)
    for mode in ("exact", "sampled"):
        ops = [i for i, r in enumerate(records) if r[0].endswith(f"/{mode}") and r[2] in plain]
        instrumented = sum(self_times[i].get(f"scheme.instrument.{mode}", 0.0) for i in ops)
        base = sum(plain[records[i][2]] for i in ops)
        if base:
            metrics[f"scheme.instrument.overhead_x.{mode}"] = instrumented / base
    per_round, first = [], 0
    for round_records in measured.rounds:
        per_round.append(layer_metrics(list(range(first, first + len(round_records)))))
        first += len(round_records)
    spreads = {name: spread([r.get(name, 0.0) for r in per_round]) for name in metrics}
    unattributed_share = (metrics["unattributed.ms"] / 1e3) / statistics.mean(op_seconds)
    return {
        **measured.summary(),
        "metrics": metrics,
        "spreads": spreads,
        "op_p50_ms": op_p50_ms(measured.rounds),
        "unattributed_share": unattributed_share,
    }


def _layer_of(filename: str, workdir: str) -> str | None:
    if filename.startswith("<pgmp-compiled") or filename.startswith(workdir):
        return "generated"
    if not filename.startswith(REPRO):
        return None
    parts = filename[len(REPRO):].split(os.sep)
    package = parts[0].removesuffix(".py")
    if package == "scheme":
        module = parts[1].removesuffix(".py")
        if module in EXPANDER_MODULES:
            return "scheme.expander"
        return f"scheme.{module}" if module in SCHEME_LAYERS else "scheme.other"
    return package if package in TOP_LAYERS else "other"


def count(workload_cls, args) -> dict:
    workload = workload_cls(args.seed, os.path.join(args.workdir, "setup-0"), args.quick)
    workload.setup()
    ops = workload.ops()
    calls: dict = {}

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code] = calls.get(code, 0) + 1

    results = []
    # Collection would run finalizers at points that depend on other
    # threads' allocations; with it off the main thread's calls repeat.
    with frozen_setup():
        gc.disable()
        sys.setprofile(profiler)
        try:
            for op in ops:
                results.append(op.run())
        finally:
            sys.setprofile(None)
            gc.enable()
    failures = []
    try:
        for op, result in zip(ops, results):
            try:
                op.check(result)
            except CheckFailed as exc:
                failures.append(f"{op.cls}: {exc}")
    finally:
        workload.close()
    workdir = os.path.abspath(args.workdir)
    layers: dict[str, int] = {}
    for code, n in calls.items():
        layer = _layer_of(code.co_filename, workdir)
        if layer is not None:
            layers[layer] = layers.get(layer, 0) + n
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": {f"calls.{layer}": n / len(ops) for layer, n in layers.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pass", dest="kind", required=True, choices=["untraced", "traced", "count"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    args.workdir = os.path.abspath(args.workdir)
    run = {"untraced": untraced, "traced": traced, "count": count}[args.kind]
    result = run(WORKLOADS[args.workload], args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
