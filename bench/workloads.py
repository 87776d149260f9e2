"""The four workloads: what one op is, its set-up, and its oracle.

Every workload is a closed loop driven by one caller thread: the next op
starts when the previous one returned. ``setup()`` builds everything an op
needs and records each op's expected result; ``ops()`` returns the next
round, the same sequence of rounds in every run; ``Op.check`` compares a
result with its oracle and raises :class:`CheckFailed` on a mismatch. The
checks never consult the component under test for the expected answer.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import corpus

from repro.casestudies import (
    BOOLEAN_REORDER_LIBRARY,
    CASE_LIBRARY,
    EXCLUSIVE_COND_LIBRARY,
    IF_R_LIBRARY,
    INLINER_LIBRARY,
    OBJECT_SYSTEM_LIBRARY,
    PROFILED_LIST_LIBRARY,
    PROFILED_SEQUENCE_LIBRARY,
    PROFILED_VECTOR_LIBRARY,
)
from repro.casestudies.receiver_class import RECEIVER_CLASS_LIBRARY
from repro.core.counters import CounterSet
from repro.core.database import ProfileDatabase, source_fingerprint
from repro.pyast.system import PyAstSystem
from repro.scheme.core_forms import unparse_string
from repro.scheme.datum import Symbol, scheme_list, write_datum
from repro.scheme.instrument import ProfileMode
from repro.scheme.pipeline import SchemeSystem
from repro.service import (
    GenerationJournal,
    ProfileAggregator,
    ProfileShipper,
    RecompileController,
    RolloutGuard,
    ServiceMetrics,
    scheme_canary,
    scheme_recompiler,
    scheme_static_verifier,
)
from repro.tools import cli

#: the libraries behind each ``pgmp --library`` name
LIBRARIES = {
    "if-r": [(IF_R_LIBRARY, "if-r.ss")],
    "case": [(EXCLUSIVE_COND_LIBRARY, "exclusive-cond.ss"), (CASE_LIBRARY, "case.ss")],
    "oop": [
        (OBJECT_SYSTEM_LIBRARY, "object-system.ss"),
        (RECEIVER_CLASS_LIBRARY, "receiver-class.ss"),
    ],
    "datastructs": [
        (PROFILED_LIST_LIBRARY, "profiled-list.ss"),
        (PROFILED_VECTOR_LIBRARY, "profiled-vector.ss"),
        (PROFILED_SEQUENCE_LIBRARY, "profiled-seq.ss"),
    ],
    "boolean": [(BOOLEAN_REORDER_LIBRARY, "boolean-reorder.ss")],
    "inliner": [(INLINER_LIBRARY, "inliner.ss")],
}

SAMPLE_STRIDE = 10


class CheckFailed(Exception):
    """An op's result disagreed with its oracle."""


@dataclass
class Op:
    #: op class: a family, or a (family, mode) pair
    cls: str
    #: case-study family, for the family-scoped layer metrics
    family: str | None
    run: Callable[[], Any]
    check: Callable[[Any], None]
    #: the corpus program the op works on, if any
    program: str = ""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, quick: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.programs = corpus.generate(seed, corpus.QUICK_SITES if quick else corpus.SITES)
        self._ops: list[Op] = []
        #: set by the traced pass so bench code can open its own spans
        self.recorder = None

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        return self._ops

    def close(self) -> None:
        pass

    def extra_metrics(self) -> dict[str, float]:
        """Workload-specific metrics over the ops run since set-up."""
        return {}

    def plain_seconds(self) -> dict[str, float]:
        """Uninstrumented interpreter run time per program, the base of the
        instrumentation overhead ratios (only ``profile`` instruments)."""
        return {}

    # -- shared set-up helpers -------------------------------------------------

    def _program_path(self, program: corpus.Program) -> str:
        return _write(os.path.join(self.workdir, "programs", f"{program.name}.ss"), program.source)

    def _library_args(self, program: corpus.Program) -> list[str]:
        """``--library`` arguments: the family, then the program's classes."""
        args = ["--library", program.family]
        if program.library:
            path = os.path.join(self.workdir, "programs", f"{program.name}-classes.ss")
            args += ["--library", _write(path, program.library)]
        return args

    def _system(self, program: corpus.Program) -> SchemeSystem:
        system = SchemeSystem(backend="interp")
        for source, filename in LIBRARIES[program.family]:
            system.load_library(source, filename)
        if program.library:
            system.load_library(program.library, f"{program.name}-classes.ss")
        return system


class Optimize(Workload):
    """``pgmp optimize`` in process, one corpus program per op."""

    name = "optimize"

    def setup(self) -> None:
        for program in self.programs:
            path = self._program_path(program)
            profile = os.path.join(self.workdir, "profiles", f"{program.name}.json")
            os.makedirs(os.path.dirname(profile), exist_ok=True)
            system = self._system(program)
            system.profile_run(program.source, path)
            system.store_profile(profile)
            # The fixed-point oracle: re-expanding against the recorded
            # profile, in this process, must print what the CLI prints.
            expected = unparse_string(system.compile(program.source, path)) + "\n"
            argv = ["optimize", path, *self._library_args(program), "--profile-file", profile]
            self._ops.append(Op(program.family, program.family, _optimize(argv), _same_stdout(expected), program.name))


def _optimize(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


def _same_stdout(expected: str) -> Callable[[tuple[int, str]], None]:
    def check(result: tuple[int, str]) -> None:
        code, stdout = result
        _expect(code == 0, f"pgmp optimize exited {code}")
        _expect(stdout == expected, "expansion differs from the set-up recording")

    return check


class RunOptimized(Workload):
    """One compiled run of one optimized corpus program per op."""

    name = "run-optimized"
    #: runs of each program per round
    REPEATS = 5

    def setup(self) -> None:
        for program in self.programs:
            path = self._program_path(program)
            # Libraries load on the interpreter, as under `pgmp run
            # --backend compile`; only the program itself is compiled.
            system = self._system(program)
            # The oracle: the tree-walking interpreter on the unoptimized
            # expansion (the instrumented profiling run is exactly that).
            reference = system.profile_run(program.source, path)
            expected = (write_datum(reference.value), reference.output)
            optimized = system.compile(program.source, path)
            op = Op(program.family, program.family, _compiled_run(system, optimized), _same_run(expected), program.name)
            op.check(op.run())  # compiles the artifact
            self._ops.append(op)
        self._ops = self._ops * (1 if self.quick else self.REPEATS)


def _compiled_run(system: SchemeSystem, program: Any) -> Callable[[], Any]:
    return lambda: system.run(program, backend="compile")


def _same_run(expected: tuple[str, str]) -> Callable[[Any], None]:
    def check(result: Any) -> None:
        _expect(write_datum(result.value) == expected[0], "value differs from the interpreter's")
        _expect(result.output == expected[1], "output differs from the interpreter's")

    return check


class Profile(Workload):
    """One ``pgmp profile`` equivalent per op, plus pyast collection.

    A round profiles every Scheme program and runs every pyast function in
    both modes, exact and sampled. Every round does the same work: the seed
    decides which program of a family is the largest, so a round covering
    only some (program, mode) pairs would do more or less work by seed.
    """

    name = "profile"

    def setup(self) -> None:
        self.profile_dir = os.path.join(self.workdir, "profiles")
        os.makedirs(self.profile_dir, exist_ok=True)
        #: program → (system, unoptimized program), for uninstrumented runs
        self._plain = {}
        for program in self.programs:
            path = self._program_path(program)
            system = self._system(program)
            reference = system.profile_run(program.source, path)
            total = reference.counters.total()
            self._plain[program.name] = (system, reference.program)
            profile = os.path.join(self.profile_dir, f"{program.name}.json")
            for mode in ("exact", "sampled"):
                self._ops.append(Op(
                    f"{program.family}/{mode}",
                    program.family,
                    self._scheme_op(system, program.source, path, profile, mode),
                    self._collected(mode, total),
                    program.name,
                ))
        module_path = _write(os.path.join(self.workdir, "pyast_corpus.py"), corpus.pyast_module(self.seed))
        spec = importlib.util.spec_from_file_location("pyast_corpus", module_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        pyast = PyAstSystem()
        for kind in corpus.PYAST_KINDS:
            for index in range(2):
                fn = getattr(module, f"{kind}_{index}")
                inputs = corpus.pyast_inputs(self.seed, kind, index)
                total = pyast.profile(pyast.expand(fn), inputs).total()
                for mode in ("exact", "sampled"):
                    self._ops.append(Op(
                        f"pyast-{kind}/{mode}",
                        None,
                        _pyast_op(pyast, fn, inputs, mode),
                        self._collected(mode, total),
                        fn.__name__,
                    ))

    def plain_seconds(self) -> dict[str, float]:
        """Median uninstrumented interpreter run of each program: the base
        of the instrumentation overhead ratios."""
        medians = {}
        for name, (system, program) in self._plain.items():
            times = []
            for _ in range(3):
                started = time.perf_counter()
                system.run(program, backend="interp")
                times.append(time.perf_counter() - started)
            medians[name] = statistics.median(times)
        return medians

    def _scheme_op(self, system, source, path, profile, mode) -> Callable[[], Any]:
        profile_mode = ProfileMode.SAMPLE if mode == "sampled" else ProfileMode.EXPR
        stride = SAMPLE_STRIDE if mode == "sampled" else None

        def run():
            system.profile_db = ProfileDatabase()
            result = system.profile_run(source, path, mode=profile_mode, sample_stride=stride)
            system.store_profile(profile)
            return result.counters.total(), system.profile_db

        return run

    def _collected(self, mode: str, exact_total: int) -> Callable[[Any], None]:
        def check(result: Any) -> None:
            total, db = result
            confidence = db.dataset_confidences()[0]
            if mode == "exact":
                _expect(total == exact_total, f"exact total {total} != {exact_total}")
                _expect(confidence is None or not confidence.is_sampled, "exact data set marked sampled")
            else:
                _expect(confidence is not None and confidence.is_sampled, "sampled data set has no confidence record")
            debris = [n for n in os.listdir(self.profile_dir) if n.endswith((".lock", ".tmp"))]
            _expect(not debris, f"store left {debris}")

        return check


def _pyast_op(system: PyAstSystem, fn, inputs, mode: str) -> Callable[[], Any]:
    def run():
        system.profile_db = ProfileDatabase()
        expanded = system.expand(fn)
        if mode == "sampled":
            counters = system.profile_sampled(expanded, inputs, sample_stride=SAMPLE_STRIDE, engine="gate")
        else:
            counters = system.profile(expanded, inputs)
        return counters.total(), system.profile_db

    return run


@dataclass
class Cycle:
    flush_seconds: list[float]
    to_live_seconds: float
    recompiled: bool


class ServiceLoop(Workload):
    """One profile → recompile → swap cycle of the profiling service per op.

    Two workers, each with its own counter set, shipper and TCP connection,
    take turns running the live program instrumented and flushing; then the
    aggregator checkpoints, merges, and the controller recompiles through
    the rollout guard. The drift threshold is 0, so every tick swaps.
    """

    name = "service-loop"
    RUNS_PER_CYCLE = 8
    CYCLES_PER_ROUND = 4
    INPUT = Symbol("bench-input")

    def setup(self) -> None:
        self.program_path = _write(os.path.join(self.workdir, "service.ss"), corpus.service_program(self.seed))
        source = corpus.service_program(self.seed)
        self.system = SchemeSystem(backend="compile")
        for library, filename in LIBRARIES["case"]:
            self.system.load_library(library, filename)
        self.metrics = ServiceMetrics()
        self.aggregator = ProfileAggregator(
            "127.0.0.1:0",
            checkpoint_path=os.path.join(self.workdir, "checkpoint.json"),
            state_path=os.path.join(self.workdir, "state.json"),
            # The bench ticks the service itself; the timer never fires.
            checkpoint_interval=3600.0,
            metrics=self.metrics,
        ).start()
        fingerprints = {self.program_path: source_fingerprint(source)}
        self.counters = [CounterSet(name="worker-a"), CounterSet(name="worker-b")]
        self.shippers = [
            ProfileShipper(
                counters,
                self.aggregator.address,
                dataset=counters.name,
                fingerprints=fingerprints,
                shipper_id=counters.name,
                policy="strict",
            )
            for counters in self.counters
        ]
        self.flushes = [0, 0]
        guard = RolloutGuard(
            validator=scheme_canary(self.system),
            static_verifier=scheme_static_verifier(),
            journal=GenerationJournal(os.path.join(self.workdir, "journal")),
            metrics=self.metrics,
        )
        self.controller = RecompileController(
            scheme_recompiler(self.system, source, self.program_path),
            threshold=0.0,
            metrics=self.metrics,
            guard=guard,
        )
        self.live = self.system.compile(source, self.program_path)
        self.cycle = 0
        self.cycles: list[Cycle] = []
        # Set-up ends with the service serving its first optimized
        # generation, connections open.
        self._check_cycle(self._run_cycle())
        self.cycles.clear()
        cycles = 2 if self.quick else self.CYCLES_PER_ROUND
        self._ops = [Op("cycle", "case", self._run_cycle, self._check_cycle)] * cycles

    def _worker_span(self):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span("service.worker_run")

    def _run_cycle(self) -> Cycle:
        flush_seconds = []
        first_flush = None
        for run in range(self.RUNS_PER_CYCLE):
            worker = run % 2
            batch = corpus.service_batch(self.seed, self.cycle, run)
            self.system.runtime_env.define(self.INPUT, scheme_list(*batch))
            with self._worker_span():
                self.system.run(
                    self.live,
                    instrument=ProfileMode.EXPR,
                    counters=self.counters[worker],
                    backend="compile",
                )
            started = time.perf_counter()
            if first_flush is None:
                first_flush = started
            if self.shippers[worker].flush() is not None:
                self.flushes[worker] += 1
            flush_seconds.append(time.perf_counter() - started)
        self.aggregator.checkpoint()
        decision = self.controller.maybe_recompile(self.aggregator.merged_database())
        live_at = time.perf_counter()
        self.live = self.controller.artifact()
        self.cycle += 1
        cycle = Cycle(flush_seconds, live_at - first_flush, decision.recompiled)
        self.cycles.append(cycle)
        return cycle

    def _check_cycle(self, result: Cycle) -> None:
        _expect(result.recompiled, "controller tick did not swap")
        for shipper, flushes in zip(self.shippers, self.flushes):
            _expect(shipper.shipped_deltas == flushes, f"{shipper.shipper_id}: {flushes} flushes, {shipper.shipped_deltas} applied")
            _expect(
                shipper.duplicate_deltas + shipper.quarantined_deltas + shipper.rejected_deltas
                + shipper.spilled_deltas + shipper.dropped_deltas == 0,
                f"{shipper.shipper_id}: a delta was not applied",
            )
        shipped = sum(counters.total() for counters in self.counters)
        _expect(self.aggregator.total_counts() == shipped, "aggregated totals differ from the counts shipped")

    def extra_metrics(self) -> dict[str, float]:
        flushes = sorted(s for cycle in self.cycles for s in cycle.flush_seconds)
        to_live = sorted(cycle.to_live_seconds for cycle in self.cycles)
        counters = self.metrics.snapshot()["counters"]
        applied = counters.get("deltas_applied_total", 0)
        return {
            "profile_to_live_p50_ms": 1e3 * statistics.median(to_live),
            "profile_to_live_p90_ms": 1e3 * _percentile(to_live, 0.90),
            "flush_p95_ms": 1e3 * _percentile(flushes, 0.95),
            "ingest_deltas_per_s": len(flushes) / sum(flushes),
            "service.bytes_per_delta": counters.get("bytes_ingested_total", 0) / max(applied, 1),
            "service.swap_ratio": sum(cycle.recompiled for cycle in self.cycles) / len(self.cycles),
        }

    def close(self) -> None:
        for shipper in self.shippers:
            shipper.close()
        self.aggregator.stop()


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


WORKLOADS = {w.name: w for w in (Optimize, RunOptimized, Profile, ServiceLoop)}
