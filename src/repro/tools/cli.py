"""``pgmp`` — the command-line front end to the Scheme substrate.

Subcommands mirror the paper's workflow:

* ``pgmp run FILE``       — compile (with any stored profile) and run
* ``pgmp expand FILE``    — print the expanded core program
* ``pgmp profile FILE``   — run instrumented and store profile weights
* ``pgmp optimize FILE``  — load a profile, print the optimized expansion
* ``pgmp workflow FILE``  — run the Section-4.3 three-pass protocol
* ``pgmp disasm FILE``    — print basic-block bytecode
* ``pgmp report FILE``    — render a stored profile over the source
* ``pgmp lint FILE...``   — static soundness & profile-hygiene analysis
* ``pgmp serve``          — run the continuous-profiling aggregator
* ``pgmp ship FILE``      — run instrumented, streaming deltas to ``serve``
* ``pgmp rollback``       — force a running ``serve`` back one generation
* ``pgmp trace FILE``     — record decision provenance during expansion
* ``pgmp explain FILE``   — why the expansion looks the way it does at a line

``pgmp --log-level LEVEL <command>`` turns on stdlib logging for the whole
``repro`` hierarchy (off by default).

Built-in case-study libraries are loadable by name via ``--library``:
``if-r``, ``case``, ``oop``, ``datastructs``, ``boolean``, ``inliner``, or a
path to a Scheme file.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.database import ProfileDatabase
from repro.core.errors import PgmpError, ProfileFormatError
from repro.core.policy import DegradationLog, ProfilePolicy, degrade
from repro.profiling.sampler import _validated_stride
from repro.scheme.core_forms import unparse_string
from repro.scheme.datum import write_datum
from repro.scheme.instrument import ProfileMode
from repro.scheme.pipeline import SchemeSystem

__all__ = ["main", "build_parser"]

_BUILTIN_LIBRARIES: dict[str, list[tuple[str, str]]] = {}


def _builtin_libraries() -> dict[str, list[tuple[str, str]]]:
    if not _BUILTIN_LIBRARIES:
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

        _BUILTIN_LIBRARIES.update(
            {
                "if-r": [(IF_R_LIBRARY, "if-r.ss")],
                "case": [
                    (EXCLUSIVE_COND_LIBRARY, "exclusive-cond.ss"),
                    (CASE_LIBRARY, "case.ss"),
                ],
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
        )
    return _BUILTIN_LIBRARIES


def _resolve_library_sources(names: list[str]) -> list[tuple[str, str]]:
    """``--library`` values to (source, filename) pairs (builtin or path)."""
    pairs: list[tuple[str, str]] = []
    for name in names:
        builtin = _builtin_libraries().get(name)
        if builtin is not None:
            pairs.extend(builtin)
        else:
            with open(name, "r", encoding="utf-8") as handle:
                pairs.append((handle.read(), name))
    return pairs


def _load_libraries(system: SchemeSystem, names: list[str]) -> list[str]:
    """Install libraries; returns their sources (for the workflow command)."""
    sources: list[str] = []
    for source, filename in _resolve_library_sources(names):
        system.load_library(source, filename)
        sources.append(source)
    return sources


def _load_profile_database(
    path: str,
    policy: ProfilePolicy | str,
    sources: dict[str, str] | None = None,
    degradations: DegradationLog | None = None,
) -> ProfileDatabase:
    """Load a stored profile honoring ``--profile-policy``.

    The one loading path shared by every subcommand that reads a profile
    file (``report``, ``lint``, and everything routed through
    :func:`_make_system`): strict raises on malformed or stale data,
    warn/ignore quarantine bad data sets (or fall back to an empty
    database) through the standard :func:`repro.core.policy.degrade`
    choke point.
    """
    policy = ProfilePolicy.coerce(policy)
    if policy is ProfilePolicy.STRICT:
        return ProfileDatabase.load(path, sources=sources)
    try:
        db = ProfileDatabase.load(path, on_error="skip", sources=sources)
    except (ProfileFormatError, OSError) as exc:
        degrade(
            "load-profile",
            f"{path}: {exc}",
            "continuing with an empty profile database (unoptimized)",
            policy=policy,
            log=degradations,
        )
        return ProfileDatabase()
    for entry in db.quarantine:
        degrade(
            "load-profile",
            f"{path}: {entry}",
            "quarantined the data set; loaded the rest",
            policy=policy,
            log=degradations,
        )
    return db


def _read_program(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _mode(name: str) -> ProfileMode:
    return ProfileMode.CALL if name == "call" else ProfileMode.EXPR


def _sample_rate(text: str) -> int:
    """``--sample-rate N``: a stride of at least 1, else a usage error."""
    try:
        return _validated_stride(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.logs import LOG_LEVELS

    parser = argparse.ArgumentParser(
        prog="pgmp",
        description="Profile-guided meta-programming (PLDI 2015 reproduction).",
    )
    parser.add_argument(
        "--log-level",
        choices=list(LOG_LEVELS),
        default=None,
        help="enable stdlib logging for the repro.* hierarchy on stderr "
        "(default: logging stays off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="Scheme source file ('-' for stdin)")
        p.add_argument(
            "--library",
            action="append",
            default=[],
            help="library to preload: if-r, case, oop, datastructs, or a path",
        )
        p.add_argument(
            "--profile-file",
            default=None,
            help="stored profile to load before compiling",
        )
        p.add_argument(
            "--simplify",
            action="store_true",
            help="contract immediate beta-redexes after expansion",
        )
        p.add_argument(
            "--profile-policy",
            choices=["strict", "warn", "ignore"],
            default="strict",
            help="what to do when profile data is missing, stale, or corrupt: "
            "strict fails the command, warn degrades with a message on "
            "stderr, ignore degrades silently (default: strict)",
        )
        p.add_argument(
            "--backend",
            choices=["interp", "compile"],
            default=None,
            help="execution backend: interp (the closure-compiling "
            "interpreter) or compile (translate the expansion to Python; "
            "identical semantics, counters, and errors). Default: "
            "$PGMP_BACKEND or interp — except pgmp optimize, which "
            "defaults to compile",
        )

    def sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile-mode",
            choices=["exact", "sampled"],
            default="exact",
            help="profile collection mode: exact (full instrumentation) or "
            "sampled (the low-overhead sampling profiler; recorded data "
            "sets carry a per-dataset confidence record). Default: exact",
        )
        p.add_argument(
            "--sample-rate",
            type=_sample_rate,
            default=10,
            metavar="N",
            help="sampling stride for --profile-mode sampled: one event in "
            "N is observed (one *run* in N, for ship) and counts are scaled "
            "back up; N >= 1, and 1 collects exactly (default: 10)",
        )

    p_run = sub.add_parser("run", help="compile and run a program")
    common(p_run)
    sampling(p_run)
    p_run.add_argument(
        "--instrument",
        choices=["expr", "call"],
        default=None,
        help="run instrumented and print counter totals",
    )

    p_expand = sub.add_parser("expand", help="print the expanded core program")
    common(p_expand)

    p_profile = sub.add_parser("profile", help="run instrumented; store weights")
    common(p_profile)
    sampling(p_profile)
    p_profile.add_argument("--out", required=True, help="profile file to write")
    p_profile.add_argument("--mode", choices=["expr", "call"], default="expr")

    p_opt = sub.add_parser("optimize", help="print the profile-optimized expansion")
    common(p_opt)
    p_opt.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for on-disk compiled artifacts; a warm cache "
        "(same sources, same profile) re-expands nothing, even across "
        "processes (compile backend only)",
    )

    p_wf = sub.add_parser("workflow", help="run the three-pass source+block PGO")
    common(p_wf)
    p_wf.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for pass-1/pass-2 checkpoints (enables resume)",
    )
    p_wf.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing checkpoints; re-run every pass",
    )
    p_wf.add_argument(
        "--pass-budget",
        type=int,
        default=None,
        metavar="STEPS",
        help="step budget (interpreter/VM fuel) for each representative run",
    )

    p_dis = sub.add_parser("disasm", help="print basic-block bytecode")
    common(p_dis)

    p_trace = sub.add_parser(
        "trace", help="record decision provenance while expanding a program"
    )
    common(p_trace)
    p_trace.add_argument(
        "--format",
        choices=["text", "json", "chrome"],
        default="text",
        help="trace output format (default: text); json is the canonical "
        "versioned document (readable by report --trace), chrome is the "
        "trace_event format loadable in Perfetto",
    )
    p_trace.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the trace to FILE instead of stdout",
    )

    p_explain = sub.add_parser(
        "explain",
        help="explain the profile-guided decisions at one source line",
    )
    common(p_explain)
    p_explain.add_argument(
        "--at",
        required=True,
        metavar="FILE:LINE",
        help="the source anchor to explain (e.g. prog.ss:12)",
    )

    p_rep = sub.add_parser("report", help="render a stored profile")
    common(p_rep)
    p_rep.add_argument("--top", type=int, default=10, help="hottest-N table size")
    p_rep.add_argument(
        "--histogram", action="store_true", help="also print a weight histogram"
    )
    p_rep.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report output format (default: text); json is versioned and "
        "machine-readable, like pgmp lint --format json",
    )
    p_rep.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also join a stored pgmp-trace JSON document (pgmp trace "
        "--format json) against the profile: which decisions the recorded "
        "weights drove, and whether those weights have since drifted",
    )

    p_serve = sub.add_parser(
        "serve", help="run the continuous-profiling aggregation service"
    )
    p_serve.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="address to accept shippers on: host:port (port 0 = any free "
        "port, reported on stderr) or unix:/path (default: 127.0.0.1:0)",
    )
    p_serve.add_argument(
        "--checkpoint",
        default=None,
        help="profile file to checkpoint the merged weights into "
        "(readable by report/optimize/workflow)",
    )
    p_serve.add_argument(
        "--state",
        default=None,
        help="private state file (raw counts + delta ledger) enabling "
        "exact resume after a restart",
    )
    p_serve.add_argument(
        "--checkpoint-interval",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how often to checkpoint and evaluate drift (default: 10)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve plaintext /metrics and /healthz on 127.0.0.1:PORT",
    )
    p_serve.add_argument(
        "--optimize",
        default=None,
        metavar="FILE",
        help="Scheme program to re-expand when the merged weights drift; "
        "enables the online recompilation controller",
    )
    p_serve.add_argument(
        "--library",
        action="append",
        default=[],
        help="library to preload for --optimize: if-r, case, oop, "
        "datastructs, boolean, inliner, or a path",
    )
    p_serve.add_argument(
        "--drift-threshold",
        type=float,
        default=0.05,
        metavar="L_INF",
        help="recompile when any merged weight moved by more than this "
        "(L-infinity distance, default: 0.05)",
    )
    p_serve.add_argument(
        "--profile-policy",
        choices=["strict", "warn", "ignore"],
        default="warn",
        help="degradation policy for bad deltas, unwritable checkpoints, "
        "and failed recompiles (default: warn — a profile service should "
        "log and keep serving)",
    )
    p_serve.add_argument(
        "--read-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-connection read timeout: a client that takes longer "
        "than this to send a frame is dropped (0 = never, default: 30)",
    )
    p_serve.add_argument(
        "--no-rollout-guard",
        action="store_true",
        help="swap recompiled artifacts without canary validation, "
        "journaling, or the circuit breaker (the pre-guard behavior)",
    )
    p_serve.add_argument(
        "--canary-probes",
        action="append",
        default=[],
        metavar="FILE",
        help="extra Scheme programs the pre-swap canary battery runs "
        "differentially (compiled vs interpreter); may repeat. The "
        "--optimize program itself is always probed",
    )
    p_serve.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="directory for the fsynced generation journal (profile "
        "snapshots of the last --max-generations rollouts), enabling "
        "rollback and crash resume; default: in-memory only",
    )
    p_serve.add_argument(
        "--rollback-window",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="post-swap watch window: error-budget breaches observed "
        "within it trigger automatic rollback (default: 30)",
    )
    p_serve.add_argument(
        "--max-generations",
        type=int,
        default=5,
        metavar="N",
        help="journaled generations kept for rollback (default: 5)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run a supervised local fleet: N shard aggregators (each a "
        "subprocess with its own WAL and resumable state) uplinking into "
        "a root merger that owns the checkpoint and the controller; "
        "crashed shards are restarted in place (default: 0 = the single "
        "aggregator)",
    )
    p_serve.add_argument(
        "--fleet-data-dir",
        default="pgmp-fleet",
        metavar="DIR",
        help="working directory for --shards fleets: per-shard state "
        "files and WALs plus the root's state (default: pgmp-fleet)",
    )
    p_serve.add_argument(
        "--fleet-role",
        choices=["shard"],
        default=None,
        help="internal: run as one fleet shard (spawned by the --shards "
        "supervisor; requires --shard-id and --uplink)",
    )
    p_serve.add_argument(
        "--shard-id",
        default=None,
        help="internal: this shard's stable identity within the fleet",
    )
    p_serve.add_argument(
        "--uplink",
        default=None,
        metavar="ADDR",
        help="internal: the root merger address this shard uplinks to",
    )
    p_serve.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="internal: write-ahead-log directory making shard acks "
        "durable across crashes",
    )
    p_serve.add_argument(
        "--address-file",
        default=None,
        metavar="PATH",
        help="internal: write the bound listen address to this file "
        "once serving (the supervisor reads it back)",
    )

    p_rollback = sub.add_parser(
        "rollback",
        help="force a running pgmp serve to roll back one generation",
    )
    p_rollback.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help="aggregator address: host:port or unix:/path",
    )
    p_rollback.add_argument(
        "--reason",
        default="manual rollback (pgmp rollback)",
        help="reason recorded in the decision log and the quarantine",
    )
    p_rollback.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="connect/read timeout (default: 5)",
    )

    p_ship = sub.add_parser(
        "ship", help="run a program instrumented, shipping profile deltas"
    )
    sampling(p_ship)
    p_ship.add_argument("file", help="Scheme source file ('-' for stdin)")
    p_ship.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help="aggregator address: host:port or unix:/path",
    )
    p_ship.add_argument(
        "--library",
        action="append",
        default=[],
        help="library to preload: if-r, case, oop, datastructs, or a path",
    )
    p_ship.add_argument(
        "--mode", choices=["expr", "call"], default="expr",
        help="instrumentation mode (default: expr)",
    )
    p_ship.add_argument(
        "--runs", type=int, default=1, help="instrumented runs to execute"
    )
    p_ship.add_argument(
        "--dataset",
        default=None,
        help="data-set name for the shipped deltas (default: the file name)",
    )
    p_ship.add_argument(
        "--shipper-id",
        default=None,
        help="stable shipper identity (default: host-pid-random)",
    )
    p_ship.add_argument(
        "--spill",
        default=None,
        metavar="PATH",
        help="spill undeliverable deltas to this file and replay them "
        "on reconnect",
    )
    p_ship.add_argument(
        "--profile-policy",
        choices=["strict", "warn", "ignore"],
        default="warn",
        help="what to do when deltas cannot be delivered (default: warn)",
    )
    p_ship.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="connect/read timeout for the aggregator link (default: 5)",
    )
    p_ship.add_argument(
        "--fleet",
        action="store_true",
        help="treat --connect as a fleet root: fetch the shard ring from "
        "it and ship each delta to the shard owning its profile points "
        "(--spill becomes a directory, one spill file per shard)",
    )

    p_lint = sub.add_parser(
        "lint", help="static soundness & profile-hygiene analysis"
    )
    p_lint.add_argument(
        "files",
        nargs="+",
        help="Scheme or Python files to analyze; directories recurse "
        "over *.py and Scheme files",
    )
    p_lint.add_argument(
        "--library",
        action="append",
        default=[],
        help="library to preload: if-r, case, oop, datastructs, or a path "
        "(enables the expansion-dependent passes for Scheme files)",
    )
    p_lint.add_argument(
        "--profile-file",
        default=None,
        help="stored profile to check for coverage and staleness",
    )
    p_lint.add_argument(
        "--profile-policy",
        choices=["strict", "warn", "ignore"],
        default="strict",
        help="policy used while loading the profile and expanding programs",
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="diagnostic output format (default: text)",
    )
    p_lint.add_argument(
        "--severity",
        choices=["info", "warning", "error"],
        default="warning",
        help="minimum severity to report (default: warning); the exit code "
        "reflects errors regardless",
    )
    p_lint.add_argument(
        "--verify-artifacts",
        action="store_true",
        help="additionally compile each program and run static translation "
        "validation (the PGMP5xx passes of `pgmp verify`) over every "
        "artifact flavor",
    )

    p_verify = sub.add_parser(
        "verify",
        help="static translation validation of compiled artifacts (PGMP5xx)",
    )
    p_verify.add_argument(
        "files",
        nargs="*",
        help="Scheme or Python files whose compiled artifacts to verify; "
        "directories recurse over *.py and Scheme files",
    )
    p_verify.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="also verify every cached artifact module in DIR (an "
        "ArtifactCache directory)",
    )
    p_verify.add_argument(
        "--library",
        action="append",
        default=[],
        help="library to preload: if-r, case, oop, datastructs, or a path",
    )
    p_verify.add_argument(
        "--profile-file",
        default=None,
        help="stored profile to expand against (a different profile can "
        "pick different expansions, hence different artifacts)",
    )
    p_verify.add_argument(
        "--profile-policy",
        choices=["strict", "warn", "ignore"],
        default="strict",
        help="policy used while loading the profile and expanding programs",
    )
    p_verify.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="diagnostic output format (default: text)",
    )
    p_verify.add_argument(
        "--severity",
        choices=["info", "warning", "error"],
        default="info",
        help="minimum severity to report (default: info, so PGMP506 "
        "interpreter fallbacks are visible); the exit code reflects "
        "errors regardless",
    )

    return parser


def _make_system(
    args: argparse.Namespace, source: str | None = None
) -> tuple[SchemeSystem, list[str]]:
    system = SchemeSystem(policy=args.profile_policy)
    sources = _load_libraries(system, args.library)
    if args.profile_file:
        # Hand the current program text over for staleness detection: a
        # profile collected against an older version of args.file is stale.
        staleness = {args.file: source} if source is not None else None
        system.profile_db = _load_profile_database(
            args.profile_file, system.policy, staleness, system.degradations
        )
    return system, sources


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths, render_json, render_text

    db = None
    if args.profile_file:
        # No `sources` at load time: lint reports staleness as PGMP402
        # diagnostics instead of refusing to load the profile.
        db = _load_profile_database(args.profile_file, args.profile_policy)
    library_sources = _resolve_library_sources(args.library)
    report = lint_paths(
        args.files,
        library_sources=library_sources,
        db=db,
        policy=args.profile_policy,
    )
    if args.verify_artifacts:
        from repro.analysis import verify_paths

        report.extend(
            verify_paths(
                args.files,
                library_sources=library_sources,
                db=db,
                policy=args.profile_policy,
            )
        )
    if args.format == "json":
        print(render_json(report, args.severity))
    else:
        print(render_text(report, args.severity))
    return 1 if report.errors() else 0


def _run_verify(args: argparse.Namespace) -> int:
    from repro.analysis import (
        render_json,
        render_text,
        verify_cache_dir,
        verify_paths,
    )

    if not args.files and args.cache_dir is None:
        print(
            "pgmp verify: nothing to verify (pass files and/or --cache-dir)",
            file=sys.stderr,
        )
        return 2
    db = None
    if args.profile_file:
        db = _load_profile_database(args.profile_file, args.profile_policy)
    report = verify_paths(
        args.files,
        library_sources=_resolve_library_sources(args.library),
        db=db,
        policy=args.profile_policy,
    )
    if args.cache_dir is not None:
        report.extend(verify_cache_dir(args.cache_dir))
    if args.format == "json":
        print(render_json(report, args.severity))
    else:
        print(render_text(report, args.severity))
    return 1 if report.errors() else 0


def _trace_units(source: str, path: str) -> list[tuple[str, object, str]]:
    """What ``pgmp trace``/``explain`` actually expands:
    ``(kind, payload, label)`` triples.

    A Scheme file is one ``("scheme", source, filename)`` unit. A Python
    file contributes its *embedded* Scheme programs (string literals using
    the optimizable constructs, exactly the ones ``pgmp lint`` analyzes),
    each under the ``file.py#L<line>`` pseudo-filename its profile points
    carry — plus one ``("pyfunc", fn, name)`` unit for every top-level
    function that calls a registered Python macro (``if_r``, ``pycase``).
    """
    if not path.endswith(".py"):
        return [("scheme", source, path)]
    import ast as python_ast

    from repro.analysis.pyast_passes import _embedded_scheme_strings
    from repro.pyast.macros import default_registry

    tree = python_ast.parse(source, filename=path)
    units: list[tuple[str, object, str]] = [
        ("scheme", text, f"{path}#L{constant.lineno}")
        for text, constant in _embedded_scheme_strings(tree)
    ]

    macro_names = set(default_registry().names())
    macro_functions = [
        node.name
        for node in tree.body
        if isinstance(node, python_ast.FunctionDef)
        and any(
            isinstance(call, python_ast.Call)
            and isinstance(call.func, python_ast.Name)
            and call.func.id in macro_names
            for call in python_ast.walk(node)
        )
    ]
    if macro_functions:
        # Exec the module (its __main__ guard keeps scripts inert) to get
        # real function objects the pyast expander can re-source.
        namespace: dict = {"__name__": "<pgmp-trace>", "__file__": path}
        exec(compile(tree, path, "exec"), namespace)
        units.extend(
            ("pyfunc", namespace[name], f"{path}:{name}")
            for name in macro_functions
        )

    if not units:
        raise PgmpError(
            f"{path}: nothing to trace — no embedded Scheme programs and "
            "no functions using registered Python macros"
        )
    return units


def _traced_compile(args: argparse.Namespace):
    """Compile ``args.file`` under a fresh tracer; returns
    ``(tracer, system)`` with the trace closed."""
    from repro.core.api import reset_generated_points
    from repro.obs import Tracer, get_global_metrics, using_tracer

    source = _read_program(args.file)
    system, _ = _make_system(args, source)
    # Fresh generated-point counters: two traces of the same program in
    # one process must be byte-identical.
    reset_generated_points()
    pyast_system = None
    tracer = Tracer()
    with using_tracer(tracer):
        for kind, payload, label in _trace_units(source, args.file):
            try:
                if kind == "scheme":
                    system.compile(payload, label)
                else:
                    if pyast_system is None:
                        from repro.pyast.system import PyAstSystem

                        pyast_system = PyAstSystem(
                            profile_db=system.profile_db,
                            policy=system.policy,
                            degradations=system.degradations,
                        )
                    pyast_system.expand(payload)
            except PgmpError as exc:
                # A failed expansion is part of the provenance, not a
                # reason to lose the trace collected so far.
                tracer.event(
                    "error", label, error=f"{type(exc).__name__}: {exc}"
                )
                print(f"pgmp trace: {label}: {exc}", file=sys.stderr)
    tracer.close()
    get_global_metrics().inc("traces_total")
    return tracer, system


def _run_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        render_chrome_trace,
        render_trace_json,
        render_trace_text,
    )

    tracer, _system = _traced_compile(args)
    renderer = {
        "text": render_trace_text,
        "json": render_trace_json,
        "chrome": render_chrome_trace,
    }[args.format]
    rendered = renderer(tracer)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        decisions = tracer.decisions()
        print(
            f"pgmp trace: wrote {args.format} trace ({len(decisions)} "
            f"decision(s)) to {args.out}",
            file=sys.stderr,
        )
    else:
        print(rendered)
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    from repro.obs import explain_at, parse_at

    try:
        anchor_file, line = parse_at(args.at)
    except ValueError as exc:
        print(f"pgmp explain: {exc}", file=sys.stderr)
        return 2
    tracer, system = _traced_compile(args)
    print(
        explain_at(
            tracer, anchor_file, line, system.degradations.entries()
        )
    )
    return 0 if tracer.decisions_at(anchor_file, line) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs.logs import configure_logging

        configure_logging(args.log_level)
    try:
        return _dispatch(args)
    except PgmpError as exc:
        print(f"pgmp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pgmp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _maybe_simplify(args: argparse.Namespace, program):
    if getattr(args, "simplify", False):
        from repro.scheme.simplify import contract_betas

        program, contraction = contract_betas(program)
        print(
            f";; simplify: contracted {contraction.contracted} of "
            f"{contraction.considered} beta-redexes",
            file=sys.stderr,
        )
    return program


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        GenerationJournal,
        ProfileAggregator,
        RecompileController,
        RolloutGuard,
        ServiceMetrics,
        scheme_canary,
        scheme_recompiler,
        scheme_static_verifier,
    )

    if args.fleet_role == "shard":
        return _run_serve_shard(args)

    metrics = ServiceMetrics()
    controller = None
    sources = None
    if args.optimize:
        optimize_source = _read_program(args.optimize)
        system = SchemeSystem(policy=args.profile_policy)
        _load_libraries(system, args.library)
        guard = None
        if not args.no_rollout_guard:
            probes = [
                (_read_program(path), path) for path in args.canary_probes
            ]
            guard = RolloutGuard(
                validator=scheme_canary(system, probes),
                static_verifier=scheme_static_verifier(),
                journal=GenerationJournal(
                    args.journal_dir, max_generations=args.max_generations
                ),
                rollback_window=args.rollback_window,
                metrics=metrics,
            )
        controller = RecompileController(
            scheme_recompiler(system, optimize_source, args.optimize),
            threshold=args.drift_threshold,
            metrics=metrics,
            guard=guard,
        )
        resumed = controller.resume_from_journal()
        if resumed is not None:
            print(f"pgmp serve: {resumed.reason}", file=sys.stderr)
        # Deltas fingerprinting a *different* version of the optimized
        # source are stale by definition — quarantine them.
        sources = {args.optimize: optimize_source}
    if args.shards > 0:
        return _run_serve_fleet(args, metrics, controller, sources)
    aggregator = ProfileAggregator(
        args.listen,
        checkpoint_path=args.checkpoint,
        state_path=args.state,
        checkpoint_interval=args.checkpoint_interval,
        sources=sources,
        controller=controller,
        policy=args.profile_policy,
        metrics=metrics,
        metrics_port=args.metrics_port,
        read_timeout=args.read_timeout,
    )
    aggregator.start()
    try:
        print(
            f"pgmp serve: listening on {aggregator.address}",
            file=sys.stderr,
            flush=True,
        )
        if aggregator.metrics_address is not None:
            host, port = aggregator.metrics_address
            print(
                f"pgmp serve: metrics on http://{host}:{port}/metrics",
                file=sys.stderr,
                flush=True,
            )
        try:
            aggregator.shutdown_requested.wait()
        except KeyboardInterrupt:
            pass
    finally:
        stop_result = aggregator.stop()
    applied = int(metrics.counter("deltas_applied_total"))
    counts = int(metrics.counter("counts_ingested_total"))
    quarantined = int(metrics.counter("deltas_quarantined_total"))
    print(
        f"pgmp serve: applied {applied} delta(s) carrying {counts} counts; "
        f"{quarantined} quarantined",
        file=sys.stderr,
    )
    if controller is not None:
        for decision in controller.log.recompilations():
            print(f"pgmp serve: {decision}", file=sys.stderr)
    if not stop_result.clean:
        print(f"pgmp serve: dirty stop: {stop_result}", file=sys.stderr)
        return 1
    return 0


def _run_serve_shard(args: argparse.Namespace) -> int:
    """One fleet shard (spawned by the --shards supervisor)."""
    from repro.core.database import atomic_write_text
    from repro.service import ServiceMetrics
    from repro.service.fleet import ShardAggregator

    if not args.shard_id or not args.uplink:
        print(
            "pgmp serve: --fleet-role shard requires --shard-id and --uplink",
            file=sys.stderr,
        )
        return 2
    metrics = ServiceMetrics()
    shard = ShardAggregator(
        args.listen,
        shard_id=args.shard_id,
        uplink=args.uplink,
        wal_path=args.wal,
        state_path=args.state,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        policy=args.profile_policy,
        metrics=metrics,
        metrics_port=args.metrics_port,
        read_timeout=args.read_timeout,
    )
    shard.start()
    try:
        print(
            f"pgmp serve: shard {args.shard_id} listening on {shard.address} "
            f"(uplink {args.uplink})",
            file=sys.stderr,
            flush=True,
        )
        if args.address_file:
            atomic_write_text(args.address_file, f"{shard.address}\n")
        try:
            shard.shutdown_requested.wait()
        except KeyboardInterrupt:
            pass
    finally:
        stop_result = shard.stop()
    applied = int(metrics.counter("deltas_applied_total"))
    uplinked = int(metrics.counter("uplink_deltas_total"))
    print(
        f"pgmp serve: shard {args.shard_id} applied {applied} delta(s), "
        f"uplinked {uplinked}",
        file=sys.stderr,
    )
    if not stop_result.clean:
        print(
            f"pgmp serve: shard {args.shard_id} dirty stop: {stop_result}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_serve_fleet(
    args: argparse.Namespace, metrics, controller, sources
) -> int:
    """A supervised local fleet: N shard subprocesses + an in-process root."""
    from repro.service.fleet import FleetSupervisor

    supervisor = FleetSupervisor(
        args.shards,
        args.fleet_data_dir,
        listen=args.listen,
        controller=controller,
        metrics=metrics,
        metrics_port=args.metrics_port,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        sources=sources,
        policy=args.profile_policy,
        read_timeout=args.read_timeout,
    )
    supervisor.start()
    try:
        print(
            f"pgmp serve: fleet root listening on {supervisor.root.address} "
            f"({args.shards} shard(s))",
            file=sys.stderr,
            flush=True,
        )
        for shard_id, address in sorted(supervisor.shard_addresses().items()):
            print(
                f"pgmp serve: shard {shard_id} at {address}",
                file=sys.stderr,
                flush=True,
            )
        if supervisor.root.metrics_address is not None:
            host, port = supervisor.root.metrics_address
            print(
                f"pgmp serve: metrics on http://{host}:{port}/metrics",
                file=sys.stderr,
                flush=True,
            )
        try:
            supervisor.root.shutdown_requested.wait()
        except KeyboardInterrupt:
            pass
    finally:
        supervisor.stop()
    applied = int(metrics.counter("deltas_applied_total"))
    counts = int(metrics.counter("counts_ingested_total"))
    print(
        f"pgmp serve: fleet root applied {applied} delta(s) carrying "
        f"{counts} counts",
        file=sys.stderr,
    )
    if controller is not None:
        for decision in controller.log.recompilations():
            print(f"pgmp serve: {decision}", file=sys.stderr)
    return 0


def _run_rollback(args: argparse.Namespace) -> int:
    from repro.service.transport import request

    response = request(
        args.connect,
        {"type": "rollback", "reason": args.reason},
        timeout=args.timeout,
    )
    if not isinstance(response, dict) or response.get("type") != "rollback":
        print(
            f"pgmp rollback: unexpected response {response!r}",
            file=sys.stderr,
        )
        return 1
    status = response.get("status")
    detail = response.get("reason") or response.get("error") or ""
    generation = response.get("generation")
    suffix = f" (now serving generation {generation})" if status == "ok" else ""
    print(f"pgmp rollback: {status}: {detail}{suffix}", file=sys.stderr)
    return 0 if status == "ok" else 1


def _run_ship(args: argparse.Namespace) -> int:
    from repro.core.counters import CounterSet, ShardedCounterSet
    from repro.core.database import source_fingerprint
    from repro.profiling.sampler import RunSampler
    from repro.service import ProfileShipper, parse_address

    source = _read_program(args.file)
    system = SchemeSystem(policy=args.profile_policy)
    _load_libraries(system, args.library)
    dataset = args.dataset if args.dataset else args.file
    counters = ShardedCounterSet(name=dataset)
    fingerprints = {args.file: source_fingerprint(source)}
    stride = args.sample_rate if args.profile_mode == "sampled" else 1
    # Production-traffic sampling subsets whole runs: one run in `stride`
    # executes instrumented (and its counts are folded in scaled by the
    # stride), the rest run with no hooks at all — steady-state overhead
    # is the instrumented-run cost divided by the stride plus one
    # predicate per run. Stride 1 is exact collection.
    run_sampler = RunSampler(stride) if stride > 1 else None
    sample_scale = float(stride) if run_sampler is not None else None
    if args.fleet:
        # --connect names the fleet *root*; shard addresses come from
        # its ring frame and the deltas go straight to the shards.
        from repro.service.shipper import fetch_ring

        address: str | dict[str, str] = {
            shard_id: info["address"]
            for shard_id, info in fetch_ring(args.connect).items()
            if isinstance(info, dict) and isinstance(info.get("address"), str)
        }
        root = args.connect
        destination = f"{len(address)} shard(s) via root {args.connect}"
    else:
        address, root = args.connect, None
        destination = str(parse_address(args.connect))
    shipper = ProfileShipper(
        counters,
        address,
        root=root,
        dataset=dataset,
        fingerprints=fingerprints,
        shipper_id=args.shipper_id,
        spill_path=args.spill,
        policy=args.profile_policy,
        timeout=args.timeout,
        sample_scale=sample_scale,
    )
    program = system.compile(source, args.file)
    mode = _mode(args.mode)
    try:
        for _ in range(max(1, args.runs)):
            if run_sampler is None:
                system.run(program, instrument=mode, counters=counters)
            elif run_sampler.gate():
                from repro.obs.tracer import maybe_span

                run_counters = CounterSet(name=dataset)
                with maybe_span(
                    "sample", dataset, stride=stride, engine="run-subset"
                ):
                    system.run(program, instrument=mode, counters=run_counters)
                run_sampler.fold(run_counters, counters)
            else:
                system.run(program)
            shipper.flush()
    finally:
        shipper.close()
    if run_sampler is not None:
        from repro.obs.metrics import get_global_metrics

        metrics = get_global_metrics()
        metrics.inc("samples_total", run_sampler.samples)
        if run_sampler.samples:
            metrics.inc("sampled_datasets_total")
    sampled_note = (
        f" (sampled 1-in-{stride} runs, {run_sampler.samples} observed "
        f"events)"
        if run_sampler is not None
        else ""
    )
    print(
        f";; shipped {shipper.shipped_counts} counts in "
        f"{shipper.shipped_deltas} delta(s) to {destination} "
        f"(spilled {shipper.spilled_deltas}, dropped {shipper.dropped_deltas}, "
        f"quarantined {shipper.quarantined_deltas}){sampled_note}",
        file=sys.stderr,
    )
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "ship":
        return _run_ship(args)
    if args.command == "rollback":
        return _run_rollback(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "explain":
        return _run_explain(args)
    source = _read_program(args.file)
    system, library_sources = _make_system(args, source)

    if args.command == "run":
        mode = _mode(args.instrument) if args.instrument else None
        sample_stride = None
        if args.profile_mode == "sampled":
            # Sampled collection implies instrumentation: the stride gate
            # IS the (cheap) instrumentation.
            mode = ProfileMode.SAMPLE
            sample_stride = args.sample_rate
        program = _maybe_simplify(args, system.compile(source, args.file))
        result = system.run(
            program,
            instrument=mode,
            backend=args.backend,
            sample_stride=sample_stride,
        )
        if result.output:
            print(result.output, end="")
        print(write_datum(result.value))
        if result.counters is not None:
            print(
                f";; profiled {len(result.counters)} points, "
                f"total count {result.counters.total()}",
                file=sys.stderr,
            )
        return 0

    if args.command == "expand":
        program = _maybe_simplify(args, system.compile(source, args.file))
        if system.last_compile_output:
            print(system.last_compile_output, end="", file=sys.stderr)
        print(unparse_string(program))
        return 0

    if args.command == "profile":
        mode = _mode(args.mode)
        sample_stride = None
        if args.profile_mode == "sampled":
            mode = ProfileMode.SAMPLE
            sample_stride = args.sample_rate
        system.profile_run(
            source, args.file, mode=mode, sample_stride=sample_stride
        )
        system.store_profile(args.out)
        suffix = ""
        summary = system.profile_db.confidence_summary()
        if summary is not None:
            suffix = f" ({summary.describe()})"
        print(
            f";; stored {system.profile_db.point_count()} profile weights "
            f"to {args.out}{suffix}",
            file=sys.stderr,
        )
        return 0

    if args.command == "optimize":
        if not args.profile_file:
            print("pgmp optimize: --profile-file is required", file=sys.stderr)
            return 2
        backend = args.backend if args.backend is not None else "compile"
        if backend == "compile" and not args.simplify:
            # The artifact-cache path: a warm cache answers from the
            # precompiled artifact with zero re-expansions. --simplify
            # transforms the expansion post hoc, so it bypasses the cache.
            from repro.scheme.compile_py import ArtifactCache

            cache = (
                ArtifactCache(args.cache_dir)
                if args.cache_dir is not None
                else None
            )
            artifact = system.compile_cached(source, args.file, cache=cache)
            if artifact.compile_output:
                print(artifact.compile_output, end="", file=sys.stderr)
            print(artifact.expansion_text)
            return 0
        program = _maybe_simplify(args, system.compile(source, args.file))
        if system.last_compile_output:
            print(system.last_compile_output, end="", file=sys.stderr)
        print(unparse_string(program))
        return 0

    if args.command == "workflow":
        from repro.blocks.workflow import three_pass_compile

        report = three_pass_compile(
            source,
            args.file,
            libraries=tuple(library_sources),
            checkpoint_dir=args.checkpoint_dir,
            resume=not args.no_resume,
            pass_budget=args.pass_budget,
            policy=args.profile_policy,
            backend=args.backend,
        )
        print(f"value:                   {write_datum(report.value)}")
        print(f"rung:                    {report.rung}")
        print(f"expansion stable:        {report.expansion_stable}")
        print(f"block structure stable:  {report.block_structure_stable}")
        print(f"semantics preserved:     {report.semantics_preserved}")
        print(f"source profile points:   {report.source_points}")
        if report.rung == "three-pass":
            print(
                f"taken jumps:             {report.taken_jumps_before} -> "
                f"{report.taken_jumps_after}"
            )
            print(
                f"fall-throughs:           {report.fallthroughs_before} -> "
                f"{report.fallthroughs_after}"
            )
            print(f"layout:                  {report.layout}")
        if report.resumed:
            print(f"resumed from checkpoint: {', '.join(report.resumed)}")
        for entry in report.degradations:
            print(f"degraded:                {entry}", file=sys.stderr)
        return 0

    if args.command == "report":
        import json

        from repro.obs import decisions_from_json_object
        from repro.tools.report import (
            annotate_source,
            histogram,
            hottest_report,
            report_json,
            trace_report,
        )

        if not args.profile_file:
            print("pgmp report: --profile-file is required", file=sys.stderr)
            return 2
        db = system.profile_db
        if args.format == "json":
            print(report_json(db, source, args.file, args.top))
            return 0
        print(hottest_report(db, args.top))
        print()
        print(annotate_source(source, args.file, db))
        if args.histogram:
            print()
            print(histogram(db))
        if args.trace:
            with open(args.trace, "r", encoding="utf-8") as handle:
                try:
                    document = json.load(handle)
                except json.JSONDecodeError as exc:
                    print(
                        f"pgmp report: {args.trace}: not JSON: {exc}",
                        file=sys.stderr,
                    )
                    return 2
            try:
                decisions = decisions_from_json_object(document)
            except ValueError as exc:
                print(f"pgmp report: {args.trace}: {exc}", file=sys.stderr)
                return 2
            print()
            print(trace_report(db, decisions))
        return 0

    if args.command == "disasm":
        from repro.blocks.compiler import compile_program

        program = system.compile(source, args.file)
        module = compile_program(program)
        print(module.disassemble())
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
