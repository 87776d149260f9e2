"""``repro.service`` — continuous profiling with online recompilation.

The paper's profile lifecycle is batch: run instrumented, store, restart,
load, re-expand. This package makes it continuous, in the direction
production PGO systems take (see PAPERS.md: *From Profiling to
Optimization*, *PROMPT*): many worker processes keep serving while a
:class:`ProfileShipper` streams their counter *deltas* to a
:class:`ProfileAggregator`, which merges them per the paper's Figure-3
weighted averaging, checkpoints through the ordinary profile database,
and — via a :class:`RecompileController` — re-runs the meta-program
optimization and atomically swaps the compiled program when the merged
weights drift past a threshold.

Layering: this package sits *above* ``core`` (counters, database,
policy) and *beside* the substrates — it moves profile data around and
decides when to recompile, but the optimization itself is still the
substrates' ordinary expansion.
"""

from repro.obs.metrics import ServiceMetrics
from repro.service.aggregator import ProfileAggregator
from repro.service.controller import (
    RecompilationDecision,
    RecompilationLog,
    RecompileController,
    pyast_recompiler,
    scheme_recompiler,
    weight_drift,
)
from repro.service.delta import (
    DeltaBatch,
    DeltaLedger,
    FrameDecoder,
    ProfileDelta,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.service.aggregator import StopResult
from repro.service.fleet import (
    FleetSupervisor,
    HashRing,
    RootMerger,
    ShardAggregator,
)
from repro.service.rollout import (
    CanaryResult,
    CircuitBreaker,
    GenerationJournal,
    RolloutGuard,
    StaticVerifyResult,
    scheme_canary,
    scheme_static_verifier,
)
from repro.service.shipper import ProfileShipper
from repro.service.spill import SpillLog
from repro.service.transport import ServiceAddress, connect, parse_address

__all__ = [
    "ProfileAggregator",
    "ProfileShipper",
    "ProfileDelta",
    "DeltaBatch",
    "DeltaLedger",
    "FrameDecoder",
    "FleetSupervisor",
    "HashRing",
    "RootMerger",
    "ShardAggregator",
    "SpillLog",
    "ServiceMetrics",
    "ServiceAddress",
    "RecompileController",
    "RecompilationDecision",
    "RecompilationLog",
    "weight_drift",
    "scheme_recompiler",
    "pyast_recompiler",
    "RolloutGuard",
    "GenerationJournal",
    "CircuitBreaker",
    "CanaryResult",
    "scheme_canary",
    "StaticVerifyResult",
    "scheme_static_verifier",
    "StopResult",
    "encode_frame",
    "read_frame",
    "write_frame",
    "parse_address",
    "connect",
]
