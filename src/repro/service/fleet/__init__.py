"""``repro.service.fleet`` — the sharded, two-tier profiling service.

The single :class:`~repro.service.aggregator.ProfileAggregator` scales
to a rack; this package scales it to a fleet, hierarchically, the way
production PGO pipelines aggregate (see PAPERS.md: *From Profiling to
Optimization*):

* a :class:`HashRing` partitions profile-point fingerprints over N
  shards, deterministically across processes;
* each :class:`ShardAggregator` ingests its slice, WALs every frame
  before acking, and uplinks cut deltas to the root with
  persist-cut-then-send semantics — restart-safe in both directions;
* the :class:`RootMerger` owns the public checkpoint and the existing
  controller/rollout pipeline, answers ``ring`` queries, and exposes
  per-shard labeled metrics;
* a :class:`~repro.service.shipper.ProfileShipper` given a shard map
  routes each flush over the ring, one lane per shard, and re-resolves a
  restarted shard through the root;
* a :class:`FleetSupervisor` runs the whole topology locally
  (``pgmp serve --shards N``), restarting crashed shards in place.
"""

from repro.service.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.service.fleet.root import RootMerger, ShardRecord
from repro.service.fleet.shard import ShardAggregator, WriteAheadLog
from repro.service.fleet.supervisor import FleetSupervisor

__all__ = [
    "DEFAULT_REPLICAS",
    "FleetSupervisor",
    "HashRing",
    "RootMerger",
    "ShardAggregator",
    "ShardRecord",
    "WriteAheadLog",
]
