"""Raw execution counters, as maintained by the underlying profiler.

The paper's design deliberately separates the *profiler's* view (absolute
counts per profile point, one data set per instrumented run) from the
*meta-program's* view (profile weights in ``[0, 1]``, merged across data
sets — see :mod:`repro.core.weights`). :class:`CounterSet` is the profiler
side: a mutable multiset of profile points that instrumented code bumps at
run time.

Two concrete counter implementations share one interface
(:class:`BaseCounterSet`), so instrumenters are parametric over *how*
counts are kept, just as the Figure-4 API is parametric over the syntax
substrate:

* :class:`CounterSet` — a single dict, optionally guarded by a lock. The
  right choice for the paper's single-threaded Scheme systems.
* :class:`ShardedCounterSet` — one shard (plain dict) per thread, merged
  at :meth:`~BaseCounterSet.snapshot` time. The increment hot path takes
  no lock at all (PROMPT-style per-thread counters), so instrumented code
  can run inside a ``ThreadPoolExecutor`` without serializing on a single
  mutex or losing counts.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Mapping

from repro.core.errors import ProfileError
from repro.core.profile_point import ProfilePoint

__all__ = ["BaseCounterSet", "CounterSet", "ShardedCounterSet"]


class BaseCounterSet:
    """The shared incrementer interface instrumenters program against.

    Concrete subclasses provide storage (:meth:`increment`,
    :meth:`incrementer`, :meth:`snapshot`, :meth:`clear`, :meth:`count`);
    every read-side query is defined here in terms of :meth:`snapshot`, so
    reads are always computed over a *consistent* copy of the counts — no
    query ever iterates live storage that another thread may be resizing.
    """

    __slots__ = ("name",)

    def __init__(self, name: str = "dataset") -> None:
        self.name = name

    # -- profiler-facing mutation (storage-specific) -----------------------

    def increment(self, point: ProfilePoint, by: int = 1) -> None:
        """Bump the counter for ``point``. The instrumented-code hot path."""
        raise NotImplementedError

    def incrementer(self, point: ProfilePoint):
        """Return a zero-argument closure that bumps ``point``.

        A caller that bumps one point many times pre-binds it, so each
        bump is one dict update. (Scheme runs bump list slots instead and
        add them with :meth:`increment` when the run ends.)
        """
        raise NotImplementedError

    def clear(self) -> None:
        """Forget all counts (start a new data set in place)."""
        raise NotImplementedError

    def snapshot(self) -> dict[ProfilePoint, int]:
        """A consistent, immutable-by-convention copy of the current counts."""
        raise NotImplementedError

    def count(self, point: ProfilePoint) -> int:
        """The absolute count for ``point`` (0 when never executed)."""
        raise NotImplementedError

    # -- delta application (continuous-profiling support) ------------------

    def apply_increments(self, increments: Mapping[ProfilePoint, int]) -> None:
        """Add a batch of counter increments (a *delta*) to this set.

        The bulk-apply path used by the :mod:`repro.service` aggregator:
        applying the same counters a worker accumulated locally must yield
        the same totals as if the worker had incremented this set directly.
        Increments must be non-negative — deltas carry counts *since the
        last flush*, never corrections.
        """
        for point, by in increments.items():
            by = int(by)
            if by < 0:
                raise ProfileError(
                    f"delta increment must be non-negative, got {by} for {point}"
                )
            if by:
                self.increment(point, by)

    def apply_key_increments(self, increments: Mapping[str, int]) -> None:
        """:meth:`apply_increments` over serialized point keys (wire form)."""
        self.apply_increments(
            {ProfilePoint.from_key(key): by for key, by in increments.items()}
        )

    # -- meta-program-facing queries (snapshot-based, race-free) -----------

    def max_count(self) -> int:
        """The count of the most-executed point (0 for an empty set).

        This is the normalization denominator for profile weights.
        """
        return max(self.snapshot().values(), default=0)

    def total(self) -> int:
        """Sum of all counts — the data-set size used in weighted merging."""
        return sum(self.snapshot().values())

    def points(self) -> Iterator[ProfilePoint]:
        yield from self.snapshot()

    def as_key_mapping(self) -> dict[str, int]:
        """Counts keyed by serialized point keys (for storage)."""
        return {point.key(): count for point, count in self.snapshot().items()}

    # -- dunder conveniences -----------------------------------------------

    def __len__(self) -> int:
        return len(self.snapshot())

    def __contains__(self, point: object) -> bool:
        return point in self.snapshot()

    def __iter__(self) -> Iterator[ProfilePoint]:
        return iter(self.snapshot())

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"<{type(self).__name__} {self.name!r}: "
            f"{len(snap)} points, total {sum(snap.values())}>"
        )


class CounterSet(BaseCounterSet):
    """A mutable map from :class:`ProfilePoint` to execution count.

    Instances are cheap; instrumented evaluators keep one per profiled run
    ("data set" in the paper's terminology). The increment path is kept as
    lean as possible because it sits inside the interpreter's hot loop.

    Thread safety: with ``threadsafe=True`` every access (increments *and*
    reads) takes the lock, so snapshots taken mid-run are consistent;
    single-threaded interpreters skip the lock entirely (the common case,
    matching the paper's single-threaded Scheme systems). For concurrent
    workloads where lock contention matters, prefer
    :class:`ShardedCounterSet`.
    """

    __slots__ = ("_counts", "_lock")

    def __init__(self, name: str = "dataset", threadsafe: bool = False) -> None:
        super().__init__(name=name)
        self._counts: dict[ProfilePoint, int] = {}
        self._lock: threading.Lock | None = threading.Lock() if threadsafe else None

    # -- profiler-facing mutation ------------------------------------------

    def increment(self, point: ProfilePoint, by: int = 1) -> None:
        if self._lock is None:
            self._counts[point] = self._counts.get(point, 0) + by
        else:
            with self._lock:
                self._counts[point] = self._counts.get(point, 0) + by

    def incrementer(self, point: ProfilePoint):
        counts = self._counts
        if self._lock is None:
            def bump() -> None:
                counts[point] = counts.get(point, 0) + 1
        else:
            lock = self._lock

            def bump() -> None:
                with lock:
                    counts[point] = counts.get(point, 0) + 1

        return bump

    def clear(self) -> None:
        if self._lock is None:
            self._counts.clear()
        else:
            with self._lock:
                self._counts.clear()

    def apply_increments(self, increments: Mapping[ProfilePoint, int]) -> None:
        # Bulk apply under a single lock acquisition (not one per point),
        # and never half-applied from a locked reader's point of view.
        for by in increments.values():
            if int(by) < 0:
                raise ProfileError(
                    f"delta increment must be non-negative, got {by}"
                )
        if self._lock is None:
            for point, by in increments.items():
                if by:
                    self._counts[point] = self._counts.get(point, 0) + int(by)
        else:
            with self._lock:
                for point, by in increments.items():
                    if by:
                        self._counts[point] = self._counts.get(point, 0) + int(by)

    # -- meta-program-facing queries ---------------------------------------

    def count(self, point: ProfilePoint) -> int:
        # A single-key dict read needs no iteration; still take the lock in
        # threadsafe mode so a read never observes a half-applied update.
        if self._lock is None:
            return self._counts.get(point, 0)
        with self._lock:
            return self._counts.get(point, 0)

    def snapshot(self) -> dict[ProfilePoint, int]:
        if self._lock is None:
            return dict(self._counts)
        with self._lock:
            return dict(self._counts)

    @classmethod
    def from_key_mapping(
        cls, mapping: Mapping[str, int], name: str = "dataset"
    ) -> "CounterSet":
        """Rebuild a counter set from its stored form."""
        cs = cls(name=name)
        for key, count in mapping.items():
            cs._counts[ProfilePoint.from_key(key)] = int(count)
        return cs


class ShardedCounterSet(BaseCounterSet):
    """Per-thread sharded counters: lock-free increments, merge on snapshot.

    Each thread gets its own shard (a plain dict) the first time it
    increments; the hot path is then a single un-locked dict update on
    thread-private storage. :meth:`snapshot` merges all shards — the only
    lock in the design guards the shard *registry*, taken once per thread
    lifetime plus once per snapshot, never per increment.

    Merging is additive, so N threads × M increments always sums to exactly
    N×M: increments cannot be lost to a read-modify-write race the way they
    can on a shared dict without a lock.
    """

    __slots__ = ("_local", "_registry", "_registry_lock")

    def __init__(self, name: str = "dataset") -> None:
        super().__init__(name=name)
        self._local = threading.local()
        #: Every shard ever handed out, including those of finished threads
        #: (their counts must survive the thread).
        self._registry: list[dict[ProfilePoint, int]] = []
        self._registry_lock = threading.Lock()

    def _shard(self) -> dict[ProfilePoint, int]:
        try:
            return self._local.shard
        except AttributeError:
            shard: dict[ProfilePoint, int] = {}
            with self._registry_lock:
                self._registry.append(shard)
            self._local.shard = shard
            return shard

    # -- profiler-facing mutation ------------------------------------------

    def increment(self, point: ProfilePoint, by: int = 1) -> None:
        shard = self._shard()
        shard[point] = shard.get(point, 0) + by

    def incrementer(self, point: ProfilePoint):
        local = self._local
        make_shard = self._shard

        def bump() -> None:
            try:
                shard = local.shard
            except AttributeError:
                shard = make_shard()
            shard[point] = shard.get(point, 0) + 1

        return bump

    def clear(self) -> None:
        """Forget all counts. Best-effort under concurrency: increments
        racing with ``clear`` may land either side of it."""
        with self._registry_lock:
            for shard in self._registry:
                shard.clear()

    # -- meta-program-facing queries ---------------------------------------

    def snapshot(self) -> dict[ProfilePoint, int]:
        with self._registry_lock:
            shards = list(self._registry)
        merged: dict[ProfilePoint, int] = {}
        for shard in shards:
            items = self._copy_shard(shard)
            for point, count in items:
                merged[point] = merged.get(point, 0) + count
        return merged

    @staticmethod
    def _copy_shard(shard: dict[ProfilePoint, int]):
        # The owning thread may insert a new key mid-copy; retry until we
        # get a clean pass (resizes are rare — bounded by distinct points).
        while True:
            try:
                return list(shard.items())
            except RuntimeError:
                continue

    def count(self, point: ProfilePoint) -> int:
        with self._registry_lock:
            shards = list(self._registry)
        return sum(shard.get(point, 0) for shard in shards)

    @property
    def shard_count(self) -> int:
        """How many per-thread shards exist (diagnostics / tests)."""
        with self._registry_lock:
            return len(self._registry)
