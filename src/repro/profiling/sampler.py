"""The sampling tier: one per-event stride gate, plus whole-run subsetting.

**The stride gate.** :class:`SamplingCollector` is the one per-event
sampling engine, shared by both substrates. It wraps a counter set and
keeps one residue cell per profile point; a point's every
``stride``-th event lands in the wrapped set as a bump *by* the stride,
so counts arrive already scaled. Scheme hook sites (interpreter
``compile()`` closures and ``compile_py`` ``hook_table`` entries) take
their bump from :meth:`SamplingCollector.incrementer` through
:meth:`repro.scheme.instrument.Instrumenter.hook_for`, so all the sites
of one point (a macro that copies its argument) share its cell. The
pyast ``profile_hook`` calls :meth:`SamplingCollector.increment` on the
installed collector. At stride 1 the constructor returns the wrapped
counter set itself: exact collection is stride 1, and its hot path is
the plain counter bump.

**Run subsetting.** :class:`RunSampler` subsets *whole runs* of
production traffic (``pgmp ship --profile-mode sampled``): one run in
``stride`` is instrumented and its counts scaled back up, the rest
execute with no hooks at all, so the steady-state overhead is the
instrumented-run cost divided by the stride plus one predicate per run.
"""

from __future__ import annotations

from repro.core.counters import BaseCounterSet
from repro.core.profile_point import ProfilePoint

__all__ = ["RunSampler", "SamplingCollector"]


def _validated_stride(stride: int) -> int:
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"sample stride must be >= 1, got {stride}")
    return stride


class RunSampler:
    """Periodic whole-run subsetting for production traffic.

    ``gate()`` answers "instrument this run?" — true for the first run
    and every ``stride``-th run after it (deterministic, so tests and
    replays agree). Counts from an instrumented run are folded into the
    long-lived shipping counters scaled by the stride via :meth:`fold`,
    keeping the totals unbiased; :attr:`samples` accumulates the observed
    (unscaled) events for the dataset's confidence record.
    """

    __slots__ = ("stride", "_tick", "samples")

    def __init__(self, stride: int) -> None:
        self.stride = _validated_stride(stride)
        self._tick = 0
        self.samples = 0

    def gate(self) -> bool:
        """One predicate per run: the off-sample fast path."""
        tick = self._tick
        self._tick = tick + 1 if tick + 1 < self.stride else 0
        return tick == 0

    def fold(
        self, run_counters: BaseCounterSet, into: BaseCounterSet
    ) -> int:
        """Scale one instrumented run's counts by the stride and add them
        to the shipping counter set; returns the observed event count."""
        snapshot = run_counters.snapshot()
        observed = sum(snapshot.values())
        self.samples += observed
        if observed:
            into.apply_increments(
                {point: count * self.stride for point, count in snapshot.items()}
            )
        return observed


class SamplingCollector(BaseCounterSet):
    """A counter set whose increment is the per-point stride gate.

    Each point has one residue cell, a one-element list that every bump
    of the point shares. A point's count in the wrapped set is therefore
    a multiple of the stride, never above the exact count and less than
    one stride below it. ``SamplingCollector(inner, 1)`` is ``inner``.

    One gate serves one run on one thread: the cells are not locked.
    """

    __slots__ = ("inner", "stride", "_cells")

    def __new__(cls, inner: BaseCounterSet, stride: int):
        if _validated_stride(stride) == 1:
            return inner
        return super().__new__(cls)

    def __init__(self, inner: BaseCounterSet, stride: int) -> None:
        if self is inner:
            # Stride 1 over a gate handed that gate back; leave it as is.
            return
        super().__init__(name=inner.name)
        self.inner = inner
        self.stride = int(stride)
        self._cells: dict[ProfilePoint, list[int]] = {}

    def increment(self, point: ProfilePoint, by: int = 1) -> None:
        cell = self._cells.get(point)
        if cell is None:
            cell = self._cells[point] = [0]
        n = cell[0] + by
        stride = self.stride
        if n < stride:
            cell[0] = n
        else:
            cell[0] = rest = n % stride
            self.inner.increment(point, n - rest)

    def incrementer(self, point: ProfilePoint):
        cell = self._cells.setdefault(point, [0])

        # Defaults, not closure cells: a Scheme run binds one bump per
        # hook site, and fewer objects per bump mean fewer collections.
        def bump(_cell=cell, _stride=self.stride, _inner=self.inner, _point=point):
            n = _cell[0] + 1
            if n < _stride:
                _cell[0] = n
            else:
                _cell[0] = 0
                _inner.increment(_point, _stride)

        return bump

    def clear(self) -> None:
        # Zero the cells in place: pre-bound bumps hold them.
        for cell in self._cells.values():
            cell[0] = 0
        self.inner.clear()

    def count(self, point: ProfilePoint) -> int:
        return self.inner.count(point)

    def snapshot(self) -> dict[ProfilePoint, int]:
        return self.inner.snapshot()
