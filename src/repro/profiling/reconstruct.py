"""Statistical reconstruction of sampled counts.

Both sampling engines thin the stream of execution events and scale
what they keep by the stride ``k``. The stride gate keeps one residue per
point, so a point executed ``N`` times reads ``k·floor(N/k)``: a multiple
of the stride, never above ``N`` and less than ``k`` below it, exact
when ``k`` divides ``N``. Run subsetting keeps one run in ``k`` and
multiplies its counts by ``k``.

The error bar treats the kept events as Bernoulli(1/k) thinning of the
``N`` true events: the observed count ``n ~ Binomial(N, 1/k)`` makes the
reconstructed estimate ``N̂ = k·n`` have ``Var(N̂) = N·(k−1)``, giving a
relative standard error of ``sqrt((k−1)/N) ≈ sqrt((k−1)/(k·n))``.
:func:`relative_error_bar` returns the 95% half-width (``z = 1.96``) of
that interval, clamped to ``[0, 1]`` — an empty sample is maximally
uncertain, exact data (``k = 1``) is certain.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.counters import BaseCounterSet
from repro.profiling.confidence import DatasetConfidence

__all__ = [
    "Z_95",
    "confidence_for_counts",
    "relative_error_bar",
]

#: Two-sided 95% normal quantile.
Z_95 = 1.96


def relative_error_bar(samples: int, scale: float) -> float:
    """The relative 95% half-width of counts reconstructed from
    ``samples`` observed events at scaling factor ``scale``."""
    if scale <= 1.0:
        return 0.0
    if samples <= 0:
        return 1.0
    half_width = Z_95 * ((scale - 1.0) / (scale * samples)) ** 0.5
    return min(1.0, half_width)


def confidence_for_counts(
    counters: BaseCounterSet | Mapping[str, int], scale: float
) -> DatasetConfidence | None:
    """The confidence record for a counter set holding *reconstructed*
    (already scaled) counts collected at ``scale``.

    ``None`` at scale 1: exact data carries no record, and this is the
    one place that decides so. The observed sampling-event count is
    recovered as ``total / scale``.
    """
    if scale < 1.0:
        raise ValueError(f"scaling factor must be >= 1, got {scale}")
    if scale == 1.0:
        return None
    if isinstance(counters, BaseCounterSet):
        total = counters.total()
    else:
        total = sum(counters.values())
    samples = round(total / scale)
    return DatasetConfidence.sampled(samples, scale)
