"""Per-dataset confidence records for sampled profile data.

A data set collected under full instrumentation is *exact*: its weights
are facts about the run. A data set collected by sampling is an
*estimate*: the stored counts are reconstructed from a subset of the
execution events, and a meta-program consulting them should know how
wide that estimate is before it commits to a clause reordering.

:class:`DatasetConfidence` is that record — collection mode, number of
observed sampling events, the scaling factor applied during
reconstruction, and a normal-approximation relative error bar (see
:func:`repro.profiling.reconstruct.relative_error_bar` for the math).
It rides along with each data set through the profile format
(:mod:`repro.core.database`), the service delta wire
(:mod:`repro.service.delta`), and the aggregator's merged state, and is
consulted by :func:`repro.core.api.profile_query` to route
low-confidence weights through the :func:`repro.core.policy.degrade`
choke point.

By convention a data set with **no** confidence record is exact — old
profile files and untagged deltas therefore keep their meaning
unchanged, and :func:`repro.profiling.reconstruct.confidence_for_counts`
gives no record at scale 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

__all__ = [
    "COLLECTION_MODES",
    "DEFAULT_ERROR_BAR_THRESHOLD",
    "DatasetConfidence",
    "annotate_profile_load_span",
    "merge_confidences",
]

#: The two collection modes a data set can declare.
COLLECTION_MODES = ("exact", "sampled")

#: Relative error bars wider than this route the query through
#: ``degrade()`` rather than silently applying the weight. At the default
#: sample rate (10) the bar drops below this threshold after ~250
#: observed sampling events, so any realistically-sized data set clears
#: it; only starved data sets degrade.
DEFAULT_ERROR_BAR_THRESHOLD = 0.25


@dataclass(frozen=True)
class DatasetConfidence:
    """How much to trust one data set's reconstructed counts.

    ``samples`` is the number of sampling events actually observed
    (before scaling), ``scale`` the factor by which observed counts were
    multiplied during reconstruction, and ``error_bar`` the relative 95%
    half-width of the reconstructed counts under the normal
    approximation. Exact data has ``scale == 1.0`` and
    ``error_bar == 0.0``.
    """

    mode: str
    samples: int
    scale: float
    error_bar: float

    def __post_init__(self) -> None:
        if self.mode not in COLLECTION_MODES:
            raise ValueError(
                f"confidence mode must be one of {COLLECTION_MODES}, "
                f"got {self.mode!r}"
            )
        if self.samples < 0:
            raise ValueError(f"sample count must be >= 0, got {self.samples}")
        if self.scale < 1.0:
            raise ValueError(f"scaling factor must be >= 1, got {self.scale}")
        if not 0.0 <= self.error_bar <= 1.0:
            raise ValueError(
                f"error bar must be in [0, 1], got {self.error_bar}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls) -> "DatasetConfidence":
        """The explicit record for fully-instrumented data."""
        return cls(mode="exact", samples=0, scale=1.0, error_bar=0.0)

    @classmethod
    def sampled(cls, samples: int, scale: float) -> "DatasetConfidence":
        """A record for data reconstructed from ``samples`` observed
        events at scaling factor ``scale``."""
        from repro.profiling.reconstruct import relative_error_bar

        return cls(
            mode="sampled",
            samples=int(samples),
            scale=float(scale),
            error_bar=relative_error_bar(samples, scale),
        )

    # -- queries -----------------------------------------------------------

    @property
    def is_sampled(self) -> bool:
        return self.mode == "sampled"

    def is_low(self, threshold: float = DEFAULT_ERROR_BAR_THRESHOLD) -> bool:
        """Whether this record's error bar is too wide to apply silently."""
        return self.is_sampled and self.error_bar > threshold

    # -- serialization (profile format + delta wire) -----------------------

    def to_json_object(self) -> dict:
        return {
            "mode": self.mode,
            "samples": self.samples,
            "scale": self.scale,
            "error_bar": round(self.error_bar, 6),
        }

    @classmethod
    def from_json_object(cls, obj: object) -> "DatasetConfidence":
        """Parse a stored/wire record; raises :class:`ValueError` on any
        shape problem (callers re-raise as their format error)."""
        if not isinstance(obj, Mapping):
            raise ValueError(
                f"confidence must be an object, got {type(obj).__name__}"
            )
        mode = obj.get("mode")
        if not isinstance(mode, str):
            raise ValueError("confidence mode must be a string")
        samples = obj.get("samples")
        if not isinstance(samples, int) or isinstance(samples, bool):
            raise ValueError("confidence samples must be an integer")
        scale = obj.get("scale")
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise ValueError("confidence scale must be a number")
        error_bar = obj.get("error_bar")
        if isinstance(error_bar, bool) or not isinstance(
            error_bar, (int, float)
        ):
            raise ValueError("confidence error_bar must be a number")
        return cls(
            mode=mode,
            samples=samples,
            scale=float(scale),
            error_bar=float(error_bar),
        )

    def describe(self) -> str:
        """A short human rendering for reports and degradation reasons."""
        if not self.is_sampled:
            return "exact"
        return (
            f"sampled ±{self.error_bar:.0%} "
            f"(n={self.samples}, scale {self.scale:g}x)"
        )


def merge_confidences(
    confidences: Iterable["DatasetConfidence | None"],
) -> "DatasetConfidence | None":
    """Merge per-shipper/per-dataset records into one summary.

    ``None`` entries mean exact data. The merge is conservative: the
    result is sampled if *any* input was sampled, its sample count is the
    sum of the sampled inputs' counts, its scale their maximum, and its
    error bar is recomputed from the merged sample count — more observed
    events across shippers means a tighter merged bar, exactly as pooling
    independent samples should.
    """
    sampled = [
        conf for conf in confidences if conf is not None and conf.is_sampled
    ]
    if not sampled:
        return None
    total_samples = sum(conf.samples for conf in sampled)
    scale = max(conf.scale for conf in sampled)
    return DatasetConfidence.sampled(total_samples, scale)


def annotate_profile_load_span(span: object, db: object) -> None:
    """Tag a ``profile_load`` span with the loaded database's collection
    mode and merged error bar (both substrates' load paths call this).

    ``span`` is duck-typed (anything with an ``attrs`` dict — or ``None``
    when tracing is disabled); ``db`` must expose ``confidence_summary()``
    and ``dataset_confidences()``. Attributes are derived purely from the
    loaded data, so traces stay deterministic.
    """
    if span is None:
        return
    summary = db.confidence_summary()  # type: ignore[attr-defined]
    attrs = span.attrs  # type: ignore[attr-defined]
    if summary is None:
        attrs["mode"] = "exact"
        return
    attrs["mode"] = "sampled"
    attrs["error_bar"] = round(summary.error_bar, 6)
    attrs["sampled_datasets"] = sum(
        1
        for conf in db.dataset_confidences()  # type: ignore[attr-defined]
        if conf is not None and conf.is_sampled
    )
