"""Low-overhead sampling profiling for production traffic.

Full counter instrumentation (:mod:`repro.scheme.instrument`,
:mod:`repro.pyast.profiler`) is the right tool for representative runs
but too hot to leave on under fleet-scale live traffic. This package adds
the sampling tier on top of the same counter machinery:

* :mod:`repro.profiling.sampler` — the two sampling engines: the
  per-point stride gate :class:`~repro.profiling.sampler.SamplingCollector`,
  which the Scheme substrate (interpreter and ``compile_py`` backend,
  through the instrumentation hook seam) and the pyast substrate (as the
  installed collector) share, and :class:`~repro.profiling.sampler.RunSampler`,
  which instruments one whole run in ``stride``. Exact collection is the
  gate at stride 1, where the gate is the counter set itself.
* :mod:`repro.profiling.reconstruct` — the error-bar math and the
  confidence record of a counter set of sampled counts (``None`` for
  exact data).
* :mod:`repro.profiling.confidence` — the per-dataset
  :class:`~repro.profiling.confidence.DatasetConfidence` record (sample
  count, scaling factor, normal-approximation error bar) carried through
  the profile format and the service delta wire, so ``profile_query`` can
  route low-confidence weights through :func:`repro.core.policy.degrade`
  instead of letting a wide error bar silently flip an optimization.
"""

from repro.profiling.confidence import (
    DEFAULT_ERROR_BAR_THRESHOLD,
    DatasetConfidence,
    merge_confidences,
)
from repro.profiling.reconstruct import (
    confidence_for_counts,
    relative_error_bar,
)
from repro.profiling.sampler import RunSampler, SamplingCollector

__all__ = [
    "DEFAULT_ERROR_BAR_THRESHOLD",
    "DatasetConfidence",
    "RunSampler",
    "SamplingCollector",
    "confidence_for_counts",
    "merge_confidences",
    "relative_error_bar",
]
