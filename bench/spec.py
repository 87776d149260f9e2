"""The benchmark's metric table, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place metric names,
units, directions and regression bounds are written down; the runner
checks that it emits exactly those metrics and the comparer reads the
bounds from it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(spec: dict) -> dict[str, dict]:
    """name → {"unit", "better", "bound" (None for per-layer), "kind"}."""
    table = {}
    for kind in ("end_to_end", "per_layer"):
        for entry in spec[kind]:
            table[entry["name"]] = {
                "unit": entry["unit"],
                "better": entry["better"],
                "bound": entry.get("bound"),
                "kind": kind,
            }
    return table


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0 when there are too few values or the median is 0)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(median)
