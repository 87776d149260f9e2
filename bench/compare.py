"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py OLD.json NEW.json

Prints one row per workload and metric, labelled

* ``unresolved`` when the spread between rounds, in either file, exceeds
  the metric's bound: the runs cannot tell a change from noise;
* ``same`` when the change is within the bound;
* ``better`` or ``worse`` otherwise, by the metric's direction.

Bounds come from ``BENCHMARK.json`` for the end-to-end metrics. Call
counts are exact proxies: any change in a ``calls.*`` metric counts. Other
per-layer metrics, which have no bound of their own, use 10%. Exits 1 when
any row is worse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import spec

LAYER_BOUND = 0.10


def label(old: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    """(label, signed change as a share of the old value)."""
    before, after = old["value"], new["value"]
    if before == after:
        return "same", 0.0
    change = (after - before) / abs(before) if before else math.copysign(math.inf, after - before)
    if max(old.get("spread", 0.0), new.get("spread", 0.0)) > bound:
        return "unresolved", change
    if abs(change) <= bound:
        return "same", change
    improved = change > 0 if better == "higher" else change < 0
    return ("better" if improved else "worse"), change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    table = spec.metric_table(spec.load())
    with open(args.old, encoding="utf-8") as handle:
        old = json.load(handle)["workloads"]
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)["workloads"]

    worse = 0
    print(f"{'workload':14s} {'metric':42s} {'old':>14s} {'new':>14s} {'change':>8s}  label")
    for workload in [w for w in old if w in new]:
        before, after = old[workload]["metrics"], new[workload]["metrics"]
        for name in [n for n in before if n in after and n in table]:
            entry = table[name]
            if entry["bound"] is not None:
                bound = entry["bound"]
            elif name.startswith("calls."):
                bound = 0.0
            else:
                bound = LAYER_BOUND
            verdict, change = label(before[name], after[name], entry["better"], bound)
            worse += verdict == "worse"
            print(f"{workload:14s} {name:42s} {before[name]['value']:14.4f} "
                  f"{after[name]['value']:14.4f} {100 * change:7.1f}%  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
