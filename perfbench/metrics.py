"""The benchmark's metric catalogue and how runs fold into it.

``BENCHMARK.json`` at the root of the checkout is the catalogue: its
workloads and metrics, with their units, directions and bounds, are
loaded from there. End-to-end metrics are host measurements of the
untraced runs; per-layer metrics come from the traced run and are
either host time inside one layer or exact simulated counts.

A layer that a workload never exercises reports 0 for its counts and
shares. Host times a workload may not exercise are reported as a
share of ``wall_s`` (``*_pct``), never as seconds, so that no
seconds figure is constant by construction.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")

with open(BENCHMARK_JSON) as _handle:
    _DOC = json.load(_handle)

#: Workload names, in the catalogue's order.
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in _DOC["workloads"])
#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    m["name"]: (m["unit"], m["better"], m["bound"])
    for m in _DOC["end_to_end"]}
#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _DOC["per_layer"]}

#: Vocabularies the per-layer names are built from.
MECHANISMS = ("sb", "bb", "lrp")
LFDS = ("linkedlist", "hashmap", "bstree", "skiplist", "queue")
REFUSALS = ("env-disabled", "schedule-nudges", "max-ops", "observer-trace",
            "observer-provenance", "observer-unknown")
STALL_REASONS = ("barrier", "buffer-full", "epoch-window", "eviction",
                 "inter-thread", "persist", "rmw-acquire",
                 "write-conflict", "other")

#: Per-layer host figures: the median over traced runs is reported.
#: Everything else per-layer is an exact count, identical in every run.
PER_LAYER_TIMED = frozenset(
    name for name, (unit, _better) in PER_LAYER.items()
    if unit in ("s", "ns", "%", "1/s") or name == "trace.samples")


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and IQR/median of a sample."""
    values = sorted(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1],
            "iqr_over_median": (q3 - q1) / mid if mid else 0.0}


def end_to_end(reps: List[dict], imports: List[float]) -> Dict[str, float]:
    """End-to-end metrics of one run: medians over its untraced
    repetitions, and for ``setup_s`` the median import time of the
    import-only processes plus the median prototype build time.
    Host times are on the scaled clock (``probes.HostClock``). The
    first repetition is left out when there are others: its
    final-state oracle takes snapshots that raise peak memory and
    disturb the caches."""
    timed = reps[1:] or reps
    return {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_s": (statistics.median(imports)
                    + statistics.median(r["build_s"] for r in timed)),
        "sim_ops_per_s": statistics.median(
            r["sim_ops"] / r["engine_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def per_layer(traced: List[dict], plain: List[dict]) -> Dict[str, float]:
    """Per-layer figures: exact counts from the first traced run,
    host-time figures as medians over every traced run."""
    values = {name: traced[0]["layers"][name] for name in PER_LAYER
              if name != "trace.overhead_ratio"}
    for name in PER_LAYER_TIMED:
        values[name] = statistics.median(
            [r["layers"][name] for r in traced])
    values["trace.overhead_ratio"] = (
        statistics.median([r["host_wall_s"] for r in traced])
        / statistics.median([r["host_wall_s"]
                             for r in plain[1:] or plain]))
    return values
