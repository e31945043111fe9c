"""Single-cell profiling and the same-host perf gate.

``python -m repro.bench.profile`` runs ONE figure cell — a (workload,
mechanism, scale) triple — cold, straight through :func:`simulate`
(no runner, no result cache), and reports wall time, simulated
makespan, ops/sec and a naive projection of the full 20-cell Figure 5
sweep at that scale. Optionally it repeats the run under
:mod:`cProfile` and prints the top-N functions, which is how the
batch-engine optimization campaign measured itself (captured
before/after listings live in ``examples/``).

Two jobs beyond interactive profiling:

* **Sizing paper-scale sweeps** — run one cell at ``--scale paper``
  and read the projected sweep time before committing a machine to
  the overnight run.
* **CI perf smoke** — ``--against`` times the same cold cell for the
  working tree and for a base git ref on this host, in
  :func:`repro.bench.perf.abba` rounds of subprocesses (each side runs
  ``python -m repro.bench.profile --top 0 --json-out F`` from its own
  source tree). It exits non-zero when the median time ratio of the
  tree over the base exceeds :data:`AGAINST_BOUND`. The base is worked
  out from the tree (:func:`repro.bench.perf.base_ref`): HEAD when
  ``src/`` has uncommitted changes, HEAD~1 otherwise. No seconds
  recorded on another host enter the gate; the makespans it prints
  are pinned exactly by the tier-1 tests instead. It bounds one
  change against its base, not the drift summed over many changes.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import subprocess
import sys
import tempfile
import time
from typing import Dict, Optional, Sequence

from repro.bench import perf
from repro.bench.configs import (
    SCALED_CONFIG,
    SCALES,
    bench_config,
    figure_spec,
)
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds import WORKLOAD_NAMES
from repro.persistency import MECHANISMS

#: Cells in a full Figure 5 sweep: 5 workloads x (nop + sb/bb/lrp).
FIG5_CELLS = 20

#: ABBA rounds of an ``--against`` run (four cold-cell subprocesses
#: each, ~25 s in all). On a 2-CPU host, 12 runs on identical code
#: read medians 0.943-1.089 (mean 1.005, sd 0.043; round IQRs
#: 0.036-0.244) and 6 runs on a copy slowed ~34% read 1.347-1.538. At
#: 5 rounds one slowed run in six read 1.198 and passed. Noise on CI
#: runners is unmeasured.
AGAINST_ROUNDS = 9

#: ``--against`` fails when the tree's median time ratio over the base
#: ref exceeds this: 4.5 sd above identical code's mean, below every
#: slowed run.
AGAINST_BOUND = 1.2


def run_cell(workload: str, mechanism: str, *, scale: str = "quick",
             num_threads: int = 32, seed: int = 1,
             profiler: Optional[cProfile.Profile] = None
             ) -> Dict[str, object]:
    """One cold figure cell; returns the measurement record.

    Cold means: the setup-prototype cache is dropped first, so the
    measured time includes building and populating the structure —
    the same work a fresh ``--no-cache`` figures run pays per cell.
    """
    spec = figure_spec(workload, num_threads=num_threads, scale=scale,
                       seed=seed)
    config = bench_config(SCALED_CONFIG)
    clear_setup_cache()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = simulate(spec, mechanism, config)
    if profiler is not None:
        profiler.disable()
    elapsed = time.perf_counter() - start
    return {
        "workload": workload,
        "mechanism": mechanism,
        "scale": scale,
        "num_threads": num_threads,
        "seed": seed,
        "seconds": round(elapsed, 3),
        "makespan": result.makespan,
        "executed_ops": result.executed_ops,
        "ops_per_second": round(result.executed_ops / elapsed, 1)
        if elapsed else None,
        # Naive per-cell extrapolation: every cell priced like this
        # one. Real sweeps vary per cell (queue under SB is the slow
        # corner), so read this as an order-of-magnitude budget.
        "projected_fig5_sweep_seconds": round(elapsed * FIG5_CELLS, 1),
    }


def against(args: argparse.Namespace) -> int:
    """``--against``: the cold cell, working tree (B) vs the base ref (A).

    Each run is a fresh interpreter on one side's ``src/`` reporting
    its own cold-cell seconds, so neither side inherits the other's
    imports or caches. Exit 1 if the median ratio exceeds the bound.
    """
    ref = perf.base_ref()
    cell = ["--workload", args.workload, "--mechanism", args.mechanism,
            "--scale", args.scale, "--threads", str(args.threads),
            "--seed", str(args.seed), "--engine", args.engine]
    cell += ["--no-numpy"] if args.no_numpy else []
    tree_src = os.path.join(perf.REPO_ROOT, "src")
    makespan: Dict[str, int] = {}
    with perf.source_tree(ref) as ref_src, \
            tempfile.TemporaryDirectory(prefix="repro-ab-") as tmp:
        out = os.path.join(tmp, "cell.json")

        def side(src: str) -> float:
            subprocess.run(
                [sys.executable, "-m", "repro.bench.profile", "--top", "0",
                 "--json-out", out, *cell],
                env=dict(os.environ, PYTHONPATH=src), cwd=tmp,
                stdout=subprocess.DEVNULL, check=True)
            with open(out) as handle:
                record = json.load(handle)
            makespan[src] = record["makespan"]
            return record["seconds"]

        timing = perf.abba(lambda: side(ref_src), lambda: side(tree_src),
                           AGAINST_ROUNDS)
        print(f"{args.workload}/{args.mechanism} @ {args.scale} cold, "
              f"working tree vs {ref}, {AGAINST_ROUNDS} ABBA rounds")
        print(f"  median time ratio {timing.ratio:.3f} "
              f"(IQR {timing.iqr:.3f}, bound {AGAINST_BOUND})")
        print(f"  best: tree {timing.best_b} s, makespan "
              f"{makespan[tree_src]}; {ref} {timing.best_a} s, makespan "
              f"{makespan[ref_src]}")
    if timing.ratio > AGAINST_BOUND:
        print(f"PERF REGRESSION: median ratio {timing.ratio:.3f} vs "
              f"{ref} exceeds {AGAINST_BOUND}", file=sys.stderr)
        return 1
    print(f"perf check OK vs {ref}")
    return 0


def _print_profile(profiler: cProfile.Profile, top: int) -> None:
    for sort in ("cumulative", "tottime"):
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.strip_dirs().sort_stats(sort).print_stats(top)
        print(f"--- top {top} by {sort} ---")
        print(buf.getvalue())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile one figure cell cold; optionally time it "
                    "against a git ref on this host.")
    parser.add_argument("--workload", default="hashmap",
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--mechanism", default="lrp",
                        choices=sorted(MECHANISMS))
    parser.add_argument("--scale", default="quick",
                        choices=sorted(SCALES))
    parser.add_argument("--threads", type=int, default=32)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--engine", choices=("fast", "reference"),
                        default="fast",
                        help="'reference' forces REPRO_FASTSIM=0 for "
                             "before/after comparisons")
    parser.add_argument("--top", type=int, default=20, metavar="N",
                        help="functions to show from a second, "
                             "cProfile'd run (0 = skip the profiled "
                             "pass; the timed run is never profiled)")
    parser.add_argument("--no-numpy", action="store_true",
                        help="force the pure-array table fallback")
    parser.add_argument("--json-out", default=None, metavar="FILE")
    parser.add_argument("--against", action="store_true",
                        help="time the cold cell for the working tree "
                             "vs the base git ref (HEAD when src/ has "
                             "uncommitted changes, else HEAD~1) in "
                             "subprocess ABBA rounds; exit 1 if the "
                             "median ratio exceeds "
                             f"{AGAINST_BOUND}")
    args = parser.parse_args(argv)

    if args.no_numpy:
        os.environ["REPRO_NO_NUMPY"] = "1"
    if args.against:
        try:
            return against(args)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    with perf.engine(args.engine == "fast"):
        record = run_cell(args.workload, args.mechanism, scale=args.scale,
                          num_threads=args.threads, seed=args.seed)
        record["engine"] = args.engine

        print(f"{args.workload}/{args.mechanism} @ {args.scale} "
              f"({args.threads} threads, seed {args.seed}, "
              f"{args.engine} engine)")
        print(f"  cold cell time : {record['seconds']} s")
        print(f"  makespan       : {record['makespan']} cycles")
        print(f"  executed ops   : {record['executed_ops']} "
              f"({record['ops_per_second']} ops/s)")
        print(f"  projected full Figure 5 sweep at this scale: "
              f"~{record['projected_fig5_sweep_seconds']} s "
              f"({FIG5_CELLS} cells, naive per-cell extrapolation)")

        if args.top > 0:
            profiler = cProfile.Profile()
            run_cell(args.workload, args.mechanism, scale=args.scale,
                     num_threads=args.threads, seed=args.seed,
                     profiler=profiler)
            print()
            _print_profile(profiler, args.top)

    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
