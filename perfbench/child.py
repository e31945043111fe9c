"""One repetition of one workload, in a fresh interpreter.

``python3 perfbench/child.py --workload NAME --seed N [--traced]``
imports ``repro`` from the checkout's ``src/``, installs the probes,
runs the workload once and prints one JSON record as its last line:
host timings, exact simulated counts, failed/attempted operations and
the simulated fingerprint. ``run.py`` starts one child per repetition,
one at a time, so every repetition pays a cold import and a cold
prototype cache, as every fresh user process does.

Untraced repetitions time everything on the scaled clock of
``probes.HostClock``, started before anything else is imported; traced
ones on unscaled host time, with the engine sampler instead.
"""

import os
import sys
import time

try:
    # Third-party, and its import (mostly loading shared libraries)
    # runs at a speed the scaled clock does not track: it is left out
    # of every timing.
    import numpy  # noqa: F401
except ImportError:
    pass

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from probes import HostClock  # noqa: E402

CLOCK = HostClock(T0, scaled="--traced" not in sys.argv)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

from metrics import LFDS, MECHANISMS, REFUSALS, STALL_REASONS  # noqa: E402
from probes import LAYERS, Probes, rebind  # noqa: E402

#: The spec seed whose quick Fig 5 makespans the repo pins.
PINNED_SEED = 1
BASELINE = os.path.join(ROOT, "benchmarks", "baselines",
                        "BENCH_figures.json")

FUZZ_MECHANISMS = ("arp", "nop", "sb", "bb", "lrp")
FUZZ_BUDGET = 64
#: Campaign seed of the fuzz part of fuzz-kv, the one the fuzz selftest
#: uses. How much a campaign shrinks depends on its seed (up to 15%
#: more simulations); a fixed seed keeps that work the same in every
#: run, and ``--seed`` drives the KV part.
FUZZ_SEED = 1

#: Modules each workload imports; their import counts toward setup_s.
IMPORTS = {
    "fig5-quick": ("repro.bench.figures",),
    "fuzz-kv": ("repro.fuzz.engine", "repro.mc.checker",
                "repro.mc.programs", "repro.bench.figures",
                "repro.obs.slo", "repro.core.recovery"),
    "selftest": ("repro.bench.figures",),
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Probes, oracle and tallies of one workload repetition."""

    def __init__(self, traced: bool, verify: bool) -> None:
        self.probes = Probes(traced, CLOCK)
        self.counts = Counter()
        self.verify = verify
        # False while fuzz campaigns run: their simulations are
        # executions of an operation (the campaign), not operations.
        self.cells_are_ops = True
        # Oracle seconds inside fuzz legs, taken out of the leg's rate.
        self.in_shrink = False
        self.leg_verify_s = 0.0
        self.cells = []          # (label, makespan) per simulate call
        self.cell_seconds = []
        self.cell_digests = []
        self.verdicts = []       # workload-level verdict records
        self.attempted = 0
        self.failures = []
        self.failed_labels = set()
        self.builds = 0
        self.build_s = 0.0
        self.setup_hits = 0
        self.refusals = Counter()

    # -- probes ----------------------------------------------------------

    def install(self) -> None:
        from repro.core import machine, scheduler, simulator

        probes = self.probes
        setup = simulator._setup_prototype

        def timed_setup(spec, config):
            known = {id(v) for v in simulator._PROTO_CACHE.values()}
            token = probes.begin("setup")
            try:
                entry = setup(spec, config)
            finally:
                seconds = probes.end(token)
            if id(entry) in known:
                self.setup_hits += 1
            else:
                self.builds += 1
                self.build_s += seconds
            return entry

        simulator._setup_prototype = timed_setup

        engine = scheduler.Scheduler.run

        def timed_engine(sched):
            token = probes.begin("engine")
            probes.in_engine = True
            try:
                return engine(sched)
            finally:
                probes.in_engine = False
                probes.end(token)
                self.counts["engine.sim_ops"] += sched.executed_ops
                self.counts["engine.runs"] += 1
                if sched.fastsim_refusal is not None:
                    self.refusals[sched.fastsim_refusal.value] += 1

        scheduler.Scheduler.run = timed_engine
        machine.Machine.finish = probes.wrap("drain", machine.Machine.finish)

        from repro.exp import runner

        self._summarize = runner.summarize
        simulate = simulator.simulate

        def cell(*args, **kwargs):
            token = probes.begin("cell")
            try:
                result = simulate(*args, **kwargs)
            finally:
                self.cell_seconds.append(probes.end(token))
            token = probes.begin("verify")
            try:
                self.check_cell(result)
            finally:
                seconds = probes.end(token)
            if not self.cells_are_ops and not self.in_shrink:
                self.leg_verify_s += seconds
            return result

        fuzz_shrink = sys.modules.get("repro.fuzz.shrink")
        if fuzz_shrink is not None:
            self._install_shrink(fuzz_shrink.shrink_counterexample)

        rebind("simulate", simulate, cell)
        self._wrap_module("repro.exp.runner", "summarize", "summarize")
        self._wrap_module("repro.fuzz.leg", "run_fuzz_leg", "fuzz_leg")
        self._wrap_module("repro.obs.slo", "service_report", "slo")
        self._wrap_module("repro.core.recovery", "crash_test", "crash_test")
        self._wrap_module("repro.mc.checker", "explore_program", "dpor")
        runner.ExperimentRunner.run = probes.wrap(
            "exp_run", runner.ExperimentRunner.run)

    def _install_shrink(self, shrink) -> None:
        """Time shrinking, and flag the oracle seconds spent inside it."""
        probes = self.probes

        def timed_shrink(*args, **kwargs):
            self.in_shrink = True
            token = probes.begin("shrink")
            try:
                return shrink(*args, **kwargs)
            finally:
                probes.end(token)
                self.in_shrink = False

        rebind("shrink_counterexample", shrink, timed_shrink)

    def _wrap_module(self, module: str, attr: str, name: str) -> None:
        mod = sys.modules.get(module)
        if mod is not None:
            rebind(attr, getattr(mod, attr),
                   self.probes.wrap(name, getattr(mod, attr)))

    # -- oracle (after each cell's timed span; excluded from wall_s) -----

    def check_cell(self, result) -> None:
        label = f"{result.spec.structure}/{result.mechanism.lower()}"
        if self.cells_are_ops:
            self.attempted += 1
            self.cells.append((label, result.makespan))
        if self.verify and self.cells_are_ops:
            for check in (result.verify_final_state,
                          result.verify_durable_final_state):
                try:
                    check()
                except AssertionError as exc:
                    self.fail_cell(label, str(exc))
        summary = self._summarize(result)
        stats = result.stats
        c = self.counts
        for core in stats.per_core:
            c["coherence.l1_hits"] += core.l1_hits
            c["coherence.l1_misses"] += core.l1_misses
            c["coherence.evictions"] += core.evictions
            c["coherence.downgrades"] += core.downgrades_received
            c["coherence.invalidations"] += core.invalidations_received
        c["persistency.persists_issued"] += stats.total_persists
        c["persistency.writebacks_total"] += stats.total_writebacks
        c["persistency.writebacks_critical"] += stats.critical_writebacks
        c["persistency.stall_cycles"] += stats.persist_stall_cycles
        for reason, cycles in stats.stall_breakdown().items():
            key = reason if reason in STALL_REASONS else "other"
            c[f"persistency.stall.{key}"] += cycles
        counters = summary.mechanism_counters
        c["lrp.engine_runs"] += counters.get("engine_runs", 0)
        c["lrp.ret_watermark_drains"] += counters.get(
            "ret_watermark_drains", 0)
        c["nvm.persists"] += summary.persist_count
        c["sim.cells"] += 1
        c["sim.makespan_cycles"] += result.makespan
        self.cell_digests.append(digest({
            "cell": label,
            "makespan": result.makespan,
            "executed_ops": result.executed_ops,
            "fallback": result.fastsim_fallback,
            "stats": [dataclasses.asdict(core) for core in stats.per_core],
            "persist_log": summary.persist_log_digest,
            "counters": counters,
        }))

    def fail_cell(self, label: str, why: str) -> None:
        self.failed_labels.add(label)
        self.failures.append(f"{label}: {why}"[:300])

    def operation(self, label: str, ok: bool, verdict) -> None:
        self.attempted += 1
        if not ok:
            self.fail_cell(label, "contract not met")
        self.verdicts.append({"op": label, "ok": ok, **verdict})

    # -- results ---------------------------------------------------------

    def fingerprint(self) -> str:
        return digest({"cells": self.cell_digests,
                       "verdicts": self.verdicts})

    def layers(self, wall_s: float) -> dict:
        p = self.probes
        c = self.counts
        layers = {name: c[name] for name in (
            "engine.sim_ops", "engine.runs", "coherence.l1_hits",
            "coherence.l1_misses", "coherence.evictions",
            "coherence.downgrades", "coherence.invalidations",
            "persistency.persists_issued",
            "persistency.writebacks_critical",
            "persistency.stall_cycles", "lrp.engine_runs",
            "lrp.ret_watermark_drains", "nvm.persists",
            "recovery.crash_points", "recovery.failures", "fuzz.execs",
            "fuzz.candidates", "fuzz.counterexamples",
            "fuzz.coverage_features", "mc.schedules", "mc.interleavings",
            "obs.requests", "sim.cells", "sim.makespan_cycles")}
        for reason in STALL_REASONS:
            name = f"persistency.stall.{reason}"
            layers[name] = c[name]
        for reason in REFUSALS:
            layers[f"engine.fallback.{reason}"] = self.refusals[reason]
        layers["engine.fallback_runs"] = sum(self.refusals.values())
        calls = self.builds + self.setup_hits
        layers.update({
            "setup.build_s": self.build_s,
            "setup.builds": self.builds,
            "setup.proto_hit_ratio": self.setup_hits / calls if calls else 0,
            "engine.busy_s": p.seconds["engine"],
            "engine.ns_per_op": (p.seconds["engine"] * 1e9
                                 / max(1, c["engine.sim_ops"])),
            "coherence.l1_hit_ratio": _ratio(
                c["coherence.l1_hits"],
                c["coherence.l1_hits"] + c["coherence.l1_misses"]),
            "persistency.critical_fraction": _ratio(
                c["persistency.writebacks_critical"],
                c["persistency.writebacks_total"]),
            "nvm.drain_s": p.seconds["drain"],
            "verify.oracle_s": p.seconds["verify"],
            "fuzz.sims": c["fuzz.sims"],
            "fuzz.corpus_yield": _ratio(c["fuzz.corpus_entries"],
                                        c["fuzz.execs"]),
            "fuzz.execs_per_s": _ratio(
                c["fuzz.execs"], p.seconds["campaign"] - p.seconds["shrink"]
                - self.leg_verify_s),
            "mc.reduction": _ratio(c["mc.interleavings"],
                                   c["mc.schedules"]),
        })
        pct = 100.0 / wall_s
        layers.update({
            "recovery.crash_test_pct": p.seconds["crash_test"] * pct,
            "fuzz.leg_pct": p.seconds["fuzz_leg"] * pct,
            "fuzz.shrink_pct": p.seconds["shrink"] * pct,
            "mc.dpor_pct": p.seconds["dpor"] * pct,
            "obs.slo_pct": p.seconds["slo"] * pct,
            "exp.summarize_pct": p.seconds["summarize"] * pct,
            "exp.runner_overhead_pct": p.self_seconds("exp_run") * pct,
        })
        # Modelled design: each mechanism's makespan over NOP's.
        makespans = dict(self.cells)
        for mech in MECHANISMS:
            for lfd in LFDS:
                nop = makespans.get(f"{lfd}/nop")
                other = makespans.get(f"{lfd}/{mech}")
                layers[f"sim.{mech}_over_nop.{lfd}"] = (
                    other / nop if nop and other is not None else 0)
        engine_s = p.seconds["engine"]
        sampled = sum(p.layer_seconds.values())
        for layer in LAYERS:
            layers[f"engine.share.{layer}"] = (
                100.0 * p.layer_seconds[layer] / sampled if sampled else 0)
        layers["engine.sampled_pct"] = (100.0 * sampled / engine_s
                                        if p.traced and engine_s else 0)
        layers["trace.samples"] = p.samples
        return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def fig5_quick(run: Run, seed: int) -> dict:
    from repro.bench.figures import run_figure5
    from repro.exp.runner import ExperimentRunner

    fig = run_figure5(seed=seed, runner=ExperimentRunner(jobs=1))
    makespans = {lfd: {mech: fig.results[lfd][mech].makespan
                       for mech in fig.results[lfd]}
                 for lfd in fig.workloads}
    if seed == PINNED_SEED:
        with open(BASELINE) as handle:
            pinned = json.load(handle)["fig5_makespan"]
        for lfd, row in makespans.items():
            for mech, span in row.items():
                if pinned[lfd][mech] != span:
                    run.fail_cell(f"{lfd}/{mech}", f"makespan {span} != "
                                  f"pinned {pinned[lfd][mech]}")
    return {"fig5_makespan": makespans}


def fuzz_kv(run: Run, seed: int) -> dict:
    """Fig 1 contract campaigns and DPOR litmus checks, then the
    paper-scale KV service."""
    run.cells_are_ops = False
    fuzz_contract(run, FUZZ_SEED)
    run.cells_are_ops = True
    kv_paper(run, seed)
    return {}


def fuzz_contract(run: Run, seed: int) -> None:
    from repro.fuzz.engine import CampaignConfig, run_campaign
    from repro.mc.checker import check_program
    from repro.mc.programs import PROGRAMS

    probes = run.probes
    c = run.counts
    for mech in FUZZ_MECHANISMS:
        config = CampaignConfig(workload="hashmap", mechanism=mech,
                                seed=seed, budget=FUZZ_BUDGET, jobs=1)
        sims_before = c["sim.cells"]
        token = probes.begin("campaign")
        try:
            result = run_campaign(config)
        finally:
            probes.end(token)
        c["fuzz.sims"] += c["sim.cells"] - sims_before
        c["fuzz.execs"] += result.executions
        c["fuzz.corpus_entries"] += len(result.corpus)
        c["fuzz.candidates"] += len(result.candidates)
        c["fuzz.counterexamples"] += len(result.counterexamples)
        c["fuzz.coverage_features"] += len(result.coverage)
        run.operation(f"campaign/{mech}", result.contract_ok, {
            "executions": result.executions,
            "coverage": len(result.coverage),
            "corpus": len(result.corpus),
            "candidates": len(result.candidates),
            "counterexamples": [
                [ce["prefix"], ce["nudges"], ce["shrunk"]]
                for ce in result.counterexamples],
        })
    for name in PROGRAMS:
        token = probes.begin("program")
        try:
            check = check_program(name)
        finally:
            probes.end(token)
        c["mc.schedules"] += check.stats.schedules_explored
        c["mc.interleavings"] += check.stats.interleavings
        run.operation(f"program/{name}", check.contract_ok, {
            "schedules": check.stats.schedules_explored,
            "interleavings": check.stats.interleavings,
            "clean": check.clean_map(),
        })


def kv_paper(run: Run, seed: int) -> None:
    from repro.bench.figures import run_figure_kv
    from repro.exp.runner import ExperimentRunner

    fig = run_figure_kv(scale="paper", seed=seed,
                        runner=ExperimentRunner(jobs=1))
    c = run.counts
    for mech in fig.mechanisms:
        payload = fig.payloads.get(mech) or {}
        summary = fig.summaries[mech]
        c["recovery.crash_points"] += summary.crash_attempts or 0
        c["recovery.failures"] += summary.crash_failures or 0
        c["obs.requests"] += payload.get("requests", 0)
        if not payload:
            run.fail_cell(f"hashmap/{mech}", "SLO payload missing")
        if summary.crash_failures:
            run.fail_cell(f"hashmap/{mech}", f"{summary.crash_failures} "
                          "crash points failed null recovery")
        run.verdicts.append({"op": f"kv/{mech}", "slo": payload})


def selftest(run: Run, seed: int) -> dict:
    """One quick Fig 5 row: the benchmark's own tests run this."""
    from repro.bench.figures import run_figure5
    from repro.exp.runner import ExperimentRunner

    run_figure5(seed=seed, workloads=["hashmap"],
                runner=ExperimentRunner(jobs=1))
    return {}


WORKLOADS = {
    "selftest": selftest,
    "fig5-quick": fig5_quick,
    "fuzz-kv": fuzz_kv,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--imports-only", action="store_true",
                        help="stop after importing the workload's modules")
    parser.add_argument("--verify", action="store_true",
                        help="run the final-state oracles on every cell")
    args = parser.parse_args()

    import importlib

    import repro  # noqa: F401
    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = CLOCK.now()
    if args.imports_only:
        CLOCK.stop()
        print(json.dumps({"import_s": import_s}))
        return 0

    run = Run(args.traced, args.verify)
    run.install()
    run.probes.start_sampler()
    token = run.probes.begin("workload")
    try:
        extra = WORKLOADS[args.workload](run, args.seed)
    finally:
        run.probes.end(token)
        run.probes.stop_sampler()
    wall_s = CLOCK.now() - run.probes.seconds["verify"]
    host_wall_s = CLOCK.raw() - run.probes.raw_seconds["verify"]
    CLOCK.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "import_s": import_s,
        "setup_s": import_s + run.build_s,
        "build_s": run.build_s,
        "wall_s": wall_s,
        "host_wall_s": host_wall_s,
        "verify_host_s": run.probes.raw_seconds["verify"],
        "engine_s": run.probes.seconds["engine"],
        "sim_ops": run.counts["engine.sim_ops"],
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": run.attempted,
        "failed": len(run.failed_labels),
        "failures": run.failures[:20],
        "fingerprint": run.fingerprint(),
        "counts": {k: v for k, v in sorted(run.counts.items())},
        "layers": run.layers(wall_s),
        "cells": run.cells,
        "cell_seconds": run.cell_seconds,
        **extra,
    }
    if args.traced:
        record["span_tree"] = span_tree(run.probes)
    print(json.dumps(record, sort_keys=True))
    return 0


def span_tree(probes: Probes) -> dict:
    """Per span name: count, total seconds and parent span names."""
    names = {sid: name for sid, _p, name, _s, _e in probes.spans}
    tree = {}
    for _sid, parent, name, start, stop in probes.spans:
        entry = tree.setdefault(name, {"count": 0, "seconds": 0.0,
                                       "parents": set()})
        entry["count"] += 1
        entry["seconds"] += stop - start
        entry["parents"].add(names.get(parent, "-"))
    for entry in tree.values():
        entry["parents"] = sorted(entry["parents"])
    return tree


if __name__ == "__main__":
    sys.exit(main())
