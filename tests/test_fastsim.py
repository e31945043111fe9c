"""Fast-vs-reference equivalence matrix for the batch engine.

The batch engine (:mod:`repro.core.fastsim`) promises the *same
execution bit for bit* as the reference scheduler loop — same
makespans, same per-core stats, same persist streams, same memory
images, same recorded events. These tests pin that promise across
every persistency mechanism and every workload, with trace recording
both off (the figures configuration, where the inline read path and
the event-free acquire contract are active) and on (every MemoryEvent
must still be built).

Fuzz executions (schedule nudges plus a provenance observer) get the
same matrix, compared on the fingerprint and the whole obs export, so
fuzz replays and coverage maps cannot diverge no matter what
``REPRO_FASTSIM`` says; the remaining refusals are pinned too.
"""

import dataclasses
import hashlib

import pytest

from repro.common.params import MachineConfig
from repro.core import fastsim
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds import WORKLOAD_NAMES
from repro.obs import Observer
from repro.persistency import MECHANISMS
from repro.workloads.harness import WorkloadSpec

ALL_MECHANISMS = ["nop", "sb", "bb", "arp", "dpo", "hops", "lrp"]

#: Tiny but adversarial: 2-way 1KB L1s force constant misses,
#: evictions, upgrades and cross-core downgrades.
SMALL_CONFIG = dict(l1_size_bytes=1024, l1_assoc=2,
                    num_memory_controllers=2, compute_cycles_per_op=2)


def _spec(structure, seed=7, ops=10):
    return WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=32, ops_per_thread=ops, seed=seed)


def _fingerprint(result, record):
    """Everything observable about a run, hashed."""
    h = hashlib.sha256()
    h.update(repr((result.makespan, result.executed_ops)).encode())
    h.update(repr(dataclasses.asdict(result.stats)).encode())
    for core_stats in result.machine.stats:
        h.update(repr(dataclasses.asdict(core_stats)).encode())
    for rec in result.nvm.persist_log():
        h.update(repr(rec).encode())
    h.update(repr(sorted(result.trace.memory_snapshot().items())).encode())
    h.update(repr(result.outcomes).encode())
    if record:
        for event in result.trace.events:
            h.update(repr(event._key()).encode())
    return h.hexdigest()


def _run(structure, mechanism, *, fast, record, monkeypatch,
         observer=None, nudges=None, no_numpy=False, ops=10):
    monkeypatch.setenv("REPRO_FASTSIM", "1" if fast else "0")
    if no_numpy:
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    clear_setup_cache()
    config = MachineConfig(record_trace=record, **SMALL_CONFIG)
    return simulate(_spec(structure, ops=ops), mechanism, config,
                    observer=observer, schedule_nudges=nudges)


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
@pytest.mark.parametrize("structure", WORKLOAD_NAMES)
@pytest.mark.parametrize("record", [False, True],
                         ids=["norecord", "record"])
def test_fast_matches_reference(structure, mechanism, record,
                                monkeypatch):
    fast = _run(structure, mechanism, fast=True, record=record,
                monkeypatch=monkeypatch)
    ref = _run(structure, mechanism, fast=False, record=record,
               monkeypatch=monkeypatch)
    assert _fingerprint(fast, record) == _fingerprint(ref, record)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fast_matches_reference_across_seeds(seed, monkeypatch):
    for fast in (True, False):
        monkeypatch.setenv("REPRO_FASTSIM", "1" if fast else "0")
        clear_setup_cache()
        config = MachineConfig(record_trace=False, **SMALL_CONFIG)
        result = simulate(_spec("hashmap", seed=seed), "lrp", config)
        if fast:
            want = _fingerprint(result, record=False)
        else:
            assert _fingerprint(result, record=False) == want


# ----------------------------------------------------------------------
# Fuzz executions: nudged schedules and provenance on the batch engine
# ----------------------------------------------------------------------

#: A fuzz-style mutation: a few decisions nudged to non-zero ranks.
FUZZ_NUDGES = {0: 3, 5: 1, 9: 2, 17: 1, 30: 3}


def _fuzz_exec(structure, mechanism, *, fast, record, monkeypatch,
               nudges=FUZZ_NUDGES):
    """One fuzz-style execution: (fallback, fingerprint, obs export)."""
    obs = Observer(provenance=True)
    result = _run(structure, mechanism, fast=fast, record=record,
                  monkeypatch=monkeypatch, observer=obs, nudges=nudges)
    return (result.fastsim_fallback, _fingerprint(result, record),
            obs.export())


def _assert_engines_agree(structure, mechanism, record, monkeypatch,
                          nudges=FUZZ_NUDGES):
    fb_fast, fp_fast, export_fast = _fuzz_exec(
        structure, mechanism, fast=True, record=record,
        monkeypatch=monkeypatch, nudges=nudges)
    fb_ref, fp_ref, export_ref = _fuzz_exec(
        structure, mechanism, fast=False, record=record,
        monkeypatch=monkeypatch, nudges=nudges)
    assert fb_fast is None  # the batch engine really ran it
    assert fb_ref == fastsim.Refusal.ENV_DISABLED.value
    assert fp_fast == fp_ref
    assert export_fast["provenance"] == export_ref["provenance"]
    assert export_fast["metrics"] == export_ref["metrics"]
    assert export_fast == export_ref


@pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
@pytest.mark.parametrize("structure", WORKLOAD_NAMES)
@pytest.mark.parametrize("record", [False, True],
                         ids=["norecord", "record"])
def test_fuzz_exec_identical_either_way(structure, mechanism, record,
                                        monkeypatch):
    """A nudged, provenance-observed run is REPRO_FASTSIM-invariant:
    the full fingerprint and the whole obs export (provenance entries,
    stall folds, metrics) match the reference loop."""
    _assert_engines_agree(structure, mechanism, record, monkeypatch)


def test_observer_and_provenance_identical_either_way(monkeypatch):
    """An un-nudged provenance run: same fingerprint, same export."""
    _assert_engines_agree("hashmap", "lrp", False, monkeypatch,
                          nudges=None)


def test_fuzz_nudges_identical_either_way(monkeypatch):
    """A nudged (fuzz-replay) schedule is REPRO_FASTSIM-invariant."""
    _assert_engines_agree("queue", "lrp", True, monkeypatch,
                          nudges={0: 3, 5: 1, 9: 2})


NUDGE_EDGES = {
    "decision-0": {0: 1},
    "rank-past-runnable": {0: 7, 6: 13, 11: 4},
    "past-run-end": {10 ** 6: 1},
    "burst-12": {i: 1 + i % 3 for i in range(40, 52)},
}


@pytest.mark.parametrize("mechanism", ["arp", "bb", "lrp"])
@pytest.mark.parametrize("edge", sorted(NUDGE_EDGES))
def test_nudge_edge_cases_identical_either_way(edge, mechanism,
                                               monkeypatch):
    _assert_engines_agree("queue", mechanism, False, monkeypatch,
                          nudges=NUDGE_EDGES[edge])


def test_nudges_share_the_heartbeat_threshold(monkeypatch):
    """Nudged indices and heartbeats share one op-count threshold:
    every beat still fires on schedule, including at nudged indices,
    and the run matches the reference loop."""
    beats = []
    monkeypatch.setattr(fastsim, "HEARTBEAT_OPS", 5)
    monkeypatch.setattr(fastsim, "PROGRESS_HOOK",
                        lambda executed, clock: beats.append(executed))
    nudges = {0: 1, 5: 2, 6: 3, 10: 1, 12: 2}
    _assert_engines_agree("queue", "lrp", False, monkeypatch,
                          nudges=nudges)
    assert beats[:4] == [5, 10, 15, 20]
    assert beats == list(range(5, 5 * len(beats) + 1, 5))


def _finish_indices(mechanism, nudges, monkeypatch):
    """Decision indices at which a thread finished, reference loop."""
    from repro.core.scheduler import Scheduler, SimThread

    finishes, current = [], []
    next_op, run = SimThread.next_op, Scheduler.run

    def spying_next_op(thread):
        op = next_op(thread)
        if op is None:
            finishes.append(current[0].executed_ops)
        return op

    def tracking_run(sched):
        current.append(sched)
        return run(sched)

    with monkeypatch.context() as patch:
        patch.setattr(SimThread, "next_op", spying_next_op)
        patch.setattr(Scheduler, "run", tracking_run)
        _run("queue", mechanism, fast=False, record=False,
             monkeypatch=patch, nudges=nudges)
    return finishes


@pytest.mark.parametrize("mechanism", ["arp", "bb", "lrp"])
def test_nudge_on_finishing_thread_identical_either_way(mechanism,
                                                        monkeypatch):
    """Nudge the decision at which the first coroutine finishes with
    rank 4 (the runnable count): 4 % 4 picks the finished thread, which
    leaves the runnable set, and the same decision is decided again
    with 4 % 3 = 1 instead of the default rank 0 — on both engines."""
    first = _finish_indices(mechanism, None, monkeypatch)[0]
    nudges = {first: 4}
    assert first in _finish_indices(mechanism, nudges, monkeypatch)
    _assert_engines_agree("queue", mechanism, True, monkeypatch,
                          nudges=nudges)
    # The re-decision took effect: the event order left the default.
    assert _fuzz_exec("queue", mechanism, fast=False, record=True,
                      monkeypatch=monkeypatch, nudges=nudges)[1] != \
        _fuzz_exec("queue", mechanism, fast=False, record=True,
                   monkeypatch=monkeypatch, nudges=None)[1]


def _scheduled_order(workers, nudges, *, fast, monkeypatch):
    """Thread ids in global event order, plus the engine's refusal."""
    from repro.core.machine import Machine
    from repro.core.scheduler import Scheduler

    monkeypatch.setenv("REPRO_FASTSIM", "1" if fast else "0")
    machine = Machine(MachineConfig(record_trace=True, **SMALL_CONFIG),
                      "lrp")
    sched = Scheduler(machine, workers)
    sched.set_nudges(nudges)
    makespan = sched.run()
    order = [event.thread_id for event in machine.trace.events]
    return order, makespan, sched.fastsim_refusal


def test_thread_finishing_at_nudged_decision(monkeypatch):
    """The nudged pick's coroutine is finished: it leaves the runnable
    set and the same decision index is decided again, among fewer."""
    from repro.core.thread import store

    def writer(count):
        def gen(tid):
            for i in range(count):
                yield store(0x40 * (tid + 1) + 8 * i, i)
        return gen

    workers = [writer(1), writer(3), writer(3)]
    # Decision 1: keys sort as [t1, t2, t0]; rank 5 % 3 picks t0, which
    # is finished, so decision 1 is re-decided: 5 % 2 picks t2.
    runs = [_scheduled_order(workers, {1: 5}, fast=fast,
                             monkeypatch=monkeypatch)
            for fast in (True, False)]
    (order_fast, makespan_fast, refusal_fast), \
        (order_ref, makespan_ref, _) = runs
    assert refusal_fast is None
    assert order_fast == order_ref
    assert makespan_fast == makespan_ref
    assert order_ref[:2] == [0, 2]


def test_eligibility_refusals(monkeypatch):
    """Nudges and provenance ride the batch engine; env, max-ops,
    trace and unknown observers still refuse."""
    monkeypatch.setenv("REPRO_FASTSIM", "1")

    class FakeMachine:
        obs = None

    class FakeScheduler:
        _nudges = None
        max_ops = None
        machine = FakeMachine()

    sched = FakeScheduler()
    assert fastsim.eligible(sched)
    sched._nudges = {0: 1}
    assert fastsim.check(sched) is None
    sched.machine.obs = Observer(provenance=True)
    assert fastsim.check(sched) is None
    sched.machine.obs = Observer(trace=True, provenance=True)
    assert fastsim.check(sched) is fastsim.Refusal.OBSERVER_TRACE
    sched.machine.obs = object()
    assert fastsim.check(sched) is fastsim.Refusal.OBSERVER_UNKNOWN
    sched.machine.obs = None
    sched.max_ops = 100
    assert fastsim.check(sched) is fastsim.Refusal.MAX_OPS
    sched.max_ops = None
    monkeypatch.setenv("REPRO_FASTSIM", "0")
    assert fastsim.check(sched) is fastsim.Refusal.ENV_DISABLED
    assert {r.value for r in fastsim.Refusal} == {
        "env-disabled", "max-ops", "observer-trace", "observer-unknown"}


def test_scheduler_delegates_to_fastsim(monkeypatch):
    """Scheduler.run actually uses the batch engine when eligible."""
    calls = []
    original = fastsim.run

    def spy(scheduler):
        calls.append(scheduler)
        return original(scheduler)

    monkeypatch.setattr(fastsim, "run", spy)
    monkeypatch.setenv("REPRO_FASTSIM", "1")
    clear_setup_cache()
    config = MachineConfig(record_trace=False, **SMALL_CONFIG)
    simulate(_spec("hashmap"), "lrp", config)
    assert calls


# ----------------------------------------------------------------------
# The event-free acquire contract
# ----------------------------------------------------------------------

def test_every_mechanism_declares_acquire_ignores_event():
    """The batch engine passes event=None to on_acquire when recording
    is off; each mechanism class must uphold (and declare) that its
    hook never dereferences the event. The equivalence matrix above
    would catch a stale flag behaviorally; this pins the declaration."""
    for name, cls in MECHANISMS.items():
        assert cls.acquire_ignores_event is True, name


# ----------------------------------------------------------------------
# numpy-optional: both table backends are bit-identical
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mechanism", ["bb", "lrp"])
def test_numpy_fallback_identical(mechanism, monkeypatch):
    """REPRO_NO_NUMPY=1 (pure-array fallback) changes nothing."""
    with_numpy = _run("hashmap", mechanism, fast=True, record=False,
                      monkeypatch=monkeypatch, no_numpy=False)
    fp_with = _fingerprint(with_numpy, record=False)
    without = _run("hashmap", mechanism, fast=True, record=False,
                   monkeypatch=monkeypatch, no_numpy=True)
    assert fp_with == _fingerprint(without, record=False)


def test_paper_scale_sizing():
    """--scale paper runs the paper's element counts outright."""
    from repro.bench.configs import SCALES, figure_spec

    assert "paper" in SCALES
    for structure in ("hashmap", "bstree", "skiplist"):
        spec = figure_spec(structure, scale="paper")
        assert spec.initial_size >= 65536, structure
        assert spec.num_threads == 32
        assert spec.ops_per_thread > \
            figure_spec(structure, scale="full").ops_per_thread


def test_persist_batch_matches_sequential(monkeypatch):
    """issue_persist_batch == per-record issue_persist, both backends."""
    from repro.memory.nvm import NVMController

    config = MachineConfig(**SMALL_CONFIG)
    items = [(addr * config.line_bytes,
              {addr * config.line_bytes: (addr, 0)})
             for addr in range(1, 41)]   # >=16 lines: vectorized path
    for no_numpy in (False, True):
        if no_numpy:
            monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        else:
            monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
        batched = NVMController(config)
        records = batched.issue_persist_batch(items, 100, after=120)
        sequential = NVMController(config)
        expected = [sequential.issue_persist(addr, words, 100, after=120)
                    for addr, words in items]
        assert ([(r.line_addr, r.issue_time, r.complete_time)
                 for r in records]
                == [(r.line_addr, r.issue_time, r.complete_time)
                    for r in expected])
