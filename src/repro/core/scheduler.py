"""Deterministic smallest-clock-first scheduler.

Each hardware thread runs a generator coroutine that yields
:class:`~repro.core.thread.Op` objects. The scheduler always advances
the runnable thread with the lowest local clock — a conservative
time-ordered interleaving: memory operations perform atomically in
(simulated) timestamp order, which yields a sequentially consistent
execution whose timing reflects contention, persist stalls and cache
behaviour.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Generator, Iterable, List, Mapping, \
    Optional

from repro.core import fastsim
from repro.core.machine import Machine
from repro.core.thread import Op, OpKind
from repro.obs.spans import REQUEST_BOUNDARY as _BOUNDARY

_WORK = OpKind.WORK

WorkerGen = Generator[Op, object, None]
WorkerFactory = Callable[[int], WorkerGen]


class SimThread:
    """One hardware thread driving a workload coroutine."""

    __slots__ = ("thread_id", "gen", "clock", "done", "_pending_result",
                 "_started")

    def __init__(self, thread_id: int, gen: WorkerGen) -> None:
        self.thread_id = thread_id
        self.gen = gen
        self.clock = 0
        self.done = False
        self._pending_result: object = None
        self._started = False

    def next_op(self) -> Optional[Op]:
        """Advance the coroutine to its next yielded op (None = done)."""
        try:
            if not self._started:
                self._started = True
                return next(self.gen)
            return self.gen.send(self._pending_result)
        except StopIteration:
            self.done = True
            return None

    def deliver(self, result: object) -> None:
        self._pending_result = result


class Scheduler:
    """Runs worker coroutines on a machine until all complete."""

    def __init__(self, machine: Machine,
                 workers: Iterable[WorkerFactory]) -> None:
        self.machine = machine
        self.threads: List[SimThread] = [
            SimThread(tid, factory(tid))
            for tid, factory in enumerate(workers)
        ]
        if len(self.threads) > machine.config.num_cores:
            raise ValueError(
                f"{len(self.threads)} workers exceed "
                f"{machine.config.num_cores} cores")
        self.max_ops: Optional[int] = None   # safety valve for tests
        self._executed_ops = 0
        # Priority nudges (repro.fuzz): decision index -> runnable rank.
        self._nudges: Optional[Dict[int, int]] = None
        # Why the batch engine declined the last run (None = it ran).
        # Recorded by run() and surfaced as the fastsim_fallback
        # diagnostic on SimulationResult / RunSummary.
        self.fastsim_refusal: Optional[fastsim.Refusal] = None

    @property
    def executed_ops(self) -> int:
        """Operations executed so far (= schedule decisions taken)."""
        return self._executed_ops

    def set_nudges(self, nudges: Optional[Mapping[int, int]]) -> None:
        """Install schedule-perturbation nudges (the fuzzing hook).

        ``nudges`` maps a *decision index* (the number of operations
        executed machine-wide when the scheduler next picks a thread)
        to a *rank*: instead of the runnable thread with the smallest
        ``(clock, thread_id)`` key (rank 0), the scheduler picks the
        rank-th smallest, modulo the number of runnable threads. A
        thread whose coroutine turns out to be finished at a nudged
        decision leaves the runnable set, and the same decision index
        is decided again among the rest. Both engines honour nudges
        (the batch engine closes a quantum at every nudged index), and
        an empty mapping executes the exact default interleaving.
        """
        self._nudges = dict(nudges) if nudges is not None else None

    def run(self) -> int:
        """Execute until every thread finishes; returns the makespan."""
        self.fastsim_refusal = fastsim.check(self)
        if self.fastsim_refusal is None:
            # Bit-identical batched execution (see repro.core.fastsim);
            # REPRO_FASTSIM=0 forces the reference loop below.
            return fastsim.run(self)
        nudges = self._nudges or {}
        compute = self.machine.config.compute_cycles_per_op
        execute = self.machine.execute
        stats = self.machine.stats
        obs = self.machine.obs
        trace = self.machine.trace
        sp = self._span_lanes(obs)
        heappop, heappush = heapq.heappop, heapq.heappush
        heap = [(t.clock, t.thread_id) for t in self.threads]
        heapq.heapify(heap)
        while heap:
            rank = nudges.get(self._executed_ops, 0) % len(heap)
            if rank:
                # Nudged decision: the rank-th smallest key runs; the
                # smaller keys popped on the way go back unchanged.
                passed = [heappop(heap) for _ in range(rank)]
                _, tid = heappop(heap)
                for entry in passed:
                    heappush(heap, entry)
            else:
                _, tid = heappop(heap)
            thread = self.threads[tid]
            op = thread.next_op()
            if op is None:
                # Finished: the same decision index is decided again
                # among the threads still runnable.
                stats[tid].cycles = thread.clock
                continue
            if self.max_ops is not None and self._executed_ops >= self.max_ops:
                raise RuntimeError(
                    f"scheduler exceeded max_ops={self.max_ops} — "
                    "possible livelock in a workload")
            result, latency = execute(tid, op, thread.clock)
            thread.deliver(result)
            if obs is not None:
                # Exact compute attribution for the critical-path
                # report: WORK latency is pure compute; memory ops
                # contribute only the fixed per-op compute charge.
                if op.kind is _WORK:
                    obs.count(f"sched.compute_cycles.c{tid}",
                              latency + compute)
                    obs.tick(f"compute.c{tid}", thread.clock,
                             latency + compute)
                    if sp is not None and op.site is _BOUNDARY:
                        sp[0][tid].append(thread.clock)
                        sp[1][tid].append(trace._count)
                else:
                    obs.count(f"sched.compute_cycles.c{tid}", compute)
                    obs.count(f"sched.mem_cycles.c{tid}", latency)
                    obs.tick(f"compute.c{tid}", thread.clock, compute)
                    obs.tick(f"mem.c{tid}", thread.clock, latency)
                obs.span(f"core{tid}", op.kind.name, thread.clock,
                         latency + compute, cat="op")
            thread.clock += latency + compute
            self._executed_ops += 1
            heappush(heap, (thread.clock, tid))
        return self.makespan()

    def _span_lanes(self, obs):
        """The ``(boundary, event-mark)`` span lanes, or None when off.

        Request boundaries are recorded against the op's *pre-advance*
        clock — the request's completion cycle — plus the global
        memory-event count at that moment (the request's event
        frontier), matching the batch engine's recording exactly
        (tests/test_kvservice.py pins the reference-vs-fastsim span
        equality).
        """
        spans = getattr(obs, "spans", None) if obs is not None else None
        if spans is None:
            return None
        return spans.lanes(len(self.threads))

    def makespan(self) -> int:
        """The slowest thread's final clock (run wall-time in cycles)."""
        return max((t.clock for t in self.threads), default=0)
