"""Probes the benchmark installs from outside the program.

Nothing here edits ``repro``: every probe wraps a public entry point of
one layer (``Scheduler.run``, ``Machine.finish``, ``run_fuzz_leg``,
``service_report``, ...) by rebinding the name the caller looks up.
Three instruments share one :class:`Probes` object:

* **timers** — host seconds per probe name, always on (the end-to-end
  ``setup_s`` and ``sim_ops_per_s`` need them), read from a
  :class:`HostClock`;
* **spans** — ``(id, parent, name, start, end)`` at each boundary,
  kept in memory, only in the traced run;
* **a stack sampler** — a ``SIGALRM`` interval timer; each tick
  charges the host time since the previous tick to the layer of the
  innermost ``repro`` frame when the engine span is open. Frames of
  builtins and the standard library are charged to their nearest
  ``repro`` caller. Only in the traced run.

The untraced runs read a scaled :class:`HostClock` instead of a sampler:
the host this benchmark was tuned on changes speed by 20-80% over
seconds to minutes, for the simulator and a fixed loop alike, and the
process CPU time slows with it (the guest is charged the slow time),
so neither wall time nor CPU time repeats. About every 10 ms a thread
pinned with the program to one CPU times a fixed pure-Python routine
(:func:`reference_work`, code that does not belong to the program),
and the clock counts the host seconds that follow at the speed it
measured: a stretch during which the reference routine ran twice as
slowly as :data:`REFERENCE_S` counts half. Scaled seconds are
therefore seconds on a host that runs the routine in
:data:`REFERENCE_S`. A change to the program moves them as it moves
host time, because the routine does not change with the program.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Reference routine time on the host the clock scales to (about this
#: routine's warm time on an undisturbed 2.1 GHz Xeon vCPU, Python 3.11).
REFERENCE_S = 250e-6

#: How often the scaled clock measures the host's speed (host seconds).
REFERENCE_PERIOD = 0.01


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0


_TABLE = {i * 7919 % 65521: i for i in range(16384)}
_SLOTS = [_Slot(i) for i in range(1024)]
_TRIPLE = [0, 0, 0]


def reference_work(rounds: int = 800) -> int:
    """Fixed interpreter work of the kinds the simulator does most:
    dict lookups, attribute loads and stores, calls, in-place sorting
    and integer arithmetic. It allocates no object the garbage
    collector tracks, so running it does not move the program's
    collections (or its peak memory)."""
    table = _TABLE
    slots = _SLOTS
    triple = _TRIPLE
    acc = 0
    key = 1
    for i in range(rounds):
        key = (key * 48271) % 65521
        slot = slots[key & 1023]
        slot.value = table.get(key, i)
        if i % 3 == 0:
            acc += slot.value ^ (slot.key >> 2)
        triple[0] = acc & 255
        triple[1] = key & 255
        triple[2] = i & 255
        triple.sort()
        acc = (acc + triple[1]) & 0xFFFFFF
    return acc


def _pin_to_current_cpu() -> None:
    """Keep this thread, and the threads it starts, on the CPU it runs
    on, so that the clock's thread measures the speed of the CPU the
    program runs on. Without ``sched_setaffinity`` nothing is pinned."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        os.sched_setaffinity(0, {int(fields[36])})   # field 39: processor
    except (OSError, AttributeError, IndexError, ValueError):
        pass


class HostClock:
    """Seconds since ``origin``, scaled to :data:`REFERENCE_S` or not.

    ``now()`` is the clock the probes read; ``raw()`` is unscaled host
    seconds. Neither counts the time the clock spends timing the
    reference routine. The scaled clock measures from a thread, which
    holds the interpreter lock while it does: a signal handler would
    materialise the interrupted frame, and those allocations move the
    program's garbage collections and with them its peak memory.
    """

    def __init__(self, origin: float, scaled: bool) -> None:
        # (host time the sums run up to, scaled seconds up to it,
        # unscaled seconds up to it, REFERENCE_S / last reference time),
        # replaced as a whole so that now() and raw() never mix old
        # and new fields.
        self._state = (origin, 0.0, 0.0, 1.0)
        self.ticks = 0
        self._stopped = False
        self._thread = None
        if scaled:
            _pin_to_current_cpu()
            self._measure(warmups=4)    # the routine's first runs are slow
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()

    def now(self) -> float:
        mark, scaled, _raw, speed = self._state
        return scaled + (time.perf_counter() - mark) * speed

    def raw(self) -> float:
        mark, _scaled, raw, _speed = self._state
        return raw + time.perf_counter() - mark

    def stop(self) -> None:
        if self._thread is not None:
            self._stopped = True
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while True:
            time.sleep(REFERENCE_PERIOD)
            if self._stopped:
                return
            self._measure()
            self.ticks += 1

    def _measure(self, warmups: int = 1) -> None:
        """Account host time up to now at the last speed, then measure
        the speed again; the routine's own time is left out."""
        start = time.perf_counter()
        mark, scaled, raw, speed = self._state
        for _ in range(warmups):    # warm the routine's caches
            reference_work()
        begin = time.perf_counter()
        reference_work()
        took = time.perf_counter() - begin
        self._state = (time.perf_counter(),
                       scaled + (start - mark) * speed,
                       raw + start - mark, REFERENCE_S / took)


#: Module prefix -> layer, most specific first.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.lfds", "generators"),
    ("repro.workloads", "generators"),
    ("repro.core.fastsim", "engine"),
    ("repro.core.scheduler", "engine"),
    ("repro.core.thread", "engine"),
    ("repro.core.machine", "memory"),
    ("repro.coherence", "memory"),
    ("repro.memory.address", "memory"),
    ("repro.consistency.events", "memory"),
    ("repro.persistency", "mechanism"),
    ("repro.memory.nvm", "nvm"),
    ("repro.obs", "telemetry"),
)

#: Every layer a sample can be charged to ("other" = any other repro
#: module, or no repro frame at all).
LAYERS: Tuple[str, ...] = ("generators", "engine", "memory", "mechanism",
                           "nvm", "telemetry", "other")

#: Sampling period of the traced run (seconds of host time).
SAMPLE_INTERVAL = 0.001


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module name; None outside ``repro``."""
    if not module.startswith("repro.") and module != "repro":
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def frame_layer(frame) -> str:
    """Layer of the innermost ``repro`` frame at or above ``frame``."""
    while frame is not None:
        layer = layer_of(frame.f_globals.get("__name__", ""))
        if layer is not None:
            return layer
        frame = frame.f_back
    return "other"


class Probes:
    """Timers, spans and the engine sampler for one workload run."""

    def __init__(self, traced: bool, clock: HostClock) -> None:
        self.traced = traced
        self.clock = clock
        #: Seconds per probe name on ``clock``, and unscaled.
        self.seconds: Dict[str, float] = defaultdict(float)
        self.raw_seconds: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._stack: List[int] = []
        self._next_id = 0
        # Sampler state.
        self.in_engine = False
        self.layer_seconds: Dict[str, float] = defaultdict(float)
        self.samples = 0
        self._last_tick = 0.0

    # -- spans and timers ------------------------------------------------

    def begin(self, name: str) -> Tuple[str, int, float, float]:
        span_id = self._next_id
        self._next_id += 1
        if self.traced:
            self._stack.append(span_id)
        return name, span_id, self.clock.now(), self.clock.raw()

    def end(self, token: Tuple[str, int, float, float]) -> float:
        name, span_id, start, raw_start = token
        stop = self.clock.now()
        self.seconds[name] += stop - start
        self.raw_seconds[name] += self.clock.raw() - raw_start
        if self.traced:
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            self.spans.append((span_id, parent, name, start, stop))
        return stop - start

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed (and, when traced, spanned) as ``name``."""
        def timed(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)
        return timed

    # -- engine sampler --------------------------------------------------

    def _tick(self, _signum, frame) -> None:
        now = time.perf_counter()
        if self.in_engine:
            self.layer_seconds[frame_layer(frame)] += now - self._last_tick
            self.samples += 1
        self._last_tick = now

    def start_sampler(self) -> None:
        if not self.traced:
            return
        self._last_tick = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL,
                         SAMPLE_INTERVAL)

    def stop_sampler(self) -> None:
        if not self.traced:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # -- derived figures -------------------------------------------------

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name`` (its duration
        minus the part its child spans cover)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, stop in self.spans:
            if parent is not None:
                child_time[parent] += stop - start
        return sum(stop - start - child_time[sid]
                   for sid, _parent, span, start, stop in self.spans
                   if span == name)


def rebind(attr: str, original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's ``attr`` that is bound to
    ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, attr,
                                                None) is original:
            setattr(module, attr, replacement)
