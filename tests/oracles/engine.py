"""Discrete-event engine oracle: per-rank generators on one event heap.

Production advances the virtual SPMD run as the NumPy epoch recurrences
of :mod:`repro.sched.vector`. This is the engine that run replaced: an
event queue keyed on ``(virtual time, sequence number)``, FIFO
capacity-limited :class:`Resource` objects, and cooperative generator
processes that ``yield`` :class:`Delay`/:class:`Acquire`/
:class:`Release`/:class:`Wait`/:class:`Join` commands. Every labelled
delay mirrors into the tracer as a sim-clock span, and a
:class:`SimProfiler` attached to the engine samples the process table
at fixed virtual intervals. The tests compare the production paths
against it bit for bit.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable, Generator, Iterable

from repro.observe import trace as observe
from repro.sched import profiler
from repro.util.errors import SchedError
from repro.util.timers import SimClock

# ---------------------------------------------------------------------------
# commands a process may yield
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Delay:
    """Hold virtual time for ``seconds``.

    A labelled delay is mirrored to the tracer as a sim-clock span on
    ``lane`` (default: the yielding process's lane); an unlabelled
    delay advances time silently.
    """

    seconds: float
    label: str | None = None
    cat: str = "core"
    lane: tuple[str, str] | None = None
    args: dict | None = None


@dataclass(frozen=True)
class Acquire:
    """Block until ``tokens`` of ``resource`` are granted (FIFO)."""

    resource: "Resource"
    tokens: int = 1


@dataclass(frozen=True)
class Release:
    """Return ``tokens`` to ``resource``, waking queued acquirers."""

    resource: "Resource"
    tokens: int = 1


@dataclass(frozen=True)
class Wait:
    """Block until ``signal`` fires; resumes with the fired value."""

    signal: "Signal"


@dataclass(frozen=True)
class Join:
    """Block until ``process`` finishes; resumes with its result."""

    process: "Process"


_COMMANDS = (Delay, Acquire, Release, Wait, Join)

#: queue-entry sentinel: "call fn with no argument" (distinct from None,
#: which is a legitimate resume value)
_NO_ARG = object()


# ---------------------------------------------------------------------------
# synchronization primitives
# ---------------------------------------------------------------------------


class Signal:
    """A one-shot broadcast event in virtual time."""

    __slots__ = ("engine", "name", "fired", "value", "_waiters")

    def __init__(self, engine: "Engine", name: str = "signal"):
        self.engine = engine
        self.name = name
        self.fired = False
        self.value = None
        self._waiters: deque[Process] = deque()

    def fire(self, value=None) -> None:
        if self.fired:
            raise SchedError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        while self._waiters:
            process = self._waiters.popleft()
            self.engine._resume(process, value)

    def _wait(self, process: "Process") -> None:
        if self.fired:
            self.engine._resume_fast(process, self.value)
        else:
            self._waiters.append(process)


class Barrier:
    """Max-style synchronization: all parties leave at the last arrival.

    Reusable across generations (one halo exchange or collective per
    step reuses a single barrier). ``yield from barrier.wait()``.
    """

    def __init__(self, engine: "Engine", parties: int, name: str = "barrier"):
        if parties < 1:
            raise SchedError(f"barrier needs >= 1 party, got {parties}")
        self.engine = engine
        self.parties = parties
        self.name = name
        self.generation = 0
        self._arrived = 0
        self._signal: Signal | None = None

    def wait(self) -> Generator:
        self._arrived += 1
        if self._arrived == self.parties:
            # last arrival: everyone leaves *now* (the max arrival time)
            signal = self._signal
            self._arrived = 0
            self._signal = None
            self.generation += 1
            if signal is not None:
                signal.fire(self.engine.now)
            return
        if self._signal is None:
            self._signal = Signal(
                self.engine, f"{self.name}#{self.generation}"
            )
        yield Wait(self._signal)


# ---------------------------------------------------------------------------
# resources
# ---------------------------------------------------------------------------


@dataclass
class ResourceStats:
    """Contention accounting for one resource."""

    acquires: int = 0
    waits: int = 0
    wait_seconds: float = 0.0
    busy_seconds: float = 0.0


class Resource:
    """A capacity-limited facility (GCD, link, OSS) with FIFO queueing."""

    __slots__ = (
        "engine", "name", "capacity", "available", "lane", "stats", "_waiters"
    )

    def __init__(
        self,
        engine: "Engine",
        name: str,
        capacity: int = 1,
        *,
        lane: tuple[str, str] | None = None,
    ):
        if capacity < 1:
            raise SchedError(f"resource {name!r} needs capacity >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.available = capacity
        #: (process, thread) the mirrored spans of this resource land on
        self.lane = lane or (name, "busy")
        self.stats = ResourceStats()
        self._waiters: deque[tuple[Process, int, float]] = deque()

    @property
    def in_use(self) -> int:
        return self.capacity - self.available

    def _acquire(self, process: "Process", tokens: int) -> None:
        if tokens < 1 or tokens > self.capacity:
            raise SchedError(
                f"cannot acquire {tokens} of {self.name!r} "
                f"(capacity {self.capacity})"
            )
        if self.available >= tokens and not self._waiters:
            self.available -= tokens
            self.stats.acquires += 1
            self.engine._resume_fast(process)
        else:
            self.stats.waits += 1
            self._waiters.append((process, tokens, self.engine.now))

    def _release(self, tokens: int) -> None:
        if self.available + tokens > self.capacity:
            raise SchedError(
                f"over-release of {self.name!r}: {tokens} returned with "
                f"{self.available}/{self.capacity} already available"
            )
        self.available += tokens
        while self._waiters and self.available >= self._waiters[0][1]:
            process, want, queued_at = self._waiters.popleft()
            self.available -= want
            self.stats.acquires += 1
            self.stats.wait_seconds += self.engine.now - queued_at
            self.engine._resume(process)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Process:
    """One cooperative virtual process driving a generator.

    The per-event bookkeeping is deliberately allocation-free: the
    blocked-on marker stores the yielded command itself (formatted
    lazily by :meth:`describe`), and the one in-flight delay reuses a
    slot on the process frame instead of a fresh closure — a process
    can only ever have a single outstanding delay.
    """

    __slots__ = (
        "engine", "name", "lane", "result", "started_at", "finished_at",
        "_done", "_gen", "_blocked_on", "_delay_start",
    )

    def __init__(
        self,
        engine: "Engine",
        name: str,
        gen: Generator,
        *,
        lane: tuple[str, str] | None = None,
    ):
        self.engine = engine
        self.name = name
        self.lane = lane or (name, "core")
        self.result = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done: Signal | None = None
        self._gen = gen
        self._blocked_on = "start"
        self._delay_start = 0.0

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def done(self) -> Signal:
        """The completion signal, created on first use.

        Most processes are never joined (a 64k-rank job spawns one per
        overlap-mode halo), so the signal — and its f-string name — are
        built lazily.
        """
        signal = self._done
        if signal is None:
            signal = Signal(self.engine, f"{self.name}.done")
            if self.finished:
                signal.fired = True
                signal.value = self.result
            self._done = signal
        return signal

    def _blocked_desc(self) -> str | None:
        blocked = self._blocked_on
        if blocked is None or isinstance(blocked, str):
            return blocked
        cls = blocked.__class__
        if cls is Delay:
            return f"delay({blocked.label or blocked.seconds})"
        if cls is Acquire:
            return f"acquire({blocked.resource.name})"
        if cls is Wait:
            return f"wait({blocked.signal.name})"
        if cls is Join:
            return f"join({blocked.process.name})"
        return repr(blocked)

    def describe(self) -> str:
        state = (
            "finished"
            if self.finished
            else f"blocked on {self._blocked_desc() or 'nothing'}"
        )
        return f"{self.name}: {state}"

    # -- engine internals ---------------------------------------------------
    def _step(self, value=None) -> None:
        self._blocked_on = None
        if self.started_at is None:
            self.started_at = self.engine.now
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            self.result = stop.value
            self.finished_at = self.engine.now
            # release the generator frame: a 64k-rank overlap run spawns
            # hundreds of thousands of short-lived processes, and keeping
            # their frames alive is what made cyclic GC dominate
            self._gen = None
            if self._done is not None:
                self._done.fire(self.result)
            return
        self._dispatch(command)

    def _dispatch(self, command, cls=None) -> None:
        # exact-class dispatch: `is` beats isinstance chains on the hot
        # path; a subclassed command comes back with its base class
        engine = self.engine
        if cls is None:
            cls = command.__class__
        if cls is Delay:
            seconds = command.seconds
            # `0 <= s < inf` is False for NaN too
            if not 0.0 <= seconds < math.inf:
                raise SchedError(
                    f"process {self.name!r} yielded invalid delay "
                    f"{seconds!r}"
                )
            self._blocked_on = command
            self._delay_start = engine.clock.now
            engine.schedule(seconds, self._after_delay, command)
        elif cls is Acquire:
            self._blocked_on = command
            command.resource._acquire(self, command.tokens)
        elif cls is Release:
            command.resource._release(command.tokens)
            engine._resume_fast(self)
        elif cls is Wait:
            self._blocked_on = command
            command.signal._wait(self)
        elif cls is Join:
            self._blocked_on = command
            command.process.done._wait(self)
        else:
            for base in _COMMANDS:
                if isinstance(command, base):
                    return self._dispatch(command, base)
            raise SchedError(
                f"process {self.name!r} yielded {command!r}; expected one "
                f"of {[c.__name__ for c in _COMMANDS]}"
            )

    def _after_delay(self, command: Delay) -> None:
        if command.label is not None:
            lane = command.lane or self.lane
            self.engine._mirror_span(
                command.label,
                cat=command.cat,
                lane=lane,
                start=self._delay_start,
                seconds=command.seconds,
                args=command.args,
            )
        self._step(self.engine.clock.now)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


# queue entries are plain (time, seq, fn, arg) tuples: seq is unique, so
# neither the callable nor the argument is ever compared, and tuple
# ordering keeps the hot heappush/heappop path free of dataclass __lt__
# dispatch (~35% of event cost at half a million events per modeled
# 4,096-rank point). Carrying the argument in the entry is what lets
# `_resume` enqueue a bound method directly instead of allocating a
# closure per resumption.


class Engine:
    """Deterministic discrete-event engine over one :class:`SimClock`.

    ``tracer`` mirrors labelled events as sim-clock spans; when None the
    engine looks up :func:`repro.observe.trace.active` lazily, so runs
    inside an ``observe.session()`` are traced with zero configuration
    and untraced runs pay one attribute read per event.
    """

    def __init__(
        self,
        *,
        name: str = "sched",
        clock: SimClock | None = None,
        tracer: observe.Tracer | None = None,
        mirror: bool = True,
        profiler=None,
    ):
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self.tracer = tracer
        self.mirror = mirror
        #: a :class:`SimProfiler` sampling the
        #: process table at virtual-time intervals (None = no sampling;
        #: the run loop then pays a single float compare per clock
        #: advance against +inf)
        self.profiler = profiler
        self.events_processed = 0
        self.spans_mirrored = 0
        #: queue accounting, mirrored to the observe metrics registry
        #: after every :meth:`run` (see docs/SCHEDULER.md)
        self.heap_pushes = 0
        self._queue: list[tuple[float, int, Callable, object]] = []
        self._seq = 0
        self._inline_depth = 0
        self._resources: dict[str, Resource] = {}
        self._processes: list[Process] = []
        self._compact_at = 4096

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    # -- construction -------------------------------------------------------
    def resource(
        self, name: str, capacity: int = 1, *, lane: tuple[str, str] | None = None
    ) -> Resource:
        """Get-or-create a named resource (capacity fixed at creation)."""
        existing = self._resources.get(name)
        if existing is not None:
            if existing.capacity != capacity:
                raise SchedError(
                    f"resource {name!r} exists with capacity "
                    f"{existing.capacity}, requested {capacity}"
                )
            return existing
        created = Resource(self, name, capacity, lane=lane)
        self._resources[name] = created
        return created

    def resources(self) -> dict[str, Resource]:
        return dict(self._resources)

    def signal(self, name: str = "signal") -> Signal:
        return Signal(self, name)

    def barrier(self, parties: int, name: str = "barrier") -> Barrier:
        return Barrier(self, parties, name)

    def spawn(
        self,
        name: str,
        gen: Generator,
        *,
        lane: tuple[str, str] | None = None,
    ) -> Process:
        """Register a generator as a process; it starts at the current time."""
        if type(gen) is not GeneratorType and not isinstance(gen, Generator):
            raise SchedError(
                f"spawn({name!r}) needs a generator (did you call the "
                "process function?)"
            )
        process = Process(self, name, gen, lane=lane)
        procs = self._processes
        procs.append(process)
        if len(procs) >= self._compact_at:
            self.compact_finished()
        self.schedule(0.0, process._step)
        return process

    def compact_finished(self) -> int:
        """Drop finished processes from the registry; returns live count.

        Keeps the registry (and the cyclic GC's live set) proportional
        to *running* processes. Called automatically when spawning past
        a doubling threshold, and by :class:`SimProfiler` when finished
        frames start dominating its samples.
        """
        procs = self._processes
        procs[:] = [p for p in procs if not p.finished]
        self._compact_at = max(4096, 2 * len(procs) + 1024)
        return len(procs)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, arg=_NO_ARG) -> int:
        """Run ``fn`` at ``now + delay``; returns the tie-break sequence.

        When ``arg`` is given, ``fn(arg)`` is called instead of ``fn()``
        — carrying the argument in the queue entry lets hot callers
        enqueue bound methods without allocating a closure per event.
        """
        if not 0.0 <= delay < math.inf:  # False for NaN too
            raise SchedError(f"cannot schedule {delay!r} into the virtual past")
        self._seq += 1
        self.heap_pushes += 1
        heapq.heappush(
            self._queue, (self.clock.now + delay, self._seq, fn, arg)
        )
        return self._seq

    def _resume(self, process: Process, value=None) -> None:
        """Queue a process continuation at the current virtual time."""
        self._seq += 1
        self.heap_pushes += 1
        heapq.heappush(
            self._queue, (self.clock.now, self._seq, process._step, value)
        )

    def _resume_fast(self, process: Process, value=None) -> None:
        """Continue a process *now*, without a queue round-trip.

        Used where the continuation is at the current instant and no
        other process can legally observe the intermediate state: an
        immediately granted acquire, a release, a wait on an
        already-fired signal. Virtual timestamps are unchanged — only
        the heap push/pop pair is saved (roughly a third of all events
        in an overlap-mode virtual run). The depth guard bounds
        pathological acquire/release-only loops; past it, continuations
        fall back to the queue.
        """
        if self._inline_depth < 64:
            self._inline_depth += 1
            try:
                process._step(value)
            finally:
                self._inline_depth -= 1
        else:
            self._resume(process, value)

    # -- execution ----------------------------------------------------------
    def run(self, *, until: float | None = None) -> float:
        """Drain the event queue (or stop at ``until``); returns the time.

        One heappop + dispatch per event, in (time, seq) order.
        """
        queue = self._queue
        clock = self.clock
        heappop = heapq.heappop
        no_arg = _NO_ARG
        events = 0
        profiler = self.profiler
        next_sample = math.inf if profiler is None else profiler.next_sample
        # Pause the cyclic collector for the drain: finished processes
        # release their frames (refcounting frees them promptly), so the
        # collector finds no garbage here — it just rescans the tens of
        # thousands of live rank objects on every threshold trigger,
        # which measured ~40% of a 16k-rank run's wall time.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    if until >= next_sample:
                        next_sample = profiler.advance(self, until)
                    clock.advance_to(until, strict=True)
                    return clock.now
                when, _, fn, arg = heappop(queue)
                # same-timestamp events dispatch in a batch without
                # touching the clock (the common case: resumptions and
                # zero-latency deliveries at the current instant)
                if when > clock.now:
                    # sample the idle gap before crossing it: the
                    # profiler attributes it to the states processes
                    # are blocked in right now
                    if when >= next_sample:
                        next_sample = profiler.advance(self, when)
                    clock.advance_to(when, strict=True)
                events += 1
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
        finally:
            if gc_was_enabled:
                gc.enable()
            self.events_processed += events
        self._report_run()
        return self.clock.now

    def _report_run(self) -> None:
        """Mirror engine accounting into the observe metrics registry."""
        tracer = self._tracer()
        if tracer is None:
            return
        metrics = tracer.metrics
        metrics.gauge(
            "sched.events_processed", engine=self.name
        ).set(self.events_processed)
        pushes = metrics.counter("sched.heap_pushes", engine=self.name)
        if self.heap_pushes > pushes.value:
            pushes.inc(self.heap_pushes - pushes.value)

    def unfinished(self) -> list[Process]:
        """Processes that did not run to completion (stuck or not started)."""
        return [p for p in self._processes if not p.finished]

    def check_quiescent(self) -> None:
        """Raise if any process is stuck — the virtual-deadlock guard."""
        stuck = self.unfinished()
        if stuck:
            detail = "; ".join(p.describe() for p in stuck[:8])
            more = f" (+{len(stuck) - 8} more)" if len(stuck) > 8 else ""
            raise SchedError(
                f"engine {self.name!r} quiesced with {len(stuck)} stuck "
                f"process(es): {detail}{more}"
            )

    # -- observe mirroring --------------------------------------------------
    def _tracer(self) -> observe.Tracer | None:
        if not self.mirror:
            return None
        return self.tracer if self.tracer is not None else observe.active()

    def _mirror_span(
        self,
        name: str,
        *,
        cat: str,
        lane: tuple[str, str],
        start: float,
        seconds: float,
        args: dict | None = None,
    ) -> None:
        tracer = self._tracer()
        if tracer is None:
            return
        tracer.add_span(
            name,
            cat=cat,
            clock=observe.SIM,
            process=lane[0],
            thread=lane[1],
            start=start,
            seconds=seconds,
            args=args,
        )
        self.spans_mirrored += 1


# ---------------------------------------------------------------------------
# composable process idioms
# ---------------------------------------------------------------------------


def delay(
    seconds: float,
    label: str | None = None,
    *,
    cat: str = "core",
    lane: tuple[str, str] | None = None,
    args: dict | None = None,
) -> Generator:
    """``yield from delay(...)`` — hold virtual time (optionally traced)."""
    yield Delay(seconds, label=label, cat=cat, lane=lane, args=args)


def use(
    resource: Resource,
    seconds: float,
    *,
    label: str | None = None,
    cat: str = "core",
    tokens: int = 1,
    args: dict | None = None,
) -> Generator:
    """Acquire → hold → release: the canonical timed-resource pattern.

    The busy span is attributed to the *resource's* lane, so a GCD or
    OSS row in the exported timeline shows exactly when the facility
    was occupied and by what.
    """
    yield Acquire(resource, tokens)
    resource.stats.busy_seconds += seconds
    yield Delay(
        seconds,
        label=label if label is not None else resource.name,
        cat=cat,
        lane=resource.lane,
        args=args,
    )
    yield Release(resource, tokens)


class UsePlan:
    """Precomputed :func:`use` — one Acquire/Delay/Release triple, reused.

    Virtual-SPMD programs call :func:`use` with *identical* arguments
    hundreds of thousands of times (every kernel launch and halo
    exchange of every rank). The commands are frozen dataclasses, so
    the three objects can be built once and yielded forever; at 64k
    ranks this removes the bulk of the engine's allocation (and hence
    cyclic-GC) pressure.
    """

    __slots__ = ("resource", "seconds", "_acquire", "_delay", "_release")

    def __init__(
        self,
        resource: Resource,
        seconds: float,
        *,
        label: str | None = None,
        cat: str = "core",
        tokens: int = 1,
        args: dict | None = None,
    ):
        self.resource = resource
        self.seconds = seconds
        self._acquire = Acquire(resource, tokens)
        self._delay = Delay(
            seconds,
            label=label if label is not None else resource.name,
            cat=cat,
            lane=resource.lane,
            args=args,
        )
        self._release = Release(resource, tokens)

    def use(self) -> Generator:
        """Semantically identical to :func:`use` with the plan's args."""
        yield self._acquire
        self.resource.stats.busy_seconds += self.seconds
        yield self._delay
        yield self._release


def series(generators: Iterable[Generator]) -> Generator:
    """Run sub-generators one after another (``yield from`` each)."""
    for gen in generators:
        yield from gen


# ---------------------------------------------------------------------------
# the sampling profiler's engine hook
# ---------------------------------------------------------------------------


class SimProfiler(profiler.SimProfiler):
    """Sample the process table of an :class:`Engine`.

    ``interval`` is virtual seconds between samples; the first sample
    fires at ``interval`` (at t=0 nothing has started). Each sample
    counts, per ``(process name, state)``, the live processes in that
    state; with ``collapse`` digit runs fold to ``*``.
    """

    def __init__(self, interval: float, *, collapse: bool = True):
        super().__init__(interval)
        self.collapse = collapse
        #: virtual time of the next pending sample (engine hot-loop key)
        self.next_sample = self.interval
        self._label_cache: dict[str, str] = {}

    def advance(self, engine, until: float) -> float:
        """Take every sample due in ``(next_sample, until]``; returns the new
        ``next_sample``.

        Called by the engine just before it advances its clock past
        ``next_sample``: the sampled states are the processes' blocked
        states during the idle gap.
        """
        while self.next_sample <= until:
            self._sample(engine)
            self.next_sample += self.interval
        return self.next_sample

    def _fold(self, label: str) -> str:
        folded = self._label_cache.get(label)
        if folded is None:
            folded = profiler.collapse_label(label) if self.collapse else label
            self._label_cache[label] = folded
        return folded

    def _sample(self, engine) -> None:
        self.samples_taken += 1
        stacks = self.stacks
        finished = 0
        live = 0
        for process in engine._processes:
            if process.finished:
                finished += 1
                continue
            live += 1
            desc = process._blocked_desc() or "running"
            key = (self._fold(process.name), self._fold(desc))
            stacks[key] = stacks.get(key, 0) + 1
        # keep sampling O(live processes): compact eagerly once dead
        # frames outnumber the processes actually sampled
        if finished > live:
            engine.compact_finished()
