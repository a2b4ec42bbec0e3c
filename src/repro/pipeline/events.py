"""Stage events and their placements: one run's schedule, and its simulated
time, as data.

Historically the discrete-event simulator *reconstructed* the pipeline's
stage graph from :class:`~repro.distributed.records.StepRecord` volumes —
fine while the functional executor had exactly one schedule (lock-step BSP),
but wrong the moment engines differ in what they overlap or coalesce.  This
module turns the schedule into an explicit artifact: every execution engine
emits one :class:`StageEvent` per (stage, machine, step-or-window) with the
exact volumes that stage moved, the cost model prices *that*, and whoever
owns a simulated clock — :func:`~repro.pipeline.simulator.simulate_trace` for
a training epoch, the serving clock for a flush window — records where it
put each event in a :class:`Timeline`.  What a stage *is* (the resource it
occupies, how often it is emitted, its Figure-8 category, the volumes it
carries) is stated once, on :class:`Stage`.

A *comm window* is the engine's unit of communication: one step for ``bsp``
and ``async``, up to ``depth`` steps for ``pipelined`` (whose in-flight
batches share one deduplicated peer exchange).  Training traces are built in
exactly one place — :func:`repro.distributed.engine.assemble_report`, from
the K machines' step records — so every engine and cluster backend flows
through one pricing path.

This module imports nothing from ``repro``: it is the vocabulary the
distributed runtime, the performance model and the exported simulated
spans (``stage.<value>``) are written in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


#: The modeled per-machine resources (``grad_net`` is the gradient
#: all-reduce's share of the NIC, scheduled apart from feature traffic).
RESOURCES = ("cpu", "gpu", "pcie", "net", "grad_net")

#: Figure-8 attribution categories of stage time.
CATEGORIES = ("train", "batch_prep_comp", "batch_prep_comm")


class Stage(enum.Enum):
    """The pipeline stage taxonomy (coarsened from the 10 stages of the
    paper's Appendix D) — the one table every consumer reads.

    Each member is ``(value, resource, scope, category)``:

    ``resource``
        which of :data:`RESOURCES` the stage occupies.
    ``scope``
        how an event is keyed: ``"step"`` — one per (machine, step);
        ``"window"`` — one per (machine, comm window), ``step`` being the
        window's first step; ``"sync"`` — one per step for all machines
        (``machine`` is ``-1``).
    ``category``
        the Figure-8 category (:data:`CATEGORIES`) the stage's time is
        attributed to, or ``None``.  Categorised stages are the ones every
        batch goes through: :meth:`EventTrace.validate` demands them at
        their scope, the others are optional.

    ``CACHE_REFRESH`` is serving-only: a dynamic cache's refresh fetch,
    executed *after* the window's responses are sent (it delays the next
    window, not the in-flight requests).  Training engines never emit it —
    their refresh traffic genuinely blocks the epoch loop and is folded
    into the window's comm volumes instead.
    """

    def __new__(cls, value, resource, scope, category):
        member = object.__new__(cls)
        member._value_ = value
        member.resource, member.scope, member.category = (
            resource, scope, category)
        return member

    #: candidate_edges — adjacency entries the sampler examined.
    SAMPLE = ("sample", "cpu", "step", "batch_prep_comp")
    #: request_rows, serve_rows (+ mfg_edges for derived models) — two
    #: metadata rounds + vertex-id lists (Appendix-D stages 2-5).
    REQUEST_EXCHANGE = ("request_exchange", "net", "window", "batch_prep_comm")
    #: rows — local CPU + cached + coalesced rows sliced, plus dynamic-cache
    #: insertion memcpys (stage 6).
    LOCAL_SLICE = ("local_slice", "cpu", "step", "batch_prep_comp")
    #: rows — sliced for peers' requests (stages 6-8).
    SERVE_SLICE = ("serve_slice", "cpu", "window", "batch_prep_comp")
    #: in_rows, out_rows — remote feature payload in, served payload out.
    FEATURE_COMM = ("feature_comm", "net", "window", "batch_prep_comm")
    #: rows — host-resident rows copied to the device (stage 7).
    H2D = ("h2d", "pcie", "step", "batch_prep_comp")
    #: gpu_rows, total_rows — GPU-resident rows sliced + concat (stage 8).
    GPU_GATHER = ("gpu_gather", "gpu", "step", "batch_prep_comp")
    #: flops — forward + backward GEMMs (forward only when serving).
    TRAIN = ("train", "gpu", "step", "train")
    #: no volumes — gradient ring all-reduce (with the model update).
    ALLREDUCE = ("allreduce", "grad_net", "sync", None)
    #: rows — a serving window's background refresh fetch.
    CACHE_REFRESH = ("cache_refresh", "net", "window", None)


def _required(scope: str) -> Tuple["Stage", ...]:
    return tuple(st for st in Stage if st.scope == scope and st.category)


#: Stages every (machine, step) / every (machine, comm window) must have.
STEP_STAGES = _required("step")
WINDOW_STAGES = _required("window")


@dataclass(frozen=True)
class StageEvent:
    """One stage execution with its exact volumes.

    ``step`` is the owning minibatch step for per-step stages; for window
    stages it is the window's first step.  ``machine`` is ``-1`` for the
    global ALLREDUCE rendezvous.  ``volumes`` holds the integer/float
    drivers the cost model prices (listed per member on :class:`Stage`).
    """

    stage: Stage
    machine: int
    step: int
    volumes: Tuple[Tuple[str, float], ...] = ()

    def volume(self, key: str, default: float = 0.0) -> float:
        for k, v in self.volumes:
            if k == key:
                return v
        return default


def _vols(**kw) -> Tuple[Tuple[str, float], ...]:
    return tuple(kw.items())


@dataclass
class EventTrace:
    """The full stage-event schedule of one functional epoch.

    ``windows`` partitions ``range(num_steps)`` into the engine's comm
    windows (half-open ``(start, end)`` pairs, in order, covering every
    step).  ``allreduce_steps`` lists the steps the engine closed with a
    gradient synchronization — every step for ``bsp``/``pipelined``, only
    the sync points for bounded-staleness ``async``.

    Training engines run *lock-step*: every machine executes every step, so
    validation demands per-step stages for each (machine, step) pair.  The
    serving subsystem's schedule is *per-machine*: each step is one
    micro-batch owned by exactly one machine, and machines progress
    independently.  Setting ``machine_of_step`` (one owning machine per
    step) switches validation to that shape — per-step stages are required
    only on the owning machine, and every step of a comm window must share
    one owner (a serving flush window is a single machine's coalesced
    fetch).
    """

    engine: str
    num_machines: int
    num_steps: int
    windows: List[Tuple[int, int]]
    allreduce_steps: List[int] = field(default_factory=list)
    events: List[StageEvent] = field(default_factory=list)
    machine_of_step: Optional[List[int]] = None
    _index: Optional[Dict[Tuple["Stage", int, int], StageEvent]] = \
        field(default=None, repr=False, compare=False)

    def add(self, stage: Stage, machine: int, step: int, **volumes) -> None:
        self._index = None  # appended events invalidate the memoized index
        self.events.append(StageEvent(
            stage=stage, machine=machine, step=step, volumes=_vols(**volumes)
        ))

    def index(self) -> Dict[Tuple[Stage, int, int], StageEvent]:
        """(stage, machine, step) -> event (window stages keyed by window
        start), memoized until the next :meth:`add`.  Duplicate keys are an
        engine bug and raise."""
        if self._index is not None:
            return self._index
        out: Dict[Tuple[Stage, int, int], StageEvent] = {}
        for ev in self.events:
            key = (ev.stage, ev.machine, ev.step)
            if key in out:
                raise ValueError(f"duplicate stage event {key}")
            out[key] = ev
        self._index = out
        return out

    def validate(self) -> "EventTrace":
        """Structural checks: windows tile the step range; per-step stages
        present for every (machine, step) — or, with ``machine_of_step``
        set, for each step's owning machine; window stages per window."""
        covered = [s for lo, hi in self.windows for s in range(lo, hi)]
        if covered != list(range(self.num_steps)):
            raise ValueError(
                f"windows {self.windows} do not tile {self.num_steps} steps"
            )
        owners = self.machine_of_step
        if owners is not None:
            if len(owners) != self.num_steps:
                raise ValueError(
                    f"machine_of_step has {len(owners)} entries for "
                    f"{self.num_steps} steps"
                )
            if any(not 0 <= k < self.num_machines for k in owners):
                raise ValueError("machine_of_step entries out of range")
        idx = self.index()
        for s in range(self.num_steps):
            machines = range(self.num_machines) if owners is None else (owners[s],)
            for k in machines:
                for st in STEP_STAGES:
                    if (st, k, s) not in idx:
                        raise ValueError(f"missing {st.value} event for "
                                         f"machine {k}, step {s}")
        for lo, hi in self.windows:
            if owners is None:
                machines = range(self.num_machines)
            else:
                if len(set(owners[lo:hi])) != 1:
                    raise ValueError(
                        f"window ({lo}, {hi}) spans machines "
                        f"{sorted(set(owners[lo:hi]))}; per-machine windows "
                        f"must have one owner"
                    )
                machines = (owners[lo],)
            for k in machines:
                for st in WINDOW_STAGES:
                    if (st, k, lo) not in idx:
                        raise ValueError(f"missing {st.value} event for "
                                         f"machine {k}, window {lo}")
        for s in self.allreduce_steps:
            if (Stage.ALLREDUCE, -1, s) not in idx:
                raise ValueError(f"missing allreduce event for step {s}")
        return self


def emit_step_events(trace: EventTrace, rec, flops: float) -> List[StageEvent]:
    """Emit the per-step stage events for one machine-step record — the
    only place their volumes are derived from a record, for training steps
    and served micro-batches alike.

    The comm stages (request exchange, serve slice, feature comm) are per
    *window*, not per step: :func:`emit_window_comm_events` emits those.
    ``flops`` is the TRAIN event's volume (forward + backward for a
    training step, forward only for a served micro-batch).  Returns the
    five events just appended — SAMPLE, LOCAL_SLICE, H2D, GPU_GATHER,
    TRAIN, in that order — for callers that price them immediately (the
    serving clock).
    """
    g = rec.gather
    k, s = rec.machine, rec.step
    host_rows = g.cpu_rows + g.cached_rows + g.coalesced_rows
    before = len(trace.events)
    trace.add(Stage.SAMPLE, k, s, candidate_edges=rec.candidate_edges)
    trace.add(Stage.LOCAL_SLICE, k, s, rows=host_rows + g.cache_insertions)
    trace.add(Stage.H2D, k, s, rows=host_rows + g.remote_rows)
    trace.add(Stage.GPU_GATHER, k, s, gpu_rows=g.gpu_rows,
              total_rows=g.total_rows)
    trace.add(Stage.TRAIN, k, s, flops=flops)
    return trace.events[before:]


def emit_window_comm_events(trace: EventTrace, window_start: int, machine: int,
                            request_rows: int, serve_rows: int,
                            mfg_edges: int = 0) -> List[StageEvent]:
    """Emit one machine's coalesced comm stages for a multi-step window.

    ``mfg_edges`` is the window total (derived cost models — e.g. the
    DistDGL baseline's remote-sampling RPC term — price it; the base model
    ignores it).  Returns the events just appended, so callers that price
    them immediately (the serving clock) need not know how many stages a
    comm window comprises.
    """
    before = len(trace.events)
    trace.add(Stage.REQUEST_EXCHANGE, machine, window_start,
              request_rows=request_rows, serve_rows=serve_rows,
              mfg_edges=mfg_edges)
    trace.add(Stage.SERVE_SLICE, machine, window_start, rows=serve_rows)
    trace.add(Stage.FEATURE_COMM, machine, window_start,
              in_rows=request_rows, out_rows=serve_rows)
    return trace.events[before:]


class Timeline(Dict[Tuple[Stage, int, int], Tuple[float, float]]):
    """Simulated time, as data: ``(stage, machine, step) -> (start,
    duration)`` seconds on one simulated clock, in placement order.

    The one record of where a clock put each :class:`StageEvent` — the
    epoch simulator's schedule (:attr:`PipelineResult.timeline`) and a
    serving run's (:attr:`ServingReport.timeline`) alike — and the key the
    exported ``stage.*`` spans carry.  Reads are plain dict reads; the only
    two ways in are :meth:`place` and :meth:`place_run`, and an event is
    placed at most once.
    """

    def place(self, event: StageEvent, start: float, duration: float) -> float:
        """Record ``event`` at ``start`` for ``duration``; returns its end."""
        key = (event.stage, event.machine, event.step)
        if key in self:
            raise ValueError(f"stage event {key} placed twice")
        self[key] = (float(start), float(duration))
        return start + duration

    def place_run(self, events: Iterable[StageEvent],
                  price: Callable[[StageEvent], float], t0: float) -> float:
        """Place ``events`` back to back from ``t0``, each for ``price(event)``
        seconds; returns ``t0 + total`` with the total accumulated from
        ``0.0`` (so a caller advancing its clock by the run's total gets the
        float it always did; an event's own end is ``start + duration``)."""
        total = 0.0
        for event in events:
            duration = price(event)
            self.place(event, t0 + total, duration)
            total += duration
        return t0 + total
