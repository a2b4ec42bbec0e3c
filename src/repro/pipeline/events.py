"""Stage events: the execution engines' schedule, as data.

Historically the discrete-event simulator *reconstructed* the pipeline's
stage graph from :class:`~repro.distributed.records.StepRecord` volumes —
fine while the functional executor had exactly one schedule (lock-step BSP),
but wrong the moment engines differ in what they overlap or coalesce.  This
module turns the schedule into an explicit artifact: every execution engine
emits one :class:`StageEvent` per (stage, machine, step-or-window) with the
exact volumes that stage moved, and the simulator prices *that* — the same
taxonomy as :mod:`repro.pipeline.costmodel` (Appendix D):

======================  ==========================  =========================
stage                   granularity                 volumes
======================  ==========================  =========================
SAMPLE                  per (machine, step)         candidate_edges
LOCAL_SLICE             per (machine, step)         rows (host + cache upd.)
REQUEST_EXCHANGE        per (machine, comm window)  request_rows, serve_rows
SERVE_SLICE             per (machine, comm window)  rows
FEATURE_COMM            per (machine, comm window)  in_rows, out_rows
H2D                     per (machine, step)         rows
GPU_GATHER              per (machine, step)         gpu_rows, total_rows
TRAIN                   per (machine, step)         flops
ALLREDUCE               per step (all machines)     —
======================  ==========================  =========================

A *comm window* is the engine's unit of communication: one step for ``bsp``
and ``async``, up to ``depth`` steps for ``pipelined`` (whose in-flight
batches share one deduplicated peer exchange).  Training traces are built in
exactly one place — :func:`repro.distributed.engine.assemble_report`, from
the K machines' step records — so every engine and cluster backend flows
through one pricing path.

This module imports nothing from ``repro``: it is the vocabulary both the
distributed runtime and the performance model are written in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Stage(enum.Enum):
    """Pipeline stage taxonomy (matches the cost model's).

    ``CACHE_REFRESH`` is serving-only: a dynamic cache's refresh fetch,
    executed *after* the window's responses are sent (it delays the next
    window, not the in-flight requests).  Training engines never emit it —
    their refresh traffic genuinely blocks the epoch loop and is folded
    into the window's comm volumes instead.
    """

    SAMPLE = "sample"
    REQUEST_EXCHANGE = "request_exchange"
    LOCAL_SLICE = "local_slice"
    SERVE_SLICE = "serve_slice"
    FEATURE_COMM = "feature_comm"
    H2D = "h2d"
    GPU_GATHER = "gpu_gather"
    TRAIN = "train"
    ALLREDUCE = "allreduce"
    CACHE_REFRESH = "cache_refresh"


#: Stages emitted once per (machine, comm window) rather than per step.
WINDOW_STAGES = (Stage.REQUEST_EXCHANGE, Stage.SERVE_SLICE, Stage.FEATURE_COMM)


@dataclass(frozen=True)
class StageEvent:
    """One stage execution with its exact volumes.

    ``step`` is the owning minibatch step for per-step stages; for window
    stages it is the window's first step.  ``machine`` is ``-1`` for the
    global ALLREDUCE rendezvous.  ``volumes`` holds the integer/float
    drivers the cost model prices (see the module table).
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
        per_step = (Stage.SAMPLE, Stage.LOCAL_SLICE, Stage.H2D,
                    Stage.GPU_GATHER, Stage.TRAIN)
        for s in range(self.num_steps):
            machines = range(self.num_machines) if owners is None else (owners[s],)
            for k in machines:
                for st in per_step:
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
