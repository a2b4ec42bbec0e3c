"""Discrete-event simulation of SALIENT++'s minibatch-preparation pipeline.

Schedules the stage graph of every (machine, step) minibatch onto per-machine
CPU / GPU / PCIe / NIC resources, honoring:

* stage dependencies within a minibatch (sample → slice/comm → h2d → train);
* collective synchronization across machines (request exchange, feature
  all-to-all, gradient all-reduce are per-step rendezvous);
* the bounded pipeline depth (at most ``depth`` minibatches in flight per
  machine — 10 in SALIENT++, §4.3);
* the chosen pipeline mode (see :class:`PipelineMode`).

Because every dependency points to an earlier (step, stage) pair and each
resource serves tasks in (step, stage) order — SALIENT++'s pipeline is a
chain of FIFO queues — the schedule is computed with one linear sweep instead
of an event heap, which keeps epoch simulation O(steps × machines).

The simulator yields the epoch makespan and a Figure-8-style attribution
(Train / Train-sync / Startup / Batch-prep compute / Batch-prep comm).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.pipeline.costmodel import CostModel
from repro.pipeline.events import (
    CATEGORIES,
    RESOURCES,
    EventTrace,
    Stage,
    Timeline,
)


class PipelineMode(enum.Enum):
    """How much of the minibatch preparation overlaps with training.

    FULL
        SALIENT++: all stages pipelined, communication included.
    BLOCKING_COMM
        Feature communication happens synchronously in the training loop
        (Table 1 row "+ Partitioned features": sampling is still prepared in
        the background, but each step's remote fetch blocks training).
    OFF
        Fully sequential minibatches (the "pipelining off" breakdown of
        Figure 8).
    """

    FULL = "full"
    BLOCKING_COMM = "blocking_comm"
    OFF = "off"


@dataclass
class PipelineResult:
    """Outcome of simulating one epoch."""

    epoch_time: float
    num_steps: int
    num_machines: int
    breakdown: Dict[str, float]
    resource_busy: Dict[str, np.ndarray]  # resource -> (K,) busy seconds
    #: Where the schedule put every event it placed; ``epoch_time``,
    #: ``breakdown`` and ``resource_busy`` are folds over it.
    timeline: Timeline

    def bottleneck_resource(self) -> str:
        return max(self.resource_busy, key=lambda r: float(self.resource_busy[r].max()))


def simulate_trace(
    trace: EventTrace,
    cost_model: CostModel,
    *,
    mode: PipelineMode = PipelineMode.FULL,
    depth: int = 10,
) -> PipelineResult:
    """Simulate one epoch from an engine-emitted :class:`EventTrace`.

    The unified event path: engines emit the stage events they actually
    executed (per-step for ``bsp``/``async``, window-coalesced comm for
    ``pipelined``, allreduce only at sync points for ``async``) and this
    scheduler prices them on the cluster's CPU / GPU / PCIe / NIC resources,
    honoring stage dependencies, depth gating, mode, and the collective
    rendezvous per comm window.  Returns the epoch makespan (including
    pipeline warm-up, as the paper's reported runtimes do) and per-category
    time attribution.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    K = trace.num_machines
    steps = trace.num_steps
    idx = trace.validate().index()
    allreduce_at = set(trace.allreduce_steps)

    # A multi-step comm window *is* an in-flight schedule: the engine
    # really sampled and fetched those steps together, so simulating them
    # serialized (OFF / BLOCKING_COMM) or with fewer in-flight slots than
    # the window holds would contradict the trace (and the sample gates
    # would read release times not yet computed).  Reject instead of
    # silently producing an optimistic schedule.
    max_window = max((hi - lo) for lo, hi in trace.windows) if trace.windows else 1
    if max_window > 1:
        if mode is not PipelineMode.FULL:
            raise ValueError(
                f"trace has {max_window}-step comm windows; only "
                f"PipelineMode.FULL can price an in-flight schedule "
                f"(got {mode})"
            )
        if depth < max_window:
            raise ValueError(
                f"simulated depth {depth} is smaller than the trace's "
                f"{max_window}-step comm windows; the engine kept "
                f"{max_window} batches in flight"
            )

    timeline = Timeline()
    price = cost_model.event_duration
    allreduce_dur = cost_model.allreduce_time()

    # One (K, lanes) busy-until clock per resource: the CPU has one lane per
    # sampling/slicing worker, everything else a single lane.
    workers = max(1, cost_model.cluster.machine.cpu_workers)
    clocks = {r: np.zeros((K, workers if r == "cpu" else 1))
              for r in RESOURCES}

    def run(stage: Stage, k: int, s: int, ready: float) -> float:
        """Place one machine's event on the earliest-free lane of its
        stage's resource, no sooner than ``ready``; returns its end."""
        event = idx[(stage, k, s)]
        lanes = clocks[stage.resource][k]
        lane = int(np.argmin(lanes))
        lanes[lane] = timeline.place(event, max(ready, lanes[lane]),
                                     price(event))
        return lanes[lane]

    def rendezvous(events, ready: float, durations) -> np.ndarray:
        """Place a collective: its events start together once their
        resource is free on every machine.  Returns the (K,) ends — the
        all-reduce is one event (machine ``-1``) whose end every machine
        takes."""
        clock = clocks[events[0].stage.resource]
        start = max(ready, float(clock.max()))
        clock[:, 0] = [timeline.place(ev, start, d)
                       for ev, d in zip(events, durations)]
        return clock[:, 0].copy()

    done_train = np.zeros(K)
    done_allreduce = 0.0
    release = np.zeros((steps, K))
    train_end = np.zeros((steps, K))
    sample_end = np.zeros((steps, K))
    local_slice_end = np.zeros((steps, K))
    sync_wait = np.zeros(K)

    for w0, w1 in trace.windows:
        # --- SAMPLE (CPU) per step: gated by pipeline depth / mode. ---
        for s in range(w0, w1):
            for k in range(K):
                ready = 0.0
                if s >= depth:
                    ready = max(ready, release[s - depth, k])
                if mode is PipelineMode.OFF and s > 0:
                    ready = max(ready, release[s - 1, k])
                sample_end[s, k] = run(Stage.SAMPLE, k, s, ready)

        # --- REQUEST_EXCHANGE (NET): one rendezvous per comm window. ---
        requests = [idx[(Stage.REQUEST_EXCHANGE, k, w0)] for k in range(K)]
        payloads = [idx[(Stage.FEATURE_COMM, k, w0)] for k in range(K)]
        req_dur = [price(ev) for ev in requests]
        comm_dur = [price(ev) for ev in payloads]
        any_comm = any(rd > 0 or cd > 0 for rd, cd in zip(req_dur, comm_dur))
        window_sample_end = sample_end[w0:w1]
        if any_comm:
            if mode is PipelineMode.BLOCKING_COMM:
                gate = max(float(done_train.max()), done_allreduce)
            else:
                gate = 0.0
            req_end = rendezvous(
                requests, max(float(window_sample_end.max()), gate), req_dur)
        else:
            req_end = window_sample_end.max(axis=0)

        # --- LOCAL_SLICE (per step) and SERVE_SLICE (per window), CPU. ---
        for s in range(w0, w1):
            for k in range(K):
                local_slice_end[s, k] = run(Stage.LOCAL_SLICE, k, s,
                                            sample_end[s, k])
        serve_end = [run(Stage.SERVE_SLICE, k, w0, req_end[k])
                     for k in range(K)]

        # --- FEATURE_COMM (NET): all-to-all; needs every server's slices. ---
        if any_comm:
            comm_end = rendezvous(payloads, float(max(serve_end)), comm_dur)
        else:
            comm_end = req_end

        # --- Per step: H2D (PCIe), GPU_GATHER + TRAIN (GPU), ALLREDUCE. ---
        for s in range(w0, w1):
            for k in range(K):
                h2d_end = run(Stage.H2D, k, s,
                              max(local_slice_end[s, k], comm_end[k]))
                gather_end = run(Stage.GPU_GATHER, k, s, h2d_end)
                train_end[s, k] = run(Stage.TRAIN, k, s, gather_end)
            if s in allreduce_at and allreduce_dur > 0 and K > 1:
                ar_ready = float(max(
                    train_end[s, k]
                    - (2.0 / 3.0) * timeline[(Stage.TRAIN, k, s)][1]
                    for k in range(K)
                ))
                ar_end = rendezvous([idx[(Stage.ALLREDUCE, -1, s)]],
                                    ar_ready, [allreduce_dur])[0]
                sync_wait += np.maximum(0.0, ar_end - train_end[s])
                done_allreduce = ar_end
                release[s] = np.maximum(ar_end, train_end[s])
            else:
                release[s] = train_end[s]
                done_allreduce = float(train_end[s].max())
            done_train = train_end[s].copy()

    epoch_time = float(release[-1].max())

    # ------------------------------------------------------------------
    # What is reported is a fold over the timeline: busy seconds by the
    # stage's resource, in placement order, and the Figure-8 attribution
    # (averaged over machines) by its category — a category's seconds per
    # (step, machine) first, then the steps in order.  Train-sync is not a
    # stage's duration but the wait the sweep saw behind each all-reduce.
    busy = {r: np.zeros(K) for r in RESOURCES}
    cells = {c: np.zeros((steps, K)) for c in CATEGORIES}
    for (stage, k, s), (_start, d) in timeline.items():
        who = k if k >= 0 else slice(None)  # the all-reduce holds everyone
        busy[stage.resource][who] += d
        if stage.category:
            cells[stage.category][s, who] += d
    mean = {c: float(np.mean(sum(cell))) for c, cell in cells.items()}
    sync_total = float(np.mean(sync_wait))
    startup = min(timeline[(Stage.TRAIN, k, 0)][0] for k in range(K))
    breakdown = {
        "train": mean["train"],
        "train_sync": sync_total,
        "startup": startup,
        "batch_prep_comp": mean["batch_prep_comp"],
        "batch_prep_comm": mean["batch_prep_comm"],
        "overlap_residual": max(
            0.0, epoch_time - (mean["train"] + sync_total + startup)
        ),
    }
    return PipelineResult(
        epoch_time=epoch_time,
        num_steps=steps,
        num_machines=K,
        breakdown=breakdown,
        resource_busy=busy,
        timeline=timeline,
    )
