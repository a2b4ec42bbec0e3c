"""The discrete-event simulator as it stood before a placed stage became
the one record of simulated time.

Frozen at ``4bb8d36``: ``simulate_trace`` copied verbatim from
``src/repro/pipeline/simulator.py`` — the per-resource clock arrays and
``busy`` accumulators, the ``dur()`` re-pricing pass behind the Figure-8
breakdown, ``first_train_start`` recomputed as ``(start + d) - d`` — with its
result dataclass (only ``PipelineMode`` is imported, so ``mode is
PipelineMode.OFF`` compares the enum the callers pass).
``test_simulator_reference.py`` (beside this file) holds the timeline-filling
``simulate_trace`` to it over engine x depth x mode x K x cache policy and a
DistDGL-priced trace.  Never edit: a parity oracle is the written reason this
second implementation exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.pipeline.costmodel import CostModel
from repro.pipeline.events import EventTrace, Stage
from repro.pipeline.simulator import PipelineMode


@dataclass
class PipelineResult:
    """Outcome of simulating one epoch."""

    epoch_time: float
    num_steps: int
    num_machines: int
    breakdown: Dict[str, float]
    resource_busy: Dict[str, np.ndarray]  # resource -> (K,) busy seconds
    first_train_start: float

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

    def dur(stage: Stage, k: int, s: int) -> float:
        return cost_model.event_duration(idx[(stage, k, s)])

    allreduce_dur = cost_model.allreduce_time()

    workers = max(1, cost_model.cluster.machine.cpu_workers)
    cpu = np.zeros((K, workers))
    gpu = np.zeros(K)
    pcie = np.zeros(K)
    net = np.zeros(K)
    grad_net = np.zeros(K)

    done_train = np.zeros(K)
    done_allreduce = 0.0
    release = np.zeros((steps, K))
    train_end = np.zeros((steps, K))
    sample_end = np.zeros((steps, K))
    local_slice_end = np.zeros((steps, K))
    sync_wait = np.zeros((steps, K))
    first_train_start = None

    busy = {name: np.zeros(K) for name in ("cpu", "gpu", "pcie", "net", "grad_net")}

    def run(clock: np.ndarray, k: int, ready: float, d: float, name: str) -> float:
        start = max(ready, clock[k])
        clock[k] = start + d
        busy[name][k] += d
        return clock[k]

    def run_cpu(k: int, ready: float, d: float) -> float:
        lane = int(np.argmin(cpu[k]))
        start = max(ready, cpu[k, lane])
        cpu[k, lane] = start + d
        busy["cpu"][k] += d
        return cpu[k, lane]

    for w0, w1 in trace.windows:
        # --- SAMPLE (CPU) per step: gated by pipeline depth / mode. ---
        for s in range(w0, w1):
            for k in range(K):
                ready = 0.0
                if s >= depth:
                    ready = max(ready, release[s - depth, k])
                if mode is PipelineMode.OFF and s > 0:
                    ready = max(ready, release[s - 1, k])
                sample_end[s, k] = run_cpu(k, ready, dur(Stage.SAMPLE, k, s))

        # --- REQUEST_EXCHANGE (NET): one rendezvous per comm window. ---
        req_dur = [dur(Stage.REQUEST_EXCHANGE, k, w0) for k in range(K)]
        comm_dur = [dur(Stage.FEATURE_COMM, k, w0) for k in range(K)]
        any_comm = any(rd > 0 or cd > 0 for rd, cd in zip(req_dur, comm_dur))
        window_sample_end = sample_end[w0:w1]
        if any_comm:
            if mode is PipelineMode.BLOCKING_COMM:
                gate = max(float(done_train.max()), done_allreduce)
            else:
                gate = 0.0
            req_ready = max(float(window_sample_end.max()), gate)
            req_start = max(req_ready, float(net.max()))
            req_end = np.zeros(K)
            for k in range(K):
                net[k] = req_start + req_dur[k]
                busy["net"][k] += req_dur[k]
                req_end[k] = net[k]
        else:
            req_end = window_sample_end.max(axis=0)

        # --- LOCAL_SLICE (per step) and SERVE_SLICE (per window), CPU. ---
        serve_end = np.zeros(K)
        for s in range(w0, w1):
            for k in range(K):
                local_slice_end[s, k] = run_cpu(
                    k, sample_end[s, k], dur(Stage.LOCAL_SLICE, k, s)
                )
        for k in range(K):
            serve_end[k] = run_cpu(k, req_end[k], dur(Stage.SERVE_SLICE, k, w0))

        # --- FEATURE_COMM (NET): all-to-all; needs every server's slices. ---
        if any_comm:
            comm_ready = float(serve_end.max())
            comm_start = max(comm_ready, float(net.max()))
            comm_end = np.zeros(K)
            for k in range(K):
                net[k] = comm_start + comm_dur[k]
                busy["net"][k] += comm_dur[k]
                comm_end[k] = net[k]
        else:
            comm_end = req_end.copy()

        # --- Per step: H2D (PCIe), GPU_GATHER + TRAIN (GPU), ALLREDUCE. ---
        for s in range(w0, w1):
            train_dur = [dur(Stage.TRAIN, k, s) for k in range(K)]
            for k in range(K):
                h2d_ready = max(local_slice_end[s, k], comm_end[k])
                h2d_end = run(pcie, k, h2d_ready, dur(Stage.H2D, k, s), "pcie")
                gather_end = run(gpu, k, h2d_end,
                                 dur(Stage.GPU_GATHER, k, s), "gpu")
                train_end[s, k] = run(gpu, k, gather_end, train_dur[k], "gpu")
            if first_train_start is None:
                first_train_start = float(
                    min(train_end[0, k] - train_dur[k] for k in range(K))
                )
            if s in allreduce_at and allreduce_dur > 0 and K > 1:
                ar_ready = float(max(
                    train_end[s, k] - (2.0 / 3.0) * train_dur[k]
                    for k in range(K)
                ))
                ar_start = max(ar_ready, float(grad_net.max()))
                ar_end = ar_start + allreduce_dur
                for k in range(K):
                    grad_net[k] = ar_end
                    busy["grad_net"][k] += allreduce_dur
                    sync_wait[s, k] = max(0.0, ar_end - train_end[s, k])
                done_allreduce = ar_end
                release[s] = np.maximum(ar_end, train_end[s])
            else:
                release[s] = train_end[s]
                done_allreduce = float(train_end[s].max())
            done_train = train_end[s].copy()

    epoch_time = float(release[-1].max())

    # ------------------------------------------------------------------
    # Figure-8 style attribution (averaged over machines), from events.
    train_total = float(np.mean([
        sum(dur(Stage.TRAIN, k, s) for s in range(steps)) for k in range(K)
    ]))
    sync_total = float(np.mean(sync_wait.sum(axis=0)))
    startup = float(first_train_start or 0.0)
    prep_comp = float(np.mean([
        sum(dur(Stage.SAMPLE, k, s) + dur(Stage.LOCAL_SLICE, k, s)
            + dur(Stage.GPU_GATHER, k, s) + dur(Stage.H2D, k, s)
            for s in range(steps))
        + sum(dur(Stage.SERVE_SLICE, k, w0) for w0, _ in trace.windows)
        for k in range(K)
    ]))
    prep_comm = float(np.mean([
        sum(dur(Stage.REQUEST_EXCHANGE, k, w0) + dur(Stage.FEATURE_COMM, k, w0)
            for w0, _ in trace.windows)
        for k in range(K)
    ]))
    breakdown = {
        "train": train_total,
        "train_sync": sync_total,
        "startup": startup,
        "batch_prep_comp": prep_comp,
        "batch_prep_comm": prep_comm,
        "overlap_residual": max(
            0.0, epoch_time - (train_total + sync_total + startup)
        ),
    }
    return PipelineResult(
        epoch_time=epoch_time,
        num_steps=steps,
        num_machines=K,
        breakdown=breakdown,
        resource_busy=busy,
        first_train_start=startup,
    )
