"""Cost model: workload volumes → per-stage durations.

Translates the exact per-step volumes recorded by the functional executor
(:class:`~repro.distributed.records.StepRecord`) into stage durations on the
:class:`~repro.distributed.cluster.ClusterSpec` resources.  The discrete-event
simulator schedules these durations; nothing here depends on wall-clock
measurements, so results are deterministic and machine-independent.

The stage taxonomy — each stage's resource, granularity, Figure-8 category
and volume drivers — is stated once, on
:class:`repro.pipeline.events.Stage`; :meth:`CostModel.event_duration` is the
formula per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.distributed.cluster import ClusterSpec
from repro.pipeline.events import Stage


@dataclass(frozen=True)
class ModelDims:
    """Dimensions needed to price the GNN compute."""

    in_dim: int
    hidden_dim: int
    out_dim: int

    @property
    def as_tuple(self):
        return (self.in_dim, self.hidden_dim, self.out_dim)


class CostModel:
    """Prices :class:`~repro.distributed.records.StepRecord` volumes on a
    :class:`ClusterSpec`.

    Parameters
    ----------
    bytes_per_row:
        Feature row payload (feature_dim × itemsize).
    dims:
        Model dimensions for the FLOP estimate.
    grad_nbytes:
        Gradient wire size for the all-reduce stage.
    """

    def __init__(self, cluster: ClusterSpec, bytes_per_row: int,
                 dims: ModelDims, grad_nbytes: int):
        self.cluster = cluster
        self.bytes_per_row = int(bytes_per_row)
        self.dims = dims
        self.grad_nbytes = int(grad_nbytes)

    def allreduce_time(self) -> float:
        return self.cluster.all_reduce_time(self.grad_nbytes)

    # ------------------------------------------------------------------
    def event_duration(self, ev) -> float:
        """Price one :class:`~repro.pipeline.events.StageEvent` (seconds).

        The volumes are the ones
        :func:`~repro.pipeline.events.emit_step_events` and
        :func:`~repro.pipeline.events.emit_window_comm_events` put on the
        event: local-slice rows include coalesced rows (host-resident by the time
        the batch assembles) and dynamic-cache insertions (one memcpy into
        the cache slab each); inbound feature rows include ``vip-refresh``
        traffic, which rides the same wire as demand fetches but never
        crosses PCIe.
        """
        m = self.cluster.machine
        net = self.cluster.network
        bpr = self.bytes_per_row
        stage = ev.stage
        if stage is Stage.SAMPLE:
            return ev.volume("candidate_edges") / m.sample_rate + m.overhead_per_batch
        if stage is Stage.LOCAL_SLICE:
            return ev.volume("rows") * bpr / m.cpu_slice_rate
        if stage is Stage.SERVE_SLICE:
            return ev.volume("rows") * bpr / m.cpu_slice_rate
        if stage is Stage.REQUEST_EXCHANGE:
            request, serve = ev.volume("request_rows"), ev.volume("serve_rows")
            if request == 0 and serve == 0:
                return 0.0
            # Stages 2-5: two metadata/id all-to-all rounds.
            id_bytes = (request + serve) * 8
            return 2 * net.latency + id_bytes / net.effective_bandwidth
        if stage is Stage.FEATURE_COMM:
            in_rows, out_rows = ev.volume("in_rows"), ev.volume("out_rows")
            if in_rows == 0 and out_rows == 0:
                return 0.0
            # Stage 9: feature payload; full duplex, so the max of the two
            # directions bounds this machine's wire time.
            in_bytes = in_rows * bpr
            out_bytes = out_rows * bpr
            return net.latency + max(in_bytes, out_bytes) / net.effective_bandwidth
        if stage is Stage.H2D:
            return ev.volume("rows") * bpr / m.pcie_bandwidth
        if stage is Stage.GPU_GATHER:
            return (ev.volume("gpu_rows") + ev.volume("total_rows")) * bpr / m.gpu_slice_rate
        if stage is Stage.TRAIN:
            return ev.volume("flops") / m.gpu_flops
        if stage is Stage.ALLREDUCE:
            return self.allreduce_time()
        if stage is Stage.CACHE_REFRESH:
            rows = ev.volume("rows")
            if rows == 0:
                return 0.0
            # A refresh is one background fetch round: id list out, feature
            # payload back — same wire formulas as the demand stages.
            return (2 * net.latency + rows * 8 / net.effective_bandwidth
                    + rows * bpr / net.effective_bandwidth)
        raise ValueError(f"unknown stage {stage!r}")
