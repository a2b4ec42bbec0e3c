"""Cost model: workload volumes → per-stage durations.

Translates the exact per-step volumes recorded by the functional executor
(:class:`~repro.distributed.records.StepRecord`) into stage durations on the
:class:`~repro.distributed.cluster.ClusterSpec` resources.  The discrete-event
simulator schedules these durations; nothing here depends on wall-clock
measurements, so results are deterministic and machine-independent.

Stage taxonomy (coarsened from the 10 stages of Appendix D):

====================  =========  =================================================
stage                 resource   volume driver
====================  =========  =================================================
SAMPLE                CPU        candidate adjacency entries examined
REQUEST_EXCHANGE      NET        two metadata rounds + vertex-id lists (stages 2-5)
LOCAL_SLICE           CPU        local CPU rows + cached rows sliced (stage 6)
SERVE_SLICE           CPU        rows sliced for peers' requests (stages 6-8)
FEATURE_COMM          NET        remote feature payload in + served payload out
H2D                   PCIe       host-resident rows copied to device (stage 7)
GPU_GATHER            GPU        GPU-resident rows sliced + concat (stage 8)
TRAIN                 GPU        forward + backward GEMM FLOPs
ALLREDUCE             NET        gradient ring all-reduce (with the model update)
====================  =========  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.distributed.cluster import ClusterSpec
from repro.distributed.records import StepRecord, served_rows_matrix  # noqa: F401  (re-export)
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


@dataclass
class StageTimes:
    """Durations (seconds) of one machine's stages for one minibatch."""

    sample: float
    request_exchange: float
    local_slice: float
    serve_slice: float
    feature_comm: float
    h2d: float
    gpu_gather: float
    train: float

    def preparation_compute(self) -> float:
        return self.sample + self.local_slice + self.serve_slice + self.gpu_gather

    def preparation_comm(self) -> float:
        return self.request_exchange + self.feature_comm


class CostModel:
    """Prices :class:`StepRecord` volumes on a :class:`ClusterSpec`.

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

    # ------------------------------------------------------------------
    def stage_times(self, rec: StepRecord, served_rows: int) -> StageTimes:
        """Durations for one machine-step.

        ``served_rows`` is the number of rows this machine must slice and
        send to peers in the same step (computed by the simulator from all
        machines' records, since a machine cannot know it locally).
        """
        m = self.cluster.machine
        net = self.cluster.network
        bpr = self.bytes_per_row
        g = rec.gather

        sample = rec.candidate_edges / m.sample_rate + m.overhead_per_batch
        # Coalesced rows (deduplicated against another in-flight batch) are
        # host-resident by the time this batch assembles, like cached rows.
        host_rows = g.cpu_rows + g.cached_rows + g.coalesced_rows
        # Dynamic-cache maintenance is CPU work: every admitted or refreshed
        # row is one extra memcpy into the cache slab.
        cache_update_rows = g.cache_insertions
        local_slice = (host_rows + cache_update_rows) * bpr / m.cpu_slice_rate
        serve = served_rows * bpr / m.cpu_slice_rate

        # Cache-update traffic (vip-refresh swaps) rides the same wire as
        # demand fetches, so it is added to this machine's inbound volume.
        remote_rows = g.remote_rows + g.refresh_fetch_rows
        if remote_rows == 0 and served_rows == 0:
            request_exchange = 0.0
            feature_comm = 0.0
        else:
            # Stages 2-5: two metadata/id all-to-all rounds.
            id_bytes = (remote_rows + served_rows) * 8
            request_exchange = 2 * net.latency + id_bytes / net.effective_bandwidth
            # Stage 9: feature payload; full duplex, so the max of the two
            # directions bounds this machine's wire time.
            in_bytes = remote_rows * bpr
            out_bytes = served_rows * bpr
            feature_comm = net.latency + max(in_bytes, out_bytes) / net.effective_bandwidth

        # Only demand rows cross PCIe; refreshed cache rows stay host-side.
        h2d_rows = host_rows + g.remote_rows
        h2d = h2d_rows * bpr / m.pcie_bandwidth
        gpu_gather = (g.gpu_rows + g.total_rows) * bpr / m.gpu_slice_rate
        train = rec.flops(*self.dims.as_tuple) / m.gpu_flops

        return StageTimes(
            sample=sample,
            request_exchange=request_exchange,
            local_slice=local_slice,
            serve_slice=serve,
            feature_comm=feature_comm,
            h2d=h2d,
            gpu_gather=gpu_gather,
            train=train,
        )

    def allreduce_time(self) -> float:
        return self.cluster.all_reduce_time(self.grad_nbytes)

    # ------------------------------------------------------------------
    def event_duration(self, ev) -> float:
        """Price one :class:`~repro.pipeline.events.StageEvent` (seconds).

        Uses the same rate formulas as :meth:`stage_times`, so a per-step
        event trace prices identically to the record-based path (the parity
        tests assert exact float equality).
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
            id_bytes = (request + serve) * 8
            return 2 * net.latency + id_bytes / net.effective_bandwidth
        if stage is Stage.FEATURE_COMM:
            in_rows, out_rows = ev.volume("in_rows"), ev.volume("out_rows")
            if in_rows == 0 and out_rows == 0:
                return 0.0
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
