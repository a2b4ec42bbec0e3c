"""DistDGL-like baseline for the Table 4 comparison.

The paper compares SALIENT++ against DistDGL's public distributed GraphSAGE
example on identical hardware (8 single-GPU machines) and reports a 12.7x
gap.  The gap is architectural, and this baseline reproduces those
architectural choices rather than any constant:

* **Distributed graph structure** — DistDGL partitions the graph itself, so
  every sampling hop whose frontier crosses partitions is a synchronous RPC
  to remote sampling servers: per hop, an id round-trip plus adjacency
  shipping (~16 bytes per sampled edge), priced on the same network model.
* **No feature caching** — remote features (beyond the partition's halo) are
  fetched per minibatch, synchronously, through the KVStore.
* **No preparation pipeline** — sampling, feature fetch, copy, and training
  execute sequentially inside the training loop (PipelineMode.OFF).
* **Slower per-batch sampling path** — Python sampler workers + RPC
  serialization; modeled as a sampler-rate derating and a per-batch fixed
  overhead, calibrated so the single-machine gap to SALIENT's C++ sampler
  matches the ~2-4x reported in the SALIENT paper.

The functional layer (sampling distribution, training math) is identical to
SALIENT++'s, so accuracy is unaffected — only the execution schedule and
priced volumes differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import RunConfig
from repro.core.system import SalientPP
from repro.graph.datasets import GraphDataset
from repro.pipeline.costmodel import CostModel
from repro.pipeline.events import Stage
from repro.pipeline.simulator import PipelineMode


@dataclass(frozen=True)
class DistDGLParams:
    """Derating constants for the DistDGL execution path."""

    sampler_derate: float = 0.35       # Python/RPC sampler vs SALIENT's C++
    per_batch_overhead: float = 1.2e-3  # RPC round-trips, GIL, serialization
    bytes_per_remote_edge: float = 16.0  # shipped adjacency (src, dst ids)
    kvstore_derate: float = 0.5        # KVStore slicing vs fused slicing


class DistDGLCostModel(CostModel):
    """Cost model with DistDGL's remote-sampling and KVStore behaviour."""

    def __init__(self, *args, params: DistDGLParams = DistDGLParams(),
                 num_hops: int = 3, remote_frontier_fraction: float = 0.5,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.params = params
        self.num_hops = num_hops
        self.remote_frontier_fraction = remote_frontier_fraction

    def event_duration(self, ev) -> float:
        """SALIENT++ pricing with DistDGL's deratings: a slower sampler
        with per-batch RPC overhead, KVStore slicing, and one id/adjacency
        round-trip per hop for the remotely owned frontier."""
        base = super().event_duration(ev)
        m = self.cluster.machine
        net = self.cluster.network
        p = self.params
        if ev.stage is Stage.SAMPLE:
            return (ev.volume("candidate_edges")
                    / (m.sample_rate * p.sampler_derate)
                    + m.overhead_per_batch + p.per_batch_overhead)
        if ev.stage in (Stage.LOCAL_SLICE, Stage.SERVE_SLICE):
            return base / p.kvstore_derate
        if ev.stage is Stage.REQUEST_EXCHANGE:
            remote_edges = ev.volume("mfg_edges") * self.remote_frontier_fraction
            rpc = (2 * self.num_hops * net.latency
                   + remote_edges * p.bytes_per_remote_edge / net.bandwidth)
            return base + rpc
        return base


class DistDGL(SalientPP):
    """DistDGL-like system: build like SALIENT++ but with no cache, no
    pipeline, and the DistDGL cost model."""

    @classmethod
    def build(cls, dataset: GraphDataset, config: RunConfig,
              **kwargs) -> "DistDGL":
        config = replace(
            config,
            full_replication=False,
            replication_factor=0.0,
            gpu_fraction=0.0,
            vip_reorder=False,
            pipeline=PipelineMode.OFF,
        )
        return super().build(dataset, config, **kwargs)

    @staticmethod
    def _cost_model_for(config, store, dims, trainer) -> DistDGLCostModel:
        """The DistDGL pricing of the same cluster and volumes."""
        remote_frac = 1.0 - 1.0 / max(config.num_machines, 1)
        return DistDGLCostModel(
            config.cluster(), store.bytes_per_row, dims,
            trainer.gradient_nbytes(),
            num_hops=len(trainer.fanouts),
            remote_frontier_fraction=min(remote_frac, 0.6),
        )
