"""End-to-end SALIENT / SALIENT++ systems.

:class:`SalientPP` wires the whole stack together the way the real system's
preprocessing + runtime does:

1. partition the graph (METIS-like, multi-constraint balanced);
2. compute partition-wise VIP vectors (Proposition 1);
3. reorder vertices partition-contiguously, VIP-descending within partitions;
4. select each machine's remote-feature cache with the configured policy
   (static rankings, or a dynamic LRU/LFU/CLOCK/vip-refresh cache
   warm-started from the analytic-VIP selection);
5. build the partitioned feature store (GPU prefix β, cache α);
6. train with the bulk-synchronous distributed executor (functionally real
   numpy GNN training), recording exact per-step workload volumes;
7. replay those volumes through the discrete-event pipeline simulator to
   obtain epoch times on the configured cluster.

Steps 1–5 are the staged preprocessing DAG executed by
:class:`~repro.core.planner.Planner`; :meth:`SalientPP.build` is a thin
wrapper over :meth:`Planner.build`.  Pass a shared planner (or let a
benchmark harness do it) and every stage unchanged between system variants
is fetched from the artifact cache instead of recomputed.

:class:`Salient` is the same object built with full feature replication (the
paper's baseline, Table 1 row 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import RunConfig
from repro.core.planner import Planner
from repro.distributed.executor import DistributedTrainer, EpochReport
from repro.distributed.feature_store import PartitionedFeatureStore
from repro.graph.datasets import GraphDataset
from repro.obs import OBS
from repro.partition.interface import Partition
from repro.partition.registry import make_partition  # noqa: F401  (re-export)
from repro.partition.reorder import ReorderedDataset
from repro.pipeline.costmodel import CostModel, ModelDims
from repro.pipeline.simulator import PipelineResult, simulate_trace


@dataclass
class EpochResult:
    """Functional + simulated-timing outcome of one epoch."""

    report: EpochReport
    timing: PipelineResult

    @property
    def epoch_time(self) -> float:
        return self.timing.epoch_time

    @property
    def loss(self) -> Optional[float]:
        return self.report.mean_loss


class SalientPP:
    """The SALIENT++ system (or its ablations, per the config).

    Use :meth:`build` (which runs the preprocessing pipeline through a
    :class:`~repro.core.planner.Planner`) rather than the constructor.
    Heavyweight artifacts (partition, VIP matrix) can still be injected to
    amortize preprocessing across system variants; with a shared planner the
    same reuse happens automatically via stage fingerprints.
    """

    def __init__(
        self,
        dataset: GraphDataset,
        config: RunConfig,
        reordered: ReorderedDataset,
        store: PartitionedFeatureStore,
        trainer: DistributedTrainer,
        cost_model: CostModel,
        vip_matrix: Optional[np.ndarray],
    ):
        self.dataset = dataset
        self.config = config
        self.reordered = reordered
        self.store = store
        self.trainer = trainer
        self.cost_model = cost_model
        self.vip_matrix = vip_matrix
        self._backend = None
        # Per-partition VIP snapshots for streaming-graph refreshes
        # (populated lazily by apply_graph_updates).
        self._vip_snapshots = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: GraphDataset,
        config: RunConfig,
        *,
        partition: Optional[Partition] = None,
        vip_matrix: Optional[np.ndarray] = None,
        planner: Optional[Planner] = None,
    ) -> "SalientPP":
        """Build the system by executing the preprocessing plan.

        Without ``planner`` a fresh one (in-memory cache only) is used, so a
        single build behaves exactly as before; a shared planner reuses
        every stage whose fingerprint matches a previous build.  Injected
        ``partition`` / ``vip_matrix`` are content-addressed by the planner.
        """
        if planner is None:
            planner = Planner()
        return planner.build(dataset, config, partition=partition,
                             vip_matrix=vip_matrix, system_cls=cls)

    @staticmethod
    def _cost_model_for(config: RunConfig, store: PartitionedFeatureStore,
                        dims: ModelDims, trainer: DistributedTrainer) -> CostModel:
        return CostModel(
            cluster=config.cluster(),
            bytes_per_row=store.bytes_per_row,
            dims=dims,
            grad_nbytes=trainer.gradient_nbytes(),
        )

    # ------------------------------------------------------------------
    def backend(self):
        """The configured :class:`~repro.distributed.cluster.ClusterBackend`,
        built lazily (a multiproc backend spawns workers on first use)."""
        if self._backend is None:
            from repro.distributed.cluster import make_cluster_backend

            self._backend = make_cluster_backend(self.config.backend, self)
        return self._backend

    def shutdown(self) -> None:
        """Release backend resources (worker processes, shared memory).

        Idempotent; a no-op for the in-process backend.  Systems used as
        context managers shut down on exit."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "SalientPP":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    def train_epoch(self, epoch: int = 0, *, dry_run: bool = False) -> EpochResult:
        """One functional epoch + its simulated wall time.

        The report's stage-event schedule — the one the engine actually
        executed: per-step windows for ``bsp``, coalesced comm windows for
        ``pipelined``, thinned allreduce barriers for ``async`` — is priced
        directly by :func:`simulate_trace`.
        """
        with OBS.span("system.train_epoch", epoch=epoch, dry_run=dry_run,
                      backend=self.config.backend):
            report = self.backend().run_epoch(epoch, dry_run=dry_run)
            with OBS.span("system.simulate"):
                timing = simulate_trace(
                    report.events, self.cost_model,
                    mode=self.config.pipeline,
                    depth=self.config.pipeline_depth,
                )
            return EpochResult(report=report, timing=timing)

    def train(self, epochs: int, *, dry_run: bool = False) -> List[EpochResult]:
        return [self.train_epoch(e, dry_run=dry_run) for e in range(epochs)]

    def mean_epoch_time(self, epochs: int = 2, *, dry_run: bool = True) -> float:
        """Simulated per-epoch runtime averaged over ``epochs`` epochs (dry
        runs by default: timing needs volumes, not gradients)."""
        results = self.train(epochs, dry_run=dry_run)
        return float(np.mean([r.epoch_time for r in results]))

    def evaluate(self, split: str = "test", **kwargs) -> float:
        return self.trainer.evaluate(split, **kwargs)

    def update_training_set(self, train_idx: np.ndarray) -> None:
        """Swap the active training vertices (reordered ids) — the
        non-stationary-workload hook; see
        :meth:`repro.distributed.DistributedTrainer.update_training_set`.

        Refused while a live external backend is running: its workers hold
        their own copies of the training split, so a coordinator-side swap
        would silently diverge from what the workers sample.  Call
        :meth:`shutdown` first."""
        if self._backend is not None and self._backend.is_live:
            raise RuntimeError(
                "cannot swap the training set while a live cluster backend "
                "is running; call shutdown() first"
            )
        self.trainer.update_training_set(train_idx)

    def apply_graph_updates(self, batch, *, refresh_vip: bool = True):
        """Apply a streaming edge batch to the training graph (continual
        training over a mutating graph).

        On the first call the reordered dataset's graph is wrapped in a
        :class:`~repro.graph.mutable.MutableGraph` (delta-CSR overlay) and
        the trainer's samplers are re-pointed at it; subsequent calls apply
        straight to the overlay.  Endpoints are in **reordered** numbering —
        the same vocabulary as :meth:`update_training_set` — and must name
        existing vertices: the feature store has no rows for vertices the
        dataset has never seen, so vertex additions go through
        :meth:`~repro.graph.mutable.MutableGraph.add_vertices` on the graph
        directly (with features handled by the caller) rather than here.

        With ``refresh_vip`` (the default) each partition's row of
        :attr:`vip_matrix` is refreshed through a per-partition
        :class:`~repro.vip.incremental.VIPSnapshot` — a full Proposition-1
        evaluation the first time, dirty-frontier incremental afterwards —
        and the feature store is asked to re-rank its dynamic caches at the
        next epoch boundary (``store.request_refresh()``), mirroring the
        non-stationary-workload hook.

        Refused while a live external backend is running, for the same
        reason as :meth:`update_training_set`: workers hold their own graph
        copies, and a coordinator-side mutation would silently diverge from
        what they sample.  Call :meth:`shutdown` first.

        Returns the :class:`~repro.graph.mutable.DeltaRecord` describing
        the applied batch.
        """
        if self._backend is not None and self._backend.is_live:
            raise RuntimeError(
                "cannot mutate the graph while a live cluster backend is "
                "running; call shutdown() first"
            )
        from repro.graph.mutable import MutableGraph
        from repro.vip.analytic import uniform_minibatch_probability
        from repro.vip.incremental import incremental_vip, snapshot_vip

        ds = self.reordered.dataset
        graph = ds.graph
        if not isinstance(graph, MutableGraph):
            graph = MutableGraph(
                graph, compact_cutoff=self.config.streaming.compact_cutoff)
            ds.graph = graph
            for sampler in self.trainer.samplers:
                sampler.graph = graph
            self._vip_snapshots = {}
        n = graph.num_vertices
        for arr in (batch.add_src, batch.add_dst, batch.del_src,
                    batch.del_dst):
            if len(arr) and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(
                    f"edge endpoints must be existing reordered vertex ids "
                    f"in [0, {n}); use MutableGraph.add_vertices to grow "
                    f"the graph"
                )
        graph.apply(batch)
        if refresh_vip and self.vip_matrix is not None:
            # The trainer holds the dataset-resolved hyperparameters (the
            # config's may still be None placeholders).
            fanouts = self.trainer.fanouts
            batch_size = self.trainer.batch_size
            cutoff = self.config.streaming.churn_cutoff
            for k in range(len(self.trainer.local_train)):
                local = self.trainer.local_train[k]
                if len(local) == 0:
                    continue
                p0 = uniform_minibatch_probability(
                    graph.num_vertices, local, batch_size)
                snap = self._vip_snapshots.get(k)
                if snap is None:
                    snap = snapshot_vip(graph, p0, fanouts)
                else:
                    snap = incremental_vip(graph, snap, p0,
                                           churn_cutoff=cutoff)
                self._vip_snapshots[k] = snap
                access = snap.access
                if self.vip_matrix.shape[1] < len(access):
                    pad = np.zeros(
                        (self.vip_matrix.shape[0],
                         len(access) - self.vip_matrix.shape[1]))
                    self.vip_matrix = np.hstack([self.vip_matrix, pad])
                self.vip_matrix[k, : len(access)] = access
            self.store.request_refresh()
        return graph.log[-1]

    # ------------------------------------------------------------------
    @property
    def memory_multiple(self) -> float:
        """Total feature memory across machines, as a multiple of the
        unreplicated dataset (Figure 5's right axis)."""
        return self.store.memory_multiple()

    @property
    def realized_alpha(self) -> float:
        return self.store.replication_factor()

    def describe(self) -> str:
        return f"{type(self).__name__}[{self.config.describe()}]"


class Salient(SalientPP):
    """The SALIENT baseline: full feature replication on every machine."""

    @classmethod
    def build(cls, dataset: GraphDataset, config: RunConfig, **kwargs) -> "Salient":
        from dataclasses import replace

        config = replace(config, full_replication=True, replication_factor=0.0)
        return super().build(dataset, config, **kwargs)
