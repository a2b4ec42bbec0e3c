"""End-to-end SALIENT / SALIENT++ systems.

:class:`SalientPP` wires the whole stack together the way the real system's
preprocessing + runtime does:

1. partition the graph (METIS-like, multi-constraint balanced);
2. compute partition-wise VIP vectors (Proposition 1);
3. reorder vertices partition-contiguously, VIP-descending within partitions;
4. select each machine's remote-feature cache with the configured policy
   (static rankings, or a dynamic lru/vip-refresh cache
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
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import RunConfig
from repro.core.planner import Planner
from repro.distributed.executor import DistributedTrainer
from repro.distributed.feature_store import PartitionedFeatureStore
from repro.distributed.records import EpochReport
from repro.graph.datasets import GraphDataset
from repro.graph.mutable import land_batch
from repro.obs import OBS
from repro.partition.interface import Partition
from repro.partition.reorder import ReorderedDataset
from repro.pipeline.costmodel import CostModel, ModelDims
from repro.pipeline.simulator import PipelineResult, simulate_trace
from repro.vip.analytic import uniform_minibatch_probability
from repro.vip.incremental import VIPTracker


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
        #: Scores ``vip-refresh`` re-ranks on: Proposition 1 on the graph
        #: the samplers read.  ``vip_matrix`` stays the build-time artifact.
        self.tracker = VIPTracker(reordered.dataset.graph, trainer.fanouts)

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
        """Release backend resources (worker processes, shared memory; the
        in-process engine's sampler process).

        Idempotent.  Systems used as context managers shut down on exit."""
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
        directly by :func:`simulate_trace`; with ``repro.obs`` on, the
        schedule it placed is exported as ``stage.*`` spans on the
        simulated clock (whichever backend ran the epoch).
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
                if OBS.enabled:
                    OBS.tracer.add_timeline(timing.timeline)
            return EpochResult(report=report, timing=timing)

    def train(self, epochs: int, *, dry_run: bool = False) -> List[EpochResult]:
        return [self.train_epoch(e, dry_run=dry_run) for e in range(epochs)]

    def mean_epoch_time(self, epochs: int = 2, *, dry_run: bool = True) -> float:
        """Simulated per-epoch runtime averaged over ``epochs`` epochs (dry
        runs by default: timing needs volumes, not gradients)."""
        results = self.train(epochs, dry_run=dry_run)
        return float(np.mean([r.epoch_time for r in results]))

    def evaluate(self, split: str = "test", *,
                 fanouts: Optional[Sequence[int]] = None) -> float:
        """Accuracy on ``split``, scored on the configured backend: each
        machine scores the ids it owns with its own replica."""
        with OBS.span("system.evaluate", split=split,
                      backend=self.config.backend):
            return self.backend().evaluate(split, fanouts=fanouts)

    def _refuse_while_live(self, action: str) -> None:
        """A live external backend's workers hold their own copies of the
        training split and the graph; a coordinator-side change would
        silently diverge from what they sample."""
        if self._backend is not None and self._backend.is_live:
            raise RuntimeError(
                f"cannot {action} while a live cluster backend is running; "
                f"call shutdown() first"
            )

    def update_training_set(self, train_idx: np.ndarray) -> None:
        """Swap the active training vertices (reordered ids) — the
        non-stationary-workload hook; see
        :meth:`repro.distributed.DistributedTrainer.update_training_set`.
        Refused while a live external backend is running (call
        :meth:`shutdown` first)."""
        self._refuse_while_live("swap the training set")
        self.trainer.update_training_set(train_idx)

    def training_vip_scores(self, machine: int) -> np.ndarray:
        """The ``vip-refresh`` score provider for training: Proposition 1
        seeded by ``machine``'s *current* training set (it may have drifted
        via :meth:`update_training_set`) on the graph its sampler reads.

        Asks :attr:`tracker` for all K machines at once: a phase boundary
        refreshes every machine's cache, so the first provider call scores
        the whole round, one evaluation per machine, and the other K - 1
        get their stored scores back (same graph version, same ``p[0]``)."""
        n, trainer = self.tracker.graph.num_vertices, self.trainer
        p0s = {k: uniform_minibatch_probability(n, ids, trainer.batch_size)
               for k, ids in enumerate(trainer.local_train)}
        return self.tracker.access(p0s)[machine]

    def apply_graph_updates(self, batch):
        """Apply a streaming edge batch to the training graph (continual
        training over a mutating graph).

        The first call wraps this system's graph in a
        :class:`~repro.graph.mutable.MutableGraph` overlay
        (:func:`~repro.graph.mutable.land_batch`) and re-points the
        trainer's samplers and :attr:`tracker` at it; sibling systems built
        from the same planner keep the base graph.  Endpoints are in
        **reordered** numbering — the vocabulary of
        :meth:`update_training_set` — and must name existing vertices.

        No VIP is evaluated here: ``store.request_refresh()`` makes every
        ``vip-refresh`` cache re-rank at its next gather, and that refresh
        scores the mutated graph through :attr:`tracker`.

        Refused while a live external backend is running (call
        :meth:`shutdown` first).  Returns the
        :class:`~repro.graph.mutable.DeltaRecord` of the applied batch.
        """
        self._refuse_while_live("mutate the graph")
        ds = self.reordered.dataset
        ds.graph = graph = land_batch(ds.graph, batch)
        for sampler in self.trainer.samplers:
            sampler.graph = graph
        self.tracker.graph = graph
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
