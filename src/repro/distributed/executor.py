"""Distributed data-parallel GNN training over the partitioned feature store.

One Python process simulates K single-GPU machines: each machine owns a
partition of the (reordered) training vertices, samples its own minibatches
from its own RNG stream, gathers features through the partitioned store
(local GPU/CPU tiers, static or dynamic remote cache, remote peers),
computes forward/backward on its own model replica, and synchronizes with
its peers.  *How* an epoch is scheduled — lock-step BSP, depth-P pipelined
with coalesced fetches, or bounded-staleness async — is delegated to a
pluggable :class:`~repro.distributed.engine.ExecutionEngine`;
:meth:`DistributedTrainer.train_epoch` is a thin driver over the configured
engine.  Non-stationary workloads swap the active training set between
epochs via :meth:`DistributedTrainer.update_training_set`, and
dynamic-cache churn is attributed per epoch in the report.

Every step produces a :class:`~repro.distributed.records.StepRecord` with
the exact workload volumes, and every report carries the
:class:`~repro.pipeline.events.EventTrace` of the schedule the engine
executed — what the discrete-event performance model prices.  ``dry_run``
epochs skip the numpy GNN math but record identical volumes, which keeps
big timing sweeps cheap.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.cluster import CLUSTER_BACKENDS, ClusterBackend
from repro.distributed.comm import broadcast_state, gradient_nbytes
from repro.distributed.engine import accuracy, make_engine
from repro.distributed.feature_store import PartitionedFeatureStore
from repro.distributed.records import EpochReport
from repro.nn.models import GraphSAGE
from repro.nn.optim import Adam
from repro.partition.reorder import ReorderedDataset
from repro.sampling.mfg import MFG
from repro.sampling.neighbor import NeighborSampler
from repro.utils import ahead
from repro.utils.rng import SeedLike, derive_seed, machine_stream_seed

#: The dataset splits :meth:`DistributedTrainer.evaluate` scores.
EVAL_SPLITS = ("val", "test", "train")


class DistributedTrainer:
    """Data-parallel trainer over K simulated machines.

    Parameters
    ----------
    reordered:
        Partition-contiguous dataset (see :func:`repro.partition.reorder_dataset`).
    store:
        Feature store built over the same reordered dataset.
    fanouts / batch_size:
        Per-hop sampling fanouts and per-machine minibatch size.
    hidden_dim / lr:
        Model and optimizer hyperparameters: one model replica and one
        ``Adam`` per machine, all initialized identically.  ``async``
        steps every optimizer on its replica's own gradient; ``bsp`` and
        ``pipelined`` step ``optimizers[0]`` once per sync step and bind
        the other replicas to its weights, so their optimizers stay idle.
    engine / pipeline_depth / staleness:
        The execution engine (a :data:`~repro.distributed.engine.ENGINES`
        name, default ``"bsp"``) and its knobs: in-flight batches per
        machine for ``pipelined``, staleness bound for ``async``.
    """

    def __init__(
        self,
        reordered: ReorderedDataset,
        store: PartitionedFeatureStore,
        *,
        fanouts: Sequence[int],
        batch_size: int,
        hidden_dim: int = 64,
        lr: float = 1e-3,
        seed: SeedLike = 0,
        engine: str = "bsp",
        pipeline_depth: int = 10,
        staleness: int = 0,
    ):
        if store.num_machines != reordered.num_parts:
            raise ValueError("store and reordered dataset disagree on machine count")
        self.reordered = reordered
        self.store = store
        self.ds = reordered.dataset
        self.fanouts = tuple(int(f) for f in fanouts)
        self.batch_size = int(batch_size)
        self.hidden_dim = hidden_dim
        self.seed = seed
        self.num_machines = reordered.num_parts

        self.samplers = [
            NeighborSampler(self.ds.graph, self.fanouts,
                            seed=machine_stream_seed(seed, "sampler", k))
            for k in range(self.num_machines)
        ]
        self.models: List[GraphSAGE] = [
            GraphSAGE(self.ds.feature_dim, hidden_dim, self.ds.num_classes,
                      len(self.fanouts), seed=derive_seed(seed, "model"))
            for _ in range(self.num_machines)
        ]
        broadcast_state(self.models)  # identical initial weights
        self.optimizers = [Adam(m.parameters(), lr=lr) for m in self.models]
        self.local_train = [reordered.local_train_ids(k) for k in range(self.num_machines)]
        self.engine = make_engine(engine, self, pipeline_depth=pipeline_depth,
                                  staleness=staleness)

    # ------------------------------------------------------------------
    def update_training_set(self, train_idx: np.ndarray) -> None:
        """Replace the active training vertices (non-stationary workloads).

        ``train_idx`` uses the reordered (new) vertex numbering; each id is
        routed to its owning machine.  Every machine must retain at least one
        full batch, otherwise the bulk-synchronous step structure collapses.
        With a ``vip-refresh`` cache whose score provider reads
        ``self.local_train``, the next refresh adapts to the new set.
        """
        train_idx = np.asarray(train_idx, dtype=np.int64)
        owner = self.reordered.owner_of(train_idx)
        local = [np.sort(train_idx[owner == k]) for k in range(self.num_machines)]
        self._full_batches(local)
        self.local_train = local
        # A training-set swap is a *known* workload change: refreshing
        # caches re-score at their next gather instead of waiting out the
        # periodic interval.
        self.store.request_refresh()

    def _full_batches(self, local_train: Sequence[np.ndarray]) -> int:
        """Full batches every machine can draw from ``local_train``; a
        machine with none would stall the lock-step schedule, so that is an
        error here rather than a stream running dry mid-epoch."""
        counts = [len(ids) // self.batch_size for ids in local_train]
        short = [k for k, count in enumerate(counts) if count == 0]
        if short:
            raise ValueError(
                f"machines {short} would have fewer than one batch "
                f"({self.batch_size} vertices) of training data"
            )
        return min(counts)

    def steps_per_epoch(self) -> int:
        """Lock-step step count: the minimum full-batch count across
        machines (the paper's partitioner balances training vertices, so
        machines lose at most one partial batch each).  Raises
        ``ValueError`` when some machine cannot fill a single batch."""
        return self._full_batches(self.local_train)

    def batches(self, machine: int, epoch: int) -> Iterator[MFG]:
        """``machine``'s minibatch stream for ``epoch`` — the same shuffle
        order and sampler stream under every engine and cluster backend."""
        return self.samplers[machine].batches(
            self.local_train[machine], self.batch_size,
            drop_last=True, epoch=epoch,
            seed=machine_stream_seed(self.seed, "order", machine),
        )

    @property
    def spare_core(self) -> bool:
        """Whether the epoch loop may sample ahead in a sampler process:
        all K machines train inside this one process, so it takes one core
        and its sampler another."""
        return ahead.spare_core(1)

    def gradient_nbytes(self) -> int:
        return gradient_nbytes(self.models[0])

    # ------------------------------------------------------------------
    def train_epoch(self, epoch: int, *, dry_run: bool = False) -> EpochReport:
        """Run one epoch under the configured execution engine; ``dry_run``
        records volumes (and the engine's event schedule) only."""
        return self.engine.run_epoch(epoch, dry_run=dry_run)

    def train(self, epochs: int, *, dry_run: bool = False) -> List[EpochReport]:
        return [self.train_epoch(e, dry_run=dry_run) for e in range(epochs)]

    # ------------------------------------------------------------------
    def eval_shards(self, split: str,
                    fanouts: Optional[Sequence[int]] = None
                    ) -> Tuple[Dict[int, Tuple[np.ndarray, int]], Tuple[int, ...]]:
        """What each machine scores when evaluating ``split``:
        ``({k: (split ids machine k owns, seed of its "inference" stream)},
        fanouts)``, ``fanouts`` defaulting to the training ones.

        Every backend calls this before doing any work, so a bad argument
        is a ``ValueError`` naming it here — never a failure inside the
        model's forward, or inside a worker process.
        """
        if split not in EVAL_SPLITS:
            raise ValueError(
                f"split must be one of {EVAL_SPLITS}, got {split!r}")
        fanouts = self.fanouts if fanouts is None \
            else tuple(np.ravel(fanouts).tolist())
        if len(fanouts) != len(self.fanouts) or not all(
                isinstance(f, int) and (f > 0 or f == -1) for f in fanouts):
            raise ValueError(
                f"fanouts must be {len(self.fanouts)} integers (one per "
                f"model layer), each positive or -1; got {fanouts!r}")
        ids = getattr(self.ds, f"{split}_idx")
        owner = self.reordered.owner_of(ids)
        return {k: (ids[owner == k],
                    machine_stream_seed(self.seed, "inference", k))
                for k in range(self.num_machines)}, fanouts

    def evaluate(self, split: str = "val", *,
                 fanouts: Optional[Sequence[int]] = None) -> float:
        """Minibatch inference accuracy on ``split`` (§2.4: the training
        forward path with inference ``fanouts``): every machine scores the
        ids it owns with its own replica
        (:meth:`~repro.distributed.engine.ExecutionEngine.score_machines`
        over all K)."""
        shards, fanouts = self.eval_shards(split, fanouts)
        return accuracy(self.engine.score_machines(shards, fanouts))

    def models_in_sync(self) -> bool:
        """True if all replicas hold bit-identical weights (test hook)."""
        ref = self.models[0].state_dict()
        for m in self.models[1:]:
            for k2, v in m.state_dict().items():
                if not np.array_equal(ref[k2], v):
                    return False
        return True


@CLUSTER_BACKENDS.register("inprocess")
class InProcessBackend(ClusterBackend):
    """The default backend: K simulated machines inside this interpreter.

    A thin adapter over the system's :class:`DistributedTrainer` — the
    behaviour every other backend must reproduce bit-for-bit.
    """

    name = "inprocess"

    def run_epoch(self, epoch: int, *, dry_run: bool = False) -> EpochReport:
        return self.system.trainer.train_epoch(epoch, dry_run=dry_run)

    def evaluate(self, split: str, *,
                 fanouts: Optional[Sequence[int]] = None) -> float:
        return self.system.trainer.evaluate(split, fanouts=fanouts)

    def close(self) -> None:
        """Kill the engine's sampler process, if it forked one; the next
        trained epoch forks a fresh one."""
        self.system.trainer.engine.close_sampler()
