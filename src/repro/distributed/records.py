"""Step records and epoch reports: what one epoch *did*, as plain data.

The leaf of the training stack: every layer above — the execution engine
that fills :class:`StepRecord`\\ s, the cluster backends that ship them
between processes, the cost model and simulator that price them, serving —
imports from here, and this module imports none of them.  Keeping it a leaf
is what lets ``repro.pipeline``, ``repro.distributed.engine`` and
``repro.distributed.multiproc`` each be the first ``repro`` import.

Every batch a machine gathers — a training step or a served micro-batch —
produces one :class:`StepRecord` (:meth:`StepRecord.for_batch`, the only
constructor call) with the exact workload volumes (MFG sizes, candidate
edges examined by the sampler, per-category feature rows, per-peer remote
rows); every row total a report states is :meth:`GatherStats.sum` over its
records.  An :class:`EpochReport` is the K machines' records in ``(step,
machine)`` order plus everything
:func:`repro.distributed.engine.assemble_report` derives from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.comm import CommLedger
from repro.distributed.dynamic_cache import CacheChurnStats
from repro.distributed.feature_store import GatherStats
from repro.sampling.mfg import MFG

if TYPE_CHECKING:  # pragma: no cover - annotation only; keeps this a leaf
    from repro.pipeline.events import EventTrace


def sage_forward_flops(
    block_sizes: Sequence[Tuple[int, int, int]],
    in_dim: int,
    hidden_dim: int,
    out_dim: int,
) -> float:
    """Forward-pass GEMM FLOPs of a SAGE stack over ``(num_src, num_dst,
    num_edges)`` blocks — the single cost formula both training
    (:meth:`StepRecord.flops`, at 3x for fwd+bwd) and inference serving
    (:func:`repro.serving.forward_flops`) price with.

    Per block: two dense (rows × d_in × d_out) products (self + neighbor
    branches) plus the mean aggregation over sampled edges.
    """
    dims = [in_dim] + [hidden_dim] * (len(block_sizes) - 1) + [out_dim]
    total = 0.0
    # blocks are stored hop-1-first; layer i consumes block L-1-i.
    for layer, (_num_src, num_dst, edges) in enumerate(reversed(block_sizes)):
        d_in, d_out = dims[layer], dims[layer + 1]
        gemm = 2.0 * num_dst * d_in * d_out * 2  # self + neighbor branch
        agg = 2.0 * edges * d_in                 # mean aggregation
        total += gemm + agg
    return total


def _candidate_edges(degrees: np.ndarray, mfg: MFG) -> int:
    """Adjacency entries examined while sampling this MFG: every hop scans
    the full neighbor list of every destination."""
    total = 0
    for block in mfg.blocks:
        total += int(degrees[mfg.n_id[:block.num_dst]].sum())
    return total


@dataclass
class StepRecord:
    """Workload volumes for one machine's batch: a training step (``step``
    is the epoch step) or a served micro-batch (``step`` is its step in the
    serving trace, ``loss`` stays ``None``)."""

    machine: int
    step: int
    batch_size: int
    mfg_vertices: int
    mfg_edges: int
    candidate_edges: int  # adjacency entries the sampler examined
    block_sizes: Tuple[Tuple[int, int, int], ...]  # (num_src, num_dst, edges)
    gather: GatherStats
    loss: Optional[float] = None

    @classmethod
    def for_batch(cls, machine: int, step: int, mfg: MFG,
                  degrees: np.ndarray, gather: GatherStats) -> "StepRecord":
        """The record of ``machine`` gathering ``mfg`` as ``step``, sampled
        from a graph with out-``degrees``."""
        return StepRecord(
            machine=machine,
            step=step,
            batch_size=mfg.batch_size,
            mfg_vertices=mfg.num_vertices,
            mfg_edges=mfg.num_edges,
            candidate_edges=_candidate_edges(degrees, mfg),
            block_sizes=tuple(
                (b.num_src, b.num_dst, b.num_edges) for b in mfg.blocks
            ),
            gather=gather,
        )

    def flops(self, in_dim: int, hidden_dim: int, out_dim: int) -> float:
        """Forward+backward GEMM FLOPs of a SAGE stack on this MFG
        (backward costs ~2x forward)."""
        return 3.0 * sage_forward_flops(self.block_sizes, in_dim, hidden_dim,
                                        out_dim)


def served_rows_matrix(step_records: Sequence[StepRecord], num_machines: int) -> np.ndarray:
    """Rows each machine serves in one step: ``served[k] = Σ_j requests j→k``
    (demand fetches plus any cache-refresh fetches issued that step)."""
    served = np.zeros(num_machines, dtype=np.int64)
    for rec in step_records:
        served += rec.gather.remote_per_peer
        if rec.gather.refresh_fetch_per_peer is not None:
            served += rec.gather.refresh_fetch_per_peer
    return served


@dataclass
class EpochReport:
    """One training epoch's functional results and workload trace.

    ``cache_churn`` holds per-machine dynamic-cache churn attributed to this
    epoch (``None`` when the feature store uses static caches).  ``events``
    is the stage-event schedule of the epoch the engine executed (an
    :class:`~repro.pipeline.events.EventTrace`), which the simulator prices
    directly.
    """

    epoch: int
    records: List[StepRecord]
    ledger: CommLedger
    mean_loss: Optional[float]
    steps_per_machine: int
    events: "EventTrace"
    cache_churn: Optional[List[CacheChurnStats]] = None
    #: :meth:`GatherStats.sum` over ``records`` — every row total below is
    #: a read of it.
    gather: GatherStats = field(init=False)

    def __post_init__(self):
        self.gather = GatherStats.sum(r.gather for r in self.records)

    def records_for(self, machine: int) -> List[StepRecord]:
        return [r for r in self.records if r.machine == machine]

    def total_remote_rows(self) -> int:
        return self.gather.remote_rows

    def total_cached_rows(self) -> int:
        return self.gather.cached_rows

    def total_refresh_rows(self) -> int:
        """Rows fetched by ``vip-refresh`` cache swaps this epoch."""
        return self.gather.refresh_fetch_rows

    def total_coalesced_rows(self) -> int:
        """Rows deduplicated against another in-flight batch (pipelined
        execution): needed again, but never re-fetched over the wire."""
        return self.gather.coalesced_rows

    def total_comm_rows(self) -> int:
        """All feature rows moved over the network (demand + cache updates)."""
        return self.gather.comm_rows()

    def cache_hit_rate(self) -> float:
        """Rows served without a demand fetch (cache hits + in-flight
        coalesced reads) ÷ non-local rows served (those + demand fetches);
        see :meth:`GatherStats.cache_hit_rate`."""
        return self.gather.cache_hit_rate()
