"""Partition-contiguous vertex reordering with per-partition score ordering.

Reproduces §4.1 of the paper: the graph is relabeled so that (a) vertices of
the same partition have contiguous ids, and (b) within a partition, vertices
are ordered by how beneficial it is to store them on the GPU (descending VIP
value when VIP reordering is enabled; original order otherwise — the
"no reorder" baseline of Figure 6).

The contiguous layout is what makes the runtime cheap: whether a vertex is
remote or local, and its row in the local feature tensor, are computed from
its id and the K+1 partition offsets with O(1) extra memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.graph.datasets import GraphDataset
from repro.partition.interface import Partition
from repro.utils.rng import permutation_from_order


@dataclass
class ReorderedDataset:
    """A dataset relabeled to the partition-contiguous order.

    Attributes
    ----------
    dataset:
        Relabeled copy of the input dataset (graph, features, labels, splits
        all permuted consistently).
    partition:
        Partition over *new* vertex ids; ``assignment`` is non-decreasing.
    part_offsets:
        ``(K+1,)`` — new ids of partition k occupy
        ``[part_offsets[k], part_offsets[k+1])``.
    new_of_old / old_of_new:
        The relabeling permutation and its inverse.
    """

    dataset: GraphDataset
    partition: Partition
    part_offsets: np.ndarray
    new_of_old: np.ndarray
    old_of_new: np.ndarray

    @property
    def num_parts(self) -> int:
        return self.partition.num_parts

    def part_range(self, k: int):
        """Half-open new-id range of partition ``k``."""
        return int(self.part_offsets[k]), int(self.part_offsets[k + 1])

    def part_size(self, k: int) -> int:
        lo, hi = self.part_range(k)
        return hi - lo

    def owner_of(self, new_ids: np.ndarray) -> np.ndarray:
        """Owning partition of each (new) vertex id — O(log K) searchsorted,
        no per-vertex table (the constant-memory lookup of §4.1)."""
        ids = np.asarray(new_ids, dtype=np.int64)
        return np.searchsorted(self.part_offsets, ids, side="right") - 1

    def local_index(self, new_ids: np.ndarray) -> np.ndarray:
        """Row of each vertex within its owner's local feature tensor."""
        ids = np.asarray(new_ids, dtype=np.int64)
        return ids - self.part_offsets[self.owner_of(ids)]

    def local_train_ids(self, k: int) -> np.ndarray:
        """New ids of training vertices owned by partition ``k``."""
        lo, hi = self.part_range(k)
        t = self.dataset.train_idx
        return t[(t >= lo) & (t < hi)]


def reorder_dataset(
    dataset: GraphDataset,
    partition: Partition,
    within_part_score: Optional[np.ndarray] = None,
) -> ReorderedDataset:
    """Relabel ``dataset`` to the partition-contiguous order.

    Parameters
    ----------
    within_part_score:
        Optional per-vertex score over *old* ids; within each partition,
        vertices are ordered by descending score (VIP reordering uses the
        partition's own VIP vector).  ``None`` keeps the original id order —
        the "no reorder" baseline.
    """
    n = dataset.num_vertices
    if partition.num_vertices != n:
        raise ValueError(
            f"partition covers {partition.num_vertices} vertices, dataset has {n}"
        )
    if within_part_score is not None:
        within_part_score = np.asarray(within_part_score, dtype=np.float64)
        if within_part_score.shape != (n,):
            raise ValueError("within_part_score must have one entry per vertex")

    # Order = partition id major; then descending score (stable) or old id.
    if within_part_score is None:
        order = np.argsort(partition.assignment, kind="stable")
    else:
        order = np.lexsort((-within_part_score, partition.assignment))
    return apply_reorder(dataset, partition, order)


def apply_reorder(
    dataset: GraphDataset,
    partition: Partition,
    order: np.ndarray,
) -> ReorderedDataset:
    """Relabel ``dataset`` with a precomputed ``order`` (old ids, new-id
    position ascending — i.e. the ``old_of_new`` map).

    This is the deterministic second half of :func:`reorder_dataset`, split
    out so a serialized reorder map can rebuild the identical
    :class:`ReorderedDataset` without recomputing partition or VIP scores
    (the planner's artifact-cache path).  ``order`` must list every vertex
    exactly once and be partition-major with respect to ``partition``.
    """
    n = dataset.num_vertices
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,):
        raise ValueError(f"order must have shape ({n},), got {order.shape}")
    if n and (order.min() < 0 or order.max() >= n
              or np.bincount(order, minlength=n).max() != 1):
        raise ValueError("order must be a permutation of [0, num_vertices)")
    if np.any(np.diff(partition.assignment[order]) < 0):
        raise ValueError("order must be partition-major for the given partition")
    new_of_old = permutation_from_order(order)

    sizes = np.bincount(partition.assignment, minlength=partition.num_parts)
    part_offsets = np.zeros(partition.num_parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=part_offsets[1:])

    new_graph = dataset.graph.relabel(new_of_old)
    new_assignment = np.repeat(
        np.arange(partition.num_parts, dtype=np.int64), sizes
    )
    new_dataset = replace(
        dataset,
        graph=new_graph,
        features=np.ascontiguousarray(dataset.features[order]),
        labels=dataset.labels[order],
        train_idx=np.sort(new_of_old[dataset.train_idx]),
        val_idx=np.sort(new_of_old[dataset.val_idx]),
        test_idx=np.sort(new_of_old[dataset.test_idx]),
        community=None if dataset.community is None else dataset.community[order],
    )
    return ReorderedDataset(
        dataset=new_dataset,
        partition=Partition(new_assignment, partition.num_parts),
        part_offsets=part_offsets,
        new_of_old=new_of_old,
        old_of_new=order,
    )
