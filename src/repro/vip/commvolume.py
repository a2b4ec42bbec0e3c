"""Communication-volume evaluation of caching policies (Figure 2 harness).

Workflow mirroring the paper's simulation experiments:

1. Run the real node-wise sampler for ``epochs`` evaluation epochs on each
   partition's local training set, recording per-partition per-vertex access
   counts (one access = one minibatch whose expanded neighborhood contains
   the vertex — remote features are fetched in bulk once per minibatch).
2. For each policy and replication factor, select each machine's cache and
   charge one unit of communication per access to a remote, uncached vertex.

The same trace evaluates every policy, so "oracle" (ranking by the trace's
own counts) is a true lower bound and "none" the upper bound; all other
policies land in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.distributed.dynamic_cache import top_scored
from repro.graph.csr import CSRGraph
from repro.partition.interface import Partition
from repro.sampling.neighbor import NeighborSampler
from repro.utils.rng import SeedLike, derive_seed
from repro.vip.policies import (
    CacheContext,
    CachePolicy,
    OraclePolicy,
    cache_budget,
)


@dataclass
class AccessTrace:
    """Per-partition access counts measured from sampled epochs.

    Attributes
    ----------
    counts:
        ``(K, N)`` — number of minibatches of machine ``k`` whose expanded
        neighborhood included vertex ``u`` (averaged counts stay integral
        because they are summed over all ``epochs``).
    epochs:
        Number of epochs the trace covers.
    steps:
        ``(K,)`` — total minibatch count per machine over the trace.
    """

    counts: np.ndarray
    epochs: int
    steps: np.ndarray

    @property
    def num_parts(self) -> int:
        return self.counts.shape[0]


def record_access_trace(
    graph: CSRGraph,
    partition: Partition,
    train_idx: np.ndarray,
    fanouts: Sequence[int],
    batch_size: int,
    epochs: int = 2,
    seed: SeedLike = 0,
) -> AccessTrace:
    """Sample ``epochs`` epochs per partition and count vertex accesses."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    owner = partition.assignment[train_idx]
    K = partition.num_parts
    counts = np.zeros((K, graph.num_vertices), dtype=np.int64)
    steps = np.zeros(K, dtype=np.int64)
    for k in range(K):
        local = train_idx[owner == k]
        if len(local) == 0:
            continue
        sampler = NeighborSampler(graph, fanouts, seed=derive_seed(seed, "trace", k))
        for epoch in range(epochs):
            for mfg in sampler.batches(
                local, batch_size, epoch=epoch, seed=derive_seed(seed, "order", k)
            ):
                counts[k, mfg.n_id] += 1
                steps[k] += 1
    return AccessTrace(counts=counts, epochs=epochs, steps=steps)


def remote_volume_for_caches(
    trace: AccessTrace,
    partition: Partition,
    caches: List[np.ndarray],
) -> float:
    """Average per-epoch remote fetch volume (in vertices) under ``caches``."""
    total = 0
    for k in range(trace.num_parts):
        remote = partition.assignment != k
        if len(caches[k]):
            remote = remote.copy()
            remote[caches[k]] = False
        total += int(trace.counts[k, remote].sum())
    return total / float(trace.epochs)


@dataclass
class PolicyVolume:
    """One (policy, alpha) evaluation result."""

    policy: str
    alpha: float
    volume: float  # avg per-epoch remote vertex fetches
    improvement: float  # volume(none) / volume


def evaluate_policies(
    graph: CSRGraph,
    partition: Partition,
    train_idx: np.ndarray,
    fanouts: Sequence[int],
    batch_size: int,
    policies: Dict[str, CachePolicy],
    alphas: Sequence[float],
    *,
    eval_epochs: int = 2,
    seed: SeedLike = 0,
    trace: Optional[AccessTrace] = None,
    include_oracle: bool = True,
) -> List[PolicyVolume]:
    """Figure-2 style sweep: volume for every (policy, alpha) pair.

    The "none" baseline and (optionally) the "oracle" lower bound are added
    automatically.  Pass a pre-recorded ``trace`` to amortize sampling across
    fanout settings.
    """
    if trace is None:
        trace = record_access_trace(
            graph, partition, train_idx, fanouts, batch_size,
            epochs=eval_epochs, seed=derive_seed(seed, "eval-trace"),
        )
    ctx = CacheContext(
        graph=graph,
        partition=partition,
        train_idx=train_idx,
        fanouts=fanouts,
        batch_size=batch_size,
        seed=seed,
    )
    K = partition.num_parts
    no_cache = [np.empty(0, dtype=np.int64)] * K
    base_volume = remote_volume_for_caches(trace, partition, no_cache)

    results = [PolicyVolume("none", 0.0, base_volume, 1.0)]

    all_policies = dict(policies)
    if include_oracle and "oracle" not in all_policies:
        all_policies["oracle"] = OraclePolicy(trace.counts)

    for name, policy in all_policies.items():
        # Scores do not depend on alpha: compute once per partition, then
        # re-select under each budget.
        scores = []
        for k in range(K):
            s = np.asarray(policy.scores(ctx, k), dtype=np.float64).copy()
            s[partition.assignment == k] = -np.inf
            scores.append(s)
        for alpha in alphas:
            budget = cache_budget(graph.num_vertices, K, alpha)
            caches = [top_scored(s, budget) for s in scores]
            volume = remote_volume_for_caches(trace, partition, caches)
            results.append(PolicyVolume(
                policy=name,
                alpha=float(alpha),
                volume=volume,
                improvement=base_volume / max(volume, 1e-12),
            ))
    return results


def geometric_mean_improvement(
    results: List[PolicyVolume], policy: str
) -> float:
    """Geo-mean of (no-cache volume / policy volume) across a sweep —
    Figure 2(d)'s aggregate."""
    vals = [r.improvement for r in results if r.policy == policy]
    if not vals:
        raise ValueError(f"no results for policy {policy!r}")
    return float(np.exp(np.mean(np.log(vals))))
