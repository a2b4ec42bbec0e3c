"""Feature-caching policy zoo: static rankings (Figure 2) + dynamic caches.

Every *static* policy answers the same question: for machine ``k``, which
remote vertices' features should be replicated locally, given a budget of
``alpha * N / K`` cache slots?  Policies differ only in the per-vertex score
used for ranking:

==============  ==============================================================
``none``        No caching (the communication upper bound).
``degree``      Vertex degree, restricted to remote vertices reachable within
                L hops of the partition's training set (PaGraph / Lin et al.).
``halo``        The partition's 1-hop halo, ranked by degree inside the halo.
``wpr``         Weighted reverse PageRank, 5 iterations, damping 0.85
                (GNS / Min et al.) — fanout- and depth-agnostic.
``numpaths``    Number of paths of length ≤ L from the local training set.
``sim``         Empirical VIP: access frequencies counted over 2 simulated
                training epochs (GNNLab / Yang et al.).
``vip``         Analytic VIP per Proposition 1 — the paper's policy.
``oracle``      Actual access frequencies of the evaluation trace itself
                (retroactive; the communication lower bound).
==============  ==============================================================

All scores are computed *per partition* (footnote 1 of the paper: global
single-ranking variants of these baselines are strictly weaker).

The *dynamic* policies (see :mod:`repro.distributed.dynamic_cache`) keep the
same budget but change contents at runtime — the extension for workloads the
static analysis cannot serve (training-set drift, streaming inference):

===============  =============================================================
``lru``          Admit a miss seen in an earlier batch if it out-scores the
                 least-recently-used cached row it would evict.
``vip-refresh``  Contents fixed between refreshes; every ``refresh_interval``
                 batches, swap to the top analytic-VIP vertices for the
                 *current* training set (observed counts when no provider).
===============  =============================================================

``RunConfig.cache_policy`` accepts either family, and
:class:`~repro.core.system.SalientPP` warm-starts dynamic caches from the
static analytic-VIP selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np
import scipy.sparse as sp

from repro.distributed.dynamic_cache import top_scored
from repro.graph.csr import CSRGraph, rows_concat, sorted_unique
from repro.partition.interface import Partition
from repro.utils.registry import Registry
from repro.utils.rng import SeedLike, derive_seed
from repro.vip.analytic import vip_for_training_set
from repro.vip.empirical import simulate_access_counts

#: Static cache-policy registry (``RunConfig.cache_policy``): each entry is a
#: zero-argument factory for a :class:`CachePolicy`.  Shares the decorator
#: registration API with ``PARTITIONERS`` and ``DYNAMIC_CACHE_POLICIES``;
#: the oracle policy is deliberately absent (it needs the evaluation trace).
STATIC_CACHE_POLICIES = Registry("static cache policy")


@dataclass
class CacheContext:
    """Everything a caching policy may consult.

    The evaluation trace itself is *not* here — only the oracle policy sees
    it, via :class:`OraclePolicy`'s dedicated constructor.
    """

    graph: CSRGraph
    partition: Partition
    train_idx: np.ndarray
    fanouts: Sequence[int]
    batch_size: int
    seed: SeedLike = 0

    def local_train(self, part: int) -> np.ndarray:
        t = np.asarray(self.train_idx, dtype=np.int64)
        return t[self.partition.assignment[t] == part]

    @property
    def num_hops(self) -> int:
        return len(self.fanouts)


class CachePolicy:
    """Base class: subclasses implement :meth:`scores`."""

    name: str = "abstract"

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        """Per-vertex cache-priority scores for machine ``part`` (higher is
        better).  Entries for local vertices are ignored by selection."""
        raise NotImplementedError

    def select(self, ctx: CacheContext, part: int, budget: int) -> np.ndarray:
        """Ids of the ≤ ``budget`` highest-scoring remote vertices
        (:func:`~repro.distributed.dynamic_cache.top_scored`: non-positive
        scores are never cached, which gives policies a natural support
        set, e.g. the halo policy's halo)."""
        if budget <= 0:  # nothing to rank: skip computing the scores
            return np.empty(0, dtype=np.int64)
        s = np.asarray(self.scores(ctx, part), dtype=np.float64).copy()
        s[ctx.partition.assignment == part] = -np.inf  # locals need no cache
        return top_scored(s, budget)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@STATIC_CACHE_POLICIES.register("none")
class NoCachePolicy(CachePolicy):
    """Upper bound: cache nothing."""

    name = "none"

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        return np.zeros(ctx.graph.num_vertices)


def _reachable_within(graph: CSRGraph, sources: np.ndarray, hops: int) -> np.ndarray:
    """Boolean mask of vertices reachable from ``sources`` in ≤ ``hops``."""
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[np.asarray(sources, dtype=np.int64)] = True
    frontier = np.asarray(sources, dtype=np.int64)
    for _ in range(hops):
        if len(frontier) == 0:
            break
        nbrs = rows_concat(graph, frontier)[1]
        fresh = sorted_unique(nbrs[~mask[nbrs]])
        mask[fresh] = True
        frontier = fresh
    return mask


@STATIC_CACHE_POLICIES.register("degree")
class DegreePolicy(CachePolicy):
    """Degree ranking over remote vertices reachable from the local training
    set within L hops (Lin et al., 2020)."""

    name = "degree"

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        reach = _reachable_within(ctx.graph, ctx.local_train(part), ctx.num_hops)
        deg = ctx.graph.degrees.astype(np.float64)
        return np.where(reach, deg + 1.0, 0.0)


@STATIC_CACHE_POLICIES.register("halo")
class HaloPolicy(CachePolicy):
    """The partition's 1-hop halo, ranked by degree within the halo."""

    name = "halo"

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        local = np.flatnonzero(ctx.partition.assignment == part)
        halo = _reachable_within(ctx.graph, local, 1)
        deg = ctx.graph.degrees.astype(np.float64)
        maxdeg = max(float(deg.max()), 1.0)
        # Halo membership dominates; degree only breaks ties inside the halo.
        return np.where(halo, 1.0 + deg / (maxdeg + 1.0), 0.0)


@STATIC_CACHE_POLICIES.register("wpr")
class WeightedReversePageRankPolicy(CachePolicy):
    """Weighted reverse PageRank from the local training set (Min et al.).

    5 power iterations with damping 0.85, pushing mass along reversed edges
    with 1/degree weights.  Deliberately agnostic to fanouts and layer count
    — the property the paper identifies as its weakness.
    """

    name = "wpr"
    iterations: int = 5
    damping: float = 0.85

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        n = ctx.graph.num_vertices
        local_train = ctx.local_train(part)
        s = np.zeros(n, dtype=np.float64)
        if len(local_train) == 0:
            return s
        s[local_train] = 1.0 / len(local_train)
        # Push matrix: (A D^{-1})[u, v] = 1/d(v) for u ∈ N(v) — each vertex
        # pushes its mass to neighbors, split by its own degree (reversed
        # propagation relative to standard PageRank's pull).
        adj = ctx.graph.to_scipy(dtype=np.float64)
        inv_deg = 1.0 / np.maximum(ctx.graph.degrees, 1)
        push = (adj @ sp.diags(inv_deg)).tocsr()
        r = s.copy()
        for _ in range(self.iterations):
            r = (1.0 - self.damping) * s + self.damping * (push @ r)
        return r


@STATIC_CACHE_POLICIES.register("numpaths")
class NumPathsPolicy(CachePolicy):
    """Number of paths of length ≤ L from the local training set: structural
    expansion without any model of sampling."""

    name = "numpaths"

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        n = ctx.graph.num_vertices
        local_train = ctx.local_train(part)
        c = np.zeros(n, dtype=np.float64)
        c[local_train] = 1.0
        adj = ctx.graph.to_scipy(dtype=np.float64)
        total = np.zeros(n, dtype=np.float64)
        for _ in range(ctx.num_hops):
            c = adj.T @ c  # paths extend along edges out of the current set
            total += c
        return total


@STATIC_CACHE_POLICIES.register("sim")
class SimulationPolicy(CachePolicy):
    """Empirical VIP: access counts over a few simulated epochs (Yang et al.).

    Uses its own RNG stream, distinct from any evaluation trace, so it pays
    the estimation variance the paper discusses (infrequently accessed
    vertices need many samples)."""

    name = "sim"

    def __init__(self, epochs: int = 2):
        self.epochs = epochs

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        return simulate_access_counts(
            ctx.graph,
            ctx.local_train(part),
            ctx.fanouts,
            ctx.batch_size,
            epochs=self.epochs,
            seed=derive_seed(ctx.seed, "sim-policy", part),
        ).astype(np.float64)


@STATIC_CACHE_POLICIES.register("vip")
class VIPAnalyticPolicy(CachePolicy):
    """The paper's policy: analytic VIP values per Proposition 1."""

    name = "vip"

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        res = vip_for_training_set(
            ctx.graph, ctx.local_train(part), ctx.fanouts, ctx.batch_size
        )
        return res.total


class OraclePolicy(CachePolicy):
    """Retroactive ranking by the evaluation trace's actual access counts —
    the communication lower bound of Figure 2.

    Construct with the ``(K, N)`` access-count matrix measured on the *same*
    trace that is later used for evaluation.
    """

    name = "oracle"

    def __init__(self, access_counts: np.ndarray):
        self.access_counts = np.asarray(access_counts, dtype=np.float64)

    def scores(self, ctx: CacheContext, part: int) -> np.ndarray:
        return self.access_counts[part]


def default_policies() -> Dict[str, Callable[[], CachePolicy]]:
    """Factories for the Figure 2 policy zoo (oracle excluded: it needs the
    evaluation trace) — a dict view over :data:`STATIC_CACHE_POLICIES`."""
    return dict(STATIC_CACHE_POLICIES.items())


def cache_budget(num_vertices: int, num_parts: int, alpha: float) -> int:
    """Cache slots per machine for replication factor ``alpha`` (§3.2:
    ``alpha * N / K`` cached feature vectors per machine)."""
    if alpha < 0:
        raise ValueError(f"replication factor must be non-negative, got {alpha}")
    return int(round(alpha * num_vertices / num_parts))


def build_caches(
    policy: CachePolicy,
    ctx: CacheContext,
    alpha: float,
) -> list:
    """Select each machine's cache set under replication factor ``alpha``."""
    budget = cache_budget(ctx.graph.num_vertices, ctx.partition.num_parts, alpha)
    return [
        policy.select(ctx, k, budget) for k in range(ctx.partition.num_parts)
    ]
