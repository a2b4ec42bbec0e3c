"""Micro-batching policies for the inference service.

A batcher owns one machine's pending-request queue discipline: *when* to
flush, and *how* to pack the drained requests into micro-batches (each
micro-batch becomes one sampled MFG; all micro-batches of a flush form one
comm window whose fetch plans are coalesced).  Policies are registered in
:data:`BATCHERS` (``repro.utils.registry.Registry``, the same pattern as
``ENGINES`` / ``PARTITIONERS``), selected by ``ServingConfig.batcher``:

``fixed-size``
    Flush only full batches of ``max_batch`` requests, in arrival order —
    the naive policy: lowest per-batch overhead, but a lone request can
    wait forever (the service force-drains at end of stream) and batch
    composition ignores the feature store entirely.

``deadline``
    Flush when the oldest queued request has waited ``max_wait_ms`` (or a
    full window of ``max_batch × max_in_flight`` requests is queued),
    draining in arrival order.  This bounds *queueing* wait by
    construction — the SLO knob — while accumulating enough micro-batches
    for the window's coalesced fetch to deduplicate across.

``cache-affinity``
    Deadline-triggered, but packs micro-batches by *feature residency*:
    requests are scored by the fraction of their seeds' one-hop
    neighborhood that is local or cached on this machine
    (:meth:`PartitionedFeatureStore.hit_mask`) and grouped
    affinity-sorted.  Under a popularity hot set this clusters hot-set
    requests — which share seeds and sampled frontier — into the same
    MFG, so their overlap collapses *before* planning (one frontier
    expansion instead of several independent ones) and the window's
    coalesced remote fetch shrinks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.graph.csr import sorted_unique
from repro.serving.workload import Request
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.config import ServingConfig
    from repro.distributed.feature_store import PartitionedFeatureStore
    from repro.graph.csr import CSRGraph

#: Micro-batcher registry (``ServingConfig.batcher``).
BATCHERS = Registry("micro-batcher")

#: Deadline comparisons tolerate float accumulation in the simulated clock.
_EPS = 1e-12


def one_hop_union(graph: "CSRGraph", seeds: np.ndarray) -> np.ndarray:
    """``seeds`` plus all their neighbors — the cheap frontier proxy the
    affinity batcher scores (sampling the true L-hop frontier per queued
    request would cost more than the fetch it tries to save)."""
    seeds = np.asarray(seeds, dtype=np.int64)
    deg = graph.degrees[seeds]
    total = int(deg.sum())
    if total == 0:
        return sorted_unique(seeds)
    ends = np.cumsum(deg)
    rel = np.arange(total, dtype=np.int64) - np.repeat(ends - deg, deg)
    nbrs = graph.indices[np.repeat(graph.indptr[seeds], deg) + rel]
    return sorted_unique(np.concatenate([seeds, nbrs]))


class MicroBatcher:
    """Base batcher: holds the spec; subclasses decide flush and packing.

    One batcher instance serves one machine's queue.  :meth:`bind` wires
    the store handles policies that inspect residency need; the base
    implementation keeps them for subclasses and is a no-op otherwise.
    """

    name: str = "?"

    def __init__(self, spec: "ServingConfig"):
        self.spec = spec
        self.store: Optional["PartitionedFeatureStore"] = None
        self.machine: Optional[int] = None

    def bind(self, store: "PartitionedFeatureStore", machine: int) -> None:
        self.store = store
        self.machine = machine

    # -- interface ------------------------------------------------------
    def flush(self, queue: List[Request], now: float, *,
              force: bool = False) -> List[List[Request]]:
        """Pop and return the micro-batches to serve now (``[]`` = wait).

        Mutates ``queue`` (drained requests are removed).  At most
        ``max_in_flight`` micro-batches of at most ``max_batch`` requests
        each; ``force`` (end of stream) overrides the policy's trigger so
        nothing is stranded.
        """
        raise NotImplementedError

    def next_deadline(self, queue: List[Request]) -> Optional[float]:
        """Earliest simulated time a flush becomes due with no further
        arrivals (``None`` = only arrivals can trigger one)."""
        return None

    # -- shared helpers -------------------------------------------------
    def _take(self, queue: List[Request], count: int) -> List[Request]:
        taken = queue[:count]
        del queue[:count]
        return taken

    def _chunk(self, requests: List[Request]) -> List[List[Request]]:
        size = self.spec.max_batch
        return [requests[i:i + size] for i in range(0, len(requests), size)]


@BATCHERS.register("fixed-size")
class FixedSizeBatcher(MicroBatcher):
    """Flush full ``max_batch``-request batches only, in arrival order."""

    name = "fixed-size"

    def flush(self, queue, now, *, force=False):
        full = len(queue) // self.spec.max_batch
        batches = min(full, self.spec.max_in_flight)
        if batches == 0:
            if not (force and queue):
                return []
            return self._chunk(self._take(queue, self.spec.max_batch))
        return self._chunk(self._take(queue, batches * self.spec.max_batch))


@BATCHERS.register("deadline")
class DeadlineBatcher(MicroBatcher):
    """Flush at the oldest request's ``max_wait_ms`` deadline, or as soon
    as a *full window* (``max_batch × max_in_flight`` requests) is queued,
    draining in arrival order.

    Accumulating up to a whole window — rather than dispatching each full
    batch greedily like ``fixed-size`` — is what gives the window's
    coalesced fetch multiple micro-batches to deduplicate across; the
    deadline bounds what that accumulation may cost any single request.
    """

    name = "deadline"

    def _due(self, queue: List[Request], now: float) -> bool:
        return bool(queue) and (
            len(queue) >= self.spec.max_batch * self.spec.max_in_flight
            or now - queue[0].arrival >= self.spec.max_wait_s - _EPS
        )

    def flush(self, queue, now, *, force=False):
        if not (force and queue) and not self._due(queue, now):
            return []
        cap = self.spec.max_batch * self.spec.max_in_flight
        return self._pack(self._take(queue, min(len(queue), cap)))

    def _pack(self, requests: List[Request]) -> List[List[Request]]:
        return self._chunk(requests)

    def next_deadline(self, queue):
        if not queue:
            return None
        return queue[0].arrival + self.spec.max_wait_s


@BATCHERS.register("cache-affinity")
class CacheAffinityBatcher(DeadlineBatcher):
    """Deadline-triggered flush, residency-sorted packing.

    Scoring happens at flush time against the store's *current* contents
    (a dynamic cache yesterday's score would misjudge), so hot-set
    requests — whose one-hop frontiers miss the (stale or busy) cache the
    same way — land in the same micro-batch and share one frontier
    expansion instead of several independently sampled ones.
    """

    name = "cache-affinity"

    def affinity(self, request: Request) -> float:
        """Fraction of the request's one-hop frontier resident here."""
        if self.store is None or self.machine is None:
            raise RuntimeError("cache-affinity batcher used before bind()")
        frontier = one_hop_union(self.store.reordered.dataset.graph,
                                 request.seeds)
        return float(self.store.hit_mask(self.machine, frontier).mean())

    def _pack(self, requests):
        scores = np.array([self.affinity(r) for r in requests])
        # Stable sort: equal-affinity requests stay in arrival order.
        order = np.argsort(-scores, kind="stable")
        return self._chunk([requests[i] for i in order])


def make_batcher(name: str, spec: "ServingConfig", *,
                 store: "PartitionedFeatureStore", machine: int) -> MicroBatcher:
    """Build the named batcher bound to one machine's store view."""
    batcher = BATCHERS.get(name)(spec)
    batcher.bind(store, machine)
    return batcher
