"""Dynamic remote-feature caches: LRU replacement + periodic VIP refresh.

The paper's cache (§4.2) is *static*: VIP scores are computed once during
preprocessing and the cache contents never change.  That is optimal when the
access distribution is stationary, but degrades when the workload drifts —
the training set shifts between epochs, or an online-inference service sees
a moving popularity distribution.  This module provides the dynamic
counterpart: a fixed-capacity :class:`DynamicCache` that presents the same
O(1) membership / row-lookup interface as the static cache (so
:class:`~repro.distributed.feature_store.MachineStore` uses one gather path
for both) while updating its contents in one of two ways:

* **Replacement on miss** (``lru``): a remote row fetched from a peer is
  considered for admission behind a TinyLFU-style gate (seen in an earlier
  batch, and more popular than the entry it would displace); the
  displaced entries are the least recently used.  The gate, not the victim
  order, decides what stays: LFU and CLOCK victim orders behind the same
  gate moved communication by under 1 %.
* **Periodic refresh** (``vip-refresh``): contents are fixed between refresh
  points (GNNLab-style); every ``refresh_interval`` batches the cache is
  swapped to the current top-``capacity`` vertices under a score function —
  analytic VIP recomputed for the *current* training set when the feature
  store has a score provider wired (see
  :meth:`~repro.distributed.feature_store.PartitionedFeatureStore.set_refresh_score_provider`),
  or the access counts observed since the last refresh otherwise.  Rows newly
  entering the cache must be fetched from their owners, which the performance
  model charges as real network traffic.

Caches can be *warm-started* from a static policy's selection (the analytic
VIP ranking in :class:`~repro.core.system.SalientPP`): the initial contents
are the static cache, and the recency stamps are primed so the static
ranking decides evictions until enough online evidence accumulates.  This
keeps ``lru`` within a few percent of static VIP on stationary workloads
while letting it adapt under drift.

All per-gather operations are vectorized: membership is an O(1) array
lookup, admission/eviction touch O(misses + capacity) entries, and nothing
here loops over vertices in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.graph.csr import sorted_unique
from repro.utils.registry import Registry

#: Dynamic cache policy registry (``RunConfig.cache_policy``): each entry is
#: whether that policy admits rows on a miss (``lru``) rather than only at
#: refresh points (``vip-refresh``).  Only ``lru`` reads the recency order:
#: ``vip-refresh`` never asks for a victim (``admit`` returns first, and
#: ``plan_refresh`` picks ``evict_ids`` by score).  Shares the decorator
#: registration API with ``PARTITIONERS`` and the static policy zoo;
#: membership tests and iteration see the registered names.
DYNAMIC_CACHE_POLICIES = Registry("dynamic cache policy")
DYNAMIC_CACHE_POLICIES.register("lru", True)
DYNAMIC_CACHE_POLICIES.register("vip-refresh", False)


#: Pseudo-count weight of the warm-start VIP scores: a score-1.0 vertex
#: behaves as if it had been accessed this many times.  The prior protects
#: the analytic selection until real evidence accumulates (and decays with
#: aging).
PRIOR_WEIGHT = 32.0

#: Admission doorkeeper of ``lru``: a missed row is considered for
#: admission only once it has been accessed in at least this many *earlier*
#: batches.  Node-wise sampling is scan-heavy — most touched vertices are
#: one-off tail vertices — so admitting every miss thrashes the cache.
ADMIT_THRESHOLD = 1

#: Cost-awareness of ``vip-refresh`` swaps: an entry is replaced only if the
#: *expected accesses saved* until the next refresh exceed this many row
#: fetches (each swap costs exactly one); see
#: :meth:`DynamicCache.plan_refresh`.
SWAP_MARGIN = 1.0


def top_scored(scores: np.ndarray, budget: int) -> np.ndarray:
    """§4.2's selection rule: the sorted ids of the ≤ ``budget`` highest
    strictly positive ``scores``.  Vertices with non-positive score are
    never cached (caching something provably never accessed wastes memory),
    which also gives a score its natural support set (mask locals with a
    non-positive value)."""
    if budget <= 0:
        return np.empty(0, dtype=np.int64)
    candidates = np.flatnonzero(scores > 0)
    if len(candidates) > budget:
        top = np.argpartition(-scores[candidates], budget - 1)[:budget]
        candidates = candidates[top]
    return np.sort(candidates)


def is_dynamic_policy(name: str) -> bool:
    """True if ``name`` denotes a dynamic cache policy rather than a static
    score-based one from :func:`repro.vip.policies.default_policies`."""
    return name in DYNAMIC_CACHE_POLICIES


@dataclass
class DynamicCacheSpec:
    """Configuration of one machine family of dynamic caches.

    Attributes
    ----------
    policy:
        One of :data:`DYNAMIC_CACHE_POLICIES`.
    capacity:
        Cache slots per machine (the static budget ``alpha * N / K``).
        ``None`` falls back to the size of the warm-start cache.
    refresh_interval:
        Batches between refreshes (``vip-refresh`` only; ignored by
        ``lru``).  ``0`` disables refreshing.
    aging_interval:
        Batches between frequency-aging steps of ``lru``: observed access
        counts and the VIP prior are halved every interval (TinyLFU's
        reset), bounding how long stale popularity can outvote a drifted
        workload.  ``0`` disables aging.
    warm_scores:
        Optional ``(K, N)`` score matrix used to prime the recency order
        of warm-started contents and as the admission prior (row ``k`` for
        machine ``k``).
    """

    policy: str
    capacity: Optional[int] = None
    refresh_interval: int = 0
    aging_interval: int = 64
    warm_scores: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.policy not in DYNAMIC_CACHE_POLICIES:
            raise ValueError(
                f"unknown dynamic cache policy {self.policy!r}; "
                f"expected one of {DYNAMIC_CACHE_POLICIES.names()}"
            )
        if self.capacity is not None and self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")
        if self.refresh_interval < 0:
            raise ValueError(
                f"refresh_interval must be non-negative, got {self.refresh_interval}"
            )
        if self.aging_interval < 0:
            raise ValueError(
                f"aging_interval must be non-negative, got {self.aging_interval}"
            )

    @property
    def admit_on_miss(self) -> bool:
        return DYNAMIC_CACHE_POLICIES[self.policy]


@dataclass
class CacheChurnStats:
    """Cumulative cache-churn counters for one machine's dynamic cache.

    ``hits``/``misses`` count remote-vertex lookups; ``insertions`` and
    ``evictions`` count content changes (including those made by refreshes);
    ``refresh_fetch_rows`` counts rows pulled from peers by refresh swaps —
    the cache-update traffic the cost model charges on the network.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    refreshes: int = 0
    refresh_fetch_rows: int = 0

    def copy(self) -> "CacheChurnStats":
        return replace(self)

    def delta(self, earlier: "CacheChurnStats") -> "CacheChurnStats":
        """Counter deltas since an ``earlier`` snapshot (per-epoch stats)."""
        return CacheChurnStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            insertions=self.insertions - earlier.insertions,
            evictions=self.evictions - earlier.evictions,
            refreshes=self.refreshes - earlier.refreshes,
            refresh_fetch_rows=self.refresh_fetch_rows - earlier.refresh_fetch_rows,
        )

    def merged(self, other: "CacheChurnStats") -> "CacheChurnStats":
        return CacheChurnStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            insertions=self.insertions + other.insertions,
            evictions=self.evictions + other.evictions,
            refreshes=self.refreshes + other.refreshes,
            refresh_fetch_rows=self.refresh_fetch_rows + other.refresh_fetch_rows,
        )


@dataclass
class RefreshPlan:
    """A planned ``vip-refresh`` content swap (computed, not yet applied).

    ``new_ids`` must be fetched from their owners before
    :meth:`DynamicCache.commit_refresh`; ``evict_ids`` leave the cache.
    """

    desired_ids: np.ndarray
    new_ids: np.ndarray
    evict_ids: np.ndarray


class DynamicCache:
    """Fixed-capacity feature cache with O(1) membership and row lookup.

    The lookup interface (:meth:`contains` / :meth:`slots` / :attr:`rows`
    / :attr:`ids` / ``nbytes``) matches :class:`StaticCache`, so
    ``MachineStore`` treats both uniformly; the mutation interface
    (:meth:`note_hits`, :meth:`admit`, :meth:`end_batch`,
    :meth:`plan_refresh` + :meth:`commit_refresh`) is driven by
    ``PartitionedFeatureStore.execute_coalesced``.
    """

    is_dynamic = True

    def __init__(
        self,
        num_vertices: int,
        feature_dim: int,
        dtype,
        spec: DynamicCacheSpec,
        *,
        warm_ids: Optional[np.ndarray] = None,
        warm_rows: Optional[np.ndarray] = None,
        prior_scores: Optional[np.ndarray] = None,
    ):
        warm_ids = (np.empty(0, dtype=np.int64) if warm_ids is None
                    else np.asarray(warm_ids, dtype=np.int64))
        capacity = spec.capacity if spec.capacity is not None else len(warm_ids)
        if len(warm_ids) > capacity:
            raise ValueError(
                f"warm-start set ({len(warm_ids)}) exceeds capacity ({capacity})"
            )
        self.spec = spec
        self.capacity = int(capacity)
        self.num_vertices = int(num_vertices)
        self.feature_dim = int(feature_dim)
        self._rows = np.zeros((self.capacity, self.feature_dim), dtype=dtype)
        self._slot_of = np.full(num_vertices, -1, dtype=np.int64)
        self._id_of = np.full(self.capacity, -1, dtype=np.int64)
        self._occupied = np.zeros(self.capacity, dtype=bool)
        self._free = list(range(self.capacity - 1, -1, -1))  # pop() -> slot 0 first
        # Batch of each slot's last use (insertion or hit), the LRU order.
        # Warm-started entries get negative stamps (see below), so any real
        # access outranks every primed entry.
        self.last_used = np.full(self.capacity, -np.inf)
        self._tick = 0
        self._batches_since_refresh = 0
        # Batches actually observed since the last refresh — unlike
        # _batches_since_refresh this is never inflated by request_refresh,
        # so empirical per-batch rates stay correct after forced refreshes.
        self._observed_batches = 0
        self.access_counts = np.zeros(num_vertices, dtype=np.float64)
        # Frequency prior in pseudo-counts: a score-s vertex behaves as if it
        # had been accessed PRIOR_WEIGHT * s times already (decays with age).
        self.prior = np.zeros(num_vertices, dtype=np.float64)
        if prior_scores is not None:
            if prior_scores.shape != (num_vertices,):
                raise ValueError("prior_scores must have one entry per vertex")
            self.prior = np.maximum(
                np.asarray(prior_scores, dtype=np.float64), 0.0
            ) * PRIOR_WEIGHT
        self.churn = CacheChurnStats()

        if len(warm_ids):
            if warm_rows is None or len(warm_rows) != len(warm_ids):
                raise ValueError("warm_rows must align with warm_ids")
            if len(sorted_unique(warm_ids)) != len(warm_ids):
                raise ValueError("duplicate cache ids")
            slots = self._place(warm_ids, warm_rows)
            if prior_scores is not None:
                # The static ranking orders early evictions: worst oldest.
                order = np.argsort(self.prior[warm_ids], kind="stable")
                self.last_used[slots[order]] = np.arange(len(slots)) - len(slots)
            # Warm starting is preprocessing, not runtime churn.
            self.churn = CacheChurnStats()

    # -- lookup interface (shared with StaticCache) --------------------
    @property
    def ids(self) -> np.ndarray:
        """Currently cached vertex ids (sorted)."""
        return np.sort(self._id_of[self._occupied])

    @property
    def num_cached(self) -> int:
        return int(self._occupied.sum())

    @property
    def nbytes(self) -> int:
        return int(self._rows.nbytes)

    def contains(self, ids: np.ndarray) -> np.ndarray:
        return self._slot_of[ids] >= 0

    @property
    def rows(self) -> np.ndarray:
        """Feature rows by slot (read-only by contract; free slots hold
        stale bytes)."""
        return self._rows

    def slots(self, ids: np.ndarray) -> np.ndarray:
        """Slot of each of the cached ``ids`` (``-1`` for an uncached id)."""
        return self._slot_of[ids]

    # -- mutation interface --------------------------------------------
    def _place(self, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Put ``ids`` into free slots (caller guarantees enough are free)."""
        slots = np.array([self._free.pop() for _ in range(len(ids))],
                         dtype=np.int64)
        self._slot_of[ids] = slots
        self._id_of[slots] = ids
        self._occupied[slots] = True
        self._rows[slots] = rows
        self.last_used[slots] = self._tick
        return slots

    def _evict_slots(self, slots: np.ndarray) -> None:
        self._slot_of[self._id_of[slots]] = -1
        self._id_of[slots] = -1
        self._occupied[slots] = False
        self._free.extend(int(s) for s in slots)
        self.churn.evictions += len(slots)

    def note_hits(self, ids: np.ndarray) -> None:
        """Record cache hits (refreshes their recency)."""
        if len(ids):
            self.last_used[self._slot_of[ids]] = self._tick
        self.churn.hits += len(ids)

    def frequency_estimate(self, ids: np.ndarray) -> np.ndarray:
        """Current popularity estimate: VIP prior + aged observed accesses."""
        return self.prior[ids] + self.access_counts[ids]

    def admit(self, ids: np.ndarray, rows: Optional[np.ndarray]) -> int:
        """Insert missed rows (unique, non-local, not currently cached),
        evicting as needed; returns the number of insertions (0 for
        ``vip-refresh``, which only changes contents at refresh points).
        Every miss is counted; ``rows`` is read only when the spec admits
        on miss, so a caller may pass ``None`` otherwise.

        A miss is inserted only if (a) it was seen in at least
        :data:`ADMIT_THRESHOLD` earlier batches (doorkeeper) and (b) there
        is a free slot or its frequency estimate strictly exceeds that of a
        least-recently-used entry — TinyLFU-style scan resistance.
        """
        self.churn.misses += len(ids)
        if not self.spec.admit_on_miss or self.capacity == 0 or len(ids) == 0:
            return 0
        keep = self.access_counts[ids] >= ADMIT_THRESHOLD
        ids, rows = ids[keep], rows[keep]
        if len(ids) == 0:
            return 0
        if len(ids) > self.capacity:
            # More candidates than slots: keep the strongest `capacity`.
            order = np.argsort(-self.frequency_estimate(ids), kind="stable")
            sel = np.sort(order[:self.capacity])
            ids, rows = ids[sel], rows[sel]

        n_free = len(self._free)
        if len(ids) > n_free:
            # Strongest candidates take the free slots; the rest must win a
            # pairwise frequency contest against the least recently used.
            pri = self.frequency_estimate(ids)
            order = np.argsort(-pri, kind="stable")
            contenders = order[n_free:]
            occ = np.flatnonzero(self._occupied)
            lru = np.argsort(self.last_used[occ], kind="stable")
            victims = occ[lru[:len(contenders)]]
            vict_pri = self.frequency_estimate(self._id_of[victims])
            vict_order = np.argsort(vict_pri, kind="stable")
            # Strongest contender vs weakest victim, pairwise; both
            # sequences are monotone, so wins form a prefix.
            n_win = int((pri[contenders] > vict_pri[vict_order]).sum())
            self._evict_slots(victims[vict_order[:n_win]])
            admit_idx = np.sort(np.concatenate([order[:n_free],
                                                contenders[:n_win]]))
            ids, rows = ids[admit_idx], rows[admit_idx]
        if len(ids) == 0:
            return 0
        self._place(ids, rows)
        self.churn.insertions += len(ids)
        return len(ids)

    def request_refresh(self) -> None:
        """Force the next :meth:`end_batch` to report a due refresh (used
        when the workload is known to have changed, e.g. a training-set
        swap) — provided this is a refreshing cache at all."""
        if self.spec.refresh_interval > 0:
            self._batches_since_refresh = self.spec.refresh_interval

    def end_batch(self, accessed_ids: np.ndarray) -> bool:
        """Close one gather: count accesses for frequency estimation and
        empirical refresh scoring, advance the recency clock, age frequency
        state when due, and report whether a refresh is due."""
        if len(accessed_ids):
            self.access_counts[accessed_ids] += 1
        self._tick += 1
        self._batches_since_refresh += 1
        self._observed_batches += 1
        if (self.spec.admit_on_miss and self.spec.aging_interval > 0
                and self._tick % self.spec.aging_interval == 0):
            self.access_counts *= 0.5
            self.prior *= 0.5
        return (self.spec.policy == "vip-refresh"
                and self.spec.refresh_interval > 0
                and self._batches_since_refresh >= self.spec.refresh_interval)

    def observed_scores(self) -> np.ndarray:
        """Per-batch access rates observed since the last refresh (the
        empirical fallback score for ``vip-refresh`` when no analytic
        provider is wired)."""
        return self.access_counts / max(self._observed_batches, 1)

    def plan_refresh(self, scores: np.ndarray, horizon: int = 0) -> RefreshPlan:
        """Plan a content swap toward the top-``capacity`` scored vertices.

        ``scores`` are per-batch access rates (analytic VIP probabilities or
        observed counts normalized per batch) and must already exclude local
        vertices (non-positive there).  With ``horizon > 0`` the swap is
        *cost-aware*: the strongest incoming candidate displaces the weakest
        current entry only while
        ``(rate_new - rate_old) * horizon > SWAP_MARGIN``, i.e. while the
        expected demand fetches saved before the next refresh exceed the one
        fetch the swap itself costs.  ``horizon == 0`` swaps the full set.

        The plan's ``new_ids`` need fetching before :meth:`commit_refresh`.
        """
        s = np.asarray(scores, dtype=np.float64)
        desired = top_scored(s, self.capacity)
        cached_mask = (self._slot_of[desired] >= 0 if len(desired)
                       else np.zeros(0, bool))
        incoming = desired[~cached_mask]          # strongest first below
        incoming = incoming[np.argsort(-s[incoming], kind="stable")]
        current = self._id_of[self._occupied]
        keep = np.zeros(self.num_vertices, dtype=bool)
        keep[desired] = True
        outgoing = current[~keep[current]]        # weakest first below
        outgoing = outgoing[np.argsort(s[outgoing], kind="stable")]

        if horizon > 0:
            n_free = self.capacity - int(self._occupied.sum())
            # Fills into free slots only need the candidate itself to pay off;
            # true swaps need the *gain over the displaced entry* to pay off.
            fills = incoming[:n_free]
            fills = fills[s[fills] * horizon > SWAP_MARGIN]
            contenders = incoming[n_free:]
            m = min(len(contenders), len(outgoing))
            gain = (s[contenders[:m]] - s[outgoing[:m]]) * horizon
            n_swap = int((gain > SWAP_MARGIN).sum())  # prefix-true
            new_ids = np.concatenate([fills, contenders[:n_swap]])
            evict_ids = outgoing[:n_swap]
        else:
            new_ids = incoming
            evict_ids = outgoing
        return RefreshPlan(desired_ids=desired, new_ids=np.sort(new_ids),
                           evict_ids=np.sort(evict_ids))

    def commit_refresh(self, plan: RefreshPlan, new_rows: np.ndarray) -> None:
        """Apply a planned swap with the freshly fetched ``new_rows``."""
        if len(plan.evict_ids):
            self._evict_slots(self._slot_of[plan.evict_ids])
        if len(plan.new_ids):
            self._place(plan.new_ids, new_rows)
        self.churn.insertions += len(plan.new_ids)
        self.churn.refreshes += 1
        self.churn.refresh_fetch_rows += len(plan.new_ids)
        self.access_counts[:] = 0
        self._batches_since_refresh = 0
        self._observed_batches = 0

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Internal-consistency check used by the test suite."""
        occ = np.flatnonzero(self._occupied)
        ids = self._id_of[occ]
        assert np.all(ids >= 0)
        assert np.array_equal(self._slot_of[ids], occ)
        assert len(sorted_unique(ids)) == len(ids), "duplicate cached ids"
        assert (self._slot_of >= 0).sum() == len(occ)
        assert len(self._free) == self.capacity - len(occ)

    def __repr__(self) -> str:
        return (f"DynamicCache(policy={self.spec.policy!r}, "
                f"{self.num_cached}/{self.capacity} slots)")
