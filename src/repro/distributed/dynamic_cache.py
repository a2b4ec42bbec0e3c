"""Dynamic remote-feature caches: replacement policies + periodic VIP refresh.

The paper's cache (§4.2) is *static*: VIP scores are computed once during
preprocessing and the cache contents never change.  That is optimal when the
access distribution is stationary, but degrades when the workload drifts —
the training set shifts between epochs, or an online-inference service sees
a moving popularity distribution.  This module provides the dynamic
counterpart: a fixed-capacity :class:`DynamicCache` that presents the same
O(1) membership / row-lookup interface as the static cache (so
:class:`~repro.distributed.feature_store.MachineStore` uses one gather path
for both) while updating its contents in one of two ways:

* **Replacement on miss** (``lru`` / ``lfu`` / ``clock``): every remote row
  fetched from a peer is admitted into the cache, evicting victims chosen by
  the replacement policy.  This is the classic OS-page-cache family; LFU is
  the online analogue of frequency (empirical-VIP) caching.
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
are the static cache, and the replacement metadata is primed so the static
ranking decides evictions until enough online evidence accumulates.  This
keeps dynamic policies within a few percent of static VIP on stationary
workloads while letting them adapt under drift.

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
#: the :class:`ReplacementPolicy` class keeping that policy's per-slot
#: eviction metadata.  Shares the decorator registration API with
#: ``PARTITIONERS`` and the static policy zoo; membership tests and
#: iteration see the registered names.
DYNAMIC_CACHE_POLICIES = Registry("dynamic cache policy")


#: Pseudo-count weight of the warm-start VIP scores: a score-1.0 vertex
#: behaves as if it had been accessed this many times.  The prior protects
#: the analytic selection until real evidence accumulates (and decays with
#: aging).
PRIOR_WEIGHT = 32.0


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
        Batches between refreshes (``vip-refresh`` only; ignored by the
        replacement policies).  ``0`` disables refreshing.
    admit_threshold:
        Admission doorkeeper (TinyLFU-style) for the replacement policies: a
        missed row is considered for admission only once it has been
        accessed in at least this many *earlier* batches, and it then
        displaces a victim only if its frequency estimate (VIP prior +
        observed accesses) strictly exceeds the victim's.  Node-wise
        sampling is scan-heavy — most touched vertices are one-off tail
        vertices — so admitting every miss thrashes the cache; the gate
        keeps recurring (hot) vertices and rejects the scan.  ``0`` disables
        both checks (classic unconditional admission; useful for textbook
        LRU/LFU/CLOCK semantics in tests).
    aging_interval:
        Batches between frequency-aging steps for the replacement policies:
        observed access counts and the VIP prior are halved every interval
        (TinyLFU's reset), bounding how long stale popularity can outvote a
        drifted workload.  ``0`` disables aging.
    swap_margin:
        Cost-awareness of ``vip-refresh`` swaps: an entry is replaced only
        if the *expected accesses saved* until the next refresh —
        ``(rate_new - rate_old) * horizon`` with per-batch access rates —
        exceeds this many row fetches (each swap costs exactly one).  A full
        content swap (GNNLab-style) is ``swap_margin=0``; the default prunes
        tail swaps whose fetch cost exceeds their benefit.
    warm_scores:
        Optional ``(K, N)`` score matrix used to prime replacement metadata
        of warm-started contents and as the admission prior (row ``k`` for
        machine ``k``).
    """

    policy: str
    capacity: Optional[int] = None
    refresh_interval: int = 0
    admit_threshold: int = 1
    aging_interval: int = 64
    swap_margin: float = 1.0
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
        if self.admit_threshold < 0:
            raise ValueError(
                f"admit_threshold must be non-negative, got {self.admit_threshold}"
            )
        if self.aging_interval < 0:
            raise ValueError(
                f"aging_interval must be non-negative, got {self.aging_interval}"
            )

    @property
    def admit_on_miss(self) -> bool:
        return self.policy != "vip-refresh"


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


# ----------------------------------------------------------------------
# Replacement policies.  Each maintains per-slot metadata arrays of length
# ``capacity`` and answers "which occupied slots should be evicted next".


class ReplacementPolicy:
    """Per-slot eviction bookkeeping shared by LRU / LFU / CLOCK."""

    name = "abstract"

    def __init__(self, capacity: int):
        self.capacity = capacity

    def note_insert(self, slots: np.ndarray, tick: int,
                    weights: Optional[np.ndarray] = None) -> None:
        """Record insertions; ``weights`` are frequency estimates of the new
        entries (used by LFU, ignored by recency-based policies)."""
        raise NotImplementedError

    def note_hit(self, slots: np.ndarray, tick: int) -> None:
        raise NotImplementedError

    def prime(self, slots: np.ndarray, scores: np.ndarray) -> None:
        """Seed metadata for warm-started contents so the given static
        ``scores`` (higher = keep longer) decide early evictions."""
        raise NotImplementedError

    def age(self) -> None:
        """Halve frequency state (no-op for recency-based policies)."""

    def victims(self, count: int, occupied: np.ndarray) -> np.ndarray:
        """Slots (subset of ``occupied``) to evict, exactly ``count`` of
        them, worst (evict-first) first.  Must be side-effect-free: the
        admission gate calls it as a query and may evict none of them.
        """
        raise NotImplementedError

    def note_evict(self, slots: np.ndarray) -> None:
        """Record that ``slots`` were actually evicted (CLOCK advances its
        hand here; recency/frequency policies need no bookkeeping)."""


@DYNAMIC_CACHE_POLICIES.register("lru")
class LRUPolicy(ReplacementPolicy):
    """Evict the least-recently-used slot (batch-granular recency)."""

    name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        # Warm-started entries get negative stamps (see prime), so any real
        # access outranks every primed entry.
        self.last_used = np.full(capacity, -np.inf)

    def note_insert(self, slots, tick, weights=None):
        self.last_used[slots] = tick

    def note_hit(self, slots, tick):
        self.last_used[slots] = tick

    def prime(self, slots, scores):
        order = np.argsort(scores, kind="stable")  # ascending: worst first
        self.last_used[slots[order]] = np.arange(len(slots)) - len(slots)

    def victims(self, count, occupied):
        occ = np.flatnonzero(occupied)
        order = np.argsort(self.last_used[occ], kind="stable")
        return occ[order[:count]]


@DYNAMIC_CACHE_POLICIES.register("lfu")
class LFUPolicy(ReplacementPolicy):
    """Evict the least-frequently-used slot, recency as tie-break.

    Frequency is seeded at insertion with the entry's current global
    estimate (VIP prior + observed accesses), so a row that cycles out and
    back does not restart from zero — the cache converges to the online
    empirical-VIP top set.
    """

    name = "lfu"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.freq = np.zeros(capacity, dtype=np.float64)
        self.last_used = np.full(capacity, -np.inf)

    def note_insert(self, slots, tick, weights=None):
        self.freq[slots] = 1.0 if weights is None else np.maximum(weights, 1.0)
        self.last_used[slots] = tick

    def note_hit(self, slots, tick):
        self.freq[slots] += 1
        self.last_used[slots] = tick

    def prime(self, slots, scores):
        self.freq[slots] = np.maximum(np.asarray(scores, dtype=np.float64), 1.0)
        order = np.argsort(scores, kind="stable")
        self.last_used[slots[order]] = np.arange(len(slots)) - len(slots)

    def age(self):
        self.freq *= 0.5

    def victims(self, count, occupied):
        occ = np.flatnonzero(occupied)
        # Least frequent first; least recent breaks ties.
        order = np.lexsort((self.last_used[occ], self.freq[occ]))
        return occ[order[:count]]


@DYNAMIC_CACHE_POLICIES.register("clock")
class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: a reference bit per slot and a sweeping hand."""

    name = "clock"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.ref = np.zeros(capacity, dtype=bool)
        self.hand = 0

    def note_insert(self, slots, tick, weights=None):
        self.ref[slots] = True

    def note_hit(self, slots, tick):
        self.ref[slots] = True

    def prime(self, slots, scores):
        self.ref[slots] = True

    def victims(self, count, occupied):
        # Sweep order starting at the hand, wrapping once.  Pure query: the
        # hand moves and reference bits clear only in note_evict, when an
        # eviction actually happens.
        order = (np.arange(self.capacity) + self.hand) % self.capacity
        order = order[occupied[order]]
        cand = order[~self.ref[order]]
        if len(cand) >= count:
            return cand[:count]
        # Not enough second-chance-expired slots in one sweep: a full sweep
        # would clear every reference bit, and the second sweep evicts in
        # ring order from the hand.
        return np.concatenate([cand, order[self.ref[order]][:count - len(cand)]])

    def note_evict(self, slots):
        if len(slots) == 0:
            return
        slots = np.asarray(slots, dtype=np.int64)
        pos = (slots - self.hand) % self.capacity
        if np.any(self.ref[slots]):
            # A still-referenced slot was evicted: the sweep went a full
            # circle, spending every second chance.
            self.ref[:] = False
        else:
            # Clear the bits of exactly the slots the hand passed over on
            # its way to the furthest victim.
            last = int(pos.max())
            passed = (self.hand + np.arange(last + 1)) % self.capacity
            self.ref[passed] = False
        self.hand = int((slots[int(pos.argmax())] + 1) % self.capacity)


# vip-refresh holds contents fixed between refreshes; LRU metadata is kept
# only to order forced evictions (e.g. a refresh shrinking the desired set
# below capacity).
DYNAMIC_CACHE_POLICIES.register("vip-refresh", LRUPolicy)


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
        self._policy = DYNAMIC_CACHE_POLICIES[spec.policy](self.capacity)
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
                self._policy.prime(slots, self.prior[warm_ids])
            else:
                self._policy.note_insert(slots, self._tick)
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
        return slots

    def _evict_slots(self, slots: np.ndarray) -> None:
        self._policy.note_evict(slots)
        self._slot_of[self._id_of[slots]] = -1
        self._id_of[slots] = -1
        self._occupied[slots] = False
        self._free.extend(int(s) for s in slots)
        self.churn.evictions += len(slots)

    def note_hits(self, ids: np.ndarray) -> None:
        """Record cache hits (updates recency/frequency metadata)."""
        if len(ids):
            self._policy.note_hit(self._slot_of[ids], self._tick)
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

        With ``admit_threshold > 0``, a miss is inserted only if (a) it was
        seen in earlier batches (doorkeeper) and (b) there is a free slot or
        its frequency estimate strictly exceeds a victim's — TinyLFU-style
        scan resistance.  With ``admit_threshold == 0`` every miss is
        inserted unconditionally (classic replacement semantics).
        """
        self.churn.misses += len(ids)
        if not self.spec.admit_on_miss or self.capacity == 0 or len(ids) == 0:
            return 0
        gated = self.spec.admit_threshold > 0
        if gated:
            keep = self.access_counts[ids] >= self.spec.admit_threshold
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
            # pairwise frequency contest against the policy's eviction order.
            pri = self.frequency_estimate(ids)
            order = np.argsort(-pri, kind="stable")
            contenders = order[n_free:]
            victims = self._policy.victims(len(contenders), self._occupied)
            if gated:
                vict_pri = self.frequency_estimate(self._id_of[victims])
                vict_order = np.argsort(vict_pri, kind="stable")
                # Strongest contender vs weakest victim, pairwise; both
                # sequences are monotone, so wins form a prefix.
                wins = pri[contenders] > vict_pri[vict_order]
                n_win = int(wins.sum())
                evict = victims[vict_order[:n_win]]
                admit_idx = np.concatenate([order[:n_free], contenders[:n_win]])
            else:
                evict = victims
                admit_idx = order
            self._evict_slots(evict)
            admit_idx = np.sort(admit_idx)
            ids, rows = ids[admit_idx], rows[admit_idx]
        if len(ids) == 0:
            return 0
        slots = self._place(ids, rows)
        self._policy.note_insert(slots, self._tick,
                                 weights=self.frequency_estimate(ids))
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
            self._policy.age()
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
        vertices (non-positive there).  With ``horizon > 0`` and a positive
        ``swap_margin``, the swap is *cost-aware*: the strongest incoming
        candidate displaces the weakest current entry only while
        ``(rate_new - rate_old) * horizon > swap_margin``, i.e. while the
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

        if horizon > 0 and self.spec.swap_margin > 0:
            n_free = self.capacity - int(self._occupied.sum())
            # Fills into free slots only need the candidate itself to pay off;
            # true swaps need the *gain over the displaced entry* to pay off.
            fills = incoming[:n_free]
            fills = fills[s[fills] * horizon > self.spec.swap_margin]
            contenders = incoming[n_free:]
            m = min(len(contenders), len(outgoing))
            gain = (s[contenders[:m]] - s[outgoing[:m]]) * horizon
            n_swap = int((gain > self.spec.swap_margin).sum())  # prefix-true
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
            slots = self._place(plan.new_ids, new_rows)
            self._policy.note_insert(slots, self._tick)
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
