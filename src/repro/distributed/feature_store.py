"""Partitioned feature storage with CPU/GPU tiers and a remote-row cache.

Implements §4.1–4.2 of the paper over a :class:`ReorderedDataset` (vertices
contiguous per partition, VIP-ordered within):

* each machine owns the feature rows of its partition, split into a *GPU
  prefix* (the first ``gpu_fraction`` of local rows under the current
  ordering — most-accessed first when VIP reordering is on) and a CPU
  remainder;
* each machine holds a cache of remote rows — either the paper's *static*
  cache (contents fixed at build time by a caching policy) or a
  :class:`~repro.distributed.dynamic_cache.DynamicCache` (gated LRU
  replacement, or periodic VIP refresh); either way, cache membership is one
  boolean-equivalent lookup (the paper uses a hash table; a per-vertex slot
  map is the numpy equivalent), so the gather path is identical for both;
* gathering features for a sampled neighborhood categorizes every vertex as
  local-GPU / local-CPU / cached-remote / remote-per-peer, returns the
  correctly assembled feature matrix, and reports exact per-category row
  counts — the quantities the performance model charges for.  With a dynamic
  cache, the gather additionally updates the cache (hit metadata, admission
  of missed rows, refresh swaps) *after* the stats are taken, so counts
  always describe the cache state the request actually saw.

This is *functional* storage: remote rows are really copied out of the
owning machine's store, so tests can assert bit-identical results against
direct indexing of the monolithic feature array — including across cache
evictions and refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.distributed.dynamic_cache import (
    CacheChurnStats,
    DynamicCache,
    DynamicCacheSpec,
)
from repro.graph.csr import sorted_unique, take_into
from repro.obs import OBS
from repro.partition.reorder import ReorderedDataset


def note_gather(stats: "GatherStats") -> None:
    """Mirror one *finalized* gather's row counts into the metrics registry.

    Called once per :class:`~repro.distributed.records.StepRecord`, by
    whoever finalizes the record (the epoch loop; serving, after its outage
    adjustment) — never from inside ``execute*`` — so every ``store.*`` /
    ``cache.*`` counter equals the matching field of the report's summed
    ``gather``.  A no-op unless ``OBS.enabled``; recording changes no math.
    """
    if not OBS.enabled:
        return
    m = OBS.metrics
    m.counter("store.gathers").inc()
    m.counter("store.gather_rows").inc(stats.total_rows)
    m.counter("store.gpu_rows").inc(stats.gpu_rows)
    m.counter("store.cpu_rows").inc(stats.cpu_rows)
    m.counter("store.cached_rows").inc(stats.cached_rows)
    m.counter("store.remote_rows").inc(stats.remote_rows)
    m.counter("store.coalesced_rows").inc(stats.coalesced_rows)
    m.counter("store.unavailable_rows").inc(stats.unavailable_rows)
    if stats.cache_insertions or stats.cache_evictions:
        m.counter("cache.admissions").inc(stats.cache_insertions)
        m.counter("cache.evictions").inc(stats.cache_evictions)
    if stats.refresh_fetch_per_peer is not None:
        m.counter("cache.refreshes").inc()
        m.counter("cache.refresh_rows").inc(stats.refresh_fetch_rows)


@dataclass
class GatherStats:
    """Exact per-category row counts for one gather (one minibatch) — and,
    folded with :meth:`sum`, for a whole report: the one row-count type.

    ``remote_per_peer[j]`` is the number of rows requested from machine
    ``j`` (0 for self and for fully cached peers).  The cache-churn fields
    are zero for static caches: ``cache_insertions`` / ``cache_evictions``
    count dynamic-cache content changes this gather triggered, and
    ``refresh_fetch_per_peer`` counts rows a ``vip-refresh`` swap pulled
    from each peer (cache-update traffic, charged by the cost model on top
    of the demand fetches).

    ``coalesced_rows`` counts rows that would have been remote fetches but
    were deduplicated against another in-flight minibatch of the same
    machine (pipelined execution): the bytes crossed the wire exactly once,
    charged to the first requesting batch, and this batch reads them from
    host memory like cached rows.  Always zero for one-at-a-time gathers.

    ``unavailable_rows`` counts demand rows a degraded serving gather
    zero-filled because their owner was down (:meth:`mark_unavailable`);
    always zero in training.  Every row is in exactly one bucket:
    ``gpu + cpu + cached + remote + coalesced + unavailable == total``.
    """

    total_rows: int
    gpu_rows: int
    cpu_rows: int
    cached_rows: int
    remote_rows: int
    remote_per_peer: np.ndarray
    cache_insertions: int = 0
    cache_evictions: int = 0
    refresh_fetch_per_peer: Optional[np.ndarray] = None
    coalesced_rows: int = 0
    unavailable_rows: int = 0

    def remote_fraction(self) -> float:
        return self.remote_rows / max(self.total_rows, 1)

    @property
    def refresh_fetch_rows(self) -> int:
        if self.refresh_fetch_per_peer is None:
            return 0
        return int(self.refresh_fetch_per_peer.sum())

    #: The name report-level readers use for the same count.
    refresh_rows = refresh_fetch_rows

    def comm_rows(self) -> int:
        """All rows this gather moved over the network (demand + refresh)."""
        return self.remote_rows + self.refresh_fetch_rows

    def cache_hit_rate(self) -> float:
        """Rows served without a demand fetch (cache hits and in-flight
        coalesced reads) over the non-local rows served (those plus the
        demand fetches) — the one definition, for training and serving."""
        hits = self.cached_rows + self.coalesced_rows
        return hits / max(hits + self.remote_rows, 1)

    def mark_unavailable(self, down: np.ndarray, rows: int) -> None:
        """``rows`` of this gather's demand rows belong to ``down`` peers
        (one boolean per machine) and never arrived: move them to
        ``unavailable_rows``, each out of the bucket that claimed it —
        ``remote_rows`` / ``remote_per_peer`` for the rows this gather
        requested from a down peer itself, ``coalesced_rows`` for the ones
        it would have read from a window mate's fetch."""
        fetched = int(self.remote_per_peer[down].sum())
        self.remote_per_peer = np.where(down, 0, self.remote_per_peer)
        self.remote_rows -= fetched
        self.coalesced_rows -= rows - fetched
        self.unavailable_rows += rows

    @classmethod
    def sum(cls, stats: Iterable["GatherStats"]) -> "GatherStats":
        """The one row-total fold: counts add, per-peer arrays add
        element-wise (``refresh_fetch_per_peer`` stays ``None`` when no
        summand refreshed; an empty sum has an empty ``remote_per_peer``)."""
        stats = list(stats)
        total = {}
        for f in fields(cls):
            vals = [v for v in (getattr(g, f.name) for g in stats)
                    if v is not None]
            if f.type in ("int", int):  # a string under postponed annotations
                total[f.name] = int(sum(vals))
            elif vals:
                total[f.name] = np.sum(vals, axis=0)
        total.setdefault("remote_per_peer", np.zeros(0, dtype=np.int64))
        return cls(**total)


@dataclass
class FetchPlan:
    """Where every row of one gather request will come from.

    Produced by :meth:`PartitionedFeatureStore.plan_gather` via the O(1)
    reorder arithmetic (owner = offset bisection, local row = subtraction)
    plus one cache-membership lookup; consumed — once coalesced into its
    comm window — by :meth:`PartitionedFeatureStore.execute_coalesced`.  All
    ``*_pos`` arrays are positions into ``ids`` (which keeps the caller's
    request order), so executing a plan fills an output matrix without
    re-deriving anything.

    A plan describes the cache state *at planning time*: execute plans
    promptly (dynamic caches mutate on execution, which is what makes a
    plan stale).
    """

    machine: int
    ids: np.ndarray
    local_pos: np.ndarray
    local_ids: np.ndarray
    gpu_rows: int
    cpu_rows: int
    cached_pos: np.ndarray
    cached_ids: np.ndarray
    remote_pos: np.ndarray
    remote_ids: np.ndarray
    #: All non-local ids in request order (cached + remote) — what a dynamic
    #: cache counts as this batch's accesses.
    nonlocal_ids: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.ids)

    @staticmethod
    def coalesce(plans: Sequence["FetchPlan"]) -> "CoalescedFetchPlan":
        """Merge one machine's in-flight plans into a comm window (of one
        plan for a lone batch — every gather executes as a window).

        Remote vertex ids requested by more than one plan are deduplicated:
        the peer exchange fetches each id exactly once, attributed to the
        *first* requesting plan; later plans read the row from the shared
        in-flight buffer (counted as ``coalesced_rows`` in their stats).
        This is the §4.3 payoff of keeping multiple batches in flight that a
        one-batch-at-a-time gather can never realize.

        One concatenated ``np.unique(..., return_inverse=True)`` pass maps
        every plan's remote ids to pool slots — O((D·R) log (D·R)) total for
        D plans instead of a ``searchsorted`` plus boolean bookkeeping per
        plan, and the slot arrays are kept on the result so execution never
        re-derives them (the win grows with depth; see the ``coalesce``
        stage of ``benchmarks/perf``).
        """
        if not plans:
            raise ValueError("cannot coalesce an empty plan list")
        machine = plans[0].machine
        if any(p.machine != machine for p in plans):
            raise ValueError("coalesced plans must belong to one machine")
        unique_remote, inverse = np.unique(
            np.concatenate([p.remote_ids for p in plans]), return_inverse=True
        )
        seen = np.zeros(len(unique_remote), dtype=bool)
        first_request: List[np.ndarray] = []
        slots: List[np.ndarray] = []
        offset = 0
        for p in plans:
            sl = inverse[offset:offset + len(p.remote_ids)]
            offset += len(p.remote_ids)
            fresh = ~seen[sl]
            seen[sl] = True
            first_request.append(fresh)
            slots.append(sl)
        return CoalescedFetchPlan(
            machine=machine,
            plans=list(plans),
            unique_remote_ids=unique_remote,
            first_request=first_request,
            slots=slots,
        )


@dataclass
class CoalescedFetchPlan:
    """Several :class:`FetchPlan`\\ s of one machine sharing one peer fetch.

    ``unique_remote_ids`` is the sorted union of the sub-plans' remote ids;
    ``first_request[i]`` masks sub-plan ``i``'s remote ids that no earlier
    sub-plan requested (those are charged to it as remote traffic; the rest
    are its ``coalesced_rows``); ``slots[i]`` maps sub-plan ``i``'s remote
    ids to positions in ``unique_remote_ids``.
    """

    machine: int
    plans: List[FetchPlan]
    unique_remote_ids: np.ndarray
    first_request: List[np.ndarray]
    slots: List[np.ndarray]

    @property
    def depth(self) -> int:
        return len(self.plans)

    def duplicate_rows(self) -> int:
        """Remote rows saved by coalescing (fetched once, needed N>1 times)."""
        return int(sum(len(p.remote_ids) for p in self.plans)
                   - len(self.unique_remote_ids))


def _is_run(pos: np.ndarray) -> bool:
    """True when ``pos`` is one contiguous run of row indices.

    Plan positions come from ``np.flatnonzero`` and are strictly
    increasing, so spanning exactly ``len - 1`` means consecutive."""
    n = len(pos)
    return n > 0 and int(pos[n - 1]) - int(pos[0]) == n - 1


def _rows_into(out: np.ndarray, pos: np.ndarray, src: np.ndarray,
               idx: np.ndarray) -> None:
    """``out[pos] = src[idx]``, each row written once when ``pos`` is one
    contiguous run into a C-contiguous ``out``: the rows then land straight
    in the destination (:func:`~repro.graph.csr.take_into`), without the
    intermediate ``src[idx]`` matrix the two-step spelling allocates.  An
    out-of-range ``idx`` raises ``IndexError`` either way."""
    if len(pos) == 0:
        return
    if _is_run(pos) and out.flags.c_contiguous:
        lo = int(pos[0])
        take_into(src, idx, out[lo:lo + len(pos)])
    else:
        out[pos] = src[idx]


class GatherArena:
    """Reusable gather output matrices for the per-batch hot path.

    ``execute`` / ``execute_coalesced`` allocate a fresh ``(rows, D)``
    feature matrix per minibatch by default — the dominant per-step
    allocation in the training engines and the serving loop.  An arena
    keeps one growable buffer per key (engines key by ``(machine,
    in-flight slot)``) and hands out row-prefix views for
    ``execute(plan, out=...)``.

    A key's buffer is overwritten the next time the key is requested:
    callers must fully consume (or copy) the features of one request
    before issuing the next one under the same key, which the sequential
    engine and serving loops do by construction.
    """

    def __init__(self):
        self._bufs: Dict[object, np.ndarray] = {}

    def out(self, key, rows: int, dim: int, dtype) -> np.ndarray:
        """A writable ``(rows, dim)`` view for one gather's output."""
        buf = self._bufs.get(key)
        if (buf is None or buf.shape[0] < rows or buf.shape[1] != dim
                or buf.dtype != dtype):
            # Exact fit, unfilled: every gather writes each row it returns.
            cap = rows if buf is None else max(rows, buf.shape[0])
            buf = np.empty((cap, dim), dtype=dtype)
            self._bufs[key] = buf
        return buf[:rows]


class StaticCache:
    """The paper's static cache: contents selected once, never mutated.

    Shares the lookup interface (``contains`` / ``slots`` / ``rows`` /
    ``ids`` / ``num_cached`` / ``nbytes``) with :class:`DynamicCache`:
    cached id ``v``'s feature row is ``rows[slots([v])[0]]``.
    """

    is_dynamic = False

    def __init__(self, num_vertices: int, ids: np.ndarray, rows: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) != len(rows):
            raise ValueError("cache_ids and cache_features must align")
        self._ids = ids
        self._rows = rows
        # An empty cache skips the O(num_vertices) slot map entirely: a
        # multiproc worker builds K MachineStores (peers cache-less), so a
        # dense map per store would cost K*N int64 per worker for maps that
        # can never hit.
        if len(ids) == 0:
            self._slot_of = None
            return
        if len(sorted_unique(ids)) != len(ids):
            raise ValueError("duplicate cache ids")
        self._slot_of = np.full(num_vertices, -1, dtype=np.int64)
        self._slot_of[ids] = np.arange(len(ids))

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def num_cached(self) -> int:
        return len(self._ids)

    @property
    def nbytes(self) -> int:
        return int(self._rows.nbytes)

    def contains(self, ids: np.ndarray) -> np.ndarray:
        if self._slot_of is None:
            return np.zeros(len(ids), dtype=bool)
        return self._slot_of[ids] >= 0

    @property
    def rows(self) -> np.ndarray:
        """The cached feature rows, one per slot (read-only by contract)."""
        return self._rows

    def slots(self, ids: np.ndarray) -> np.ndarray:
        """Row of :attr:`rows` holding each of the cached ``ids``."""
        if self._slot_of is None:
            if len(ids):
                raise ValueError("empty cache cannot serve rows")
            return np.empty(0, dtype=np.int64)
        return self._slot_of[ids]


class MachineStore:
    """One machine's feature storage (local split + remote cache).

    The remote cache is a :class:`StaticCache` by default; pass ``dynamic``
    to build a :class:`DynamicCache` instead, warm-started with the given
    ``cache_ids`` / ``cache_features`` (and primed with
    ``dynamic.warm_scores`` when available).
    """

    def __init__(
        self,
        part_id: int,
        lo: int,
        hi: int,
        local_features: np.ndarray,
        gpu_rows: int,
        cache_ids: np.ndarray,
        cache_features: np.ndarray,
        num_vertices: int,
        dynamic: Optional[DynamicCacheSpec] = None,
    ):
        if not 0 <= gpu_rows <= hi - lo:
            raise ValueError(f"gpu_rows must be in [0, {hi - lo}], got {gpu_rows}")
        if len(cache_ids) != len(cache_features):
            raise ValueError("cache_ids and cache_features must align")
        self.part_id = part_id
        self.lo, self.hi = lo, hi
        self.local_features = local_features
        self.gpu_rows = gpu_rows
        cache_ids = np.asarray(cache_ids, dtype=np.int64)
        if dynamic is None:
            self.cache = StaticCache(num_vertices, cache_ids, cache_features)
        else:
            prior = (dynamic.warm_scores[part_id]
                     if dynamic.warm_scores is not None else None)
            self.cache = DynamicCache(
                num_vertices, local_features.shape[1],
                local_features.dtype, dynamic,
                warm_ids=cache_ids, warm_rows=cache_features,
                prior_scores=prior,
            )

    @property
    def num_cached(self) -> int:
        return self.cache.num_cached

    @property
    def cache_ids(self) -> np.ndarray:
        """Currently cached remote vertex ids (static: the build-time set)."""
        return self.cache.ids

    @property
    def has_dynamic_cache(self) -> bool:
        return self.cache.is_dynamic

    def is_local(self, ids: np.ndarray) -> np.ndarray:
        return (ids >= self.lo) & (ids < self.hi)

    def is_cached(self, ids: np.ndarray) -> np.ndarray:
        return self.cache.contains(ids)

    def local_rows(self, ids: np.ndarray) -> np.ndarray:
        """Feature rows for local vertex ids."""
        return self.local_features[ids - self.lo]

    def cached_rows(self, ids: np.ndarray) -> np.ndarray:
        """Feature rows for cached remote vertex ids (a copy)."""
        return self.cache.rows[self.cache.slots(ids)]

    def feature_memory_bytes(self) -> int:
        return int(self.local_features.nbytes + self.cache.nbytes)


class PartitionedFeatureStore:
    """The cluster-wide feature store: one :class:`MachineStore` per machine.

    Build with :meth:`build`; query with ``execute(plan_gather(machine,
    ids))`` (machine-local view of an arbitrary vertex-id set: a comm window
    of one plan), or coalesce several plans into one window
    (:meth:`execute_coalesced`).  Remote rows are copied from the owning
    peers' local stores, never from any monolithic array, so every gather
    exercises the distributed layout.
    """

    def __init__(self, stores: List[MachineStore], reordered: ReorderedDataset,
                 feature_dim: int, itemsize: int):
        self.stores = stores
        self.reordered = reordered
        self.feature_dim = feature_dim
        self.itemsize = itemsize
        #: Build-time per-machine cache id arrays (new vertex numbering) —
        #: the serializable artifact a warm rebuild needs; set by build().
        self.build_cache_selection: Optional[List[np.ndarray]] = None
        self._refresh_score_fn: Optional[Callable[[int], np.ndarray]] = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        reordered: ReorderedDataset,
        *,
        gpu_fraction: float = 1.0,
        caches: Optional[Sequence[np.ndarray]] = None,
        dynamic: Optional[DynamicCacheSpec] = None,
    ) -> "PartitionedFeatureStore":
        """Partition the reordered dataset's features across machines.

        Parameters
        ----------
        gpu_fraction:
            Fraction β of each machine's local rows stored on GPU (the first
            β·|local| rows in the current ordering — Figure 6's x-axis).
        caches:
            Per-machine arrays of remote vertex ids to replicate (from
            :func:`repro.vip.build_caches`); ``None`` = no caching.  With
            ``dynamic`` set, these become the warm-start contents.
        dynamic:
            Build :class:`DynamicCache` instances instead of static caches
            (one per machine, per the spec).
        """
        if not 0.0 <= gpu_fraction <= 1.0:
            raise ValueError(f"gpu_fraction must be in [0, 1], got {gpu_fraction}")
        ds = reordered.dataset
        K = reordered.num_parts
        if caches is None:
            caches = [np.empty(0, dtype=np.int64)] * K
        if len(caches) != K:
            raise ValueError(f"need one cache per machine, got {len(caches)}")

        stores = []
        for k in range(K):
            lo, hi = reordered.part_range(k)
            cache_ids = np.asarray(caches[k], dtype=np.int64)
            if len(cache_ids):
                owners = reordered.owner_of(cache_ids)
                if np.any(owners == k):
                    raise ValueError(f"machine {k} cache contains local vertices")
            local = np.ascontiguousarray(ds.features[lo:hi])
            stores.append(MachineStore(
                part_id=k,
                lo=lo,
                hi=hi,
                local_features=local,
                gpu_rows=int(round(gpu_fraction * (hi - lo))),
                cache_ids=cache_ids,
                cache_features=np.ascontiguousarray(ds.features[cache_ids]),
                num_vertices=ds.num_vertices,
                dynamic=dynamic,
            ))
        store = cls(stores, reordered, ds.feature_dim, ds.features.itemsize)
        store.build_cache_selection = [
            np.asarray(c, dtype=np.int64).copy() for c in caches
        ]
        return store

    @classmethod
    def build_replicated(
        cls,
        reordered: ReorderedDataset,
        *,
        gpu_fraction: float = 0.0,
    ) -> "PartitionedFeatureStore":
        """SALIENT-style full replication: every machine sees every feature
        row as local CPU data (sharing one read-only array, so memory stays
        O(N·D) in the simulation while *accounting* reports K·N·D).

        The returned store reports zero remote and cached rows — exactly the
        baseline of Table 1 row 1.
        """
        ds = reordered.dataset
        K = reordered.num_parts
        n = ds.num_vertices
        shared = np.ascontiguousarray(ds.features)
        empty_ids = np.empty(0, dtype=np.int64)
        empty_feats = np.empty((0, ds.feature_dim), dtype=ds.features.dtype)
        stores = [
            MachineStore(
                part_id=k, lo=0, hi=n,
                local_features=shared,
                gpu_rows=int(round(gpu_fraction * n)),
                cache_ids=empty_ids,
                cache_features=empty_feats,
                num_vertices=n,
            )
            for k in range(K)
        ]
        store = cls(stores, reordered, ds.feature_dim, ds.features.itemsize)
        store._replicated = True
        return store

    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return len(self.stores)

    @property
    def is_replicated(self) -> bool:
        return getattr(self, "_replicated", False)

    @property
    def bytes_per_row(self) -> int:
        return self.feature_dim * self.itemsize

    def cache_selection(self) -> List[np.ndarray]:
        """Current per-machine cached remote ids (new vertex numbering).

        For static caches this equals :attr:`build_cache_selection`; for
        dynamic caches it is the live contents.  Either way the arrays are
        plain ``int64`` ids — directly serializable with
        :func:`repro.core.planner.save_artifact` (kind ``"cache-select"``)
        and accepted back by :meth:`build` as ``caches=`` to reproduce the
        same warm-start state.
        """
        return [np.asarray(s.cache_ids, dtype=np.int64).copy()
                for s in self.stores]

    def set_refresh_score_provider(
        self, fn: Optional[Callable[[int], np.ndarray]]
    ) -> None:
        """Wire the score function ``vip-refresh`` caches swap against.

        ``fn(machine)`` must return per-vertex scores of length ``N`` (e.g.
        analytic VIP recomputed for the machine's *current* training set);
        entries for the machine's local vertices are ignored.  Without a
        provider, refreshes fall back to the access counts the cache
        observed since its last refresh (GNNLab-style empirical refresh).
        """
        self._refresh_score_fn = fn

    def request_refresh(self) -> None:
        """Ask every ``vip-refresh`` cache to refresh at its next gather —
        the hook for known workload changes (training-set swaps)."""
        for s in self.stores:
            if s.has_dynamic_cache:
                s.cache.request_refresh()

    def hit_mask(self, machine: int, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which ``ids`` would ``machine`` serve *without*
        touching the network right now (local rows or currently cached).

        Read-only — no bytes move and no cache metadata updates, so callers
        (e.g. the serving cache-affinity batcher) can probe residency
        cheaply while requests are still queued.  With a dynamic cache the
        answer describes this instant's contents and may change by the time
        a gather executes.
        """
        ids = np.asarray(ids, dtype=np.int64)
        store = self.stores[machine]
        return store.is_local(ids) | store.is_cached(ids)

    def plan_gather(self, machine: int, ids: np.ndarray) -> FetchPlan:
        """Classify ``ids`` into local-GPU / local-CPU / cached / remote.

        Pure planning: no feature bytes move and no cache state changes.
        Ownership and local-row offsets are O(1) arithmetic on the reorder
        offsets; cache membership is one vectorized slot-map lookup.
        """
        ids = np.asarray(ids, dtype=np.int64)
        store = self.stores[machine]

        local_mask = store.is_local(ids)
        local_pos = np.flatnonzero(local_mask)
        local_ids = ids[local_mask]
        gpu_rows = int(np.count_nonzero(local_ids - store.lo < store.gpu_rows))
        cpu_rows = len(local_ids) - gpu_rows

        nonlocal_mask = ~local_mask
        nl_ids = ids[nonlocal_mask]
        nl_pos = np.flatnonzero(nonlocal_mask)
        cached_mask_nl = store.is_cached(nl_ids)
        return FetchPlan(
            machine=machine,
            ids=ids,
            local_pos=local_pos,
            local_ids=local_ids,
            gpu_rows=gpu_rows,
            cpu_rows=cpu_rows,
            cached_pos=nl_pos[cached_mask_nl],
            cached_ids=nl_ids[cached_mask_nl],
            remote_pos=nl_pos[~cached_mask_nl],
            remote_ids=nl_ids[~cached_mask_nl],
            nonlocal_ids=nl_ids,
        )

    def _output_for(self, plan: FetchPlan, out: Optional[np.ndarray]):
        dtype = self.stores[plan.machine].local_features.dtype
        shape = (len(plan.ids), self.feature_dim)
        if out is None:
            return np.empty(shape, dtype=dtype)
        if out.shape != shape:
            raise ValueError(f"out must have shape {shape}, got {out.shape}")
        if out.dtype != dtype:
            raise ValueError(f"out must have dtype {dtype}, got {out.dtype}")
        return out

    def execute(self, plan: FetchPlan, *, out: Optional[np.ndarray] = None):
        """Execute one :class:`FetchPlan` — the comm window of one plan:
        ``execute_coalesced(FetchPlan.coalesce([plan]))``'s only result.

        ``out``, when given, is the caller-owned output matrix to fill
        (every row is written) and becomes the returned feature matrix.
        """
        (result,) = self.execute_coalesced(
            FetchPlan.coalesce([plan]), outs=None if out is None else [out])
        return result

    def execute_coalesced(self, cplan: CoalescedFetchPlan, *,
                          outs: Optional[Sequence[np.ndarray]] = None):
        """Execute one comm window — the one place feature rows are
        assembled and :class:`GatherStats` are taken.

        One peer exchange serves the deduplicated union of the sub-plans'
        remote ids; each sub-plan's matrix is then assembled from local
        rows, cache rows, and the shared in-flight pool.  Returns a list of
        ``(features, stats)`` in sub-plan order.  Stats attribute each
        unique remote row to the first requesting sub-plan; later requests
        of the same id are that plan's ``coalesced_rows`` (none in a window
        of one plan).  ``outs``, when given, supplies one caller-owned
        output matrix per sub-plan (see :class:`GatherArena`).

        With a dynamic cache, all assembly happens against the cache state
        the plans were made with (reads only); maintenance (hits, gated
        admission of the window's misses, due refreshes) runs afterwards,
        sub-plan by sub-plan, so refresh intervals still tick once per
        batch.
        """
        store = self.stores[cplan.machine]
        if outs is not None and len(outs) != len(cplan.plans):
            raise ValueError(
                f"outs must supply one matrix per sub-plan "
                f"({len(cplan.plans)}), got {len(outs)}"
            )
        pool_rows, pool_per_peer = self._fetch_remote_rows(
            cplan.machine, cplan.unique_remote_ids
        )
        owners = np.repeat(np.arange(self.num_machines), pool_per_peer)

        results = []
        for i, (plan, fresh, slots) in enumerate(
                zip(cplan.plans, cplan.first_request, cplan.slots)):
            out = self._output_for(plan, None if outs is None else outs[i])
            _rows_into(out, plan.local_pos, store.local_features,
                       plan.local_ids - store.lo)
            _rows_into(out, plan.cached_pos, store.cache.rows,
                       store.cache.slots(plan.cached_ids))
            _rows_into(out, plan.remote_pos, pool_rows, slots)

            remote_rows = int(np.count_nonzero(fresh))
            results.append((out, GatherStats(
                total_rows=len(plan.ids),
                gpu_rows=plan.gpu_rows,
                cpu_rows=plan.cpu_rows,
                cached_rows=len(plan.cached_ids),
                remote_rows=remote_rows,
                remote_per_peer=np.bincount(owners[slots[fresh]],
                                            minlength=self.num_machines),
                coalesced_rows=len(plan.remote_ids) - remote_rows,
            )))

        if store.has_dynamic_cache:
            for plan, (out, stats) in zip(cplan.plans, results):
                self._maintain_dynamic_cache(store, stats, plan, out)
        return results

    def _maintain_dynamic_cache(
        self,
        store: MachineStore,
        stats: GatherStats,
        plan: FetchPlan,
        out: np.ndarray,
    ) -> None:
        """Post-gather cache update for one plan: hits, admissions, and
        due refreshes.

        Inside a coalesced window the plan's classification may be stale by
        now (an earlier sub-plan's maintenance can admit or evict), so
        membership is re-checked against the *current* cache: still-cached
        planned hits and since-admitted planned misses count as hits; the
        rest of the planned misses are admission candidates.  For a plan
        executed on its own the re-checks change nothing.
        """
        cache: DynamicCache = store.cache
        evictions_before = cache.churn.evictions
        still_cached = store.is_cached(plan.cached_ids)
        cache.note_hits(plan.cached_ids[still_cached])
        now_cached = store.is_cached(plan.remote_ids)
        cache.note_hits(plan.remote_ids[now_cached])
        missed = ~now_cached
        # Only a cache that admits on miss reads the missed rows; a
        # vip-refresh cache just counts them, so they are not copied for it.
        stats.cache_insertions += cache.admit(
            plan.remote_ids[missed],
            out[plan.remote_pos[missed]] if cache.spec.admit_on_miss else None,
        )
        if cache.end_batch(plan.nonlocal_ids):
            if self._refresh_score_fn is not None:
                scores = np.asarray(
                    self._refresh_score_fn(store.part_id), dtype=np.float64
                ).copy()
            else:
                scores = cache.observed_scores()
            scores[store.lo:store.hi] = 0.0  # locals never need caching
            refresh_plan = cache.plan_refresh(
                scores, horizon=cache.spec.refresh_interval
            )
            new_rows, fetch_per_peer = self._fetch_remote_rows(
                store.part_id, refresh_plan.new_ids
            )
            cache.commit_refresh(refresh_plan, new_rows)
            stats.refresh_fetch_per_peer = fetch_per_peer
            stats.cache_insertions += len(refresh_plan.new_ids)
        stats.cache_evictions = cache.churn.evictions - evictions_before

    def _fetch_remote_rows(self, machine: int, ids: np.ndarray):
        """Copy the rows of *sorted* remote ``ids`` (a window's union, a
        refresh's ``new_ids``) from their owners; returns the rows and the
        per-owner row counts.  Sorted ids make each owner's share one
        contiguous slice, found by bisecting the part offsets and copied
        straight into place."""
        rows = np.empty((len(ids), self.feature_dim),
                        dtype=self.stores[machine].local_features.dtype)
        bounds = np.searchsorted(ids, self.reordered.part_offsets)
        if bounds[0] != 0 or bounds[-1] != len(ids):
            raise IndexError("remote ids outside every machine's id range")
        for peer, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            if a < b:
                peer_store = self.stores[peer]
                take_into(peer_store.local_features,
                          ids[a:b] - peer_store.lo, rows[a:b])
        return rows, np.diff(bounds)

    # ------------------------------------------------------------------
    @property
    def has_dynamic_caches(self) -> bool:
        return any(s.has_dynamic_cache for s in self.stores)

    def cache_churn(self) -> Optional[List[CacheChurnStats]]:
        """Per-machine cumulative churn snapshots (``None`` for static
        caches).  Snapshot-and-diff with :meth:`CacheChurnStats.delta` to
        attribute churn to an epoch."""
        if not self.has_dynamic_caches:
            return None
        return [s.cache.churn.copy() if s.has_dynamic_cache else CacheChurnStats()
                for s in self.stores]

    # ------------------------------------------------------------------
    def total_feature_memory_bytes(self) -> int:
        """Sum of local + cached feature bytes over all machines (the
        Figure 5 right-plot quantity; full replication would be K·N·D·item)."""
        return int(sum(s.feature_memory_bytes() for s in self.stores))

    def replication_factor(self) -> float:
        """Realized α: cached rows per machine relative to N/K (§3.2)."""
        n = self.reordered.dataset.num_vertices
        cached = sum(s.num_cached for s in self.stores)
        return cached / max(n, 1)

    def memory_multiple(self) -> float:
        """Total feature memory as a multiple of the unreplicated data set
        (the ``1 + α`` axis of Figure 5)."""
        base = self.reordered.dataset.features.nbytes
        return self.total_feature_memory_bytes() / max(base, 1)
